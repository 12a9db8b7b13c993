package ipc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"softmem/internal/core"
	"softmem/internal/metrics"
)

// ErrReconnecting reports a budget call attempted while the connection
// to the daemon is down; the SMA surfaces it as soft memory exhaustion
// and the application degrades gracefully until the link returns.
var ErrReconnecting = errors.New("ipc: reconnecting to daemon")

// Process is the local process state a Resilient client needs: demand
// handling plus enough introspection to resync budgets after a daemon
// restart. *core.SMA satisfies it.
type Process interface {
	HandleDemand(pages int) int
	Usage() core.Usage
	BudgetPages() int
	ResetBudget(n int)
}

// Resilient is a daemon client that survives daemon restarts: when the
// connection drops it redials with backoff, re-registers, and resyncs
// the process's budget with the (possibly fresh) daemon. Budget calls
// made while the link is down fail fast with ErrReconnecting — the SMA
// treats that as exhaustion, so the process degrades instead of
// blocking.
//
// It implements core.DaemonClient.
type Resilient struct {
	network, addr, name string
	opt                 dialOptions
	proc                Process
	// jitter spreads reconnect backoff; only the (single, sequential)
	// watch goroutine touches it after construction.
	jitter *Jitter

	mu     sync.Mutex
	cli    *Client
	closed bool
	// permErr, once set, records a permanent dial failure (unresolvable
	// host, malformed address): the watcher has given up and every call
	// surfaces this error instead of ErrReconnecting.
	permErr error
	// met is attached to every client this Resilient dials, so RPC
	// round-trip histograms survive reconnects.
	met *ipcMetrics

	reconnects int
}

// DialResilient connects to the daemon at network/addr, registering under
// name, and starts the reconnect watcher. The initial dial must succeed;
// later failures are retried forever (until Close). Options tune the
// per-attempt dial timeout, reconnect backoff, and logging.
func DialResilient(network, addr, name string, proc Process, opts ...DialOption) (*Resilient, error) {
	if proc == nil {
		return nil, errors.New("ipc: DialResilient needs a Process")
	}
	r := &Resilient{network: network, addr: addr, name: name, opt: resolveOptions(opts), proc: proc}
	r.jitter = NewJitter(r.opt.jitterSeed)
	cli, err := r.dial()
	if err != nil {
		return nil, err
	}
	r.cli = cli
	go r.watch(cli)
	return r, nil
}

// dial performs one connection attempt with the client's options.
func (r *Resilient) dial() (*Client, error) {
	// The tenant spec is re-sent on every reconnect registration: a
	// restarted daemon has lost its QoS table, so each redial restores
	// this process's class and SLO along with its name.
	cli, err := Dial(r.network, r.addr, r.name, r.proc,
		WithDialTimeout(r.opt.timeout),
		WithTenant(r.opt.tenant, r.opt.class, r.opt.sloMs))
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.met != nil {
		cli.met.Store(r.met)
	}
	r.mu.Unlock()
	return cli, nil
}

// RegisterMetrics registers RPC round-trip instruments into reg and
// attaches them to the current connection and every reconnect.
func (r *Resilient) RegisterMetrics(reg *metrics.Registry) {
	m := newIPCMetrics(reg)
	r.mu.Lock()
	r.met = m
	cli := r.cli
	r.mu.Unlock()
	if cli != nil {
		cli.met.Store(m)
	}
}

// watch waits for the connection to die and then reconnects.
func (r *Resilient) watch(cli *Client) {
	<-cli.Done()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.cli = nil // fail calls fast while down
	r.mu.Unlock()
	r.opt.logf("ipc: lost daemon connection; reconnecting")

	delay := r.opt.backoff
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()

		next, err := r.dial()
		if err != nil && permanentDialError(err) {
			// Retrying cannot help (host does not resolve, address is
			// malformed): park the error where calls will see it instead
			// of reporting ErrReconnecting forever.
			r.mu.Lock()
			r.permErr = err
			r.mu.Unlock()
			r.opt.logf("ipc: giving up on daemon at %s: %v", r.addr, err)
			return
		}
		if err == nil {
			r.resync(next)
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				next.Close()
				return
			}
			r.cli = next
			r.reconnects++
			r.mu.Unlock()
			r.opt.logf("ipc: reconnected to daemon as proc %d", next.ProcID())
			go r.watch(next)
			return
		}
		time.Sleep(r.jitter.Sleep(delay))
		if delay *= 2; delay > r.opt.maxBackoff {
			delay = r.opt.maxBackoff
		}
	}
}

// permanentDialError reports whether a dial failure cannot be cured by
// retrying: the name will never resolve or the address/network is
// malformed. Transient conditions (refused, timeout, temporary DNS
// failure) return false and keep the backoff loop going.
func permanentDialError(err error) bool {
	var dnsErr *net.DNSError
	if errors.As(err, &dnsErr) {
		return dnsErr.IsNotFound
	}
	var addrErr *net.AddrError
	if errors.As(err, &addrErr) {
		return true
	}
	var netErr net.UnknownNetworkError
	return errors.As(err, &netErr)
}

// resync re-reserves the process's held soft memory with the daemon. A
// restarted daemon has an empty ledger: without this step it would
// over-grant the machine to others.
func (r *Resilient) resync(cli *Client) {
	u := r.proc.Usage()
	want := r.proc.BudgetPages()
	if want < u.UsedPages {
		want = u.UsedPages
	}
	if want == 0 {
		_ = cli.ReportUsage(u)
		return
	}
	granted, err := cli.RequestBudget(want, u)
	if err != nil {
		r.opt.logf("ipc: budget resync failed: %v", err)
		r.proc.ResetBudget(0)
		return
	}
	r.proc.ResetBudget(granted)
	if granted < want {
		r.opt.logf("ipc: daemon re-granted %d of %d pages after restart", granted, want)
	}
}

// current returns the live client or ErrReconnecting.
func (r *Resilient) current() (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	if r.cli == nil {
		if r.permErr != nil {
			return nil, r.permErr
		}
		return nil, ErrReconnecting
	}
	return r.cli, nil
}

// RequestBudget implements core.DaemonClient.
func (r *Resilient) RequestBudget(pages int, u core.Usage) (int, error) {
	cli, err := r.current()
	if err != nil {
		return 0, err
	}
	return cli.RequestBudget(pages, u)
}

// ReleaseBudget implements core.DaemonClient.
func (r *Resilient) ReleaseBudget(pages int, u core.Usage) error {
	cli, err := r.current()
	if err != nil {
		return err
	}
	return cli.ReleaseBudget(pages, u)
}

// Reconnects reports how many times the link has been re-established.
func (r *Resilient) Reconnects() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reconnects
}

// ReconnectCount is the canonical name for Reconnects, for tests and
// metrics surfaces that expect the *Count convention.
func (r *Resilient) ReconnectCount() int { return r.Reconnects() }

// Connected reports whether a live daemon connection exists right now.
func (r *Resilient) Connected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cli != nil
}

// Close tears the client down permanently.
func (r *Resilient) Close() error {
	r.mu.Lock()
	r.closed = true
	cli := r.cli
	r.cli = nil
	r.mu.Unlock()
	if cli != nil {
		return cli.Close()
	}
	return nil
}

var _ core.DaemonClient = (*Resilient)(nil)

// String describes the client for diagnostics.
func (r *Resilient) String() string {
	return fmt.Sprintf("resilient(%s %s, %d reconnects)", r.network, r.addr, r.Reconnects())
}
