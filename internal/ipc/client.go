package ipc

import (
	"encoding/json"
	"fmt"
	"net"

	"softmem/internal/core"
	"softmem/internal/faultinject"
)

// Client connects a process's SMA to a remote Soft Memory Daemon. It
// implements core.DaemonClient for outbound budget traffic and serves the
// daemon's inbound reclamation demands against the attached SMA.
//
// Wiring sequence (same circularity as in-process registration):
//
//	sma := core.New(core.Config{Machine: pool})
//	cli, err := ipc.Dial("tcp", addr, "myproc", sma)
//	sma.AttachDaemon(cli)
type Client struct {
	conn   *Conn
	procID int
}

// DemandTarget receives reclamation demands; *core.SMA satisfies it.
type DemandTarget interface {
	HandleDemand(pages int) int
}

// TracedDemandTarget is the optional extension of DemandTarget that
// accepts the daemon's reclaim-cycle ID and returns per-hop spans plus
// a post-demand usage self-report; *core.SMA satisfies it. Clients use
// it when the daemon sends a traced demand, falling back to
// HandleDemand otherwise.
type TracedDemandTarget interface {
	HandleDemandTraced(pages int, reclaimID uint64) (released int, spans []core.DemandSpan, usage *core.Usage)
}

// BudgetShrinkTarget is the optional extension of DemandTarget for
// targets that cache their granted budget; *core.SMA satisfies it. The
// daemon notifies it when a slack harvest revokes budget, keeping the
// cached ledger coherent. Targets without it silently miss the
// notification (pre-fix behavior).
type BudgetShrinkTarget interface {
	ShrinkBudget(pages int)
}

// Dial connects to the daemon at network/addr, registers under name, and
// routes reclamation demands to target. The returned Client is ready to
// pass to SMA.AttachDaemon. Options tune the connection (e.g.
// WithDialTimeout); reconnect options only apply to DialResilient.
func Dial(network, addr, name string, target DemandTarget, opts ...DialOption) (*Client, error) {
	o := resolveOptions(opts)
	if err := faultinject.FireErr("ipc.dial"); err != nil {
		return nil, fmt.Errorf("ipc: dial %s %s: %w", network, addr, err)
	}
	var nc net.Conn
	var err error
	if o.timeout > 0 {
		nc, err = net.DialTimeout(network, addr, o.timeout)
	} else {
		nc, err = net.Dial(network, addr)
	}
	if err != nil {
		return nil, fmt.Errorf("ipc: dial %s %s: %w", network, addr, err)
	}
	c := &Client{}
	c.conn = NewConn(nc, func(kind string, body json.RawMessage) (any, error) {
		switch kind {
		case KindDemand:
			var req DemandReq
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, err
			}
			switch faultinject.Fire("ipc.demand") {
			case faultinject.Error:
				return nil, faultinject.ErrInjected
			case faultinject.Drop:
				// Mid-demand disconnect: the daemon issued the demand and
				// now loses the process before any response arrives.
				_ = c.conn.Close()
				return nil, faultinject.ErrInjected
			}
			if target == nil {
				return DemandResp{Released: 0}, nil
			}
			if req.Shrink > 0 {
				// Budget-shrink notification: decrement the cached
				// ledger; nothing is released.
				if bs, ok := target.(BudgetShrinkTarget); ok {
					bs.ShrinkBudget(req.Shrink)
				}
				return DemandResp{Released: 0}, nil
			}
			if tt, ok := target.(TracedDemandTarget); ok {
				released, spans, u := tt.HandleDemandTraced(req.Pages, req.ReclaimID)
				return DemandResp{Released: released, Spans: spans, Usage: u}, nil
			}
			return DemandResp{Released: target.HandleDemand(req.Pages)}, nil
		default:
			return nil, fmt.Errorf("ipc: unknown request %q", kind)
		}
	})
	go func() { _ = c.conn.Serve() }()

	var resp RegisterResp
	reg := RegisterReq{Name: name, Tenant: o.tenant, Class: o.class, SLOMs: o.sloMs}
	if err := c.conn.Call(KindRegister, reg, &resp); err != nil {
		_ = c.conn.Close()
		return nil, fmt.Errorf("ipc: register: %w", err)
	}
	c.procID = resp.ProcID
	return c, nil
}

// ProcID returns the daemon-assigned process identifier.
func (c *Client) ProcID() int { return c.procID }

// RequestBudget implements core.DaemonClient.
func (c *Client) RequestBudget(pages int, u core.Usage) (int, error) {
	var resp BudgetResp
	if err := c.conn.Call(KindRequestBudget, BudgetReq{Pages: pages, Usage: u}, &resp); err != nil {
		return 0, err
	}
	return resp.Granted, nil
}

// ReleaseBudget implements core.DaemonClient.
func (c *Client) ReleaseBudget(pages int, u core.Usage) error {
	return c.conn.Call(KindReleaseBudget, BudgetReq{Pages: pages, Usage: u}, nil)
}

// ReportUsage refreshes the daemon's view outside budget traffic.
func (c *Client) ReportUsage(u core.Usage) error {
	return c.conn.Call(KindReportUsage, UsageReq{Usage: u}, nil)
}

// Close tears down the connection; the daemon unregisters the process.
func (c *Client) Close() error { return c.conn.Close() }

// Done is closed when the connection has terminated.
func (c *Client) Done() <-chan struct{} { return c.conn.Done() }

var _ core.DaemonClient = (*Client)(nil)
