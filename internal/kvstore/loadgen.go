package kvstore

import (
	"fmt"
	"io"
	"sync"
	"time"

	"softmem/internal/metrics"
	"softmem/internal/trace"
)

// LoadGenConfig parameterizes a YCSB-style workload against a kvstore
// server. A GET miss re-SETs its key, modelling a cache in front of a
// database. Numeric fields treat a negative value as "use the default";
// zero is an honored, explicit setting where it is meaningful
// (ReadFraction: 0 is a write-only workload, Skew: 0 asks for the
// default because the Zipf parameter must be > 1).
type LoadGenConfig struct {
	// Addr is the server's RESP address.
	Addr string
	// Conns is the number of concurrent client connections. Default 4.
	Conns int
	// Requests is the total operation count. Default 10000.
	Requests int
	// ReadFraction is the GET share in [0, 1]; the rest are SETs.
	// Negative means the default, 0.9. An explicit 0 is honored as a
	// write-only workload.
	ReadFraction float64
	// Keys is the keyspace size; keys are Zipf-distributed. Default
	// 10000.
	Keys uint64
	// Skew is the Zipf parameter and must be > 1; values in (0, 1] are
	// rejected rather than silently rewritten. Zero or negative means
	// the default, 1.2.
	Skew float64
	// ValueBytes is the SET payload size. Default 256.
	ValueBytes int
	// Pipeline is the number of commands batched per round-trip on each
	// connection. Values <= 1 mean one command per round-trip; the
	// refill SET of a GET miss is then a round-trip of its own.
	Pipeline int
	// HotKeys and HotFraction model a hot-key storm on top of the Zipf
	// base workload: with probability HotFraction each operation targets
	// a uniformly chosen key in [0, HotKeys) instead of its Zipf sample.
	// HotKeys 0 (the default) disables the storm. A small HotKeys with a
	// large HotFraction concentrates traffic on a handful of keys — the
	// antagonist pattern the QoS experiments use to hammer one tenant
	// while another serves its normal distribution.
	HotKeys     uint64
	HotFraction float64
	// Seed drives the key streams.
	Seed int64
}

// DefaultReadFraction and DefaultSkew are what negative (and, for Skew,
// zero) config values resolve to.
const (
	DefaultReadFraction = 0.9
	DefaultSkew         = 1.2
)

func (c *LoadGenConfig) setDefaults() {
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.Requests <= 0 {
		c.Requests = 10000
	}
	if c.ReadFraction < 0 {
		c.ReadFraction = DefaultReadFraction
	}
	if c.Keys == 0 {
		c.Keys = 10000
	}
	if c.Skew <= 0 {
		c.Skew = DefaultSkew
	}
	if c.ValueBytes <= 0 {
		c.ValueBytes = 256
	}
	if c.Pipeline < 1 {
		c.Pipeline = 1
	}
}

// validate rejects settings the generator cannot honor. It runs after
// setDefaults, so only explicit out-of-range values reach it.
func (c *LoadGenConfig) validate() error {
	if c.ReadFraction > 1 {
		return fmt.Errorf("kvstore: ReadFraction %v out of range [0, 1]", c.ReadFraction)
	}
	if c.Skew <= 1 {
		return fmt.Errorf("kvstore: Zipf skew %v must be > 1", c.Skew)
	}
	if c.HotFraction < 0 || c.HotFraction > 1 {
		return fmt.Errorf("kvstore: HotFraction %v out of range [0, 1]", c.HotFraction)
	}
	if c.HotFraction > 0 && c.HotKeys == 0 {
		return fmt.Errorf("kvstore: HotFraction %v needs HotKeys > 0", c.HotFraction)
	}
	return nil
}

// LoadGenResult summarizes a workload run.
type LoadGenResult struct {
	Requests   int
	Elapsed    time.Duration
	Throughput float64 // ops/sec
	Gets       int64
	Sets       int64
	Hits       int64
	Misses     int64
	// Overloaded counts commands the server shed with -BUSY (full shard
	// owner ring). Shed commands did not execute; the generator counts
	// them and moves on rather than aborting the run.
	Overloaded int64
	// GetLatency and SetLatency are in nanoseconds. Under pipelining
	// each operation observes its batch's round-trip time.
	GetLatency *metrics.Histogram
	SetLatency *metrics.Histogram
}

// HitRate returns the GET hit fraction.
func (r LoadGenResult) HitRate() float64 {
	if r.Gets == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Gets)
}

// Fprint renders the result.
func (r LoadGenResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "requests=%d elapsed=%v throughput=%.0f ops/s hitrate=%.1f%%\n",
		r.Requests, r.Elapsed.Round(time.Millisecond), r.Throughput, 100*r.HitRate())
	if r.Overloaded > 0 {
		fmt.Fprintf(w, "  overloaded (BUSY, shed): %d\n", r.Overloaded)
	}
	fmt.Fprintf(w, "  GET p50=%s p95=%s p99=%s max=%s\n",
		nsDur(r.GetLatency.Quantile(0.5)), nsDur(r.GetLatency.Quantile(0.95)),
		nsDur(r.GetLatency.Quantile(0.99)), nsDur(r.GetLatency.Max()))
	fmt.Fprintf(w, "  SET p50=%s p95=%s p99=%s max=%s\n",
		nsDur(r.SetLatency.Quantile(0.5)), nsDur(r.SetLatency.Quantile(0.95)),
		nsDur(r.SetLatency.Quantile(0.99)), nsDur(r.SetLatency.Max()))
}

func nsDur(ns float64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }

// connTallies carries one connection's op counts back to the
// aggregator.
type connTallies struct {
	gets, sets, hits, misses, overloaded int64
}

// genOp is one pregenerated operation.
type genOp struct {
	key   string
	isGet bool
}

// maxKeyTable bounds the precomputed key-name table; larger keyspaces
// fall back to formatting keys during generation.
const maxKeyTable = 1 << 20

// keyNames precomputes the formatted key strings for small keyspaces so
// every occurrence of a key shares one string instead of reformatting
// it per operation.
func keyNames(keys uint64) []string {
	if keys == 0 || keys > maxKeyTable {
		return nil
	}
	names := make([]string, keys)
	for i := range names {
		names[i] = trace.Key(uint64(i))
	}
	return names
}

// genOps synthesizes one connection's operation sequence. Workload
// synthesis (Zipf sampling and key formatting) runs before RunLoad
// starts its clock, so the measurement covers client/server protocol
// work rather than generator arithmetic — on small machines the Zipf
// exp/log and fmt calls otherwise dominate the timed region.
func genOps(cfg LoadGenConfig, id, n int, names []string) []genOp {
	keys := trace.NewZipfKeys(cfg.Seed+int64(id), cfg.Keys, cfg.Skew)
	opPick := trace.NewUniformKeys(cfg.Seed+1000+int64(id), 1000)
	var hotPick, hotKeys *trace.UniformKeys
	if cfg.HotKeys > 0 && cfg.HotFraction > 0 {
		hotPick = trace.NewUniformKeys(cfg.Seed+2000+int64(id), 1000)
		hotKeys = trace.NewUniformKeys(cfg.Seed+3000+int64(id), cfg.HotKeys)
	}
	ops := make([]genOp, n)
	for i := range ops {
		k := keys.Next()
		if hotPick != nil && float64(hotPick.Next()) < cfg.HotFraction*1000 {
			k = hotKeys.Next()
		}
		var name string
		if names != nil && k < uint64(len(names)) {
			name = names[k]
		} else {
			name = trace.Key(k)
		}
		ops[i] = genOp{key: name, isGet: float64(opPick.Next()) < cfg.ReadFraction*1000}
	}
	return ops
}

// RunLoad drives the configured workload and reports latency and hit
// statistics. It is the measurement harness behind cmd/kvbench.
func RunLoad(cfg LoadGenConfig) (LoadGenResult, error) {
	cfg.setDefaults()
	res := LoadGenResult{
		Requests:   cfg.Requests,
		GetLatency: metrics.NewHistogram(1.1),
		SetLatency: metrics.NewHistogram(1.1),
	}
	if err := cfg.validate(); err != nil {
		return res, err
	}
	var total connTallies
	var mu sync.Mutex

	perConn := cfg.Requests / cfg.Conns
	names := keyNames(cfg.Keys)
	streams := make([][]genOp, cfg.Conns)
	for c := range streams {
		streams[c] = genOps(cfg, c, perConn, names)
	}
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Conns)
	start := time.Now()
	for c := 0; c < cfg.Conns; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cli, err := DialClient("tcp", cfg.Addr)
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			var t connTallies
			if err := runConn(cli, cfg, streams[id], &res, &t); err != nil {
				errs <- err
				return
			}
			mu.Lock()
			total.gets += t.gets
			total.sets += t.sets
			total.hits += t.hits
			total.misses += t.misses
			total.overloaded += t.overloaded
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return res, err
	}
	res.Elapsed = time.Since(start)
	res.Gets, res.Sets, res.Hits, res.Misses = total.gets, total.sets, total.hits, total.misses
	res.Overloaded = total.overloaded
	if res.Elapsed > 0 {
		res.Throughput = float64(total.gets+total.sets) / res.Elapsed.Seconds()
	}
	return res, nil
}

// runConn sends cfg.Pipeline commands per round-trip. GET-miss refills
// are queued into the next batch (they are extra operations on top of
// perConn). Each op records the whole batch's round-trip time, which is
// the latency a pipelining client actually experiences. Refills go
// first and count toward the depth, so at depth 1 every round-trip
// carries one command and a refill SET is a round-trip of its own. A shed
// command counts only as Overloaded: a shed GET is neither a hit nor a
// miss, and is not in Gets.
func runConn(cli *Client, cfg LoadGenConfig, ops []genOp, res *LoadGenResult, t *connTallies) error {
	value := string(make([]byte, cfg.ValueBytes))
	pl := cli.Pipeline()

	batch := make([]genOp, 0, cfg.Pipeline)
	var refills []string
	next := 0
	for next < len(ops) || len(refills) > 0 {
		batch = batch[:0]
		for _, k := range refills {
			batch = append(batch, genOp{isGet: false, key: k})
			pl.Command("SET", k, value)
		}
		refills = refills[:0]
		for len(batch) < cfg.Pipeline && next < len(ops) {
			o := ops[next]
			next++
			batch = append(batch, o)
			if o.isGet {
				pl.Command("GET", o.key)
			} else {
				pl.Command("SET", o.key, value)
			}
		}
		var opErr error
		t0 := time.Now()
		err := pl.Exec(func(i int, _ []byte, ok bool, err error) {
			if err != nil {
				// A -BUSY shed is load-shedding working as designed:
				// count it and move on. Anything else fails the run.
				if IsOverloaded(err) {
					t.overloaded++
					return
				}
				if opErr == nil {
					opErr = err
				}
				return
			}
			if batch[i].isGet {
				t.gets++
				if ok {
					t.hits++
				} else {
					t.misses++
					refills = append(refills, batch[i].key)
				}
			} else {
				t.sets++
			}
		})
		rtt := time.Since(t0)
		if err != nil {
			return err
		}
		if opErr != nil {
			return opErr
		}
		var batchGets, batchSets int64
		for _, o := range batch {
			if o.isGet {
				batchGets++
			} else {
				batchSets++
			}
		}
		res.GetLatency.ObserveDurationN(rtt, batchGets)
		res.SetLatency.ObserveDurationN(rtt, batchSets)
	}
	return nil
}
