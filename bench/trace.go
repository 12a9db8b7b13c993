package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"softmem/internal/core"
)

// Span names, one per boundary the benchmark can see from outside.
const (
	spanDriverOp      = "driver.op"
	spanRespRTT       = "kvstore.resp.rtt"
	spanStep          = "antagonist.step"
	spanRequestBudget = "core.request_budget"
	spanHandleDemand  = "core.handle_demand"
)

// span is one traced interval. Times are nanoseconds since the recorder
// was made; parent 0 marks a root.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// driverSpanCap bounds the sampled request spans the driver keeps: enough
// to read where a request's time goes without the file dwarfing the run.
const driverSpanCap = 1 << 14

// recorder collects spans in memory and writes them when the run ends.
// Drivers append to buffers of their own (newBuf); the low-rate budget,
// demand and step spans, which arrive from server and ipc goroutines,
// share one mutex-guarded list.
type recorder struct {
	t0     time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	control []span
	bufs    []*[]span

	// inflight is the core.request_budget span now inside the daemon; a
	// demand served meanwhile was caused by it. The daemon arbitrates one
	// request at a time, so one slot suffices.
	inflight atomic.Uint64
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.nextID.Store(1 << 60) // clear of driver.op ids, which are op indexes
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) newBuf() *[]span {
	b := make([]span, 0, driverSpanCap)
	r.mu.Lock()
	r.bufs = append(r.bufs, &b)
	r.mu.Unlock()
	return &b
}

func (r *recorder) addControl(s span) {
	r.mu.Lock()
	r.control = append(r.control, s)
	r.mu.Unlock()
}

// all returns every span ordered by start time.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := slices.Clone(r.control)
	for _, b := range r.bufs {
		out = append(out, *b...)
	}
	slices.SortFunc(out, func(a, b span) int { return cmp.Compare(a.StartNs, b.StartNs) })
	return out
}

// writeSpans writes a workload's spans to its trace file under dir.
func writeSpans(spans []span, dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}

// budgetTap is the interposer between an SMA and its daemon client. It
// times every budget round trip and records each request as a
// core.request_budget span under whatever parent() names.
type budgetTap struct {
	inner  core.DaemonClient
	rec    *recorder
	parent func() uint64

	mu       sync.Mutex
	requests []int32 // RequestBudget durations, ns
	busyNs   int64   // time inside either call
}

func (b *budgetTap) add(ns int64, request bool) {
	b.mu.Lock()
	if request {
		b.requests = append(b.requests, int32(min(ns, 1<<31-1)))
	}
	b.busyNs += ns
	b.mu.Unlock()
}

func (b *budgetTap) RequestBudget(pages int, u core.Usage) (int, error) {
	id := b.rec.nextID.Add(1)
	b.rec.inflight.Store(id)
	startNs := b.rec.now()
	granted, err := b.inner.RequestBudget(pages, u)
	endNs := b.rec.now()
	b.rec.inflight.Store(0)
	b.add(endNs-startNs, true)
	b.rec.addControl(span{ID: id, Parent: b.parent(), Name: spanRequestBudget, StartNs: startNs, EndNs: endNs})
	return granted, err
}

func (b *budgetTap) ReleaseBudget(pages int, u core.Usage) error {
	startNs := b.rec.now()
	err := b.inner.ReleaseBudget(pages, u)
	b.add(b.rec.now()-startNs, false)
	return err
}

// demandTarget is everything the daemon and the ipc client may call on a
// process: the plain demand, the traced demand and the slack-harvest
// notification. *core.SMA has all three.
type demandTarget interface {
	HandleDemand(pages int) int
	HandleDemandTraced(pages int, reclaimID uint64) (int, []core.DemandSpan, *core.Usage)
	ShrinkBudget(pages int)
}

// demandTap is the interposer between the daemon (or the ipc client) and
// an SMA. It forwards all three calls: dropping HandleDemandTraced would
// switch reclaim tracing off, and dropping ShrinkBudget would leave the
// SMA allocating against budget the daemon already harvested.
type demandTap struct {
	inner demandTarget
	rec   *recorder

	mu      sync.Mutex
	demands []int32 // demand service times, ns
}

func (d *demandTap) observe(startNs int64) {
	endNs := d.rec.now()
	d.mu.Lock()
	d.demands = append(d.demands, int32(min(endNs-startNs, 1<<31-1)))
	d.mu.Unlock()
	d.rec.addControl(span{ID: d.rec.nextID.Add(1), Parent: d.rec.inflight.Load(), Name: spanHandleDemand, StartNs: startNs, EndNs: endNs})
}

func (d *demandTap) HandleDemand(pages int) int {
	defer d.observe(d.rec.now())
	return d.inner.HandleDemand(pages)
}

func (d *demandTap) HandleDemandTraced(pages int, reclaimID uint64) (int, []core.DemandSpan, *core.Usage) {
	defer d.observe(d.rec.now())
	return d.inner.HandleDemandTraced(pages, reclaimID)
}

func (d *demandTap) ShrinkBudget(pages int) { d.inner.ShrinkBudget(pages) }

// taps is the set of interposers of one traced system.
type taps struct {
	rec     *recorder
	budgets []*budgetTap
	demands []*demandTap
}

// recorder returns the span recorder, nil on untraced runs.
func (t *taps) recorder() *recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// target returns what to hand to Daemon.Register or ipc.Dial in place of sma.
// Untraced systems (t == nil) hand over the SMA itself.
func (t *taps) target(sma *core.SMA) demandTarget {
	if t == nil {
		return sma
	}
	d := &demandTap{inner: sma, rec: t.rec}
	t.demands = append(t.demands, d)
	return d
}

// client returns what to hand to SMA.AttachDaemon in place of c; parent
// names the span a budget request made through it belongs to.
func (t *taps) client(c core.DaemonClient, parent func() uint64) core.DaemonClient {
	if t == nil {
		return c
	}
	b := &budgetTap{inner: c, rec: t.rec, parent: parent}
	t.budgets = append(t.budgets, b)
	return b
}

func noParent() uint64 { return 0 }

// chainShares reads the reclaim chain out of the spans: for every
// antagonist.step that contains a core.handle_demand, the share of the
// step spent inside its core.request_budget children and the share spent
// inside the demands those requests caused. It returns the medians.
func chainShares(spans []span) (requestShare, demandShare float64) {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	request := map[uint64]int64{} // step id -> ns inside request_budget
	demand := map[uint64]int64{}  // step id -> ns inside handle_demand
	for _, s := range spans {
		switch s.Name {
		case spanRequestBudget:
			if p, ok := byID[s.Parent]; ok && p.Name == spanStep {
				request[p.ID] += s.EndNs - s.StartNs
			}
		case spanHandleDemand:
			if req, ok := byID[s.Parent]; ok {
				if p, ok := byID[req.Parent]; ok && p.Name == spanStep {
					demand[p.ID] += s.EndNs - s.StartNs
				}
			}
		}
	}
	var rs, ds []float64
	for id, ns := range demand {
		step := byID[id]
		dur := float64(step.EndNs - step.StartNs)
		rs = append(rs, float64(request[id])/dur)
		ds = append(ds, float64(ns)/dur)
	}
	if len(rs) == 0 {
		return 0, 0
	}
	_, requestShare, _ = quartiles(rs)
	_, demandShare, _ = quartiles(ds)
	return requestShare, demandShare
}
