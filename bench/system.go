package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"softmem/internal/core"
	"softmem/internal/kvstore"
	"softmem/internal/pages"
	"softmem/internal/smd"
)

// system is what a workload builds and its drivers run against. Only the
// parts a workload uses are set; every layer metric of an absent part reads
// 0, which is the prediction that the layer did no work.
type system struct {
	machine *pages.Pool
	daemon  *smd.Daemon    // nil when the SMA runs standalone
	smas    []*core.SMA    // smas[0] serves the drivers' operations
	store   *kvstore.Store // nil on sma_churn
	taps    *taps          // nil on untraced runs
	evicted atomic.Int64   // WithOnReclaim callback calls
	parent  atomic.Uint64  // driver.op span a budget request from smas[0] belongs to
	stepID  atomic.Uint64  // antagonist.step span in progress
	closers []func()
}

func (s *system) onClose(fn func()) { s.closers = append(s.closers, fn) }

// close tears the system down in reverse order of construction.
func (s *system) close() {
	for _, fn := range slices.Backward(s.closers) {
		fn()
	}
	s.closers = nil
}

// snapshot is every public Stats() value the layer metrics are deltas of.
type snapshot struct {
	at       time.Time
	pool     pages.Stats
	sma      core.Stats
	store    kvstore.Stats
	engine   kvstore.EngineStats
	daemon   smd.Stats
	mem      runtime.MemStats
	budgetNs int64 // time inside daemon budget calls, from the interposers
	live     int64 // heap bytes as callers asked for them, smas[0]
	slot     int64 // heap bytes as size classes rounded them
	deferred int64 // frees that went through the epoch limbo
	evicted  int64 // WithOnReclaim callback calls
}

func (s *system) snapshot() snapshot {
	sn := snapshot{at: time.Now(), pool: s.machine.Stats(), sma: s.smas[0].Stats(), evicted: s.evicted.Load()}
	if s.store != nil {
		sn.store = s.store.Stats()
		sn.engine = s.store.EngineStats()
	}
	if s.daemon != nil {
		sn.daemon = s.daemon.Stats()
	}
	if s.taps != nil {
		for _, b := range s.taps.budgets {
			b.mu.Lock()
			sn.budgetNs += b.busyNs
			b.mu.Unlock()
		}
	}
	for _, c := range s.smas[0].Contexts() {
		sn.live += c.Heap.LiveBytes
		sn.slot += c.Heap.SlotBytes
		sn.deferred += c.Heap.DeferredOps
	}
	runtime.ReadMemStats(&sn.mem)
	return sn
}

// invariants checks the accounting the paper's contract rests on, once the
// drivers have stopped, and returns one message per violation.
func (s *system) invariants() []string {
	var bad []string
	if st := s.machine.Stats(); st.Capacity > 0 && st.InUse > st.Capacity {
		bad = append(bad, fmt.Sprintf("pool InUse %d > Capacity %d", st.InUse, st.Capacity))
	}
	if s.daemon != nil {
		if st := s.daemon.Stats(); st.BudgetPages > st.TotalPages {
			bad = append(bad, fmt.Sprintf("daemon granted %d pages of a %d-page partition", st.BudgetPages, st.TotalPages))
		}
	}
	for i, sma := range s.smas {
		if err := sma.VerifyIntegrity(); err != nil {
			bad = append(bad, fmt.Sprintf("sma %d: %v", i, err))
		}
	}
	return bad
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memSample is what the driver reads about space, about a hundred times a
// run: the soft pages smas[0] holds, the live user bytes in them, and the MiB
// the Go runtime holds from the operating system and has not given back
// (Sys - HeapReleased, the nearest thing to resident size MemStats has).
type memSample struct {
	pages, live int64
	heldMiB     float64
}

func (s *system) memory() memSample {
	m := memSample{pages: int64(s.smas[0].Stats().UsedPages)}
	for _, c := range s.smas[0].Contexts() {
		m.live += c.Heap.LiveBytes
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.heldMiB = float64(mem.Sys-mem.HeapReleased) / (1 << 20)
	return m
}

// workloadLayers turns a before/after pair into the per-layer counters of
// the timed region. ops is the number of driver operations completed.
func (s *system) workloadLayers(m metrics, a, b snapshot, ops int64) {
	kops := float64(ops) / 1e3
	wall := b.at.Sub(a.at).Seconds()

	m.set("pages.acquires_per_kop", ratio(float64(b.pool.Acquires-a.pool.Acquires), kops), "1/kop")
	m.set("alloc.slot_bytes_per_live_byte", ratio(float64(b.slot), float64(b.live)), "ratio")
	m.set("alloc.limbo_deferred_per_kop", ratio(float64(b.deferred-a.deferred), kops), "1/kop")

	reclaimed := float64(b.sma.PagesReclaimed - a.sma.PagesReclaimed)
	m.set("core.budget_requests_per_kop", ratio(float64(b.sma.BudgetRequests-a.sma.BudgetRequests), kops), "1/kop")
	m.set("core.budget_busy_ratio", ratio(float64(b.budgetNs-a.budgetNs)/1e9, wall), "ratio")
	m.set("core.demand_pages_per_call", ratio(reclaimed, float64(b.sma.DemandsServed-a.sma.DemandsServed)), "pages")
	m.set("core.allocs_reclaimed_per_page", ratio(float64(b.sma.AllocsReclaimed-a.sma.AllocsReclaimed), reclaimed), "ratio")
	// UsedPages ≤ BudgetPages is not asserted: after a slack harvest the
	// SMA may by design hold more than its shrunken budget until its next
	// allocation renegotiates. How far over it ends up is reported instead.
	over := 0
	for _, sma := range s.smas {
		if st := sma.Stats(); s.daemon != nil {
			over += max(st.UsedPages-st.BudgetPages, 0)
		}
	}
	m.set("core.used_over_budget_pages", float64(over), "pages")
	var requests, demands [][]int32
	if s.taps != nil {
		for _, t := range s.taps.budgets {
			requests = append(requests, t.requests)
		}
		for _, t := range s.taps.demands {
			demands = append(demands, t.demands)
		}
	}
	m.set("core.budget_request_us_p50", quantileUS(sortedCopy(requests...), 0.5), "us")
	m.set("core.handle_demand_us_p50", quantileUS(sortedCopy(demands...), 0.5), "us")

	m.set("sds.lockfree_hit_ratio", ratio(float64(b.store.LockFreeHits-a.store.LockFreeHits), float64(b.store.Gets-a.store.Gets)), "ratio")
	m.set("sds.condemned_retries", float64(b.store.CondemnedRetries-a.store.CondemnedRetries), "count")

	entries := float64(b.store.Reclaimed - a.store.Reclaimed)
	m.set("kvstore.store.reclaimed_entries", entries, "count")
	m.set("kvstore.store.onreclaim_calls", float64(b.evicted-a.evicted), "count")
	m.set("reclaimed_entries_per_page", ratio(entries, reclaimed), "ratio")

	shards := float64(max(b.store.Shards, 1))
	m.set("kvstore.engine.owner_busy_ratio", ratio(float64(b.engine.BusyNs-a.engine.BusyNs)/1e9, wall*shards), "ratio")
	m.set("kvstore.engine.cmds_per_lock", ratio(float64(b.engine.Commands-a.engine.Commands), float64(b.engine.LockAcquisitions-a.engine.LockAcquisitions)), "ratio")
	m.set("kvstore.engine.overloaded", float64(b.engine.Overloaded-a.engine.Overloaded), "count")

	demanded := float64(b.daemon.DemandedPages - a.daemon.DemandedPages)
	m.set("smd.reclaim_events", float64(b.daemon.ReclaimEvents-a.daemon.ReclaimEvents), "count")
	m.set("smd.demanded_pages", demanded, "pages")
	m.set("smd.reclaimed_pages", float64(b.daemon.PagesReclaimed-a.daemon.PagesReclaimed), "pages")
	m.set("smd.slack_pages", float64(b.daemon.SlackPages-a.daemon.SlackPages), "pages")
	m.set("smd.denied", float64(b.daemon.Denied-a.daemon.Denied), "count")
	m.set("smd.reclaim_yield", ratio(float64(b.daemon.PagesReclaimed-a.daemon.PagesReclaimed), demanded), "ratio")

	m.set("goruntime.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC), "count")
	m.set("goruntime.gc_pause_total_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6, "ms")
	m.set("goruntime.gc_cpu_fraction", b.mem.GCCPUFraction, "ratio")
}
