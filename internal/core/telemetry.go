package core

import (
	"sort"

	"softmem/internal/metrics"
)

// DemandSpan is one hop inside a served reclamation demand: a tier the
// SMA drew pages from ("freepool"), one SDS's reclaim callback ("sds"),
// or a side effect noted by application code during the demand (e.g.
// "spill_demote" from the kvstore's reclaim callback). Spans travel back
// to the daemon in the demand response, letting `smdctl trace` show a
// reclaim cycle end to end across process boundaries.
type DemandSpan struct {
	// Kind is the hop type: "freepool", "sds", or an application-chosen
	// note kind such as "spill_demote".
	Kind string `json:"kind"`
	// Name identifies the SDS context for "sds" spans.
	Name string `json:"name,omitempty"`
	// Pages released to the machine by this hop.
	Pages int `json:"pages,omitempty"`
	// Allocs is the number of SDS allocations freed by this hop.
	Allocs int64 `json:"allocs,omitempty"`
	// Count and Bytes accumulate application notes (e.g. records demoted
	// to the spill tier and their payload bytes).
	Count int   `json:"count,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
	// DurNs is the hop's duration in nanoseconds.
	DurNs int64 `json:"dur_ns,omitempty"`
	// VictimAges says, for an "sds" span whose SDS orders its elements by
	// a stamp, how old what it revoked was (see Tx.NoteVictims).
	VictimAges
}

// VictimAges are positions in an SDS's own eviction order (lower is
// older, 0 is "none"): the oldest and newest element a reclaim revoked
// and the oldest it left behind. Victims are whole pages, so the newest
// victim may be younger than the oldest survivor by as much as the ages
// that share a page are apart — which is what the numbers are for.
type VictimAges struct {
	OldestVictim   uint64 `json:"oldest_victim,omitempty"`
	NewestVictim   uint64 `json:"newest_victim,omitempty"`
	OldestSurvivor uint64 `json:"oldest_survivor,omitempty"`
}

// merge folds a later Reclaim call's report into v.
func (v *VictimAges) merge(w VictimAges) {
	if w == (VictimAges{}) {
		return
	}
	if w.OldestVictim != 0 && (v.OldestVictim == 0 || w.OldestVictim < v.OldestVictim) {
		v.OldestVictim = w.OldestVictim
	}
	v.NewestVictim = max(v.NewestVictim, w.NewestVictim)
	v.OldestSurvivor = w.OldestSurvivor
}

// demandTrace accumulates the spans of the demand in flight. Demands
// serialize on demandMu, so there is at most one; noteMu guards the
// accumulator because NoteDemand may be called from reclaim callbacks.
type demandTrace struct {
	spans []DemandSpan
	notes map[string]*DemandSpan
}

// finish merges accumulated notes (sorted by kind for determinism) after
// the tier spans and returns the complete span list.
func (t *demandTrace) finish() []DemandSpan {
	if len(t.notes) == 0 {
		return t.spans
	}
	kinds := make([]string, 0, len(t.notes))
	for k := range t.notes {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		t.spans = append(t.spans, *t.notes[k])
	}
	return t.spans
}

// NoteDemand records a side effect of the reclamation demand currently
// being served — the kvstore calls it from its reclaim callback when a
// reclaimed value demotes to the spill tier, so the demotion shows up as
// a span in the daemon's reclaim trace. Notes with the same kind merge.
// Outside a demand this is a cheap no-op, so callers need not know
// whether their free was demand-driven.
func (s *SMA) NoteDemand(kind string, count int, bytes int64) {
	s.noteMu.Lock()
	if t := s.activeTrace; t != nil {
		if t.notes == nil {
			t.notes = make(map[string]*DemandSpan)
		}
		sp := t.notes[kind]
		if sp == nil {
			sp = &DemandSpan{Kind: kind}
			t.notes[kind] = sp
		}
		sp.Count += count
		sp.Bytes += bytes
	}
	s.noteMu.Unlock()
}

// smaMetrics holds the SMA's hot-path latency histograms. A nil pointer
// (no RegisterMetrics call) keeps the uninstrumented paths zero-cost.
type smaMetrics struct {
	alloc      *metrics.Histogram
	free       *metrics.Histogram
	budgetRTT  *metrics.Histogram
	demand     *metrics.Histogram
	sdsReclaim *metrics.Histogram
}

// RegisterMetrics registers the SMA's instruments into r and switches on
// hot-path latency observation. Call once, at process startup.
func (s *SMA) RegisterMetrics(r *metrics.Registry) {
	m := &smaMetrics{
		alloc:      r.Histogram("softmem_sma_alloc_ns", "soft allocation latency in ns, including budget round-trips and retries"),
		free:       r.Histogram("softmem_sma_free_ns", "soft free latency in ns"),
		budgetRTT:  r.Histogram("softmem_sma_budget_rtt_ns", "daemon budget request round-trip latency in ns"),
		demand:     r.Histogram("softmem_sma_demand_ns", "reclamation demand handling latency in ns, all tiers"),
		sdsReclaim: r.Histogram("softmem_sma_sds_reclaim_ns", "per-SDS reclaim latency within a demand in ns"),
	}
	r.CounterFunc("softmem_sma_budget_requests_total", "daemon budget round-trips", s.c.budgetRequests.Load)
	r.CounterFunc("softmem_sma_budget_denied_total", "denied budget requests", s.c.budgetDenied.Load)
	r.CounterFunc("softmem_sma_demands_total", "reclamation demands served", s.c.demandsServed.Load)
	r.CounterFunc("softmem_sma_pages_reclaimed_total", "pages released to the machine under demands", s.c.pagesReclaimed.Load)
	r.CounterFunc("softmem_sma_allocs_reclaimed_total", "allocations freed by SDS reclaim", s.c.allocsReclaimed.Load)
	r.GaugeFunc("softmem_sma_budget_pages", "soft budget currently granted by the daemon", func() float64 {
		return float64(s.budget.Load())
	})
	r.GaugeFunc("softmem_sma_used_pages", "soft pages held (heaps plus free pool)", func() float64 {
		return float64(s.used.Load())
	})
	r.GaugeFunc("softmem_sma_freepool_pages", "pages in the process-local free pool", func() float64 {
		s.poolMu.Lock()
		n := len(s.freePool)
		s.poolMu.Unlock()
		return float64(n)
	})
	r.GaugeFunc("softmem_sma_contexts", "registered SDS contexts", func() float64 {
		s.regMu.Lock()
		n := len(s.contexts)
		s.regMu.Unlock()
		return float64(n)
	})
	r.GaugeFunc("softmem_sma_epoch_global", "global epoch of the lock-free read domain", func() float64 {
		return float64(s.epochs.Current())
	})
	r.GaugeFunc("softmem_sma_epoch_lag", "epochs the slowest registered lock-free reader trails the global epoch (0 when idle; a stuck reader shows as lag high and limbo above the batch)", func() float64 {
		return float64(s.epochs.Lag())
	})
	r.GaugeFunc("softmem_sma_epoch_limbo_allocs", "retirements awaiting their epoch grace period, summed across contexts (at rest anywhere below one batch of 32 per context)", func() float64 {
		n := 0
		for _, c := range s.snapshotContexts() {
			c.lock()
			if !c.closed {
				n += c.heap.Stats().LimboAllocs
			}
			c.mu.Unlock()
		}
		return float64(n)
	})
	r.CounterFunc("softmem_sma_epoch_deferred_pages_total", "whole pages whose recycling was deferred through epoch limbo", s.epochs.DeferredPages)
	s.met.Store(m)
}
