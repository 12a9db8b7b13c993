package kvstore

import (
	"sync"
	"sync/atomic"
	"time"

	"softmem/internal/metrics"
)

// RegisterMetrics registers the store's operation counters and occupancy
// gauges into r, bridging the existing atomic counters so /metrics and
// Stats() always agree.
func (s *Store) RegisterMetrics(r *metrics.Registry) {
	counter := func(name, help string, v *atomic.Int64) {
		r.CounterFunc(name, help, v.Load)
	}
	// The operation counters live on the shards; each series is their sum.
	perShard := func(name, help string, v func(*shard) int64) {
		r.CounterFunc(name, help, func() int64 {
			n := int64(0)
			for _, sh := range s.shards {
				n += v(sh)
			}
			return n
		})
	}
	perShard("softmem_kv_sets_total", "SET-family writes", func(sh *shard) int64 { return sh.sets.Load() })
	perShard("softmem_kv_gets_total", "GET-family reads", func(sh *shard) int64 { return sh.hits.Load() + sh.misses.Load() })
	perShard("softmem_kv_hits_total", "reads that found the key", func(sh *shard) int64 { return sh.hits.Load() })
	perShard("softmem_kv_misses_total", "reads that missed", func(sh *shard) int64 { return sh.misses.Load() })
	perShard("softmem_kv_dels_total", "deletions", func(sh *shard) int64 { return sh.dels.Load() })
	counter("softmem_kv_reclaimed_total", "entries revoked under memory pressure", &s.reclaimed)
	counter("softmem_kv_expired_total", "entries collected by TTL expiry", &s.expired)
	counter("softmem_kv_promotions_total", "reads served by faulting a value in from the spill tier", &s.promotions)
	r.GaugeFunc("softmem_kv_entries", "live string entries across all shards",
		func() float64 { return float64(s.Len()) })
	r.GaugeFunc("softmem_kv_soft_live_bytes", "live soft-heap bytes across the store's SDS contexts",
		func() float64 { return float64(s.HeapStats().LiveBytes) })
	r.GaugeFunc("softmem_kv_soft_slot_bytes", "soft-heap bytes the store's live values occupy, each rounded up to its size class or span",
		func() float64 { return float64(s.HeapStats().SlotBytes) })
	r.GaugeFunc("softmem_kv_soft_pages", "soft pages held across the store's SDS contexts",
		func() float64 { return float64(s.HeapStats().PagesHeld) })

	// Lock-free read path: hits/misses served with zero locks, and the
	// two ways an optimistic attempt falls back to the locked path.
	r.CounterFunc("softmem_kv_lockfree_hits_total",
		"reads served by the epoch-protected optimistic path with zero locks",
		func() int64 { h, _, _, _ := s.lockFreeTotals(); return h })
	r.CounterFunc("softmem_kv_lockfree_misses_total",
		"definite misses served by the optimistic path with zero locks",
		func() int64 { _, m, _, _ := s.lockFreeTotals(); return m })
	r.CounterFunc("softmem_kv_lockfree_fallbacks_total",
		"optimistic reads that fell back to the locked path (reader-slot exhaustion or lock-free unavailable)",
		func() int64 { _, _, f, _ := s.lockFreeTotals(); return f })
	r.CounterFunc("softmem_kv_condemned_retries_total",
		"optimistic reads that found their entry condemned mid-flight (value revoked or replaced) and retried via the locked path",
		func() int64 { _, _, _, c := s.lockFreeTotals(); return c })

	// Shard-owner engine instrumentation: queue depth and owner
	// utilization, summed across shards from the per-shard atomics.
	counter("softmem_kv_overloaded_total",
		"commands shed with ErrOverloaded because a shard owner's ring was full", &s.overloaded)
	r.CounterFunc("softmem_kv_owner_commands_total",
		"commands executed under a shard's owned heap lock (owners, caller-runs groups and inline calls)",
		func() int64 { return s.EngineStats().Commands })
	r.CounterFunc("softmem_kv_owner_batches_total",
		"shard batch groups executed (owner goroutine or caller-runs)",
		func() int64 { return s.EngineStats().Batches })
	r.CounterFunc("softmem_kv_owner_busy_ns_total",
		"nanoseconds shard owners spent executing (vs blocked on their rings)",
		func() int64 { return s.EngineStats().BusyNs })
	r.CounterFunc("softmem_kv_owner_lock_acquisitions_total",
		"times a command executor (re)took a shard heap lock; commands-per-acquisition is the lock-amortization factor",
		func() int64 { return s.EngineStats().LockAcquisitions })
	r.GaugeFunc("softmem_kv_ring_depth",
		"shard batches queued in owner command rings, summed across shards",
		func() float64 { return float64(s.EngineStats().Queued) })

	// Enabling the registry also arms latency attribution: per-phase
	// histograms and the slow-request log. Until this store, the engine's
	// span paths are a single nil pointer load.
	s.attrib.Store(newAttribState(r, s.slowThresholdNs, s.slowSize))
}

// cmdMetrics lazily materializes one latency histogram per RESP command
// under a shared metric name, so label cardinality tracks the command
// set actually exercised.
type cmdMetrics struct {
	reg *metrics.Registry
	m   sync.Map // command -> *metrics.Histogram
}

// observe records one command's latency. The command table bounds the
// cmd label's cardinality: cmd is a table name, or "" for a
// client-supplied name the server does not implement, which collapses to
// "OTHER" instead of minting a time series each.
func (c *cmdMetrics) observe(cmd string, d time.Duration) {
	if cmd == "" {
		cmd = "OTHER"
	}
	if h, ok := c.m.Load(cmd); ok {
		h.(*metrics.Histogram).ObserveDuration(d)
		return
	}
	// Registry instruments are get-or-create, so a racing double-create
	// lands on the same histogram either way.
	h := c.reg.Histogram("softmem_kv_cmd_ns", "RESP command latency in ns by command",
		metrics.Label{Name: "cmd", Value: cmd})
	c.m.Store(cmd, h)
	h.ObserveDuration(d)
}

// RegisterMetrics switches on per-command latency histograms, registered
// into r as they are first exercised, and the server's flush-coalescing
// counter.
func (s *Server) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("softmem_kv_flush_coalesced_total",
		"replies whose flush was deferred because more pipelined input was buffered (write syscalls saved)",
		s.flushCoalesced.Load)
	s.met.Store(&cmdMetrics{reg: r})
}
