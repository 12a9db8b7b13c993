package kvstore

import (
	"sync"
	"time"

	"softmem/internal/metrics"
)

// RegisterMetrics registers the store's operation counters and occupancy
// gauges into r, bridging the existing atomic counters so /metrics and
// Stats() always agree.
func (s *Store) RegisterMetrics(r *metrics.Registry) {
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
	perShard("softmem_kv_dels_total", "deletions", func(sh *shard) int64 { return sh.dels.Load() })
	r.CounterFunc("softmem_kv_reclaimed_total", "entries revoked under memory pressure", s.reclaimed.Load)
	r.GaugeFunc("softmem_kv_soft_live_bytes", "live soft-heap bytes across the store's SDS contexts",
		func() float64 { return float64(s.HeapStats().LiveBytes) })
	r.GaugeFunc("softmem_kv_soft_slot_bytes", "soft-heap bytes the store's live values occupy, each rounded up to its size class or span",
		func() float64 { return float64(s.HeapStats().SlotBytes) })
	r.GaugeFunc("softmem_kv_soft_pages", "soft pages held across the store's SDS contexts",
		func() float64 { return float64(s.HeapStats().PagesHeld) })

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
// into r as they are first exercised.
func (s *Server) RegisterMetrics(r *metrics.Registry) {
	s.met.Store(&cmdMetrics{reg: r})
}
