package spill

import (
	"softmem/internal/metrics"
)

// counters is the store's instrumentation: the demotion/promotion flow
// the status pages and smdctl surface. A Store keeps one, shared by all
// of its namespaces.
type counters struct {
	// Demotions counts records written because soft memory revoked them;
	// DemotedBytes is their uncompressed payload volume.
	Demotions    metrics.Counter
	DemotedBytes metrics.Counter
	// Promotions counts records faulted back in on a miss;
	// PromotedBytes is their uncompressed payload volume.
	Promotions    metrics.Counter
	PromotedBytes metrics.Counter
	// Hits and Misses count spill lookups (a hit precedes a promotion; a
	// miss means the data was never demoted or has been evicted).
	Hits   metrics.Counter
	Misses metrics.Counter
	// Compactions counts segment rewrites; CompactedBytes is the stale
	// volume they discarded.
	Compactions    metrics.Counter
	CompactedBytes metrics.Counter
	// EvictedSegments and EvictedRecords count disk-budget evictions —
	// the spill tier's own watermark pressure, where data is finally
	// lost for real.
	EvictedSegments metrics.Counter
	EvictedRecords  metrics.Counter
	// CorruptRecords counts CRC or framing failures detected on read or
	// recovery scan.
	CorruptRecords metrics.Counter
	// WriteErrors counts demotions lost to I/O failures (disk full,
	// permission); the data is dropped exactly as it would be without a
	// spill tier.
	WriteErrors metrics.Counter
}

// Stats is a point-in-time copy of a store's counters, plus its disk
// footprint, live records and segment files, JSON-ready for statusz and
// /spill.
type Stats struct {
	Demotions       int64
	DemotedBytes    int64
	Promotions      int64
	PromotedBytes   int64
	Hits            int64
	Misses          int64
	Compactions     int64
	CompactedBytes  int64
	EvictedSegments int64
	EvictedRecords  int64
	CorruptRecords  int64
	WriteErrors     int64
	BytesOnDisk     int64
	LiveRecords     int64
	Segments        int64
}

// Stats snapshots the store's counters and state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := &s.m
	return Stats{
		Demotions:       m.Demotions.Value(),
		DemotedBytes:    m.DemotedBytes.Value(),
		Promotions:      m.Promotions.Value(),
		PromotedBytes:   m.PromotedBytes.Value(),
		Hits:            m.Hits.Value(),
		Misses:          m.Misses.Value(),
		Compactions:     m.Compactions.Value(),
		CompactedBytes:  m.CompactedBytes.Value(),
		EvictedSegments: m.EvictedSegments.Value(),
		EvictedRecords:  m.EvictedRecords.Value(),
		CorruptRecords:  m.CorruptRecords.Value(),
		WriteErrors:     m.WriteErrors.Value(),
		BytesOnDisk:     s.size,
		LiveRecords:     int64(s.lives),
		Segments:        int64(len(s.order)),
	}
}

// spillLatency holds the store's operation latency histograms; nil (no
// RegisterMetrics call) keeps the disk paths free of timing calls.
type spillLatency struct {
	put     *metrics.Histogram
	get     *metrics.Histogram
	promote *metrics.Histogram
	compact *metrics.Histogram
}

// RegisterMetrics registers the store's instruments into r: latency
// histograms for the disk paths, plus read-through bridges for the
// counters and gauges so one /metrics page carries the whole tier.
func (s *Store) RegisterMetrics(r *metrics.Registry) {
	lat := &spillLatency{
		put:     r.Histogram("softmem_spill_put_ns", "spill demotion write latency in ns"),
		get:     r.Histogram("softmem_spill_get_ns", "spill read latency in ns"),
		promote: r.Histogram("softmem_spill_promote_ns", "spill promotion (Take) latency in ns"),
		compact: r.Histogram("softmem_spill_compact_ns", "per-segment compaction latency in ns"),
	}
	counter := func(name, help string, c *metrics.Counter) {
		r.CounterFunc(name, help, c.Value)
	}
	counter("softmem_spill_demotions_total", "values demoted to disk", &s.m.Demotions)
	counter("softmem_spill_demoted_bytes_total", "payload bytes demoted to disk", &s.m.DemotedBytes)
	counter("softmem_spill_promotions_total", "values promoted back to soft memory", &s.m.Promotions)
	counter("softmem_spill_promoted_bytes_total", "payload bytes promoted back", &s.m.PromotedBytes)
	counter("softmem_spill_hits_total", "spill reads that found the key", &s.m.Hits)
	counter("softmem_spill_misses_total", "spill reads that missed", &s.m.Misses)
	counter("softmem_spill_compactions_total", "segments compacted", &s.m.Compactions)
	counter("softmem_spill_compacted_bytes_total", "disk bytes reclaimed by compaction", &s.m.CompactedBytes)
	counter("softmem_spill_evicted_segments_total", "segments evicted by the disk budget", &s.m.EvictedSegments)
	counter("softmem_spill_evicted_records_total", "live records lost to segment eviction", &s.m.EvictedRecords)
	counter("softmem_spill_corrupt_records_total", "records dropped as corrupt", &s.m.CorruptRecords)
	counter("softmem_spill_write_errors_total", "failed demotion writes", &s.m.WriteErrors)
	r.GaugeFunc("softmem_spill_bytes_on_disk", "current disk footprint", func() float64 { return float64(s.BytesOnDisk()) })
	r.GaugeFunc("softmem_spill_live_records", "live records on disk", func() float64 { return float64(s.Stats().LiveRecords) })
	r.GaugeFunc("softmem_spill_segments", "segment files", func() float64 { return float64(s.Stats().Segments) })
	s.lat.Store(lat)
}
