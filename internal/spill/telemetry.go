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

// RegisterMetrics registers the store's corrupt-record counter into r.
func (s *Store) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("softmem_spill_corrupt_records_total", "records dropped as corrupt", s.m.CorruptRecords.Value)
}
