// Package spill implements the local spill tier: an append-only,
// segment-based disk store that catches soft-memory data at the moment it
// would otherwise be dropped.
//
// The paper frames the SDS reclaim callback as the developer's "last
// chance to tag or persist data" before pages are revoked (§3.1). This
// package is what that last chance plugs into: a Sink bound to a
// per-SDS namespace demotes reclaimed entries to compressed, CRC-checked
// records on disk, and a promotion path faults them back in on a miss,
// re-allocating soft pages through the normal SMA budget path. Memory
// pressure then degrades a process to disk speed instead of to data
// loss — the graceful middle tier between DRAM and "gone".
//
// Layout: a Store owns one directory of numbered segment files
// (spill-%08d.seg). Records append to the active segment; sealed
// segments are immutable. A traditional-memory index maps
// namespace/key to the newest record's location. Three maintenance
// mechanisms keep the tier bounded:
//
//   - Overwrites, promotions, and deletions mark the superseded record
//     stale (deletions also log a tombstone so crash recovery does not
//     resurrect them).
//   - Compaction rewrites sealed segments whose stale fraction exceeds
//     a threshold, copying only live records forward; it runs from a
//     background goroutine and can be invoked synchronously.
//   - A disk budget with watermark eviction drops whole segments
//     oldest-first when the tier itself overflows — the spill tier's
//     own pressure valve, mirroring the soft-memory design one level
//     down.
//
// Crash tolerance: recovery scans segments record-by-record and
// truncates at the first torn or CRC-corrupt record, so a crash mid-
// append loses at most the record being written.
//
// The package knows nothing about SDS internals. It keeps one rule for
// the tier crossing, which internal/sds applies for every SDS: a Drop of
// a key that Take is promoting supersedes the promotion, and its value
// must not be put back.
package spill
