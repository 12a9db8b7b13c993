package kvstore

import (
	"time"

	"softmem/internal/sds"
	"softmem/internal/spill"
)

// Option tunes a Store at construction, in the functional-options style
// of ipc.Dial: New(sma, WithShards(8), WithSpill(sp)). Each option maps
// onto one Config field; see Config for the full semantics.
type Option func(*Config)

// WithName labels the store's SDS contexts (default "kvstore").
func WithName(name string) Option { return func(c *Config) { c.Name = name } }

// WithPolicy selects the eviction order under reclamation (default
// EvictOldest).
func WithPolicy(p sds.EvictPolicy) Option { return func(c *Config) { c.Policy = p } }

// WithPriority sets the store's SDS reclamation priority (lower is
// reclaimed first).
func WithPriority(p int) Option { return func(c *Config) { c.Priority = p } }

// WithShards splits the string table into n shards (rounded up to a
// power of two), each with its own heap, TTL table, and owner
// goroutine. Default 1.
func WithShards(n int) Option { return func(c *Config) { c.Shards = n } }

// WithOnReclaim installs a callback run for every entry revoked under
// memory pressure, after the store's own cleanup.
func WithOnReclaim(fn func(key string)) Option { return func(c *Config) { c.OnReclaim = fn } }

// WithCleanupWork performs n iterations of synthetic traditional-memory
// cleanup per reclaimed entry (the paper's dominant reclamation cost).
func WithCleanupWork(n int) Option { return func(c *Config) { c.CleanupWork = n } }

// WithClock injects the TTL clock (default time.Now); experiments use
// virtual clocks.
func WithClock(now func() time.Time) Option { return func(c *Config) { c.Clock = now } }

// WithSpill attaches a spill tier: entries revoked under pressure
// demote to compressed disk records and promote back on GET misses.
func WithSpill(sp *spill.Store) Option { return func(c *Config) { c.Spill = sp } }

// WithSlowLog tunes the slow-request log kept once attribution is
// enabled via RegisterMetrics: commands slower than threshold land in a
// ring of size entries with their full phase breakdown (defaults 10ms,
// 128).
func WithSlowLog(threshold time.Duration, size int) Option {
	return func(c *Config) {
		c.SlowLogThreshold = threshold
		c.SlowLogSize = size
	}
}
