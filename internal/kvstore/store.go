// Package kvstore implements a small Redis-like in-memory key-value store
// whose values live in soft memory — the paper's §5 integration, rebuilt
// as a Go substrate.
//
// Like the paper's modified Redis, the store keeps its index and keys in
// traditional memory and stores entry payloads in a soft hash table (one
// SDS with its own heap). When the machine comes under memory pressure
// and the daemon reclaims from the store, entries disappear oldest-first
// and subsequent GETs return "not found"; a caching client re-fetches
// from its database. The reclaim callback is where associated traditional
// memory is cleaned up — the paper measures that cleanup as the dominant
// reclamation cost.
//
// The string table can be sharded (Config.Shards) into several
// SoftHashTables, each with its own SDS context and heap lock, so
// concurrent clients on different keys proceed in parallel. The shards
// are equal-priority contexts, which a reclamation demand treats as one
// victim: it is dealt across them in equal page counts and each gives up
// the pages of its own oldest (or least recently used) entries, so what
// a demand costs the store does not depend on the shard count. Victims
// are whole pages: an entry goes when it is among the oldest or shares a
// page with one that is.
package kvstore

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"path"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"softmem/internal/alloc"
	"softmem/internal/core"
	"softmem/internal/sds"
	"softmem/internal/spill"
)

// keyOverheadBytes approximates the traditional-memory cost of one index
// entry (map bucket share, entry struct, eviction links) on 64-bit
// platforms.
const keyOverheadBytes = 64

// Config is what the Options fill in; New applies the defaults.
type Config struct {
	// Name labels the store's SDS context. Default "kvstore".
	Name string
	// Policy selects the eviction order under reclamation. Default
	// EvictOldest (insertion order, like the paper's bucket lists).
	Policy sds.EvictPolicy
	// Priority is the store's SDS reclamation priority.
	Priority int
	// Shards splits the string table into this many SoftHashTables
	// (rounded up to a power of two), each with its own heap lock, so
	// concurrent clients scale. Default 1.
	Shards int
	// OnReclaim runs for every entry revoked under memory pressure, after
	// the store's own cleanup. Optional.
	OnReclaim func(key string)
	// CleanupWork, if > 0, performs that many iterations of synthetic
	// traditional-memory cleanup per reclaimed entry, modelling the Redis
	// callback work that dominated the paper's 3.75 s reclamation.
	CleanupWork int
	// Clock supplies the time for TTL expiry. Nil means time.Now;
	// experiments inject virtual clocks.
	Clock func() time.Time
	// Spill, when non-nil, attaches a spill tier: string entries revoked
	// under memory pressure are demoted to compressed disk records
	// (namespace = Name) instead of dropped, and a GET miss transparently
	// promotes the value back through the normal soft-allocation path.
	// Nil preserves exact drop semantics.
	Spill *spill.Store
	// SlowLogThreshold is the latency past which a command lands in the
	// slow-request log once attribution is enabled (RegisterMetrics).
	// 0 means the 10ms default.
	SlowLogThreshold time.Duration
	// SlowLogSize bounds the slow-request log ring (default 128).
	SlowLogSize int
}

// Status is the /statusz payload of a process serving a Store: the
// store's snapshot, its SMA's, and the SMA's contexts in reclamation
// order. Fields are declared in the alphabetical order of their keys.
type Status struct {
	Contexts []core.ContextInfo `json:"contexts"`
	SMA      core.Stats         `json:"sma"`
	Store    Stats              `json:"store"`
}

// Stats is the store's unified observability snapshot: operation
// counters, entry counts, and the aggregated soft-heap accounting across
// all of the store's SDS contexts. It is served as-is by statusz.
type Stats struct {
	Sets      int64
	Gets      int64
	Hits      int64
	Misses    int64
	Dels      int64
	Reclaimed int64 // entries revoked under memory pressure
	Expired   int64 // entries collected by TTL expiry
	Entries   int   // live string entries across all shards
	Shards    int   // string-table shard count
	// Promotions counts GET misses served by faulting a demoted value
	// back in from the spill tier (0 without one).
	Promotions int64 `json:",omitempty"`
	// LockFreeHits/LockFreeMisses count reads served by the
	// epoch-protected optimistic path with zero locks; LockFreeFallbacks
	// and CondemnedRetries count optimistic attempts that had to take
	// the locked path (reader-slot exhaustion vs a value revoked
	// mid-read).
	LockFreeHits      int64 `json:",omitempty"`
	LockFreeMisses    int64 `json:",omitempty"`
	LockFreeFallbacks int64 `json:",omitempty"`
	CondemnedRetries  int64 `json:",omitempty"`
	// SpilledEntries / SpilledBytes describe the store's namespace in the
	// spill tier (0 without one). SpilledBytes counts whole-store disk
	// usage, shared with any other namespaces on the same spill store.
	SpilledEntries int   `json:",omitempty"`
	SpilledBytes   int64 `json:",omitempty"`
	// Soft aggregates heap accounting over every SDS context the store
	// owns (string shards, hash table, list table).
	Soft alloc.Stats
	// PerShard breaks the string table down by shard (entries, entries
	// reclaimed from that shard, and its heap accounting), so INFO under
	// Shards > 1 can report both correct totals and the distribution.
	PerShard []ShardStats
	// Spill is the spill store's full metric snapshot, nil when the
	// store runs without a spill tier.
	Spill *spill.Stats `json:",omitempty"`
}

// ShardStats describes one string-table shard.
type ShardStats struct {
	Entries   int
	Reclaimed int64 // entries revoked from this shard under pressure
	Heap      alloc.Stats
}

// Store is an embeddable soft-memory key-value store. All methods are
// safe for concurrent use. Every keyed string command has one
// implementation, exec (engine.go), which runs under the key's shard
// heap lock held through a core.Owned: Batch groups run it on the
// submitting goroutine or the shard's owner goroutine, and the direct
// methods below are thin wrappers that fill a Command and call Do, which
// takes the same lock inline for one command.
type Store struct {
	shards      []*shard
	shardMask   uint64
	seed        maphash.Seed // shardIdx's
	hashes      *hashStore
	lists       *listStore
	now         func() time.Time
	spill       *spill.Sink // nil without a spill tier
	expired     atomic.Int64
	reclaimed   atomic.Int64
	promotions  atomic.Int64
	promoteNs   atomic.Int64 // serving time spent inside spill promotions
	cleanupSink atomic.Int64
	overloaded  atomic.Int64

	// attrib is the latency-attribution layer, nil until RegisterMetrics
	// enables it; the hot paths load the pointer once per batch.
	attrib          atomic.Pointer[attribState]
	slowThresholdNs int64
	slowSize        int

	// Execution engine lifecycle: submitMu (submitter-side only)
	// excludes submissions against Close; stopOwners stops the owner
	// goroutines, which drain their rings before exiting.
	stopOwners chan struct{}
	ownerWG    sync.WaitGroup
	submitMu   sync.RWMutex
	closed     bool
}

// New creates a store backed by soft hash tables in sma, tuned by
// functional options — kvstore.New(sma, kvstore.WithShards(8),
// kvstore.WithSpill(sp)) — mirroring ipc.Dial's DialOptions pattern.
//
// Single-key GETs are served with zero locks: each shard table publishes
// values to unlocked readers of its index and revocation rides the epoch
// grace period (see internal/sds and internal/epoch). Under EvictLRU, recency
// is kept by lazily-sampled per-entry clock stamps so the optimistic
// path engages there too (eviction order becomes approximate).
func New(sma *core.SMA, opts ...Option) *Store {
	if sma == nil {
		panic("kvstore: New needs an SMA")
	}
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return newWithRing(sma, cfg, ownerQueue)
}

// newWithRing is New with the per-shard ring capacity as an argument: the
// shed test builds a store whose rings hold one batch.
func newWithRing(sma *core.SMA, cfg Config, ringSize int) *Store {
	name := cfg.Name
	if name == "" {
		name = "kvstore"
	}
	nshards := cfg.Shards
	if nshards <= 1 {
		nshards = 1
	} else if nshards&(nshards-1) != 0 {
		nshards = 1 << bits.Len(uint(nshards))
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	s := &Store{now: now, seed: maphash.MakeSeed()}
	s.slowThresholdNs = (10 * time.Millisecond).Nanoseconds()
	if cfg.SlowLogThreshold > 0 {
		s.slowThresholdNs = cfg.SlowLogThreshold.Nanoseconds()
	}
	s.slowSize = 128
	if cfg.SlowLogSize > 0 {
		s.slowSize = cfg.SlowLogSize
	}
	s.shardMask = uint64(nshards - 1)
	if cfg.Spill != nil {
		s.spill = cfg.Spill.Sink(name)
	}
	onReclaim := func(key string, value []byte) {
		s.reclaimed.Add(1)
		demoted := false
		if s.spill != nil {
			// Demote instead of drop: the TTL deadline stays so a later
			// promotion still respects expiry. Attribution times the
			// synchronous disk write as the spill_demote phase.
			t0, a := time.Now(), s.attrib.Load()
			demoted = sds.Demote(sma, s.spill, key, value)
			if a != nil {
				a.phases[phaseSpillDemote].ObserveDuration(time.Since(t0))
			}
		}
		if !demoted {
			// The value is simply gone, which is soft memory's contract,
			// and its deadline with it.
			s.shard(key).ttl.clear(key)
		}
		// Synthetic traditional-memory cleanup, per the paper's
		// observation that reclamation time "is spent almost
		// exclusively in Redis code, invoked via the callback, that
		// cleans up associated traditional memory".
		sink := int64(0)
		for i := 0; i < cfg.CleanupWork; i++ {
			sink += int64(i ^ len(key))
		}
		s.cleanupSink.Add(sink)
		if cfg.OnReclaim != nil {
			cfg.OnReclaim(key)
		}
	}
	s.shards = make([]*shard, nshards)
	for i := range s.shards {
		shardName := name
		if nshards > 1 {
			shardName = fmt.Sprintf("%s/%d", name, i)
		}
		ht := sds.NewSoftHashTable[string](sma, shardName, sds.HashTableConfig[string]{
			Policy:        cfg.Policy,
			Priority:      cfg.Priority,
			KeyBytes:      func(k string) int { return len(k) + keyOverheadBytes },
			OnReclaim:     onReclaim,
			LockFreeReads: true,
		})
		s.shards[i] = &shard{
			ht:    ht,
			ttl:   newTTLTable(cfg.Clock),
			ring:  make(chan *shardBatch, ringSize),
			owned: ht.Context().Own(),
			label: strconv.Itoa(i),
		}
	}
	hashTable := sds.NewSoftHashTable[hashField](sma, name+"-hashes", sds.HashTableConfig[hashField]{
		Policy:   cfg.Policy,
		Priority: cfg.Priority,
		KeyBytes: func(f hashField) int { return len(f.key) + len(f.field) + keyOverheadBytes },
		OnReclaim: func(f hashField, _ []byte) {
			s.reclaimed.Add(1)
			s.hashes.dropField(f)
		},
	})
	s.hashes = newHashStore(hashTable)
	listTable := sds.NewSoftHashTable[listElem](sma, name+"-lists", sds.HashTableConfig[listElem]{
		Policy:   cfg.Policy,
		Priority: cfg.Priority,
		KeyBytes: seqKeyBytes,
		OnReclaim: func(e listElem, _ []byte) {
			s.reclaimed.Add(1)
			s.lists.dropElem(e)
		},
	})
	s.lists = newListStore(listTable)
	s.startOwners()
	return s
}

// shardIdx routes a key to its shard index: maphash under the store's
// own seed, so the key→shard map differs from process to process.
func (s *Store) shardIdx(key string) int {
	if s.shardMask == 0 {
		return 0
	}
	return int(maphash.String(s.seed, key) & s.shardMask)
}

// shard routes a key to its shard.
func (s *Store) shard(key string) *shard { return s.shards[s.shardIdx(key)] }

// Set stores value under key, replacing any existing value. It returns
// core.ErrExhausted when soft memory cannot be obtained even after
// machine-wide reclamation.
func (s *Store) Set(key string, value []byte) error {
	// Here and in the wrappers below the Command is assigned field by
	// field, not written as a literal, for the reason given in Batch.Add.
	var c Command
	c.Op, c.Key, c.Arg = OpSet, key, value
	return s.Do(&c)
}

// Get returns a copy of the value under key; ok is false on miss —
// including entries revoked under memory pressure, unless a spill tier
// holds the demoted value, in which case it is promoted back in.
func (s *Store) Get(key string) (value []byte, ok bool, err error) {
	return s.GetAppend(nil, key)
}

// GetAppend is Get appending the value to dst and returning the
// extended slice. Hot callers pass a reused scratch (dst[:0]) so a cache
// hit allocates nothing; the result aliases dst's backing array and is
// only valid until dst's next reuse.
func (s *Store) GetAppend(dst []byte, key string) (value []byte, ok bool, err error) {
	var c Command
	c.Op, c.Key, c.Val = OpGet, key, dst[len(dst):]
	err = s.Do(&c)
	if len(dst) == 0 {
		return c.Val, c.Ok, err
	}
	// c.Val is dst's own tail when the value fit its capacity (the append
	// then copies it onto itself) and a separate buffer when it did not.
	return append(dst, c.Val...), c.Ok, err
}

// Del removes key, reporting whether it existed.
func (s *Store) Del(key string) (bool, error) {
	var c Command
	c.Op, c.Key = OpDel, key
	err := s.Do(&c)
	return c.Ok, err
}

// Exists reports whether key is present (hot tier or spilled).
func (s *Store) Exists(key string) bool {
	var c Command
	c.Op, c.Key = OpExists, key
	_ = s.Do(&c) // a closed store holds no keys
	return c.Ok
}

// Incr adjusts the integer stored at key by delta, creating it at delta
// if absent, and returns the new value. It fails if the current value is
// not an integer. Concurrent Incrs of one key never lose an update.
func (s *Store) Incr(key string, delta int64) (int64, error) {
	var c Command
	c.Op, c.Key, c.Delta = OpIncr, key, delta
	if err := s.Do(&c); err != nil {
		return 0, err
	}
	return c.N, nil
}

// Append appends data to the value at key (creating it if absent) and
// returns the new length.
func (s *Store) Append(key string, data []byte) (int, error) {
	var c Command
	c.Op, c.Key, c.Arg = OpAppend, key, data
	if err := s.Do(&c); err != nil {
		return 0, err
	}
	return int(c.N), nil
}

// StrLen returns the length of the value at key (0 if absent).
func (s *Store) StrLen(key string) int {
	var c Command
	c.Op, c.Key = OpStrLen, key
	_ = s.Do(&c) // unreadable counts as absent
	return int(c.N)
}

// Keys returns the keys matching a glob pattern (path.Match syntax,
// which covers Redis's * and ? globs), sorted. An O(n) scan — use
// sparingly, like Redis KEYS.
func (s *Store) Keys(pattern string) ([]string, error) {
	if _, err := path.Match(pattern, ""); err != nil {
		return nil, fmt.Errorf("kvstore: bad pattern %q: %w", pattern, err)
	}
	var out []string
	collect := func(k string, _ []byte) bool {
		if ok, _ := path.Match(pattern, k); ok {
			out = append(out, k)
		}
		return true
	}
	for _, sh := range s.shards {
		// The lock-free scan keeps a full-table walk off the shard's heap
		// lock (a KEYS under load no longer stalls that shard's writes);
		// it falls back to the locked Range only when unavailable, and
		// the keys it collected before giving up are dropped first.
		n := len(out)
		if sh.ht.ScanLockFree(collect) {
			continue
		}
		out = out[:n]
		if err := sh.ht.Range(collect); err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.ht.Len()
	}
	return n
}

// FlushAll removes every entry and, with them, every deadline: one left
// behind would expire whatever is next stored under its key. Each shard
// is emptied in one hold of its lock, spill side first as in DEL, so no
// promotion or demotion carries one of its values across the flush. The
// spill drop is namespace-wide each time: a value demoted from a shard
// already flushed is dropped again, which reads as a revocation.
func (s *Store) FlushAll() error {
	for _, sh := range s.shards {
		o := sh.ht.Context().Own()
		err := o.Acquire()
		if err == nil {
			sh.ttl.reset()
			if s.spill != nil {
				s.spill.DropAll()
			}
			err = sh.ht.ClearOwned(o)
		}
		o.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats returns the unified observability snapshot. Totals (Entries,
// Reclaimed, Soft) are store-global — the sum over every shard — and
// PerShard carries the per-shard breakdown they aggregate.
func (s *Store) Stats() Stats {
	st := Stats{
		Reclaimed:  s.reclaimed.Load(),
		Expired:    s.expired.Load(),
		Entries:    s.Len(),
		Shards:     len(s.shards),
		Promotions: s.promotions.Load(),
		Soft:       s.HeapStats(),
		PerShard:   make([]ShardStats, len(s.shards)),
	}
	for i, sh := range s.shards {
		st.Sets += sh.sets.Load()
		st.Hits += sh.hits.Load()
		st.Misses += sh.misses.Load()
		st.Dels += sh.dels.Load()
		st.PerShard[i] = ShardStats{
			Entries:   sh.ht.Len(),
			Reclaimed: sh.ht.Reclaimed(),
			Heap:      sh.ht.Context().HeapStats(),
		}
	}
	st.Gets = st.Hits + st.Misses
	st.LockFreeHits, st.LockFreeMisses, st.LockFreeFallbacks, st.CondemnedRetries = s.lockFreeTotals()
	if s.spill != nil {
		snap := s.spill.Store().Stats()
		st.SpilledEntries, st.SpilledBytes, st.Spill = s.spill.Len(), snap.BytesOnDisk, &snap
	}
	return st
}

// lockFreeTotals sums the optimistic-read counters over the string
// shards.
func (s *Store) lockFreeTotals() (hits, misses, fallbacks, condemned int64) {
	for _, sh := range s.shards {
		h, m, f, c := sh.ht.LockFreeStats()
		hits += h
		misses += m
		fallbacks += f
		condemned += c
	}
	return hits, misses, fallbacks, condemned
}

// HeapStats aggregates heap accounting over every SDS context the store
// owns: all string shards plus the hash and list tables.
func (s *Store) HeapStats() alloc.Stats {
	var sum alloc.Stats
	add := func(h alloc.Stats) {
		sum.LiveAllocs += h.LiveAllocs
		sum.LiveBytes += h.LiveBytes
		sum.SlotBytes += h.SlotBytes
		sum.PagesHeld += h.PagesHeld
		sum.FreePages += h.FreePages
		sum.TotalAllocs += h.TotalAllocs
		sum.TotalFrees += h.TotalFrees
		sum.FailedAllocs += h.FailedAllocs
	}
	for _, sh := range s.shards {
		add(sh.ht.Context().HeapStats())
	}
	add(s.hashes.ht.Context().HeapStats())
	add(s.lists.ht.Context().HeapStats())
	return sum
}

// StallNanos returns the store's cumulative reclamation-stall time:
// owner time spent inside contended heap-lock Yields (reclaim demands
// taking their turn) across every SDS context the store owns, plus
// serving time lost to spill promotions. This is the process-level
// yield_stall + spill_promote signal; wire it into the SMA with
// sma.SetStallReporter(store.StallNanos) so the daemon's stall-aware
// QoS policy sees how much reclamation is actually costing this store.
func (s *Store) StallNanos() int64 {
	total := s.promoteNs.Load()
	for _, sh := range s.shards {
		total += sh.ht.Context().StallNanos()
	}
	total += s.hashes.ht.Context().StallNanos()
	total += s.lists.ht.Context().StallNanos()
	return total
}

// Context exposes the store's first string-shard SDS context (for stats
// and priority). With Shards > 1 use HeapStats for whole-store heap
// accounting.
func (s *Store) Context() *core.Context { return s.shards[0].ht.Context() }

// Close stops the execution engine (in-flight batches complete, new
// submissions fail with ErrClosed) and frees the store's soft memory.
func (s *Store) Close() {
	s.stopEngine()
	for _, sh := range s.shards {
		sh.ht.Close()
	}
	s.hashes.ht.Close()
	s.lists.ht.Close()
}
