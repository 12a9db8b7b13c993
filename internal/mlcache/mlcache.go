// Package mlcache models the paper's §2 machine-learning use case: a
// Quiver-style storage cache for training data kept in soft memory.
//
// A Trainer sweeps a dataset in a fresh random permutation every epoch
// (the randomness and uniqueness guarantees informed ML caches preserve)
// and pays a modelled cost per sample: cheap on cache hit, expensive on a
// miss that goes to backing storage. The cache lives in a soft LRU hash
// table, so its size is exactly the soft memory currently available:
// when the daemon reclaims, the cache shrinks and epochs slow down; when
// pressure eases, misses repopulate it and epoch time recovers — "this
// slows down the ML training, but makes memory available for other
// workloads".
package mlcache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"softmem/internal/core"
	"softmem/internal/sds"
)

// Config parameterizes a Trainer.
type Config struct {
	// SMA is the training process's soft allocator (required).
	SMA *core.SMA
	// Name labels the cache's SDS context. Default "mlcache".
	Name string
	// Samples is the dataset size (required > 0).
	Samples int
	// SampleBytes is each sample's payload size (required > 0).
	SampleBytes int
	// Seed drives the per-epoch permutations.
	Seed int64
	// Priority is the cache's SDS reclamation priority.
	Priority int
}

// hitCost and missCost are the modelled per-sample costs: a ~100×
// storage penalty, in line with local-SSD vs DRAM.
const (
	hitCost  = 10 * time.Microsecond
	missCost = time.Millisecond
)

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch     int
	Time      time.Duration // modelled wall time for the sweep
	Hits      int
	Misses    int
	CacheLen  int // entries in cache after the epoch
	Reclaimed int64
}

// HitRate returns the epoch's cache hit fraction.
func (e EpochStats) HitRate() float64 {
	total := e.Hits + e.Misses
	if total == 0 {
		return 0
	}
	return float64(e.Hits) / float64(total)
}

// String renders the stats as a table row.
func (e EpochStats) String() string {
	return fmt.Sprintf("epoch=%-3d time=%-12s hitrate=%5.1f%% cache=%d",
		e.Epoch, e.Time.Round(time.Millisecond), 100*e.HitRate(), e.CacheLen)
}

// Trainer drives epochs over a synthetic dataset with a soft-memory
// cache.
type Trainer struct {
	cfg   Config
	cache *sds.SoftHashTable[uint64]
	rng   *rand.Rand
	epoch int
}

// New builds a Trainer. The cache starts empty (cold).
func New(cfg Config) *Trainer {
	if cfg.SMA == nil {
		panic("mlcache: Config.SMA is required")
	}
	if cfg.Samples <= 0 || cfg.SampleBytes <= 0 {
		panic("mlcache: Samples and SampleBytes must be positive")
	}
	if cfg.Name == "" {
		cfg.Name = "mlcache"
	}
	t := &Trainer{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	t.cache = sds.NewSoftHashTable[uint64](cfg.SMA, cfg.Name, sds.HashTableConfig[uint64]{
		Policy:   sds.EvictLRU,
		Priority: cfg.Priority,
		KeyBytes: func(uint64) int { return 48 },
	})
	return t
}

// sample deterministically materializes sample id's payload, modelling
// the fetch from backing storage.
func (t *Trainer) sample(id uint64) []byte {
	b := make([]byte, t.cfg.SampleBytes)
	binary.BigEndian.PutUint64(b, id)
	for i := 8; i < len(b); i++ {
		b[i] = byte(id) ^ byte(i)
	}
	return b
}

// verify checks a cached payload against the expected content; a
// mismatch indicates cache corruption.
func (t *Trainer) verify(id uint64, b []byte) error {
	if len(b) != t.cfg.SampleBytes {
		return fmt.Errorf("mlcache: sample %d: %d bytes, want %d", id, len(b), t.cfg.SampleBytes)
	}
	if binary.BigEndian.Uint64(b) != id {
		return fmt.Errorf("mlcache: sample %d: corrupt header", id)
	}
	return nil
}

// RunEpoch sweeps the dataset once in a fresh random permutation and
// returns the epoch's stats. Cache insertion failures under extreme
// pressure degrade to uncached operation rather than failing the epoch.
func (t *Trainer) RunEpoch() (EpochStats, error) {
	t.epoch++
	st := EpochStats{Epoch: t.epoch}
	perm := t.rng.Perm(t.cfg.Samples) // uniqueness + randomness per epoch
	for _, idx := range perm {
		id := uint64(idx)
		if b, ok, err := t.cache.Get(id); err != nil {
			return st, err
		} else if ok {
			if err := t.verify(id, b); err != nil {
				return st, err
			}
			st.Hits++
			st.Time += hitCost
			continue
		}
		st.Misses++
		st.Time += missCost
		payload := t.sample(id)
		if err := t.cache.Put(id, payload); err != nil {
			// Soft memory exhausted: keep training uncached; the next
			// misses may succeed once pressure eases.
			continue
		}
	}
	st.CacheLen = t.cache.Len()
	st.Reclaimed = t.cache.Reclaimed()
	return st, nil
}

// CacheLen returns the cache's current entry count.
func (t *Trainer) CacheLen() int { return t.cache.Len() }

// Cache exposes the underlying soft hash table (for experiments).
func (t *Trainer) Cache() *sds.SoftHashTable[uint64] { return t.cache }

// Close frees the cache's soft memory.
func (t *Trainer) Close() { t.cache.Close() }
