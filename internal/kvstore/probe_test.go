package kvstore

import (
	"runtime"

	"softmem/internal/core"
	"softmem/internal/pages"
	"softmem/internal/sds"
)

// Probes shaped for testing.AllocsPerRun that only tests call (the
// shipped ParseProbe and ReplyProbe are in bench_probe.go): alloc_test.go,
// span_alloc_test.go and lockfree_test.go pin the dispatch and lock-free
// GET paths with them.

// DispatchProbe returns a closure that routes one two-key GET batch
// through the shard-owner dispatch path (Batch route, ring submit,
// owner execute, rejoin) with fully reusable state, plus a cleanup
// func. Shaped for testing.AllocsPerRun: with premade key strings and a
// recycled Batch, a routed GET performs no per-op heap allocation.
func DispatchProbe() (probe, cleanup func()) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithName("dispatch-probe"), WithShards(2))
	k1, k2 := "probe:key:a", "probe:key:b"
	if err := st.Set(k1, []byte("probe-value-0123456789")); err != nil {
		panic(err)
	}
	if err := st.Set(k2, []byte("probe-value-9876543210")); err != nil {
		panic(err)
	}
	b := st.NewBatch()
	return func() {
			b.Get(k1)
			b.Get(k2)
			if err := b.Exec(); err != nil {
				panic(err)
			}
			for i := 0; i < b.Len(); i++ {
				if c := b.Cmd(i); c.Err != nil || !c.Ok {
					panic("dispatch probe: lost key")
				}
			}
			b.Reset()
		}, func() {
			st.Close()
		}
}

// LockFreeGetProbe returns a closure that serves one single-key GET
// through the full dispatch path (Batch.Exec single-command fast path →
// Store.Do's optimistic probe) on a lock-free store, plus a stats func
// and a cleanup func. Shaped for testing.AllocsPerRun: the reusable
// Batch and epoch-protected optimistic read make a hit cost at most the
// one value-copy allocation. stats exposes the store's lock-free
// counters so callers can pin that every probe GET was served with zero
// locks (hits == calls, fallbacks == 0).
func LockFreeGetProbe() (probe func(), stats func() (hits, misses, fallbacks, condemned int64), cleanup func()) {
	return lockFreeGetProbe(sds.EvictOldest)
}

// LockFreeGetProbeLRU is LockFreeGetProbe on an EvictLRU store: the
// probe pins that LRU tables serve the same zero-lock optimistic GETs
// (recency survives as lazily-sampled per-entry clock stamps instead of
// list moves).
func LockFreeGetProbeLRU() (probe func(), stats func() (hits, misses, fallbacks, condemned int64), cleanup func()) {
	return lockFreeGetProbe(sds.EvictLRU)
}

func lockFreeGetProbe(policy sds.EvictPolicy) (probe func(), stats func() (hits, misses, fallbacks, condemned int64), cleanup func()) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithName("lockfree-probe"), WithPolicy(policy))
	key := "probe:lockfree:key"
	if err := st.Set(key, []byte("probe-value-0123456789")); err != nil {
		panic(err)
	}
	b := st.NewBatch()
	return func() {
			b.Get(key)
			if err := b.Exec(); err != nil {
				panic(err)
			}
			if c := b.Cmd(0); c.Err != nil || !c.Ok {
				panic("lock-free probe: lost key")
			}
			b.Reset()
		}, func() (int64, int64, int64, int64) {
			return st.lockFreeTotals()
		}, func() {
			st.Close()
		}
}

// MutexContentionProbe runs fn under runtime mutex profiling and
// returns how many mutex contention events fn added. The shard-owner
// hot path holds the shard heap lock across whole batches and never
// takes a per-command mutex, so a single-connection run reports zero
// contention events in store code.
func MutexContentionProbe(fn func()) (events int64) {
	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)
	before := mutexEventCount()
	fn()
	after := mutexEventCount()
	if d := after - before; d > 0 {
		return d
	}
	return 0
}

func mutexEventCount() int64 {
	var recs []runtime.BlockProfileRecord
	n, _ := runtime.MutexProfile(nil)
	recs = make([]runtime.BlockProfileRecord, n+64)
	n, _ = runtime.MutexProfile(recs)
	var total int64
	for _, r := range recs[:n] {
		total += r.Count
	}
	return total
}
