package kvstore

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/pages"
)

// TestLockFreeGetProbeZeroLocks is the evidence test for the lock-free
// GET path: every probe GET must be a lock-free hit (hits == calls,
// fallbacks == 0), the run must add zero mutex contention events, and
// the steady-state dispatch must stay within one allocation per GET.
func TestLockFreeGetProbeZeroLocks(t *testing.T) {
	probe, stats, cleanup := LockFreeGetProbe()
	defer cleanup()

	// Warm the reusable state (first call grows the batch and scratch).
	probe()
	h0, _, f0, c0 := stats()

	const calls = 500
	events := MutexContentionProbe(func() {
		for i := 0; i < calls; i++ {
			probe()
		}
	})
	if events != 0 {
		t.Fatalf("lock-free GET path produced %d mutex contention events, want 0", events)
	}
	h1, _, f1, c1 := stats()
	if got := h1 - h0; got != calls {
		t.Fatalf("lock-free hits = %d of %d GETs; the optimistic path is not serving the probe", got, calls)
	}
	if f1 != f0 || c1 != c0 {
		t.Fatalf("probe GETs fell back to the locked path: fallbacks +%d condemned +%d", f1-f0, c1-c0)
	}

	if n := testing.AllocsPerRun(200, probe); n > 1 {
		t.Fatalf("lock-free GET allocates %.1f allocs/op, want <= 1", n)
	}
}

// TestLockFreeGetProbeLRUZeroLocks is the same evidence test on an
// EvictLRU store — the PR 10 bugfix: LRU tables were wholesale excluded
// from the optimistic path because a lock-free read could not update
// recency. With lazily-sampled per-entry clock stamps they serve the
// identical zero-lock GETs.
func TestLockFreeGetProbeLRUZeroLocks(t *testing.T) {
	probe, stats, cleanup := LockFreeGetProbeLRU()
	defer cleanup()

	probe() // warm the reusable state
	h0, _, f0, c0 := stats()

	const calls = 500
	events := MutexContentionProbe(func() {
		for i := 0; i < calls; i++ {
			probe()
		}
	})
	if events != 0 {
		t.Fatalf("LRU lock-free GET path produced %d mutex contention events, want 0", events)
	}
	h1, _, f1, c1 := stats()
	if got := h1 - h0; got != calls {
		t.Fatalf("lock-free hits = %d of %d GETs; the optimistic path is not serving LRU", got, calls)
	}
	if f1 != f0 || c1 != c0 {
		t.Fatalf("LRU probe GETs fell back to the locked path: fallbacks +%d condemned +%d", f1-f0, c1-c0)
	}
	if n := testing.AllocsPerRun(200, probe); n > 1 {
		t.Fatalf("LRU lock-free GET allocates %.1f allocs/op, want <= 1", n)
	}
}

// TestLockFreeStaleTTLMissStaysLockFree is the regression test for the
// expiry detour: a GET on a key with a due TTL deadline used to take the
// locked expireIfDue path even when the key was already gone from both
// tiers. With ContainsLockFree confirming absence first, the miss stays
// lock-free, counts in LockFreeMisses, and the stale deadline is
// dropped. Pre-fix, the lock-free miss counter stays flat here.
func TestLockFreeStaleTTLMissStaysLockFree(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithName("lf-stale-ttl"), WithClock(clock))
	defer st.Close()

	// A deadline on a key in neither tier: what spill-budget eviction of
	// a demoted key leaves behind.
	st.shard("k").ttl.set("k", now.Add(time.Second))
	now = now.Add(2 * time.Second)

	_, m0, _, _ := st.lockFreeTotals()
	if _, ok, err := st.Get("k"); err != nil || ok {
		t.Fatalf("Get(stale) = %v, %v, want clean miss", ok, err)
	}
	_, m1, _, _ := st.lockFreeTotals()
	if m1 != m0+1 {
		t.Fatalf("LockFreeMisses %d -> %d; confirmed-absent miss took the locked path", m0, m1)
	}
	if st.Expired() != 0 {
		t.Fatalf("phantom expiry counted: %d", st.Expired())
	}
	// The stale deadline must be gone: the next GET goes straight down
	// the not-due optimistic path (another lock-free miss).
	if sh := st.shard("k"); sh.ttl.due("k") {
		t.Fatal("stale deadline survived the lock-free miss")
	}
	if _, ok, _ := st.Get("k"); ok {
		t.Fatal("absent key hit")
	}
	if _, m2, _, _ := st.lockFreeTotals(); m2 != m1+1 {
		t.Fatalf("follow-up miss not lock-free: %d -> %d", m1, m2)
	}
}

// TestLockFreeGetValues pins correctness of the optimistic store paths
// against the locked implementation: hits, misses, replacement,
// deletion, Exists, and stats accounting.
func TestLockFreeGetValues(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithName("lf-values"), WithShards(4))
	defer st.Close()

	for i := 0; i < 200; i++ {
		if err := st.Set(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		v, ok, err := st.Get(fmt.Sprintf("k%d", i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(k%d) = %q, %v, %v", i, v, ok, err)
		}
	}
	if _, ok, _ := st.Get("absent"); ok {
		t.Fatal("absent key hit")
	}
	if !st.Exists("k3") || st.Exists("nope") {
		t.Fatal("Exists wrong through the lock-free path")
	}
	if err := st.Set("k3", []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := st.Get("k3"); !ok || string(v) != "replaced" {
		t.Fatalf("replaced value = %q, %v", v, ok)
	}
	if _, err := st.Del("k3"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.Get("k3"); ok {
		t.Fatal("deleted key still visible")
	}

	stats := st.Stats()
	if stats.LockFreeHits == 0 || stats.LockFreeMisses == 0 {
		t.Fatalf("lock-free counters flat: %+v", stats)
	}
	if stats.Gets != stats.Hits+stats.Misses {
		t.Fatalf("get accounting broken: gets=%d hits=%d misses=%d", stats.Gets, stats.Hits, stats.Misses)
	}
}

// TestLockFreeTTLExpiry pins that the optimistic fast path cannot serve
// a value past its TTL deadline: once due, the read detours through the
// locked expiry path.
func TestLockFreeTTLExpiry(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithName("lf-ttl"), WithClock(clock))
	defer st.Close()

	if err := st.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	st.Expire("k", time.Second)
	if _, ok, _ := st.Get("k"); !ok {
		t.Fatal("key missing before deadline")
	}
	now = now.Add(2 * time.Second)
	if _, ok, _ := st.Get("k"); ok {
		t.Fatal("lock-free path served an expired key")
	}
	if st.Expired() != 1 {
		t.Fatalf("expired count = %d", st.Expired())
	}
}

// TestEpochReclaimRace is the store-level chaos invariant for the
// tentpole: concurrent lock-free GETs and KEYS scans race writers and a
// constant stream of reclamation demands on a small machine. Revocation
// condemns entries and epoch-retires their pages; no read may ever
// observe a torn value, and the heap must stay consistent.
func TestEpochReclaimRace(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(48), HeapFreeMax: 0})
	st := New(sma, WithName("epoch-race"), WithShards(2))
	defer st.Close()

	val := func(i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("e%03d|", i%1000)), 100) // 500 bytes, self-describing
	}
	const keys = 64
	for i := 0; i < keys; i++ {
		_ = st.Set(fmt.Sprintf("k%d", i), val(i))
	}
	// The hot writer's keys (below) carry small values: their size class
	// has slots to spare, so their retirements reach the limbo batch
	// instead of being drained one by one ahead of a page lease.
	hotKey := func(i int) string { return fmt.Sprintf("hot%d", i%2) }
	hotVal := func(i int) []byte { return []byte(fmt.Sprintf("hot-value-%d-%[1]d-%[1]d", i%2)) }

	var stop atomic.Bool
	var wg sync.WaitGroup
	var lockFreeHits, hotSets atomic.Int64

	// Lock-free readers.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			var dst []byte
			for i := 0; !stop.Load(); i++ {
				k := (i*13 + seed*7) % keys
				v, ok, err := st.GetAppend(dst[:0], fmt.Sprintf("k%d", k))
				if err != nil {
					continue
				}
				if ok && !bytes.Equal(v, val(k)) {
					t.Errorf("torn read for k%d: %d bytes", k, len(v))
					return
				}
				v, ok, err = st.GetAppend(v[:0], hotKey(i))
				if err == nil && ok && !bytes.Equal(v, hotVal(i)) {
					t.Errorf("torn read for %s: %q", hotKey(i), v)
					return
				}
				dst = v
			}
		}(r)
	}
	// Scanner: KEYS through ScanLockFree while the index churns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := st.Keys("k*"); err != nil {
				t.Errorf("keys: %v", err)
				return
			}
		}
	}()
	// Writer refilling what reclamation revokes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			k := i % keys
			_ = st.Set(fmt.Sprintf("k%d", k), val(k))
		}
	}()
	// Hot-key writer: replaces two keys as fast as it can, so their
	// shards' limbo fills to the batch between demands and the batched
	// drain on a SET's lock hand-back runs beside the copying readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if st.Set(hotKey(i), hotVal(i)) == nil {
				hotSets.Add(1)
			}
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 500 || ((lockFreeHits.Load() == 0 || hotSets.Load() < 2000) && time.Now().Before(deadline)); i++ {
		sma.HandleDemand(2)
		h, _, _, _ := st.lockFreeTotals()
		lockFreeHits.Store(h)
	}
	stop.Store(true)
	wg.Wait()

	if lockFreeHits.Load() == 0 {
		t.Fatal("race exercised zero lock-free hits")
	}
	if err := sma.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestKeysUnderReaderSlotExhaustion: a lock-free scan that runs out of
// epoch reader slots part-way through a shard falls back to the locked
// Range, and KEYS still lists every key exactly once.
func TestKeysUnderReaderSlotExhaustion(t *testing.T) {
	st, sma := newStore(t, 0)
	const keys = 2000
	for i := 0; i < keys; i++ {
		if err := st.Set(fmt.Sprintf("k%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Hog: take every free reader slot, hold them a moment, give them
	// back, so scans keep finding the slots gone mid-shard.
	dom := sma.Epochs()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var held []int
		for i := 0; !stop.Load(); i++ {
			for {
				slot, ok := dom.Enter(uint64(i))
				if !ok {
					break
				}
				held = append(held, slot)
			}
			runtime.Gosched()
			for _, slot := range held {
				dom.Exit(slot)
			}
			held = held[:0]
			runtime.Gosched()
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for call := 0; call < 300; call++ {
		got, err := st.Keys("*")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != keys {
			t.Fatalf("call %d: KEYS returned %d keys, want %d", call, len(got), keys)
		}
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				t.Fatalf("call %d: KEYS returned %q twice", call, got[i])
			}
		}
	}
}

// BenchmarkLockFreeGet times the epoch-protected optimistic GET through
// the full single-command dispatch path. ReportAllocs shows the ≤1
// alloc/op budget TestLockFreeGetProbeZeroLocks enforces.
func BenchmarkLockFreeGet(b *testing.B) {
	probe, _, cleanup := LockFreeGetProbe()
	b.Cleanup(cleanup)
	probe() // warm the reusable batch and scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe()
	}
}

// BenchmarkMixedReadReclaim times lock-free GETs while a reclamation
// demand stream and a refilling writer run against the same store — the
// contended read/reclaim interaction the epoch design exists for.
func BenchmarkMixedReadReclaim(b *testing.B) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithName("mixed-bench"))
	b.Cleanup(st.Close)

	const keyN = 512
	names := make([]string, keyN)
	val := bytes.Repeat([]byte("v"), 256)
	for i := range names {
		names[i] = fmt.Sprintf("mixed:%05d", i)
		if err := st.Set(names[i], val); err != nil {
			b.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // demand stream: condemn + epoch-retire entries
		defer wg.Done()
		for !stop.Load() {
			sma.HandleDemand(2)
		}
	}()
	go func() { // writer refilling what the demands take
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			_ = st.Set(names[i%keyN], val)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	batch := st.NewBatch()
	for i := 0; i < b.N; i++ {
		batch.Get(names[i%keyN])
		if err := batch.Exec(); err != nil {
			b.Fatal(err)
		}
		batch.Reset()
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
}
