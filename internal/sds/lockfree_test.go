package sds

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softmem/internal/alloc"
	"softmem/internal/core"
	"softmem/internal/pages"
)

// lfValue builds a self-describing value: every byte position is
// derived from the key, so a torn read (bytes from two different
// values or a recycled page) is detectable.
func lfValue(k int, size int) []byte {
	v := make([]byte, size)
	pat := []byte(fmt.Sprintf("val-%06d-", k))
	for i := range v {
		v[i] = pat[i%len(pat)]
	}
	return v
}

func checkLfValue(t *testing.T, k int, v []byte, size int) {
	t.Helper()
	want := lfValue(k, size)
	if !bytes.Equal(v, want) {
		t.Fatalf("torn or wrong value for key %d: got %d bytes, first 32 %q", k, len(v), v[:min(32, len(v))])
	}
}

func TestHashTableLockFreeBasics(t *testing.T) {
	s := newSMA()
	defer s.Close()
	ht := NewSoftHashTable[int](s, "lf-basics", HashTableConfig[int]{
		Policy:        EvictOldest,
		LockFreeReads: true,
	})
	defer ht.Close()

	if !ht.LockFree() {
		t.Fatal("LockFreeReads did not enable the lock-free path")
	}
	for k := 0; k < 200; k++ {
		if err := ht.Put(k, lfValue(k, 100)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 200; k++ {
		v, res := ht.GetAppendLockFree(nil, k)
		if res != LookupHit {
			t.Fatalf("key %d: lock-free result %d, want hit", k, res)
		}
		checkLfValue(t, k, v, 100)
	}
	if _, res := ht.GetAppendLockFree(nil, 9999); res != LookupMiss {
		t.Fatalf("absent key: result %v, want definite miss", res)
	}
	// Appending to a prefilled dst must preserve it.
	v, res := ht.GetAppendLockFree([]byte("pre:"), 7)
	if res != LookupHit || !bytes.HasPrefix(v, []byte("pre:")) {
		t.Fatalf("dst prefix lost: %q (res %v)", v[:min(10, len(v))], res)
	}
	checkLfValue(t, 7, v[4:], 100)

	// Replacement publishes the new value.
	if err := ht.Put(7, lfValue(7, 64)); err != nil {
		t.Fatal(err)
	}
	v, res = ht.GetAppendLockFree(nil, 7)
	if res != LookupHit {
		t.Fatalf("replaced key: result %v", res)
	}
	checkLfValue(t, 7, v, 64)

	// Deletion turns the key into a definite miss (tombstoned bucket).
	if _, err := ht.Delete(7); err != nil {
		t.Fatal(err)
	}
	if _, res := ht.GetAppendLockFree(nil, 7); res != LookupMiss {
		t.Fatalf("deleted key: result %v, want miss", res)
	}

	if res := ht.ContainsLockFree(8); res != LookupHit {
		t.Fatalf("ContainsLockFree(8) = %v, want hit", res)
	}
	if res := ht.ContainsLockFree(7); res != LookupMiss {
		t.Fatalf("ContainsLockFree(deleted) = %v, want miss", res)
	}

	hits, misses, _, _ := ht.LockFreeStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("stats not counting: hits=%d misses=%d", hits, misses)
	}
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestHashTableLockFreeMultiPageValue(t *testing.T) {
	s := newSMA()
	defer s.Close()
	ht := NewSoftHashTable[int](s, "lf-multipage", HashTableConfig[int]{
		Policy:        EvictOldest,
		LockFreeReads: true,
	})
	defer ht.Close()

	// Values much larger than a page exercise a span's record, which
	// lives apart from the span's metadata.
	const big = 3*4096 + 123
	for k := 0; k < 8; k++ {
		if err := ht.Put(k, lfValue(k, big)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 8; k++ {
		v, res := ht.GetAppendLockFree(nil, k)
		if res != LookupHit {
			t.Fatalf("key %d: result %v", k, res)
		}
		checkLfValue(t, k, v, big)
	}
}

func TestHashTableKeysLockFree(t *testing.T) {
	s := newSMA()
	defer s.Close()
	ht := NewSoftHashTable[int](s, "lf-keys", HashTableConfig[int]{
		Policy:        EvictOldest,
		LockFreeReads: true,
	})

	for k := 0; k < 100; k++ {
		if err := ht.Put(k, lfValue(k, 40)); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[int]int)
	calls := 0
	ok := ht.KeysLockFree(func(k int) bool {
		seen[k]++
		calls++
		return true
	})
	if !ok {
		t.Fatal("KeysLockFree found no index on an open table")
	}
	if len(seen) != 100 || calls != 100 {
		t.Fatalf("walk saw %d distinct / %d total of 100 keys (duplicates in the index?)", len(seen), calls)
	}
	calls = 0
	ht.KeysLockFree(func(int) bool { calls++; return calls < 10 })
	if calls != 10 {
		t.Fatalf("walk went on for %d keys after fn asked to stop at 10", calls)
	}
	ht.Close()
	if ht.KeysLockFree(func(int) bool { return true }) {
		t.Fatal("KeysLockFree walked a closed table")
	}
}

// TestHashTableLockFreeReclaimRace drives lock-free GETs while
// writers churn and reclamation demands revoke entries: the chaos
// invariant is that every hit returns an untorn, self-consistent value
// even as the pages underneath are condemned and (after the grace
// period) recycled.
func TestHashTableLockFreeReclaimRace(t *testing.T) {
	s := core.New(core.Config{Machine: pages.NewPool(0)})
	defer s.Close()
	ht := NewSoftHashTable[int](s, "lf-race", HashTableConfig[int]{
		Policy:        EvictOldest,
		LockFreeReads: true,
	})
	defer ht.Close()

	const keys = 128
	const valSize = 400
	// Keys keys and keys+1 are the hot writer's (below): small values, so
	// their size class has slots to spare and their retirements reach the
	// limbo batch instead of being drained one by one ahead of a page
	// lease.
	const hotKeys, hotSize = 2, 40
	sizeOf := func(k int) int {
		if k >= keys {
			return hotSize
		}
		return valSize
	}
	for k := 0; k < keys+hotKeys; k++ {
		if err := ht.Put(k, lfValue(k, sizeOf(k))); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var hits, scanned, hotPuts atomic.Int64

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			var dst []byte
			for i := 0; !stop.Load(); i++ {
				k := (i*7 + seed*31) % (keys + hotKeys)
				v, res := ht.GetAppendLockFree(dst[:0], k)
				if res == LookupHit {
					checkLfValue(t, k, v, sizeOf(k))
					hits.Add(1)
				}
				dst = v
			}
		}(r)
	}
	// Scanner: the key walk runs beside the churn, index rebuilds
	// included, and sees only keys the table ever held.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			ht.KeysLockFree(func(k int) bool {
				if k < 0 || k >= keys+hotKeys {
					t.Errorf("key walk saw %d", k)
				}
				scanned.Add(1)
				return true
			})
		}
	}()
	// Writer: keep re-putting (replacement condemns the old record).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			k := i % keys
			if err := ht.Put(k, lfValue(k, valSize)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	// Hot-key writer: replaces the same two keys as fast as it can, so
	// retirements pile up to the limbo batch between demands and the
	// batched drain on its lock hand-backs runs beside the copying
	// readers (a replaced entry moves to the young end of the eviction
	// order, so reclamation rarely takes these keys away).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			k := keys + i%hotKeys
			if err := ht.Put(k, lfValue(k, hotSize)); err != nil {
				t.Errorf("hot put: %v", err)
				return
			}
			hotPuts.Add(1)
		}
	}()
	// Reclaimer: demand pages so the eviction path condemns and
	// epoch-retires live entries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.HandleDemand(4)
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 400 || ((hits.Load() == 0 || scanned.Load() == 0 || hotPuts.Load() < 2000) && time.Now().Before(deadline)); i++ {
		s.HandleDemand(1)
	}
	stop.Store(true)
	wg.Wait()

	if hits.Load() == 0 {
		t.Fatal("race test exercised zero lock-free hits")
	}
	if scanned.Load() == 0 {
		t.Fatal("race test walked zero keys lock-free")
	}
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestLockFreeDisabledPathsUnchanged pins that tables without the flag
// never take the optimistic path and never publish a record.
func TestLockFreeDisabledPathsUnchanged(t *testing.T) {
	s := newSMA()
	defer s.Close()
	ht := NewSoftHashTable[string](s, "no-lf", HashTableConfig[string]{
		Policy: EvictOldest,
	})
	defer ht.Close()
	if err := ht.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, res := ht.GetAppendLockFree(nil, "k"); res != LookupRetry {
		t.Fatalf("non-lock-free table served optimistic read: %v", res)
	}
	if res := ht.ContainsLockFree("k"); res != LookupRetry {
		t.Fatalf("ContainsLockFree on non-lock-free table = %v, want retry", res)
	}
	v, ok, err := ht.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("locked Get = %q, %v, %v", v, ok, err)
	}
}

// TestHashTableLockFreeLRUEngages pins the PR 10 bugfix: EvictLRU
// tables were wholesale excluded from lock-free reads because an
// optimistic read could not update recency. Lazy recency sampling
// (per-entry atomic clock stamps) lifts that restriction — LRU tables
// must now serve lock-free GETs.
func TestHashTableLockFreeLRUEngages(t *testing.T) {
	s := newSMA()
	defer s.Close()
	ht := NewSoftHashTable[int](s, "lru-lf", HashTableConfig[int]{
		Policy:        EvictLRU,
		LockFreeReads: true,
	})
	defer ht.Close()
	if !ht.LockFree() {
		t.Fatal("LockFreeReads must engage under EvictLRU (lazy recency sampling)")
	}
	for k := 0; k < 50; k++ {
		if err := ht.Put(k, lfValue(k, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 50; k++ {
		v, res := ht.GetAppendLockFree(nil, k)
		if res != LookupHit {
			t.Fatalf("key %d: result %v, want lock-free hit", k, res)
		}
		checkLfValue(t, k, v, 64)
	}
	hits, _, _, _ := ht.LockFreeStats()
	if hits < 50 {
		t.Fatalf("LRU lock-free hits = %d, want >= 50", hits)
	}
}

// TestHashTableLockFreeLRUSecondChance pins that recency observed only
// through the lock-free path protects hot entries from eviction: keys
// read repeatedly via GetAppendLockFree (so the sampled clock stamp is
// guaranteed to advance) survive a reclaim that evicts the cold half.
func TestHashTableLockFreeLRUSecondChance(t *testing.T) {
	s := newSMA()
	defer s.Close()
	ht := NewSoftHashTable[int](s, "lru-lf-sc", HashTableConfig[int]{
		Policy:        EvictLRU,
		LockFreeReads: true,
	})
	defer ht.Close()

	const keys = 64
	const hot = 8 // hot set: the oldest-inserted keys, coldest by insertion order
	for k := 0; k < keys; k++ {
		if err := ht.Put(k, lfValue(k, 200)); err != nil {
			t.Fatal(err)
		}
	}
	// Heat the hot set purely through the lock-free path. The first hit
	// on a never-stamped entry always stamps, and consecutive re-reads
	// cover the sampled path too regardless of hit-counter phase.
	for k := 0; k < hot; k++ {
		for i := 0; i < 2*recencySampleRate; i++ {
			if _, res := ht.GetAppendLockFree(nil, k); res != LookupHit {
				t.Fatalf("warm read key %d: %v", k, res)
			}
		}
	}
	// Demand a few pages so the table must evict. The hot keys sit at
	// the head of the LRU list (oldest inserts) and would be the first
	// victims without the second-chance stamps; the 56 cold keys hold
	// several pages' worth, so a 3-page demand never needs to reach
	// the rotated hot set.
	for i := 0; i < 3 && ht.Reclaimed() == 0; i++ {
		s.HandleDemand(1)
	}
	if ht.Reclaimed() == 0 {
		t.Fatal("reclaim evicted nothing")
	}
	for k := 0; k < hot; k++ {
		if _, res := ht.GetAppendLockFree(nil, k); res != LookupHit {
			t.Fatalf("hot key %d evicted despite lock-free recency (res %v)", k, res)
		}
	}
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestLimboNeverGrowsHeap: replacing one key over and over, with no
// reader registered, must hold exactly the pages an eager
// drain-on-every-hand-back held — batching retirements is allowed to
// delay recycling, never to make the heap lease a page (and so ask for
// budget, or provoke a reclaim) that the retired slots would have
// covered.
func TestLimboNeverGrowsHeap(t *testing.T) {
	// pagesHeld is what a drain on every hand-back ends on and never
	// exceeds after a Put (measured at the commit that still had it): the
	// live value beside the one replacing it — one page of slots, two
	// whole-page slots, or one two-page span once the old span's
	// hand-back has drained it.
	for _, tc := range []struct{ size, pagesHeld int }{
		{100, 1}, {1000, 1}, {4096, 2}, {6000, 2},
	} {
		s := newSMA()
		ht := NewSoftHashTable[string](s, "limbo-growth", HashTableConfig[string]{LockFreeReads: true})
		peak := 0
		for i := 0; i < 10000; i++ {
			if err := ht.Put("k", lfValue(i, tc.size)); err != nil {
				t.Fatal(err)
			}
			if held := ht.Context().HeapStats().PagesHeld; held > peak {
				peak = held
			}
		}
		st := ht.Context().HeapStats()
		if st.PagesHeld != tc.pagesHeld || peak != tc.pagesHeld {
			t.Errorf("size %d: %d pages held at the end (peak %d), want %d: %+v", tc.size, st.PagesHeld, peak, tc.pagesHeld, st)
		}
		ht.Close()
		s.Close()
	}
}

// TestParkedReaderPinsPastBatches parks a reader between Enter and Exit
// on a value it has loaded, then replaces that key (and churns others)
// through many limbo batches. Batched ratchets look less often than the
// per-hand-back ratchet did but accept nothing it refused: the reader's
// bytes stay intact however many batches go by, everything retired
// since it entered waits, and limbo drains once it exits.
func TestParkedReaderPinsPastBatches(t *testing.T) {
	s := newSMA()
	defer s.Close()
	ht := NewSoftHashTable[int](s, "parked", HashTableConfig[int]{LockFreeReads: true})
	defer ht.Close()
	const valSize = 400
	for k := 0; k < 8; k++ {
		if err := ht.Put(k, lfValue(k, valSize)); err != nil {
			t.Fatal(err)
		}
	}

	slot, ok := ht.dom.Enter(7)
	if !ok {
		t.Fatal("Enter failed")
	}
	var rec *alloc.View
	_ = ht.ctx.Do(func(*core.Tx) error { // lookup belongs under the lock; the record does not
		rec = ht.lookup(0).view.Load()
		return nil
	})
	if rec == nil {
		t.Fatal("no published record to park on")
	}

	// Every replacement writes different bytes into whatever slot it
	// gets, so a recycled slot under the parked reader would show.
	const rounds = 20 * 32 // many batches, whatever the batch constant
	for i := 1; i <= rounds; i++ {
		if err := ht.Put(i%8, lfValue(i%8+8*i, valSize)); err != nil {
			t.Fatal(err)
		}
	}
	checkLfValue(t, 0, rec.AppendTo(nil), valSize)
	if got := ht.ctx.HeapStats().LimboAllocs; got < rounds {
		t.Fatalf("limbo = %d with a reader parked since before %d retirements", got, rounds)
	}

	ht.dom.Exit(slot)
	// The next hand-back finds a backlog far past the batch and the
	// grace period open. (The exact bound at rest is core's to pin:
	// TestEpochLimboBounded.)
	if err := ht.Put(0, lfValue(0, valSize)); err != nil {
		t.Fatal(err)
	}
	if got := ht.ctx.HeapStats().LimboAllocs; got >= rounds/4 {
		t.Fatalf("limbo = %d after the parked reader exited and a write handed the lock back", got)
	}
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
