package sds

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"softmem/internal/alloc"
	"softmem/internal/core"
	"softmem/internal/pages"
)

// pageMates maps every key to the keys whose values share its page (its
// own included), as the heap reports them.
func pageMates(t *testing.T, ht *SoftHashTable[int]) map[int][]int {
	t.Helper()
	mates := make(map[int][]int)
	err := ht.ctx.Do(func(tx *core.Tx) error {
		for e := ht.head; e != nil; e = e.next {
			owners, _, err := tx.Tenants(e.ref, nil)
			if err != nil {
				return err
			}
			for _, o := range owners {
				m, ok := o.(*htEntry[int])
				if !ok {
					return fmt.Errorf("key %d shares its page with an unowned slot", e.key)
				}
				mates[e.key] = append(mates[e.key], m.key)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return mates
}

// evictionOrder returns every key's position in the table's eviction
// order (0 is evicted first).
func evictionOrder(ht *SoftHashTable[int]) map[int]int {
	age := make(map[int]int)
	_ = ht.Range(func(k int, _ []byte) bool {
		age[k] = len(age)
		return true
	})
	return age
}

// TestReclaimTakesWholePagesInAgeOrder is the ordering property of
// page-wise reclaim, for both policies, on a heap fragmented by deletes
// and replacements so that pages hold tenants of very different ages:
// after a demand of k pages, every revoked entry is older than every
// survivor or shares a page with a revoked entry that is; pages are
// revoked whole, so no entry is lost that did not buy a page; and the
// demand is met.
func TestReclaimTakesWholePagesInAgeOrder(t *testing.T) {
	sizes := []int{40, 200, 1000, 1000, 2048, 4096, 6000}
	for _, tc := range []struct {
		name     string
		policy   EvictPolicy
		lockFree bool
	}{
		{"oldest", EvictOldest, false},
		{"oldest-lockfree", EvictOldest, true},
		{"lru", EvictLRU, false},
		{"lru-lockfree", EvictLRU, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(16))
			sma := core.New(core.Config{Machine: pages.NewPool(0), HeapFreeMax: 0})
			defer sma.Close()
			revoked := make(map[int]bool)
			ht := NewSoftHashTable[int](sma, "pagewise", HashTableConfig[int]{
				Policy:        tc.policy,
				LockFreeReads: tc.lockFree,
				OnReclaim:     func(k int, _ []byte) { revoked[k] = true },
			})
			defer ht.Close()
			nextKey := 0
			churn := func(n int) {
				for range n {
					switch r := rng.Intn(10); {
					case r < 6 || ht.Len() < 50:
						if err := ht.Put(nextKey, lfValue(nextKey, sizes[rng.Intn(len(sizes))])); err != nil {
							t.Fatal(err)
						}
						nextKey++
					case r < 8:
						_, _ = ht.Delete(rng.Intn(nextKey))
					case tc.policy == EvictLRU && tc.lockFree:
						// A touch makes the entry hot, and a hot entry's
						// second chance is a different property (see
						// TestSecondChanceTenantVetoesItsPage).
					case r < 9:
						k := rng.Intn(nextKey)
						if ht.Contains(k) {
							if err := ht.Put(k, lfValue(k, sizes[rng.Intn(len(sizes))])); err != nil {
								t.Fatal(err)
							}
						}
					default:
						_, _, _ = ht.Get(rng.Intn(nextKey))
					}
				}
			}
			for round, k := range []int{1, 3, 8, 20} {
				churn(600)
				mates, age := pageMates(t, ht), evictionOrder(ht)
				clear(revoked)
				if got := sma.HandleDemand(k); got < k {
					t.Fatalf("round %d: HandleDemand(%d) = %d", round, k, got)
				}
				oldestSurvivor := len(age)
				for key, a := range age {
					if !revoked[key] {
						oldestSurvivor = min(oldestSurvivor, a)
						if !ht.Contains(key) {
							t.Fatalf("round %d: key %d vanished without its reclaim callback", round, key)
						}
					}
				}
				for key := range revoked {
					if ht.Contains(key) {
						t.Fatalf("round %d: revoked key %d still present", round, key)
					}
					excused := age[key] < oldestSurvivor
					for _, m := range mates[key] {
						if !revoked[m] {
							t.Fatalf("round %d: key %d revoked but its page mate %d survives: a victim that bought no page", round, key, m)
						}
						excused = excused || age[m] < oldestSurvivor
					}
					if !excused {
						t.Fatalf("round %d: key %d (age %d) revoked while older key at age %d survives, and no mate on its page is older", round, key, age[key], oldestSurvivor)
					}
				}
				if err := sma.VerifyIntegrity(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestReclaimPagesPerEntry: with four 1 KiB slots to a page and nothing
// else in the heap, k pages cost exactly 4k entries — the oldest 4k — and
// the span the demand reports says so.
func TestReclaimPagesPerEntry(t *testing.T) {
	sma := newSMA()
	defer sma.Close()
	ht := NewSoftHashTable[int](sma, "four-to-a-page", HashTableConfig[int]{LockFreeReads: true})
	defer ht.Close()
	for k := 0; k < 64; k++ {
		if err := ht.Put(k, lfValue(k, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	released, spans, _ := sma.HandleDemandTraced(5, 0)
	if released != 5 || ht.Reclaimed() != 20 {
		t.Fatalf("released %d pages for %d entries, want 5 for 20", released, ht.Reclaimed())
	}
	for k := 0; k < 64; k++ {
		if got, want := ht.Contains(k), k >= 20; got != want {
			t.Fatalf("key %d present = %v, want %v", k, got, want)
		}
	}
	want := core.VictimAges{OldestVictim: 1, NewestVictim: 20, OldestSurvivor: 21}
	if len(spans) != 1 || spans[0].VictimAges != want || spans[0].Pages != 5 || spans[0].Allocs != 20 {
		t.Fatalf("spans = %+v, want one sds span: 5 pages, 20 allocations, %+v", spans, want)
	}
}

// TestReclaimSlabsPerEntry: 3,000-B values take 3,072-B slots, four to
// a slab of three pages, so a demand revokes the oldest entries four at a
// time and each four frees three pages. A demand that is not a multiple
// of three leaves the rest of its last slab free in the heap, and the
// next demand takes those pages before it revokes anything.
func TestReclaimSlabsPerEntry(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(0), HeapFreeMax: 0})
	defer sma.Close()
	ht := NewSoftHashTable[int](sma, "four-to-a-slab", HashTableConfig[int]{LockFreeReads: true})
	defer ht.Close()
	const keys = 40 // ten slabs
	for k := range keys {
		if err := ht.Put(k, lfValue(k, 3000)); err != nil {
			t.Fatal(err)
		}
	}
	used := sma.Stats().UsedPages
	if used != 30 {
		t.Fatalf("%d values of 3,000 B use %d pages, want 30", keys, used)
	}
	revoked := 0
	for _, c := range []struct{ demand, entries, left int }{
		{3, 4, 0}, {6, 8, 0}, {1, 4, 2}, {2, 0, 0}, {9, 12, 0},
	} {
		if released := sma.HandleDemand(c.demand); released != c.demand || ht.Reclaimed() != int64(revoked+c.entries) {
			t.Fatalf("HandleDemand(%d) released %d pages for %d entries, want %d for %d",
				c.demand, released, ht.Reclaimed()-int64(revoked), c.demand, c.entries)
		}
		revoked += c.entries
		for k := range keys {
			if got, want := ht.Contains(k), k >= revoked; got != want {
				t.Fatalf("after HandleDemand(%d), key %d present = %v, want %v", c.demand, k, got, want)
			}
		}
		now, free := sma.Stats().UsedPages, ht.Context().HeapStats().FreePages
		if used-now != c.demand || free != c.left || (now-free)%3 != 0 {
			t.Fatalf("HandleDemand(%d): used pages %d -> %d with %d free in the heap, want down by %d with %d free",
				c.demand, used, now, free, c.demand, c.left)
		}
		used = now
		if err := sma.VerifyIntegrity(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUninstalledAllocationVetoesItsPage: between Put's allocation and
// its index update the heap lock is free, and a slot that is live but
// belongs to no entry yet cannot be revoked — so its page cannot come
// free and reclaim must not waste its co-tenants on it.
func TestUninstalledAllocationVetoesItsPage(t *testing.T) {
	sma := newSMA()
	defer sma.Close()
	ht := NewSoftHashTable[int](sma, "mid-put", HashTableConfig[int]{})
	defer ht.Close()
	for k := 0; k < 3; k++ {
		if err := ht.Put(k, lfValue(k, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := ht.ctx.AllocData(lfValue(3, 1000)) // the first half of Put(3, …)
	if err != nil {
		t.Fatal(err)
	}
	if got := sma.HandleDemand(1); got != 0 || ht.Len() != 3 {
		t.Fatalf("HandleDemand(1) = %d leaving %d entries; the only page holds an uninstalled slot", got, ht.Len())
	}
	if err := ht.ctx.Do(func(tx *core.Tx) error { return ht.putLocked(tx, 3, ref) }); err != nil {
		t.Fatal(err)
	}
	if got := sma.HandleDemand(1); got != 1 || ht.Len() != 0 {
		t.Fatalf("after the install: HandleDemand(1) = %d leaving %d entries, want 1 and 0", got, ht.Len())
	}
}

// TestSecondChanceTenantVetoesItsPage: under lock-free LRU a hot entry is
// spared once, and an entry spared by this call vetoes its page like a
// pin: cold co-tenants of hot entries outlive cold entries on all-cold
// pages. When only such pages are left, the second pass takes them in
// list order, hot tenants and all.
func TestSecondChanceTenantVetoesItsPage(t *testing.T) {
	s := newSMA()
	defer s.Close()
	var evicted []int
	ht := NewSoftHashTable[int](s, "lru-veto", HashTableConfig[int]{
		Policy:        EvictLRU,
		LockFreeReads: true,
		OnReclaim:     func(k int, _ []byte) { evicted = append(evicted, k) },
	})
	defer ht.Close()
	for k := 0; k < 12; k++ { // pages {0..3}, {4..7}, {8..11}
		if err := ht.Put(k, lfValue(k, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	heat := func(k int) {
		for range 2 * recencySampleRate {
			if _, res := ht.GetAppendLockFree(nil, k); res != LookupHit {
				t.Fatalf("warm read of key %d: %v", k, res)
			}
		}
	}
	heat(1) // the walk meets it before it looks at any page
	heat(6) // found hot only when key 4 names their page
	if got := s.HandleDemand(1); got != 1 || !slices.Equal(evicted, []int{8, 9, 10, 11}) {
		t.Fatalf("released %d, evicted %v; want 1 and the all-cold page [8 9 10 11]", got, evicted)
	}
	// Both hot entries have had their chance; nothing was read since.
	evicted = nil
	if got := s.HandleDemand(1); got != 1 || !slices.Equal(evicted, []int{0, 2, 3, 1}) {
		t.Fatalf("released %d, evicted %v; want 1 and the oldest page, its spared tenant last: [0 2 3 1]", got, evicted)
	}
	// Everything left is hot again: pass 0 takes nothing, pass 1 must.
	evicted = nil
	for _, k := range []int{4, 5, 6, 7} {
		heat(k)
	}
	if got := s.HandleDemand(1); got != 1 || len(evicted) != 4 {
		t.Fatalf("released %d, evicted %v; want the last page although all of it is hot", got, evicted)
	}
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestReclaimTakesSpansWhole: a multi-page value is a page group of one
// tenant; it goes when it is the oldest and counts for all its pages.
func TestReclaimTakesSpansWhole(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(0), HeapFreeMax: 0})
	defer sma.Close()
	var evicted []int
	ht := NewSoftHashTable[int](sma, "spans", HashTableConfig[int]{
		LockFreeReads: true,
		OnReclaim:     func(k int, _ []byte) { evicted = append(evicted, k) },
	})
	defer ht.Close()
	for k, size := range []int{1000, 3 * pages.Size, 1000, 1000, 1000, 1000} {
		if err := ht.Put(k, lfValue(k, size)); err != nil {
			t.Fatal(err)
		}
	}
	// Oldest first: the page of key 0 (with 2, 3, 4), then the span.
	if got := sma.HandleDemand(1); got != 1 || !slices.Equal(evicted, []int{0, 2, 3, 4}) {
		t.Fatalf("released %d, evicted %v; want 1 and [0 2 3 4]", got, evicted)
	}
	evicted = nil
	if got := sma.HandleDemand(2); got != 3 || !slices.Equal(evicted, []int{1}) {
		t.Fatalf("released %d, evicted %v; want the whole 3-page span of key 1", got, evicted)
	}
	if !ht.Contains(5) {
		t.Fatal("key 5 lost: the span alone covered the demand")
	}
}

// TestIntegrityChecksOwners: VerifyIntegrity notices an entry whose ref
// no longer names the slot it is recorded on.
func TestIntegrityChecksOwners(t *testing.T) {
	sma := newSMA()
	defer sma.Close()
	ht := NewSoftHashTable[int](sma, "owners", HashTableConfig[int]{})
	defer ht.Close()
	for k := 0; k < 2; k++ {
		if err := ht.Put(k, lfValue(k, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sma.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	var saved alloc.Ref
	_ = ht.ctx.Do(func(*core.Tx) error {
		saved, ht.lookup(0).ref = ht.lookup(0).ref, ht.lookup(1).ref
		return nil
	})
	if err := sma.VerifyIntegrity(); err == nil {
		t.Fatal("VerifyIntegrity accepted an entry whose ref names another entry's slot")
	}
	_ = ht.ctx.Do(func(*core.Tx) error {
		ht.lookup(0).ref = saved
		return nil
	})
	if err := sma.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
