package sds

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/pages"
)

// The churn tests hold the published record to the bytes' standard:
// lock-free readers copy through it while one writer replaces, deletes
// and re-inserts keys with sizes that cross classes and the one-page
// limit and runs reclamation demands, so slots, whole pages (recarved
// under fresh metadata) and retired spans all come back into use. A
// record rewritten before its grace period ends shows as a hit that is
// not a value some Put wrote for that key.

const churnKeys = 48

// churnSizes cross size classes (200, 300 and 400 B fall in three of
// the classes between 192 and 448 B), the classes carved on slabs of
// several pages (1500, 2500 and 3000 B: three, two and three pages, with
// slots that cross a page boundary), the full-page slot and the one-page
// limit: 6000 and 9000 are two- and three-page spans.
var churnSizes = [...]int{40, 200, 300, 400, 1000, 1500, 2500, 3000, 4096, 6000, 9000}

// churnValue is the writer's n-th value for key k: self-describing, so
// the id it spells names both the key and the write.
func churnValue(k, n int) []byte {
	return lfValue(n*churnKeys+k, churnSizes[n%len(churnSizes)])
}

// checkChurnValue reports why v is not a value churnValue made for key k,
// or nil when it is one.
func checkChurnValue(k int, v []byte) error {
	if len(v) < 12 || string(v[:4]) != "val-" {
		return fmt.Errorf("key %d: %d bytes starting %q", k, len(v), v[:min(12, len(v))])
	}
	id := 0
	for _, c := range v[4:] {
		if c == '-' {
			break
		}
		id = id*10 + int(c-'0')
	}
	n := id / churnKeys
	if id%churnKeys != k || len(v) != churnSizes[n%len(churnSizes)] || !bytes.Equal(v, lfValue(id, len(v))) {
		return fmt.Errorf("key %d: a %d-byte value that no Put wrote for it (it names write %d of key %d)", k, len(v), n, id%churnKeys)
	}
	return nil
}

// churn runs readers beside one writer until the writer has done enough
// steps and the readers have hit enough, or a deadline passes. put and
// del are the writer's operations, read a reader's (it reports a hit's
// value, or ok false), demand the reclamation it runs every so often —
// past the free pool, so that the SDS gives up pages. A read copies into
// a fresh slice: the allocation between loading the record and copying
// through it is what gives an early rewrite a window to show in.
func churn(t *testing.T, put func(k int, v []byte) error, del func(k int) error, read func(k int) ([]byte, bool), demand func()) {
	t.Helper()
	var stop atomic.Bool
	var hits atomic.Int64
	var failure atomic.Pointer[error]
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := rng.Intn(churnKeys)
				v, ok := read(k)
				if !ok {
					continue
				}
				if err := checkChurnValue(k, v); err != nil {
					failure.CompareAndSwap(nil, &err)
					return
				}
				hits.Add(1)
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(99))
	deadline := time.Now().Add(10 * time.Second)
	steps := 0
	for ; failure.Load() == nil && (steps < 20000 || hits.Load() < 2000) && time.Now().Before(deadline); steps++ {
		k := rng.Intn(churnKeys)
		var err error
		if rng.Intn(4) == 0 {
			err = del(k)
		} else {
			err = put(k, churnValue(k, steps))
		}
		if err != nil {
			t.Errorf("write %d: %v", steps, err)
			break
		}
		if steps%256 == 255 {
			demand()
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := failure.Load(); err != nil {
		t.Fatalf("after %d writes: %v", steps, *err)
	}
	if hits.Load() == 0 {
		t.Fatalf("%d writes, and the readers never hit", steps)
	}
}

func TestHashTableRecordLifetimeUnderChurn(t *testing.T) {
	s := core.New(core.Config{Machine: pages.NewPool(0), HeapFreeMax: 0})
	defer s.Close()
	ht := NewSoftHashTable[int](s, "record-churn", HashTableConfig[int]{LockFreeReads: true})
	defer ht.Close()
	churn(t,
		func(k int, v []byte) error { return ht.Put(k, v) },
		func(k int) error { _, err := ht.Delete(k); return err },
		func(k int) ([]byte, bool) {
			ht.ContainsLockFree(k) // loads the record pointer, and no more
			v, res := ht.GetAppendLockFree(nil, k)
			return v, res == LookupHit
		},
		func() { s.HandleDemand(s.Stats().FreePoolPages + 4) })
	if ht.Reclaimed() == 0 {
		t.Fatal("the demands revoked nothing")
	}
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestPageTurnoverAllocatesOnlyMetadata: replacing values of random
// 64–512 B sizes keeps emptying pages and carving them again for other
// classes, and so does replacing values of 1,025–4,096 B, whose classes
// carve slabs of one, two and three pages. Each carve takes a fresh
// pageMeta, so that stale refs fail, but the slot arrays, records and
// crossing spans of the class's last emptied slab, so turnover costs the
// Go heap at most one allocation per carve.
func TestPageTurnoverAllocatesOnlyMetadata(t *testing.T) {
	for _, tc := range []struct {
		name           string
		keys, min, max int
	}{
		{"64-512B", 512, 64, 512},
		{"1025-4096B", 128, 1025, 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := core.New(core.Config{Machine: pages.NewPool(0)})
			defer s.Close()
			ht := NewSoftHashTable[int](s, "turnover", HashTableConfig[int]{LockFreeReads: true})
			defer ht.Close()
			const batch, runs = 1024, 10
			rng := rand.New(rand.NewSource(1))
			value := make([]byte, tc.max)
			set := func() {
				for range batch {
					if err := ht.Put(rng.Intn(tc.keys), value[:tc.min+rng.Intn(tc.max-tc.min+1)]); err != nil {
						t.Fatal(err)
					}
				}
			}
			for range 50 { // every class reaches its peak slab count
				set()
			}
			before := ht.Context().HeapStats().Carves
			allocs := testing.AllocsPerRun(runs, set)
			carves := ht.Context().HeapStats().Carves - before
			if carves < runs {
				t.Fatalf("%d carves in %d batches: the slabs did not turn over", carves, runs+1)
			}
			if total := allocs * runs; total > float64(carves) {
				t.Fatalf("%.0f Go allocations for %d carves", total, carves)
			}
		})
	}
}

// TestOldestTableLeavesTheClock: only a lock-free LRU table's reclaim
// reads recency stamps, so an oldest-first table's replaces and reads
// advance no clock and store no stamp.
func TestOldestTableLeavesTheClock(t *testing.T) {
	s := newSMA()
	defer s.Close()
	ht := NewSoftHashTable[int](s, "oldest-clock", HashTableConfig[int]{LockFreeReads: true})
	defer ht.Close()
	for i := 0; i < 100; i++ {
		if err := ht.Put(i%4, lfValue(i, 64)); err != nil {
			t.Fatal(err)
		}
		if _, res := ht.GetAppendLockFree(nil, i%4); res != LookupHit {
			t.Fatalf("read %d: %v", i, res)
		}
	}
	if c := ht.clock.Load(); c != 0 {
		t.Fatalf("the clock of an oldest-first table moved to %d", c)
	}
	_ = ht.ctx.Do(func(*core.Tx) error {
		for e := ht.head; e != nil; e = e.next {
			if st := e.stamp.Load(); st != 0 {
				t.Errorf("key %d carries stamp %d", e.key, st)
			}
		}
		return nil
	})
}
