package sds

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"softmem/internal/core"
)

// checkIndex asserts what the table's one index owes its eviction list,
// under the heap lock: the list's length is n, every linked entry is the
// one find returns for its key from its own stored hash, the live
// buckets are exactly those entries (so no key sits on a chain twice),
// and used counts the live buckets and the tombstones and respects the
// load bound.
func checkIndex[K comparable](t *testing.T, ht *SoftHashTable[K]) {
	t.Helper()
	// Failures leave the locked section as errors: a t.Fatal inside it
	// would exit with the heap lock held.
	err := ht.ctx.Do(func(*core.Tx) error {
		idx := ht.idx.Load()
		linked := 0
		for e := ht.head; e != nil; e = e.next {
			linked++
			if e.hash != ht.hashKey(e.key) {
				return fmt.Errorf("entry %v carries hash %#x, its key hashes to %#x", e.key, e.hash, ht.hashKey(e.key))
			}
			if got, _ := ht.find(idx, e.hash, e.key); got != e {
				return fmt.Errorf("find(%v) = %p, the linked entry is %p", e.key, got, e)
			}
		}
		if linked != ht.n {
			return fmt.Errorf("eviction list holds %d entries, n = %d", linked, ht.n)
		}
		live, tombs := 0, 0
		seen := make(map[K]bool, ht.n)
		for i := range idx.buckets {
			switch e := idx.buckets[i].Load(); {
			case e == nil:
			case e == ht.tomb:
				tombs++
			case seen[e.key]:
				return fmt.Errorf("key %v is in the index twice", e.key)
			default:
				seen[e.key] = true
				live++
			}
		}
		if live != ht.n || idx.used != live+tombs {
			return fmt.Errorf("index holds %d live buckets and %d tombstones; n = %d, used = %d", live, tombs, ht.n, idx.used)
		}
		if idx.used*htIndexLoadDen > len(idx.buckets)*htIndexLoadNum {
			return fmt.Errorf("used = %d of %d buckets: past the load bound", idx.used, len(idx.buckets))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHashTablePutGetProperty is the table against a plain Go map — the
// structure that used to be its index and is now only its reference: a
// seeded run of Put, replace, Delete, Get, Contains and forced
// reclamation (a revoked key leaves the model through OnReclaim), over
// both kinds of table and both policies, through index growth, rebuilds
// that only shed tombstones, and tombstone reuse, with checkIndex after
// every step.
func TestHashTablePutGetProperty(t *testing.T) {
	const keys, steps = 400, 5000
	for _, lockFree := range []bool{false, true} {
		for _, policy := range []EvictPolicy{EvictOldest, EvictLRU} {
			t.Run(fmt.Sprintf("lockfree=%v/%v", lockFree, policy), func(t *testing.T) {
				rng := rand.New(rand.NewSource(22))
				sma := newSMA()
				defer sma.Close()
				want := map[int][]byte{}
				revoked := 0
				ht := NewSoftHashTable[int](sma, "model", HashTableConfig[int]{
					Policy: policy, LockFreeReads: lockFree,
					OnReclaim: func(k int, v []byte) {
						if !bytes.Equal(v, want[k]) {
							t.Errorf("OnReclaim(%d) carried %.20q, the model holds %.20q", k, v, want[k])
						}
						delete(want, k)
						revoked++
					},
				})
				defer ht.Close()

				rebuilds, grown, reused := 0, 0, 0
				gen := ht.idx.Load()
				for step := 0; step < steps; step++ {
					// The key range widens as the run goes, so the table keeps
					// growing between the waves of deletions.
					k := rng.Intn(16 + keys*step/steps)
					_, held := want[k]
					switch op := rng.Intn(100); {
					case op < 45:
						if !held {
							_ = ht.ctx.Do(func(*core.Tx) error {
								idx := ht.idx.Load()
								if _, at := ht.find(idx, ht.hashKey(k), k); idx.buckets[at].Load() == ht.tomb {
									reused++
								}
								return nil
							})
						}
						v := lfValue(k+1000*step, 40+rng.Intn(900))
						if err := ht.Put(k, v); err != nil {
							t.Fatal(err)
						}
						want[k] = v
					case op < 70:
						removed, err := ht.Delete(k)
						if err != nil || removed != held {
							t.Fatalf("step %d: Delete(%d) = %v, %v; the model held it: %v", step, k, removed, err, held)
						}
						delete(want, k)
					case op < 85:
						v, ok, err := ht.Get(k)
						if err != nil || ok != held || !bytes.Equal(v, want[k]) {
							t.Fatalf("step %d: Get(%d) = %.20q, %v, %v; model %.20q, %v", step, k, v, ok, err, want[k], held)
						}
						// With no writer beside it an unlocked read is exact too,
						// and a table that publishes nothing refuses it.
						res := LookupRetry
						if lockFree {
							res = map[bool]LookupResult{true: LookupHit, false: LookupMiss}[held]
						}
						if v, got := ht.GetAppendLockFree(nil, k); got != res || !bytes.Equal(v, want[k]) && got == LookupHit {
							t.Fatalf("step %d: GetAppendLockFree(%d) = %.20q, %v; want %v", step, k, v, got, res)
						}
						if got := ht.ContainsLockFree(k); got != res {
							t.Fatalf("step %d: ContainsLockFree(%d) = %v, want %v", step, k, got, res)
						}
					case op < 99:
						if got := ht.Contains(k); got != held {
							t.Fatalf("step %d: Contains(%d) = %v, model %v", step, k, got, held)
						}
					default:
						sma.HandleDemand(1 + rng.Intn(2))
					}
					checkIndex(t, ht)
					if n := ht.Len(); n != len(want) {
						t.Fatalf("step %d: Len = %d, the model holds %d", step, n, len(want))
					}
					if cur := ht.idx.Load(); cur != gen {
						if len(cur.buckets) > len(gen.buckets) {
							grown++
						}
						gen = cur
						rebuilds++
					}
				}
				n := 0
				if err := ht.Range(func(k int, v []byte) bool {
					n++
					if !bytes.Equal(v, want[k]) {
						t.Errorf("Range: key %d holds %.20q, model %.20q", k, v, want[k])
					}
					return true
				}); err != nil || n != len(want) {
					t.Fatalf("Range visited %d entries (err %v), model holds %d", n, err, len(want))
				}
				if grown < 2 || rebuilds-grown < 1 || reused == 0 || revoked == 0 {
					t.Fatalf("the run crossed %d rebuilds (%d grew the index), reused %d tombstones and saw %d revocations; it must do all of these", rebuilds, grown, reused, revoked)
				}
				t.Logf("%d rebuilds (%d grew the index), %d tombstones reused, %d entries revoked, %d left", rebuilds, grown, reused, revoked, len(want))
			})
		}
	}
}

// TestHashTableLockFreeReadersAcrossRebuilds: unlocked readers walk the
// very array the writer mutates, and keep walking a generation a rebuild
// has replaced. While one writer inserts, replaces and deletes its way
// through rebuild after rebuild, every unlocked hit must carry bytes a
// Put wrote for that key, and a key that is only ever replaced — never
// deleted, never revoked — must never read as absent, whichever
// generation the reader holds.
func TestHashTableLockFreeReadersAcrossRebuilds(t *testing.T) {
	const stable, churn, ranges, readers = 16, 300, 4, 3
	s := newSMA()
	defer s.Close()
	ht := NewSoftHashTable[int](s, "generations", HashTableConfig[int]{LockFreeReads: true})
	defer ht.Close()
	put := func(k, version int) {
		if err := ht.Put(k, lfValue(k, 32+version%200)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < stable; k++ {
		put(k, 0)
	}

	var stop atomic.Bool
	var hits atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			var buf []byte
			for i := 0; !stop.Load(); i++ {
				if i%16 == 0 {
					runtime.Gosched() // on one CPU a spinning reader would hold the writer off for a whole time slice
				}
				k := rng.Intn(stable + ranges*churn)
				v, res := ht.GetAppendLockFree(buf[:0], k)
				buf = v
				switch {
				case res == LookupHit:
					hits.Add(1)
					if len(v) < 32 || !bytes.Equal(v, lfValue(k, len(v))) {
						t.Errorf("key %d: unlocked hit read %d bytes no Put wrote for it: %.32q", k, len(v), v)
						return
					}
				case res == LookupMiss && k < stable:
					t.Errorf("key %d is never deleted, GetAppendLockFree missed it", k)
					return
				}
				if k < stable && ht.ContainsLockFree(k) == LookupMiss {
					t.Errorf("key %d is never deleted, ContainsLockFree missed it", k)
					return
				}
			}
		}()
	}

	// Waves: fill a range of churn keys (the index doubles on the way),
	// replacing stable keys meanwhile, then delete the range. The next
	// wave's keys probe other chains than the tombstones that leaves, so
	// the index fills up, is rebuilt small and grows again — until the
	// readers have been served across enough generations.
	rebuilds, gen := 0, ht.idx.Load()
	step := func() {
		if cur := ht.idx.Load(); cur != gen {
			gen = cur
			rebuilds++
		}
		runtime.Gosched()
	}
	for wave := 1; rebuilds < 3 || wave <= 4 || hits.Load() < 2000; wave++ {
		if wave > 2000 {
			t.Fatalf("after %d waves: %d rebuilds, %d unlocked hits", wave, rebuilds, hits.Load())
		}
		lo := stable + wave%ranges*churn
		for k := lo; k < lo+churn && !t.Failed(); k++ {
			put(k, wave)
			if k%8 == 0 {
				put(k%stable, wave+k)
			}
			step()
		}
		for k := lo; k < lo+churn && !t.Failed(); k++ {
			if _, err := ht.Delete(k); err != nil {
				t.Fatal(err)
			}
			step()
		}
	}
	stop.Store(true)
	wg.Wait()
	checkIndex(t, ht)
	if n := ht.Len(); n != stable {
		t.Fatalf("Len = %d after the last wave, want the %d stable keys", n, stable)
	}
	t.Logf("%d rebuilds, %d unlocked hits", rebuilds, hits.Load())
}
