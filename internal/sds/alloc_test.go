//go:build !race

package sds

import "testing"

// These tests pin what a write to a lock-free SDS costs in Go
// allocations. Publishing a value writes the heap's own per-slot record
// and allocates nothing (it was one box per write). Excluded under -race
// because race instrumentation itself allocates.

// TestHashTableInsertAllocs: a first-time Put allocates the entry and
// nothing else beside it — the records array its page gets once and the
// index's doublings are spread over many inserts.
func TestHashTableInsertAllocs(t *testing.T) {
	s := newSMA()
	defer s.Close()
	ht := NewSoftHashTable[int](s, "ht-allocs", HashTableConfig[int]{LockFreeReads: true})
	defer ht.Close()
	val := lfValue(1, 64)
	k := 0
	if n := testing.AllocsPerRun(2000, func() {
		k++
		if err := ht.Put(k, val); err != nil {
			panic(err)
		}
	}); n > 1 {
		t.Fatalf("a first-time SoftHashTable.Put does %.2f Go allocations, want <= 1", n)
	}
}
