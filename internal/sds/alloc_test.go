//go:build !race

package sds

import "testing"

// TestSortedMapReplaceAllocs pins what publishing a value to lock-free
// readers costs in Go allocations: one, the box that carries the value's
// bytes inline. (Two when the box pointed at a separately allocated
// segment list.) Excluded under -race because race instrumentation
// itself allocates.
func TestSortedMapReplaceAllocs(t *testing.T) {
	s := newSMA()
	defer s.Close()
	m := NewSoftSortedMap[int](s, "sm-allocs", SortedMapConfig[int]{Seed: 1, LockFreeReads: true})
	defer m.Close()
	val := lfValue(1, 256)
	if err := m.Put(1, val); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		if err := m.Put(1, val); err != nil {
			panic(err)
		}
	}); n > 1 {
		t.Fatalf("replacing SoftSortedMap.Put does %.2f Go allocations, want <= 1", n)
	}
}
