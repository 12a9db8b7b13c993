package alloc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"softmem/internal/pages"
)

func newHeap(capacityPages int) (*Heap, *pages.Pool) {
	pool := pages.NewPool(capacityPages)
	return New(PoolSource{Pool: pool}), pool
}

func TestAllocFreeRoundtrip(t *testing.T) {
	h, pool := newHeap(0)
	ref, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Bytes(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 100 {
		t.Fatalf("len(Bytes) = %d, want 100", len(b))
	}
	copy(b, []byte("hello"))
	b2, _ := h.Bytes(ref)
	if string(b2[:5]) != "hello" {
		t.Fatal("data did not persist")
	}
	if err := h.Free(ref); err != nil {
		t.Fatal(err)
	}
	if h.Stats().LiveAllocs != 0 {
		t.Fatalf("LiveAllocs = %d after free", h.Stats().LiveAllocs)
	}
	h.Reset()
	if pool.InUse() != 0 {
		t.Fatalf("pool InUse = %d after Reset", pool.InUse())
	}
}

func TestAllocBadSize(t *testing.T) {
	h, _ := newHeap(0)
	for _, size := range []int{0, -1} {
		if _, err := h.Alloc(size); !errors.Is(err, ErrBadSize) {
			t.Errorf("Alloc(%d) err = %v, want ErrBadSize", size, err)
		}
	}
}

func TestClassSizeRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 16}, {16, 16}, {17, 32}, {1000, 1024}, {1024, 1024},
		{1361, 2048}, {2049, 4096}, {4096, 4096},
		{4097, 2 * pages.Size}, {10000, 3 * pages.Size},
	}
	for _, c := range cases {
		if got := ClassSize(c.in); got != c.want {
			t.Errorf("ClassSize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestClassesTileThePage derives the class table from the page size: for
// each slot count n, the largest multiple of 16 that fits n times in a
// page, each distinct value once. classOf needs every class to be a
// multiple of 16 and consecutive classes at least 16 apart, and ClassSize
// rounds every slot-sized allocation up to the smallest class that holds
// it.
func TestClassesTileThePage(t *testing.T) {
	var want []int
	for n := pages.Size / 16; n >= 1; n-- {
		if c := pages.Size / n / 16 * 16; len(want) == 0 || c != want[len(want)-1] {
			want = append(want, c)
		}
	}
	if !slices.Equal(classes[:], want) {
		t.Fatalf("classes = %v, want %v", classes, want)
	}
	for i, c := range classes {
		if c%16 != 0 || i > 0 && c-classes[i-1] < 16 {
			t.Fatalf("class %d (%d B) is not a multiple of 16 at least 16 above the last", i, c)
		}
	}
	for size := 1; size <= pages.Size; size++ {
		i, _ := slices.BinarySearch(classes[:], size)
		if got := ClassSize(size); got != classes[i] {
			t.Fatalf("ClassSize(%d) = %d, want %d", size, got, classes[i])
		}
	}
}

func TestFreeInvalidRef(t *testing.T) {
	h, _ := newHeap(0)
	if err := h.Free(Ref{}); !errors.Is(err, ErrInvalidRef) {
		t.Fatalf("Free(nil ref) = %v, want ErrInvalidRef", err)
	}
	ref, _ := h.Alloc(64)
	if err := h.Free(ref); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(ref); !errors.Is(err, ErrInvalidRef) {
		t.Fatalf("double free = %v, want ErrInvalidRef", err)
	}
	if _, err := h.Bytes(ref); !errors.Is(err, ErrInvalidRef) {
		t.Fatalf("Bytes after free = %v, want ErrInvalidRef", err)
	}
	if h.Live(ref) {
		t.Fatal("Live(ref) = true after free")
	}
}

func TestSlotReuseInvalidatesOldRef(t *testing.T) {
	h, _ := newHeap(0)
	old, _ := h.Alloc(64)
	if err := h.Free(old); err != nil {
		t.Fatal(err)
	}
	fresh, _ := h.Alloc(64)
	if fresh == old {
		t.Fatal("recycled slot produced identical ref")
	}
	if _, err := h.Bytes(old); !errors.Is(err, ErrInvalidRef) {
		t.Fatalf("stale ref usable after slot reuse: %v", err)
	}
	if !h.Live(fresh) {
		t.Fatal("fresh ref not live")
	}
}

func TestPageRetirementAndRelease(t *testing.T) {
	h, pool := newHeap(0)
	// 4 × 1 KiB fills exactly one page.
	var refs []Ref
	for i := 0; i < 4; i++ {
		r, err := h.Alloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	if h.PagesHeld() != 1 {
		t.Fatalf("PagesHeld = %d, want 1", h.PagesHeld())
	}
	for _, r := range refs {
		if err := h.Free(r); err != nil {
			t.Fatal(err)
		}
	}
	if h.FreePages() != 1 {
		t.Fatalf("FreePages = %d after freeing all slots, want 1", h.FreePages())
	}
	if n := h.ReleaseFreePages(-1); n != 1 {
		t.Fatalf("ReleaseFreePages = %d, want 1", n)
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool InUse = %d, want 0", pool.InUse())
	}
	if h.PagesHeld() != 0 {
		t.Fatalf("PagesHeld = %d after release, want 0", h.PagesHeld())
	}
}

func TestReleaseFreePagesCap(t *testing.T) {
	h, _ := newHeap(0)
	var refs []Ref
	for i := 0; i < 12; i++ { // 3 pages of 4 KiB slots
		r, _ := h.Alloc(4096)
		refs = append(refs, r)
	}
	for _, r := range refs {
		h.Free(r)
	}
	if h.FreePages() != 12 {
		t.Fatalf("FreePages = %d, want 12", h.FreePages())
	}
	if n := h.ReleaseFreePages(5); n != 5 {
		t.Fatalf("ReleaseFreePages(5) = %d", n)
	}
	if h.FreePages() != 7 {
		t.Fatalf("FreePages = %d after capped release, want 7", h.FreePages())
	}
}

func TestRetiredPageReuseInvalidatesStaleRefs(t *testing.T) {
	h, _ := newHeap(1) // single page forces in-heap reuse
	old, err := h.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(old); err != nil {
		t.Fatal(err)
	}
	// Page is now on the heap free list; reuse it for a different class.
	fresh, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Bytes(old); !errors.Is(err, ErrInvalidRef) {
		t.Fatalf("stale ref validated after page reuse: %v", err)
	}
	if !h.Live(fresh) {
		t.Fatal("fresh ref not live")
	}
	// Same class reuse must also invalidate: slot 0 gen must move on.
	if err := h.Free(fresh); err != nil {
		t.Fatal(err)
	}
	again, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if again == fresh {
		t.Fatal("ref reused identically after page retirement")
	}
	if _, err := h.Bytes(fresh); !errors.Is(err, ErrInvalidRef) {
		t.Fatalf("stale ref validated after same-class page reuse: %v", err)
	}
}

func TestLargeAllocationSpans(t *testing.T) {
	h, pool := newHeap(0)
	const size = 3*pages.Size + 100
	ref, err := h.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Size(ref); got != size {
		t.Fatalf("Size = %d, want %d", got, size)
	}
	if pool.InUse() != 4 {
		t.Fatalf("pool InUse = %d, want 4 pages", pool.InUse())
	}
	if _, err := h.Bytes(ref); err == nil {
		t.Fatal("Bytes on multi-page span should error")
	}
	// Write a pattern crossing page boundaries and read it back.
	pattern := make([]byte, size)
	for i := range pattern {
		pattern[i] = byte(i * 31)
	}
	if err := h.WriteAt(ref, pattern, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if err := h.ReadAt(ref, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pattern, got) {
		t.Fatal("span data mismatch")
	}
	// Partial read at an offset crossing a boundary.
	part := make([]byte, 200)
	if err := h.ReadAt(ref, part, pages.Size-100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part, pattern[pages.Size-100:pages.Size+100]) {
		t.Fatal("offset span read mismatch")
	}
	if err := h.Free(ref); err != nil {
		t.Fatal(err)
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool InUse = %d after span free", pool.InUse())
	}
	if _, err := h.Size(ref); !errors.Is(err, ErrInvalidRef) {
		t.Fatalf("span ref live after free: %v", err)
	}
}

func TestSinglePageSpanBytes(t *testing.T) {
	h, _ := newHeap(0)
	// 4097..8192 rounds to exactly one class? No: >4096 becomes a 2-page
	// span. A 4096 alloc is a single 4096-class slot with Bytes support.
	ref, err := h.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Bytes(ref)
	if err != nil || len(b) != 4096 {
		t.Fatalf("Bytes = %d bytes, err %v", len(b), err)
	}
}

func TestReadWriteAtBounds(t *testing.T) {
	h, _ := newHeap(0)
	ref, _ := h.Alloc(100)
	buf := make([]byte, 50)
	if err := h.WriteAt(ref, buf, 60); err == nil {
		t.Fatal("WriteAt past end did not error")
	}
	if err := h.ReadAt(ref, buf, -1); err == nil {
		t.Fatal("ReadAt negative offset did not error")
	}
	if err := h.WriteAt(ref, buf, 50); err != nil {
		t.Fatalf("in-bounds WriteAt failed: %v", err)
	}
}

func TestAllocFailsWhenSourceExhausted(t *testing.T) {
	h, _ := newHeap(2)
	a, err := h.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(4096); !errors.Is(err, pages.ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if h.Stats().FailedAllocs != 1 {
		t.Fatalf("FailedAllocs = %d, want 1", h.Stats().FailedAllocs)
	}
	// Freeing lets allocation proceed again (via in-heap free page).
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(4096); err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	h, _ := newHeap(0)
	r1, _ := h.Alloc(100)  // class 112
	r2, _ := h.Alloc(1000) // class 1024
	st := h.Stats()
	if st.LiveAllocs != 2 || st.LiveBytes != 1100 || st.SlotBytes != 112+1024 {
		t.Fatalf("stats = %+v", st)
	}
	h.Free(r1)
	h.Free(r2)
	st = h.Stats()
	if st.LiveAllocs != 0 || st.LiveBytes != 0 || st.SlotBytes != 0 {
		t.Fatalf("stats after frees = %+v", st)
	}
	if st.TotalAllocs != 2 || st.TotalFrees != 2 {
		t.Fatalf("totals = %d/%d", st.TotalAllocs, st.TotalFrees)
	}
}

func TestResetReleasesEverything(t *testing.T) {
	h, pool := newHeap(0)
	for i := 0; i < 100; i++ {
		if _, err := h.Alloc(256); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Alloc(3 * pages.Size); err != nil {
		t.Fatal(err)
	}
	h.Reset()
	st := h.Stats()
	if st.LiveAllocs != 0 || st.PagesHeld != 0 || pool.InUse() != 0 {
		t.Fatalf("after Reset: stats=%+v poolInUse=%d", st, pool.InUse())
	}
	// Heap is usable after Reset.
	if _, err := h.Alloc(64); err != nil {
		t.Fatal(err)
	}
}

func TestRefString(t *testing.T) {
	r := Ref{meta: &pageMeta{id: 3}, slot: 2, gen: 1}
	if r.String() == "" || r.IsNil() {
		t.Fatal("non-nil ref misreported")
	}
	if !(Ref{}).IsNil() {
		t.Fatal("zero ref not nil")
	}
}

func TestNilSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil) did not panic")
		}
	}()
	New(nil)
}

// TestNoOverlapUnderChurn writes a unique pattern into every live
// allocation and verifies none is corrupted by later allocations — i.e.
// no two live allocations share bytes.
func TestNoOverlapUnderChurn(t *testing.T) {
	h, _ := newHeap(0)
	rng := rand.New(rand.NewSource(7))
	type rec struct {
		ref  Ref
		tag  byte
		size int
	}
	var live []rec
	for step := 0; step < 5000; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			if err := h.Free(live[i].ref); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		size := 1 + rng.Intn(2000)
		ref, err := h.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		tag := byte(step)
		b, err := h.Bytes(ref)
		if err != nil {
			t.Fatal(err)
		}
		for j := range b {
			b[j] = tag
		}
		live = append(live, rec{ref, tag, size})
	}
	for _, r := range live {
		b, err := h.Bytes(r.ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != r.size {
			t.Fatalf("size changed: %d != %d", len(b), r.size)
		}
		for j, v := range b {
			if v != r.tag {
				t.Fatalf("allocation %v corrupted at byte %d: %d != %d", r.ref, j, v, r.tag)
			}
		}
	}
}

// Property: LiveBytes always equals the sum of live allocation sizes, and
// pool pages are conserved after Reset.
func TestHeapAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		pool := pages.NewPool(0)
		h := New(PoolSource{Pool: pool})
		var live []Ref
		var sizes []int
		var sum int64
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op) % len(live)
				if err := h.Free(live[i]); err != nil {
					return false
				}
				sum -= int64(sizes[i])
				live[i], live = live[len(live)-1], live[:len(live)-1]
				sizes[i], sizes = sizes[len(sizes)-1], sizes[:len(sizes)-1]
			} else {
				size := int(op%6000) + 1
				ref, err := h.Alloc(size)
				if err != nil {
					return false
				}
				live = append(live, ref)
				sizes = append(sizes, size)
				sum += int64(size)
			}
			if h.Stats().LiveBytes != sum {
				return false
			}
			if h.Stats().LiveAllocs != len(live) {
				return false
			}
		}
		h.Reset()
		return pool.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: slot packing density — for N same-size allocations the heap
// holds exactly ceil(N/slotsPerPage) pages (no hidden page leakage).
func TestPackingDensity(t *testing.T) {
	for _, size := range []int{16, 64, 512, 1024, 2048, 4096} {
		h, _ := newHeap(0)
		slotsPerPage := pages.Size / ClassSize(size)
		const n = 100
		for i := 0; i < n; i++ {
			if _, err := h.Alloc(size); err != nil {
				t.Fatal(err)
			}
		}
		want := (n + slotsPerPage - 1) / slotsPerPage
		if got := h.PagesHeld(); got != want {
			t.Errorf("size %d: PagesHeld = %d, want %d", size, got, want)
		}
	}
}

func TestFullPageBecomesPartialAfterFree(t *testing.T) {
	h, _ := newHeap(0)
	var refs []Ref
	for i := 0; i < 4; i++ {
		r, _ := h.Alloc(1024)
		refs = append(refs, r)
	}
	// Page is full. Free one slot, then the next alloc must land on the
	// same page (no new page acquired).
	held := h.PagesHeld()
	if err := h.Free(refs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(1024); err != nil {
		t.Fatal(err)
	}
	if h.PagesHeld() != held {
		t.Fatalf("PagesHeld grew from %d to %d; freed slot not reused", held, h.PagesHeld())
	}
}

func ExampleHeap() {
	pool := pages.NewPool(0)
	h := New(PoolSource{Pool: pool})
	ref, _ := h.Alloc(11)
	b, _ := h.Bytes(ref)
	copy(b, "soft memory")
	got, _ := h.Bytes(ref)
	fmt.Println(string(got))
	// Output: soft memory
}

func TestAppendToAllSizes(t *testing.T) {
	h, _ := newHeap(0)
	// Small allocation: AppendTo matches Bytes and reuses dst capacity.
	small, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WriteAt(small, []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 256)
	out, err := h.AppendTo(dst[:3], small)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 103 || string(out[3:8]) != "hello" {
		t.Fatalf("AppendTo small = len %d, %q", len(out), out[3:8])
	}
	if &out[0] != &dst[:1][0] {
		t.Fatal("AppendTo did not reuse dst capacity")
	}

	// Multi-page span: Bytes refuses, AppendTo assembles the pages.
	const size = 2*pages.Size + 9
	span, err := h.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	pattern := make([]byte, size)
	for i := range pattern {
		pattern[i] = byte(i * 7)
	}
	if err := h.WriteAt(span, pattern, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Bytes(span); err == nil {
		t.Fatal("Bytes on span should error")
	}
	got, err := h.AppendTo([]byte("p:"), span)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != size+2 || string(got[:2]) != "p:" || !bytes.Equal(got[2:], pattern) {
		t.Fatalf("AppendTo span = len %d", len(got))
	}

	// Dead refs still error.
	if err := h.Free(span); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AppendTo(nil, span); err == nil {
		t.Fatal("AppendTo on freed span should error")
	}
}
