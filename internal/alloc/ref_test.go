package alloc

import (
	"errors"
	"testing"
	"unsafe"

	"softmem/internal/pages"
)

// rejects fails the test unless every accessor of h answers ref with
// ErrInvalidRef.
func rejects(t *testing.T, h *Heap, ref Ref) {
	t.Helper()
	_, sizeErr := h.Size(ref)
	_, slotErr := h.SlotSize(ref)
	_, bytesErr := h.Bytes(ref)
	_, pubErr := h.Publish(ref)
	_, appendErr := h.AppendTo(nil, ref)
	_, _, tenantsErr := h.Tenants(ref, nil)
	for _, c := range [...]struct {
		name string
		err  error
	}{
		{"Size", sizeErr},
		{"SlotSize", slotErr},
		{"Bytes", bytesErr},
		{"Publish", pubErr},
		{"AppendTo", appendErr},
		{"ReadAt", h.ReadAt(ref, make([]byte, 1), 0)},
		{"WriteAt", h.WriteAt(ref, []byte{0xEE}, 0)},
		{"SetOwner", h.SetOwner(ref, &holder{ref: ref})},
		{"Tenants", tenantsErr},
		{"Free", h.Free(ref)},
	} {
		if !errors.Is(c.err, ErrInvalidRef) {
			t.Fatalf("%s(%v) = %v, want ErrInvalidRef", c.name, ref, c.err)
		}
	}
	if h.Live(ref) {
		t.Fatalf("Live(%v) = true", ref)
	}
}

// A ref is good on the heap that minted it and on no other. Two heaps on
// two pools run the same ops, so page IDs (every pool counts from 1),
// slots and generations all coincide: only the heap tells their refs
// apart.
func TestRefOfAnotherHeapNeverValidates(t *testing.T) {
	a, _ := newHeap(0)
	b, _ := newHeap(0)
	var refsA, refsB []Ref
	both := func(op func(h *Heap, refs *[]Ref)) {
		op(a, &refsA)
		op(b, &refsB)
	}
	for _, size := range []int{1000, 1000, 16, 4096, 3 * pages.Size, 1000} {
		both(func(h *Heap, refs *[]Ref) {
			ref, err := h.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			*refs = append(*refs, ref)
		})
	}
	both(func(h *Heap, refs *[]Ref) { // a slot on its second generation
		if err := h.Free((*refs)[0]); err != nil {
			t.Fatal(err)
		}
		ref, err := h.Alloc(1000)
		if err != nil {
			t.Fatal(err)
		}
		(*refs)[0] = ref
	})
	for i, ra := range refsA {
		rb := refsB[i]
		if ra.String() != rb.String() {
			t.Fatalf("refs %d differ in more than their heap: %v, %v", i, ra, rb)
		}
		if ra == rb {
			t.Fatalf("ref %v of heap A equals heap B's", ra)
		}
		rejects(t, b, ra)
		rejects(t, a, rb)
	}
	for i := range refsA { // and the refused calls left both heaps whole
		if !a.Live(refsA[i]) || !b.Live(refsB[i]) {
			t.Fatalf("ref %d died of being shown to the wrong heap", i)
		}
	}
}

// A stale ref keeps its page's metadata from the garbage collector. Dead
// metadata must therefore hold nothing: no page frame above all, or
// memory the heap gave back would stay reachable through old handles.
func TestDeadMetadataHoldsNothing(t *testing.T) {
	if m, r := unsafe.Sizeof(pageMeta{}), unsafe.Sizeof(Ref{}); m > 128 || r != 16 {
		t.Fatalf("pageMeta is %d bytes (want at most 128), Ref %d (want 16)", m, r)
	}
	h, pool := newHeap(0)
	dh, dpool, _ := newDeferringHeap()
	dead := func(h *Heap, what string, ref Ref) {
		t.Helper()
		m := ref.meta
		if m.heap != nil || m.page != nil || m.span != nil || m.slots != nil ||
			m.freeSlots != nil || m.owners != nil {
			t.Fatalf("%s: dead metadata still holds %+v", what, *m)
		}
		rejects(t, h, ref)
	}

	emptied := adopt(t, h, 1000).ref
	if err := h.Free(emptied); err != nil { // its page goes empty
		t.Fatal(err)
	}
	dead(h, "emptied page", emptied)

	span := adopt(t, h, 2*pages.Size).ref
	if err := h.Free(span); err != nil {
		t.Fatal(err)
	}
	dead(h, "freed span", span)

	retiredSpan := adopt(t, dh, 2*pages.Size).ref
	if err := dh.Free(retiredSpan); err != nil {
		t.Fatal(err)
	}
	dead(dh, "retired span", retiredSpan) // limbo holds the pages, not the metadata

	drained := adopt(t, dh, 1000).ref
	if err := dh.Free(drained); err != nil {
		t.Fatal(err)
	}
	if drained.meta.page == nil {
		t.Fatal("a slot in limbo lost its page before the drain")
	}
	if n := drainNow(dh); n != 0 {
		t.Fatalf("drain left %d of the span and the slot", n)
	}
	dead(dh, "page emptied by a drain", drained)

	kept, keptSpan := adopt(t, h, 1000).ref, adopt(t, h, 2*pages.Size).ref
	h.Reset()
	dh.Reset()
	dead(h, "page at Reset", kept)
	dead(h, "span at Reset", keptSpan)
	if pool.InUse() != 0 || dpool.InUse() != 0 {
		t.Fatalf("pools still lease %d and %d pages", pool.InUse(), dpool.InUse())
	}
}
