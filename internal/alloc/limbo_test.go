package alloc

import (
	"bytes"
	"errors"
	"testing"

	"softmem/internal/pages"
)

func TestRetireDefersSlotRecycling(t *testing.T) {
	h, _ := newHeap(0)
	ref, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := h.Bytes(ref)
	if err != nil {
		t.Fatal(err)
	}
	copy(seg, []byte("live-bytes"))

	if _, err := h.Retire(ref, 5); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.LiveAllocs != 0 || st.LiveBytes != 0 {
		t.Fatalf("retire not logically free: %+v", st)
	}
	if st.LimboAllocs != 1 || st.TotalFrees != 1 || st.DeferredOps != 1 {
		t.Fatalf("limbo accounting wrong: %+v", st)
	}
	if h.Live(ref) {
		t.Fatal("retired ref still validates")
	}
	if _, err := h.Retire(ref, 6); !errors.Is(err, ErrInvalidRef) {
		t.Fatalf("double retire err = %v, want ErrInvalidRef", err)
	}

	// The slot must not be handed to a new allocation while in limbo:
	// class 128 has 32 slots/page, and the page still counts as used, so
	// the next alloc of the same class lands on a different slot.
	ref2, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := h.Bytes(ref2)
	copy(b2, []byte("OVERWRITE!"))
	if string(seg[:10]) != "live-bytes" {
		t.Fatal("retired slot's bytes were rewritten before drain")
	}

	// Grace not reached: stamp 5 needs safe > 5.
	if n := h.DrainLimbo(5); n != 0 {
		t.Fatalf("DrainLimbo(5) drained %d, want 0", n)
	}
	if n := h.DrainLimbo(6); n != 1 {
		t.Fatalf("DrainLimbo(6) drained %d, want 1", n)
	}
	if st := h.Stats(); st.LimboAllocs != 0 {
		t.Fatalf("limbo not empty after drain: %+v", st)
	}
}

func TestRetireDrainRetiresEmptyPage(t *testing.T) {
	h, pool := newHeap(0)
	ref, err := h.Alloc(4096) // full-page class: one slot per page
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Retire(ref, 1); err != nil {
		t.Fatal(err)
	}
	if got := h.FreePages(); got != 0 {
		t.Fatalf("page freed before grace: FreePages = %d", got)
	}
	if h.DrainLimbo(2) != 1 {
		t.Fatal("drain failed")
	}
	if got := h.FreePages(); got != 1 {
		t.Fatalf("drained slot did not retire its page: FreePages = %d", got)
	}
	if h.ReleaseFreePages(-1) != 1 {
		t.Fatal("free page not releasable")
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool InUse = %d, want 0", pool.InUse())
	}
}

func TestRetireSpanHoldsPagesUntilDrain(t *testing.T) {
	h, pool := newHeap(0)
	data := bytes.Repeat([]byte("span"), 3*pages.Size/4) // 3 pages
	ref, err := h.Alloc(len(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WriteAt(ref, data, 0); err != nil {
		t.Fatal(err)
	}
	v, err := h.Publish(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.AppendTo(nil), data) {
		t.Fatal("the span's View does not reassemble it")
	}

	held := h.PagesHeld()
	if _, err := h.Retire(ref, 9); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.PagesHeld != held || st.LimboPages != 3 {
		t.Fatalf("span pages not held in limbo: %+v", st)
	}
	// Retire killed the span's metadata at once; its record did not die
	// with it, and a reader still holding it copies the same bytes.
	if !bytes.Equal(v.AppendTo(nil), data) {
		t.Fatal("a retired span's View changed before the drain")
	}
	if pool.InUse() != 3 {
		t.Fatalf("pool InUse = %d before drain, want 3", pool.InUse())
	}
	if h.DrainLimbo(10) != 1 {
		t.Fatal("span drain failed")
	}
	st = h.Stats()
	if st.PagesHeld != 0 || st.LimboPages != 0 {
		t.Fatalf("span pages leaked after drain: %+v", st)
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool InUse = %d after drain, want 0", pool.InUse())
	}
}

func TestRetireStampClampKeepsFIFO(t *testing.T) {
	h, _ := newHeap(0)
	r1, _ := h.Alloc(64)
	r2, _ := h.Alloc(64)
	if _, err := h.Retire(r1, 10); err != nil {
		t.Fatal(err)
	}
	// An out-of-order (lower) stamp is clamped to the queue tail so the
	// FIFO drain test stays valid.
	if _, err := h.Retire(r2, 4); err != nil {
		t.Fatal(err)
	}
	if n := h.DrainLimbo(10); n != 0 {
		t.Fatalf("drained %d below both stamps, want 0", n)
	}
	if n := h.DrainLimbo(11); n != 2 {
		t.Fatalf("drained %d, want 2", n)
	}
}

func TestResetReleasesLimbo(t *testing.T) {
	h, pool := newHeap(0)
	small, _ := h.Alloc(100)
	data := bytes.Repeat([]byte("x"), 2*pages.Size)
	span, err := h.Alloc(len(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Retire(small, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Retire(span, 2); err != nil {
		t.Fatal(err)
	}
	h.Reset()
	st := h.Stats()
	if st.LimboAllocs != 0 || st.LimboPages != 0 || st.PagesHeld != 0 {
		t.Fatalf("Reset left limbo state: %+v", st)
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool InUse = %d after Reset, want 0", pool.InUse())
	}
}

func TestPublishInvalidRef(t *testing.T) {
	h, _ := newHeap(0)
	ref, _ := h.Alloc(50)
	if err := h.Free(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Publish(ref); !errors.Is(err, ErrInvalidRef) {
		t.Fatalf("Publish(freed) err = %v, want ErrInvalidRef", err)
	}
}

// TestPublishedRecordOutlivesItsSlot: nothing writes a slot's record
// before its page's retirements have drained — not the retirement, nor
// the page's other allocations and publishes, nor a drain that leaves
// some of them pending — and a heap that never publishes allocates no
// records. Reuse after the drain is allowed: the page goes empty, its
// records are cleared and handed to its class's next carve under fresh
// metadata, and on a page that stays carved the slot's next Publish
// rewrites its record in place.
func TestPublishedRecordOutlivesItsSlot(t *testing.T) {
	h, _ := newHeap(0)
	a, _ := h.Alloc(100)
	if a.meta.owners != nil {
		t.Fatal("an allocation nobody published or adopted allocated records")
	}
	b, _ := h.Alloc(100) // a's page mate
	publish := func(ref Ref, c byte) *View {
		t.Helper()
		if err := h.WriteAt(ref, bytes.Repeat([]byte{c}, 100), 0); err != nil {
			t.Fatal(err)
		}
		v, err := h.Publish(ref)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	va, vb := publish(a, 'a'), publish(b, 'b')
	intact := func(when string) {
		t.Helper()
		if got := va.AppendTo(nil); !bytes.Equal(got, bytes.Repeat([]byte("a"), 100)) {
			t.Fatalf("%s: a's record reads %q", when, got)
		}
		if got := vb.AppendTo(nil); !bytes.Equal(got, bytes.Repeat([]byte("b"), 100)) {
			t.Fatalf("%s: b's record reads %q", when, got)
		}
	}
	if _, err := h.Retire(a, 1); err != nil {
		t.Fatal(err)
	}
	c, _ := h.Alloc(100) // the same page, another slot
	publish(c, 'c')
	intact("retired, with a new tenant published beside it")
	if _, err := h.Retire(b, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Retire(c, 3); err != nil {
		t.Fatal(err)
	}
	h.DrainLimbo(2) // a's retirement only
	intact("a drain that left the page's other retirements pending")

	// The last drain empties the page: its records are cleared, so a
	// spare array pins no page buffer, and only its own class reuses them.
	h.DrainLimbo(4)
	if va.b != nil || vb.b != nil {
		t.Fatalf("an emptied page kept its records: %+v %+v", *va, *vb)
	}
	if small, _ := h.Alloc(16); small.meta.owners != nil {
		t.Fatal("another class's carve took the emptied page's records")
	}
	again, _ := h.Alloc(100)
	if again.meta == a.meta || h.Live(a) {
		t.Fatal("a recarve reused its earlier incarnation's metadata")
	}
	if &again.meta.records()[0].view != va {
		t.Fatal("the class's next carve did not reuse the emptied page's records")
	}

	// On a page that stays carved, the slot's next Publish — after it is
	// handed out again — is what rewrites its record. again keeps the
	// page carved once first's slot is freed.
	first, _ := h.Alloc(100)
	v1, _ := h.Publish(first)
	if err := h.Free(first); err != nil {
		t.Fatal(err)
	}
	second, _ := h.Alloc(110) // the same class
	if second.meta != first.meta || second.slot != first.slot {
		t.Fatal("the freed slot was not handed out again")
	}
	if len(v1.b) != 100 {
		t.Fatal("handing the slot out rewrote its record before the Publish")
	}
	v2, _ := h.Publish(second)
	if v2 != v1 || len(v1.b) != 110 {
		t.Fatal("the slot's second Publish did not rewrite its record in place")
	}
	h.Reset()
	if len(v1.b) != 110 {
		t.Fatalf("Reset rewrote a record: %+v", *v1)
	}
}

// TestBytesMultiPageSentinel: Bytes answers a multi-page span with the
// ErrMultiPage sentinel — the non-allocating "one segment or many"
// question a zero-copy reader asks before falling back to AppendTo.
func TestBytesMultiPageSentinel(t *testing.T) {
	h := New(PoolSource{Pool: pages.NewPool(0)})
	span, err := h.Alloc(2*pages.Size + 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Bytes(span); err != ErrMultiPage {
		t.Fatalf("Bytes(span) err = %v, want ErrMultiPage", err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = h.Bytes(span) }); n != 0 {
		t.Fatalf("Bytes(span) allocates %.0f times, want 0", n)
	}
	onePage, err := h.Alloc(pages.Size)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := h.Bytes(onePage); err != nil || len(b) != pages.Size {
		t.Fatalf("Bytes(one page) = %d bytes, %v", len(b), err)
	}
}

// TestAllocHeld: AllocHeld serves exactly the allocations that need no
// lease from the page source, and leaves the others to Alloc untouched.
func TestAllocHeld(t *testing.T) {
	pool := pages.NewPool(0)
	h := New(PoolSource{Pool: pool})
	expect := func(size int, held bool) {
		t.Helper()
		before := h.Stats()
		_, ok := h.AllocHeld(size)
		if ok != held {
			t.Fatalf("AllocHeld(%d) = %t, want %t", size, ok, held)
		}
		if ok {
			if h.PagesHeld() != before.PagesHeld {
				t.Fatalf("AllocHeld(%d) leased a page", size)
			}
			return
		}
		if after := h.Stats(); after != before {
			t.Fatalf("refused AllocHeld(%d) changed the heap: %+v -> %+v", size, before, after)
		}
		if _, err := h.Alloc(size); err != nil {
			t.Fatal(err)
		}
		if h.PagesHeld() == before.PagesHeld {
			t.Fatalf("AllocHeld(%d) refused an allocation that needed no lease", size)
		}
	}
	expect(1000, false)                 // empty heap
	expect(1000, true)                  // the class's partial page has slots
	expect(100, false)                  // another class, no free page to carve
	expect(pages.Size+1, false)         // spans always lease
	ref, _ := h.Alloc(2048)             // a third class: leases
	if err := h.Free(ref); err != nil { // and leaves a wholly free page behind
		t.Fatal(err)
	}
	expect(16, true) // carved from the heap's own free page
	if _, ok := h.AllocHeld(0); ok {
		t.Fatal("AllocHeld(0) succeeded")
	}
}
