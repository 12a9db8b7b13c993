package alloc

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"softmem/internal/epoch"
	"softmem/internal/pages"
)

// newDeferringHeap returns a heap whose frees wait out d's grace period.
func newDeferringHeap() (*Heap, *pages.Pool, *epoch.Domain) {
	h, pool := newHeap(0)
	d := epoch.NewDomain()
	h.DeferFrees(d)
	return h, pool, d
}

// drainNow drains what the grace period allows at once, without waiting
// for readers, and returns what stays in limbo.
func drainNow(h *Heap) int { return h.Drain(time.Time{}) }

func enter(t *testing.T, d *epoch.Domain) int {
	t.Helper()
	slot, ok := d.Enter(0)
	if !ok {
		t.Fatal("Enter failed")
	}
	return slot
}

func TestRetireDefersSlotRecycling(t *testing.T) {
	h, _, d := newDeferringHeap()
	ref, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := h.Bytes(ref)
	if err != nil {
		t.Fatal(err)
	}
	copy(seg, []byte("live-bytes"))

	reader := enter(t, d)
	if err := h.Free(ref); err != nil {
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
	if err := h.Free(ref); !errors.Is(err, ErrInvalidRef) {
		t.Fatalf("double free err = %v, want ErrInvalidRef", err)
	}

	// The slot must not be handed to a new allocation while in limbo:
	// class 112 has 36 slots/page, and the page still counts as used, so
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

	// The reader entered before the free: the grace period has not passed.
	if n := drainNow(h); n != 1 {
		t.Fatalf("drain with the reader registered left %d, want 1", n)
	}
	d.Exit(reader)
	if n := drainNow(h); n != 0 {
		t.Fatalf("drain after the reader left %d in limbo, want 0", n)
	}
}

func TestRetireDrainRetiresEmptyPage(t *testing.T) {
	h, pool, _ := newDeferringHeap()
	ref, err := h.Alloc(4096) // full-page class: one slot per page
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(ref); err != nil {
		t.Fatal(err)
	}
	if got := h.FreePages(); got != 0 {
		t.Fatalf("page freed before grace: FreePages = %d", got)
	}
	if drainNow(h) != 0 {
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
	h, pool, d := newDeferringHeap()
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
	reader := enter(t, d)
	if err := h.Free(ref); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.PagesHeld != held || st.LimboPages != 3 || d.DeferredPages() != 3 {
		t.Fatalf("span pages not held in limbo: %+v, %d deferred", st, d.DeferredPages())
	}
	// The free killed the span's metadata at once; its record did not die
	// with it, and a reader still holding it copies the same bytes.
	if !bytes.Equal(v.AppendTo(nil), data) {
		t.Fatal("a retired span's View changed before the drain")
	}
	if drainNow(h) != 1 || pool.InUse() != 3 {
		t.Fatalf("pool InUse = %d with the reader registered, want 3", pool.InUse())
	}
	d.Exit(reader)
	if drainNow(h) != 0 {
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

func TestResetReleasesLimbo(t *testing.T) {
	h, pool, _ := newDeferringHeap()
	small, _ := h.Alloc(100)
	data := bytes.Repeat([]byte("x"), 2*pages.Size)
	span, err := h.Alloc(len(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(small); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(span); err != nil {
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
	h, _, d := newDeferringHeap()
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
	free := func(refs ...Ref) {
		t.Helper()
		for _, ref := range refs {
			if err := h.Free(ref); err != nil {
				t.Fatal(err)
			}
		}
	}
	free(a)
	c, _ := h.Alloc(100) // the same page, another slot
	publish(c, 'c')
	intact("retired, with a new tenant published beside it")
	d.Advance()
	reader := enter(t, d) // after a's retirement, before b's and c's
	free(b, c)
	if drainNow(h) != 2 { // a's retirement only
		t.Fatal("the drain did not stop at the reader")
	}
	intact("a drain that left the page's other retirements pending")

	// The last drain empties the page: its records are cleared, so a
	// spare array pins no page buffer, and only its own class reuses them.
	d.Exit(reader)
	drainNow(h)
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
	free(first)
	drainNow(h)
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

// TestDrainPolicy walks a deferring heap through each drain point: Free
// puts the allocation in limbo; Trim leaves it there below the batch and
// drains at the batch or for any retired span; Alloc drains before it
// leases a page and leaves limbo alone while a held page can serve;
// Drain reports what a registered reader keeps; Reset completes once the
// readers leave.
func TestDrainPolicy(t *testing.T) {
	h, pool, d := newDeferringHeap()
	limbo := func() int { return h.Stats().LimboAllocs }
	mk := func(size int) Ref {
		t.Helper()
		ref, err := h.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	free := func(refs ...Ref) {
		t.Helper()
		for _, ref := range refs {
			if err := h.Free(ref); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One page of 64-byte slots, all live.
	refs := make([]Ref, pages.Size/64)
	for i := range refs {
		refs[i] = mk(64)
	}
	held := h.PagesHeld()

	// Free retires; a hand-back below the batch neither advances the
	// epoch nor drains.
	e0 := d.Current()
	free(refs[0])
	if limbo() != 1 || h.Live(refs[0]) {
		t.Fatalf("Free did not retire: limbo %d, live %t", limbo(), h.Live(refs[0]))
	}
	h.Trim(0)
	if limbo() != 1 || d.Current() != e0 {
		t.Fatalf("Trim below the batch: limbo %d, epoch %d -> %d", limbo(), e0, d.Current())
	}
	// At the batch it drains.
	free(refs[1 : limboBatch-1]...)
	h.Trim(0)
	if limbo() != limboBatch-1 {
		t.Fatalf("Trim one short of the batch drained: limbo %d", limbo())
	}
	free(refs[limboBatch-1])
	h.Trim(0)
	if limbo() != 0 {
		t.Fatalf("Trim at the batch left %d in limbo", limbo())
	}
	// A retired span holds whole pages: the next Trim drains it.
	span := mk(2 * pages.Size)
	free(span)
	if st := h.Stats(); st.LimboPages != 2 || st.PagesHeld != held+2 {
		t.Fatalf("retired span not in limbo: %+v", st)
	}
	h.Trim(held)
	if st := h.Stats(); st.LimboAllocs != 0 || st.PagesHeld != held {
		t.Fatalf("Trim left a retired span behind: %+v", st)
	}

	// A held page can serve: Alloc leaves limbo alone.
	free(refs[limboBatch])
	mk(64)
	if limbo() != 1 {
		t.Fatalf("Alloc from a partial page drained limbo: %d", limbo())
	}
	// The page is full but for the slot in limbo: Alloc drains and takes
	// it rather than lease.
	for range limboBatch - 1 {
		mk(64)
	}
	mk(64)
	if limbo() != 0 || h.PagesHeld() != held {
		t.Fatalf("Alloc leased past a drainable limbo: limbo %d, %d pages held (want %d)", limbo(), h.PagesHeld(), held)
	}
	// A span always leases, so it drains first.
	free(refs[limboBatch+1])
	mk(pages.Size + 1)
	if limbo() != 0 {
		t.Fatalf("span Alloc left %d in limbo", limbo())
	}

	// Drain returns what a registered reader keeps, then nothing.
	reader := enter(t, d)
	free(refs[limboBatch+2])
	if n := h.Drain(time.Now().Add(time.Millisecond)); n != 1 {
		t.Fatalf("Drain with a reader registered = %d, want 1", n)
	}
	d.Exit(reader)
	if n := drainNow(h); n != 0 {
		t.Fatalf("Drain after the reader left = %d, want 0", n)
	}

	// Reset waits for the reader, and completes once it leaves.
	reader = enter(t, d)
	free(refs[limboBatch+3])
	before := d.Current()
	done := make(chan struct{})
	go func() {
		h.Reset()
		close(done)
	}()
	for d.Current() < before+2 { // Reset is in its wait
		select {
		case <-done:
			t.Fatal("Reset returned without waiting for the registered reader")
		case <-time.After(time.Millisecond):
		}
	}
	d.Exit(reader)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Reset did not complete after the reader left")
	}
	if st := h.Stats(); st.LimboAllocs != 0 || st.PagesHeld != 0 || pool.InUse() != 0 {
		t.Fatalf("Reset left %+v, pool %d", st, pool.InUse())
	}
}
