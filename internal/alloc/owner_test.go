package alloc

import (
	"slices"
	"strings"
	"testing"

	"softmem/internal/pages"
)

// holder is a test Owner: it believes it owns ref.
type holder struct{ ref Ref }

func (h *holder) OwnedRef() Ref { return h.ref }

// adopt allocates size bytes and hangs a holder on them.
func adopt(t *testing.T, h *Heap, size int) *holder {
	t.Helper()
	ref, err := h.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	o := &holder{ref: ref}
	if err := h.SetOwner(ref, o); err != nil {
		t.Fatal(err)
	}
	return o
}

// tenantsOf returns ref's co-tenants as holders (nil for an unowned one).
func tenantsOf(t *testing.T, h *Heap, ref Ref) ([]*holder, int) {
	t.Helper()
	owners, npages, err := h.Tenants(ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*holder, len(owners))
	for i, o := range owners {
		out[i], _ = o.(*holder)
	}
	return out, npages
}

func TestTenantsAreThePagesLiveSlots(t *testing.T) {
	h, _ := newHeap(0)
	var page0 []*holder
	for range 4 { // four 1024-B slots fill one page
		page0 = append(page0, adopt(t, h, 1000))
	}
	other := adopt(t, h, 1000) // a second page of the same class
	small := adopt(t, h, 100)  // another class, another page

	got, npages := tenantsOf(t, h, page0[2].ref)
	if npages != 1 || len(got) != 4 {
		t.Fatalf("Tenants = %d owners on %d pages, want 4 on 1", len(got), npages)
	}
	for i, o := range got {
		if o != page0[i] {
			t.Errorf("tenant %d = %v, want %v", i, o, page0[i])
		}
	}
	for _, alone := range []*holder{other, small} {
		if got, _ := tenantsOf(t, h, alone.ref); len(got) != 1 || got[0] != alone {
			t.Errorf("Tenants(%v) = %v, want only itself", alone.ref, got)
		}
	}

	// An allocation nobody adopted is still a tenant: it shows as nil, so
	// a reclaimer knows the page cannot come free.
	unowned, err := h.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := tenantsOf(t, h, other.ref); len(got) != 2 || got[0] != other || got[1] != nil {
		t.Errorf("Tenants beside an unowned slot = %v, want [other nil]", got)
	}
	if err := h.Free(unowned); err != nil {
		t.Fatal(err)
	}

	if _, _, err := h.Tenants(unowned, nil); err == nil {
		t.Error("Tenants of a freed ref succeeded")
	}
	if err := h.SetOwner(unowned, other); err == nil {
		t.Error("SetOwner on a freed ref succeeded")
	}
	if err := h.VerifyOwners(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanIsAPageGroupOfOneTenant(t *testing.T) {
	h, _ := newHeap(0)
	adopt(t, h, 1000)
	span := adopt(t, h, 2*pages.Size+1)
	got, npages := tenantsOf(t, h, span.ref)
	if npages != 3 || len(got) != 1 || got[0] != span {
		t.Fatalf("Tenants(span) = %v on %d pages, want itself on 3", got, npages)
	}
	if err := h.VerifyOwners(); err != nil {
		t.Fatal(err)
	}
	span.ref.gen += 2 // the holder now names another incarnation
	if err := h.VerifyOwners(); err == nil || !strings.Contains(err.Error(), "span") {
		t.Fatalf("VerifyOwners = %v, want a span ownership error", err)
	}
}

// TestSlabIsAPageGroupOverItsPages: the tenants of a slot on a slab of
// several pages are the slab's live slots, and they free all of its pages:
// once the last of them dies, every page of the slab is a free page.
func TestSlabIsAPageGroupOverItsPages(t *testing.T) {
	h, pool := newHeap(0)
	var slab []*holder
	for range 4 { // four 3,072-B slots fill a three-page slab
		slab = append(slab, adopt(t, h, 3000))
	}
	next := adopt(t, h, 3000) // the first slot of the class's next slab
	got, npages := tenantsOf(t, h, slab[1].ref)
	if npages != 3 || !slices.Equal(got, slab) {
		t.Fatalf("Tenants = %v on %d pages, want the slab's 4 on 3", got, npages)
	}
	if got, npages := tenantsOf(t, h, next.ref); npages != 3 || len(got) != 1 {
		t.Fatalf("Tenants of a slab's only slot = %d on %d pages, want 1 on 3", len(got), npages)
	}
	if pool.InUse() != 6 {
		t.Fatalf("two slabs lease %d pages, want 6", pool.InUse())
	}
	for _, o := range slab {
		if err := h.Free(o.ref); err != nil {
			t.Fatal(err)
		}
	}
	if h.FreePages() != 3 || h.ReleaseFreePages(-1) != 3 || pool.InUse() != 3 {
		t.Fatalf("an emptied slab left %d free pages, %d leased", h.FreePages(), pool.InUse())
	}
	// A slab takes the heap's free pages before it leases: a free page
	// and a leased one make a slab of a two-page class.
	one := adopt(t, h, 4096)
	if err := h.Free(one.ref); err != nil {
		t.Fatal(err)
	}
	adopt(t, h, 2500)
	if h.FreePages() != 0 || pool.InUse() != 5 {
		t.Fatalf("a two-page slab over one free page: %d free, %d leased, want 0 and 5", h.FreePages(), pool.InUse())
	}
}

// Owner words must not outlive their slot: Free — recycled at once or,
// on a deferring heap, in limbo (which keeps the bytes, not the owner) —
// page retirement and Reset all drop them.
func TestOwnersDieWithTheirSlot(t *testing.T) {
	h, _, dom := newDeferringHeap()
	a, b, c := adopt(t, h, 1000), adopt(t, h, 1000), adopt(t, h, 1000)
	if err := h.Free(a.ref); err != nil {
		t.Fatal(err)
	}
	drainNow(h) // a's slot comes back
	reader, ok := dom.Enter(0)
	if !ok {
		t.Fatal("Enter failed")
	}
	if err := h.Free(b.ref); err != nil { // b's stays in limbo
		t.Fatal(err)
	}
	if got, _ := tenantsOf(t, h, c.ref); len(got) != 1 || got[0] != c {
		t.Fatalf("Tenants after both frees = %v, want only c", got)
	}
	if err := h.VerifyOwners(); err != nil {
		t.Fatal(err)
	}
	// The slot a freed is reused by an allocation nobody adopts: the old
	// owner must not show through.
	reused, err := h.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := tenantsOf(t, h, reused); len(got) != 2 || got[0] != nil || got[1] != c {
		t.Fatalf("Tenants after slot reuse = %v, want [nil c]", got)
	}
	if err := h.Free(reused); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(c.ref); err != nil {
		t.Fatal(err)
	}
	dom.Exit(reader)
	if n := drainNow(h); n != 0 { // the page goes empty and retires
		t.Fatalf("drain left %d in limbo", n)
	}
	if h.FreePages() != 1 {
		t.Fatalf("FreePages = %d, want the emptied page", h.FreePages())
	}
	// The page's next incarnation starts with no owners.
	d, err := h.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := tenantsOf(t, h, d); len(got) != 1 || got[0] != nil {
		t.Fatalf("Tenants on a recycled page = %v, want [nil]", got)
	}
	adopt(t, h, 1000)
	h.Reset()
	if err := h.VerifyOwners(); err != nil {
		t.Fatal(err)
	}
	if len(h.held) != 0 {
		t.Fatal("Reset left page metadata behind")
	}
}

func TestVerifyOwnersCatchesAWrongOwner(t *testing.T) {
	h, _ := newHeap(0)
	a, b := adopt(t, h, 1000), adopt(t, h, 1000)
	if err := h.SetOwner(a.ref, b); err != nil { // b sits on a's slot too
		t.Fatal(err)
	}
	if err := h.VerifyOwners(); err == nil {
		t.Fatal("VerifyOwners accepted an owner whose ref names another slot")
	}
}

// The heap remembers the page of its last allocation; that memo must not
// answer for a page that has since left the heap.
func TestLastPageMemoIsDroppedWithThePage(t *testing.T) {
	h, _ := newHeap(0)
	ref, err := h.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(ref); err != nil { // the page goes empty and retires
		t.Fatal(err)
	}
	if h.Live(ref) {
		t.Fatal("freed ref is live")
	}
	if _, err := h.Bytes(ref); err == nil {
		t.Fatal("Bytes of a ref on a retired page succeeded")
	}
	// The same page comes back under a smaller class: the stale ref's slot
	// index exists there, and its generation must still not validate.
	for range 8 {
		if _, err := h.Alloc(100); err != nil {
			t.Fatal(err)
		}
	}
	if h.Live(ref) {
		t.Fatal("stale ref validates against the page's next incarnation")
	}
}
