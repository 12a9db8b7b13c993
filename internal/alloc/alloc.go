// Package alloc implements the textbook block allocator underlying both
// the Soft Memory Allocator's per-SDS heaps and the "system allocator"
// baseline the paper compares against (§5).
//
// A Heap carves 4 KiB pages into size-class slots using segregated free
// lists, the design of classic slab/size-class allocators. Allocations are
// identified by Refs (generation-checked handles) rather than pointers:
// in Go we cannot hand out revocable raw pointers, and handles make
// use-after-reclaim detectable, the paper's §7 "pointers via a runtime"
// answer.
//
// The slot layout is what gives the SMA its "efficacy" property (§3.1):
// because each SDS has its own heap and allocations of a class pack
// densely into pages, freeing a handful of allocations tends to produce
// entirely-free pages that can be returned for reclamation.
//
// A Heap is not safe for concurrent use; the owning Context serializes access
// (the paper leaves concurrency as an open question, §7).
package alloc

import (
	"errors"
	"fmt"

	"softmem/internal/pages"
)

// Allocation failure and handle-validity errors.
var (
	// ErrInvalidRef reports a Ref that does not name a live allocation:
	// never allocated, already freed, or reclaimed.
	ErrInvalidRef = errors.New("alloc: invalid ref (freed or reclaimed)")
	// ErrBadSize reports a non-positive allocation size.
	ErrBadSize = errors.New("alloc: allocation size must be positive")
	// ErrMultiPage is Bytes' answer for a live allocation that spans
	// several pages and so has no single backing slice: read it through
	// Segments, AppendTo or ReadAt/WriteAt. A sentinel, so asking "one
	// segment or many" costs no allocation.
	ErrMultiPage = errors.New("alloc: allocation spans pages; use Segments, AppendTo or ReadAt/WriteAt")
)

// classes are the slot sizes available within a page. Sizes were chosen so
// consecutive classes differ by at most 50%, bounding internal
// fragmentation, and so several interesting sizes (the paper's 1 KiB
// stress allocations and 2 KiB list elements) map exactly.
var classes = []int{16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1360, 2048, 4096}

// MaxSlotSize is the largest allocation served from a shared page; larger
// allocations get dedicated multi-page spans.
const MaxSlotSize = pages.Size

// classFor returns the index of the smallest class >= size, or -1 if the
// size needs a multi-page span.
func classFor(size int) int {
	if size > MaxSlotSize {
		return -1
	}
	for i, c := range classes {
		if size <= c {
			return i
		}
	}
	return -1
}

// ClassSize returns the rounded (slot) size an allocation of size bytes
// occupies, counting multi-page spans at page granularity.
func ClassSize(size int) int {
	if i := classFor(size); i >= 0 {
		return classes[i]
	}
	return pages.BytesToPages(size) * pages.Size
}

// PageSource supplies page frames to a Heap. The SMA implements this to
// interpose budgets and its process-local free pool; the baseline wires a
// pages.Pool directly via PoolSource.
type PageSource interface {
	// AcquirePages leases n pages, all-or-nothing.
	AcquirePages(n int) ([]*pages.Page, error)
	// ReleasePages returns pages previously leased from this source.
	ReleasePages(pgs []*pages.Page)
}

// PoolSource adapts a pages.Pool to the PageSource interface.
type PoolSource struct {
	Pool *pages.Pool
}

// AcquirePages leases pages from the underlying pool.
func (s PoolSource) AcquirePages(n int) ([]*pages.Page, error) { return s.Pool.Acquire(n) }

// ReleasePages returns pages to the underlying pool.
func (s PoolSource) ReleasePages(pgs []*pages.Page) { s.Pool.Release(pgs...) }

// Ref is a generation-checked handle to a live allocation. The zero Ref is
// nil and never names an allocation.
type Ref struct {
	page pages.ID
	slot uint16
	gen  uint32
}

// IsNil reports whether r is the zero (nil) handle.
func (r Ref) IsNil() bool { return r == Ref{} }

// String renders the ref for diagnostics.
func (r Ref) String() string { return fmt.Sprintf("ref{p%d s%d g%d}", r.page, r.slot, r.gen) }

// Owner is what an SDS hangs on a live allocation so that the heap can
// answer "who else lives on this page" (Tenants): the heap gives memory
// back a page at a time, so a reclaimer has to choose its victims a page
// at a time. The heap never looks inside an owner beyond asking which
// allocation it believes it owns, which VerifyOwners checks.
type Owner interface {
	OwnedRef() Ref
}

// pageMeta tracks one slotted page owned by a heap.
type pageMeta struct {
	page      *pages.Page
	class     int
	used      int
	freeSlots []uint16
	gens      []uint32 // odd = live
	userSizes []int32
	// owners holds the per-slot Owner, nil for a slot nobody adopted. It
	// is allocated by the page's first SetOwner, so heaps whose SDS never
	// registers owners pay nothing for it.
	owners     []Owner
	partialIdx int // index into heap.partial[class], -1 when absent
}

// spanMeta tracks one multi-page span holding a single large allocation.
type spanMeta struct {
	pgs      []*pages.Page
	gen      uint32
	userSize int
	owner    Owner
}

// limboEntry is one retirement whose physical recycling is deferred
// until the epoch grace period covers its stamp: the allocation is
// already logically dead (its ref no longer validates, accounting says
// freed) but its slot stays occupied — or its span pages stay held — so
// a lock-free reader that observed the value before it was unpublished
// can finish copying from memory nobody rewrites.
type limboEntry struct {
	stamp uint64
	pgs   []*pages.Page // span retirement: pages to release at drain
	page  pages.ID      // slot retirement: the slot's page
	slot  uint16
	span  bool
}

// Stats is a snapshot of a heap's accounting.
type Stats struct {
	LiveAllocs   int   // live allocations
	LiveBytes    int64 // bytes as requested by callers
	SlotBytes    int64 // bytes actually occupied (rounded to class/span)
	PagesHeld    int   // pages leased from the source (incl. free pages)
	FreePages    int   // fully-free pages held, returnable on demand
	TotalAllocs  int64 // cumulative allocation count
	TotalFrees   int64 // cumulative free count
	FailedAllocs int64 // allocations denied by the page source
	LimboAllocs  int   // retirements awaiting their grace period
	LimboPages   int   // span pages held in limbo (counted in PagesHeld)
	DeferredOps  int64 // cumulative retirements routed through limbo
}

// Heap is a size-class allocator over pages from a PageSource.
type Heap struct {
	src   PageSource
	metas map[pages.ID]*pageMeta
	// last is the page of the most recent slot Alloc. What follows an
	// allocation — the write, the publication, the owner — names that same
	// page, so liveSlot tries it before probing metas.
	last    *pageMeta
	spans   map[pages.ID]*spanMeta
	partial [][]*pageMeta       // per class: pages with at least one free slot
	free    []*pages.Page       // fully-free pages not yet returned to the source
	baseGen map[pages.ID]uint32 // generation floor for pages on the free list
	limbo   []limboEntry        // FIFO, stamps non-decreasing
	gen     uint32
	stats   Stats
}

// New returns an empty heap drawing pages from src.
func New(src PageSource) *Heap {
	if src == nil {
		panic("alloc: New with nil PageSource")
	}
	return &Heap{
		src:     src,
		metas:   make(map[pages.ID]*pageMeta),
		spans:   make(map[pages.ID]*spanMeta),
		partial: make([][]*pageMeta, len(classes)),
		baseGen: make(map[pages.ID]uint32),
	}
}

// Alloc reserves size bytes and returns a handle to them. It returns the
// page source's error (e.g. pages.ErrExhausted, or the SMA's budget
// denial) when no page can be obtained.
func (h *Heap) Alloc(size int) (Ref, error) {
	if size <= 0 {
		return Ref{}, ErrBadSize
	}
	ci := classFor(size)
	if ci < 0 {
		return h.allocSpan(size)
	}
	m, err := h.partialPage(ci)
	if err != nil {
		h.stats.FailedAllocs++
		return Ref{}, err
	}
	slot := m.freeSlots[len(m.freeSlots)-1]
	m.freeSlots = m.freeSlots[:len(m.freeSlots)-1]
	m.used++
	if len(m.freeSlots) == 0 {
		h.removePartial(m)
	}
	m.gens[slot]++ // now odd: live
	m.userSizes[slot] = int32(size)
	h.last = m
	h.stats.LiveAllocs++
	h.stats.TotalAllocs++
	h.stats.LiveBytes += int64(size)
	h.stats.SlotBytes += int64(classes[ci])
	return Ref{page: m.page.ID(), slot: slot, gen: m.gens[slot]}, nil
}

// allocSpan serves an allocation larger than a page from a dedicated span.
func (h *Heap) allocSpan(size int) (Ref, error) {
	n := pages.BytesToPages(size)
	pgs, err := h.src.AcquirePages(n)
	if err != nil {
		h.stats.FailedAllocs++
		return Ref{}, err
	}
	h.gen++
	if h.gen%2 == 0 { // span gens must be odd (live)
		h.gen++
	}
	sm := &spanMeta{pgs: pgs, gen: h.gen, userSize: size}
	h.spans[pgs[0].ID()] = sm
	h.stats.LiveAllocs++
	h.stats.TotalAllocs++
	h.stats.LiveBytes += int64(size)
	h.stats.SlotBytes += int64(n * pages.Size)
	h.stats.PagesHeld += n
	return Ref{page: pgs[0].ID(), slot: 0, gen: sm.gen}, nil
}

// partialPage returns a page with a free slot in class ci, pulling from
// the heap's free pages or the source as needed.
func (h *Heap) partialPage(ci int) (*pageMeta, error) {
	if lst := h.partial[ci]; len(lst) > 0 {
		return lst[len(lst)-1], nil
	}
	var pg *pages.Page
	if n := len(h.free); n > 0 {
		pg = h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
	} else {
		pgs, err := h.src.AcquirePages(1)
		if err != nil {
			return nil, err
		}
		pg = pgs[0]
		h.stats.PagesHeld++
	}
	slots := pages.Size / classes[ci]
	m := &pageMeta{
		page:       pg,
		class:      ci,
		freeSlots:  make([]uint16, slots),
		gens:       make([]uint32, slots),
		userSizes:  make([]int32, slots),
		partialIdx: -1,
	}
	// Pages recycled within the heap carry their generation floor forward
	// so stale refs from an earlier incarnation can never validate.
	if base, ok := h.baseGen[pg.ID()]; ok {
		delete(h.baseGen, pg.ID())
		for i := range m.gens {
			m.gens[i] = base
		}
	}
	for i := 0; i < slots; i++ {
		m.freeSlots[i] = uint16(slots - 1 - i) // pop low slots first
	}
	h.metas[pg.ID()] = m
	h.addPartial(m)
	return m, nil
}

func (h *Heap) addPartial(m *pageMeta) {
	m.partialIdx = len(h.partial[m.class])
	h.partial[m.class] = append(h.partial[m.class], m)
}

func (h *Heap) removePartial(m *pageMeta) {
	lst := h.partial[m.class]
	i := m.partialIdx
	last := len(lst) - 1
	lst[i] = lst[last]
	lst[i].partialIdx = i
	lst[last] = nil
	h.partial[m.class] = lst[:last]
	m.partialIdx = -1
}

// liveSlot returns the page holding ref's slot, or nil unless ref names a
// live slot allocation (spans are looked up in h.spans by their callers).
func (h *Heap) liveSlot(ref Ref) *pageMeta {
	m := h.last
	if m == nil || m.page.ID() != ref.page {
		if m = h.metas[ref.page]; m == nil {
			return nil
		}
	}
	if int(ref.slot) >= len(m.gens) || m.gens[ref.slot] != ref.gen || ref.gen%2 == 0 {
		return nil
	}
	return m
}

// kill ends a live slot's generation (now even: dead) and drops its
// owner: an owner word never outlives its slot.
func (m *pageMeta) kill(slot uint16) {
	m.gens[slot]++
	if m.owners != nil {
		m.owners[slot] = nil
	}
}

// Free releases the allocation named by ref. Freeing the last allocation
// on a page moves the page to the heap's free list, where
// ReleaseFreePages can return it to the source (the paper's
// page-granularity reclamation).
func (h *Heap) Free(ref Ref) error {
	if sm, ok := h.spans[ref.page]; ok && sm.gen == ref.gen {
		delete(h.spans, ref.page)
		n := len(sm.pgs)
		h.src.ReleasePages(sm.pgs)
		h.stats.LiveAllocs--
		h.stats.TotalFrees++
		h.stats.LiveBytes -= int64(sm.userSize)
		h.stats.SlotBytes -= int64(n * pages.Size)
		h.stats.PagesHeld -= n
		return nil
	}
	m := h.liveSlot(ref)
	if m == nil {
		return fmt.Errorf("%w: %v", ErrInvalidRef, ref)
	}
	m.kill(ref.slot)
	m.freeSlots = append(m.freeSlots, ref.slot)
	m.used--
	h.stats.LiveAllocs--
	h.stats.TotalFrees++
	h.stats.LiveBytes -= int64(m.userSizes[ref.slot])
	h.stats.SlotBytes -= int64(classes[m.class])
	if len(m.freeSlots) == 1 {
		h.addPartial(m) // page was full, now partial
	}
	if m.used == 0 {
		h.retireEmptyPage(m)
	}
	return nil
}

// retireEmptyPage moves a fully-free page onto the heap's free list,
// recording the generation floor future incarnations must start from.
func (h *Heap) retireEmptyPage(m *pageMeta) {
	h.removePartial(m)
	delete(h.metas, m.page.ID())
	if h.last == m {
		h.last = nil
	}
	var max uint32
	for _, g := range m.gens {
		if g > max {
			max = g
		}
	}
	if max%2 != 0 {
		max++ // floor must be even (dead) so fresh allocs become odd
	}
	h.baseGen[m.page.ID()] = max
	h.free = append(h.free, m.page)
}

// Retire is the epoch-deferred Free: the allocation dies logically now
// (the ref stops validating, live accounting drops, the free counts)
// but its memory is not recycled until DrainLimbo observes a grace
// frontier past stamp. Slot retirements keep the slot out of the free
// list so no new allocation can rewrite it; span retirements keep the
// span's pages leased. Stamps must be non-decreasing across calls
// (callers stamp with a monotonic epoch under the heap's owner lock);
// a lower stamp is clamped up to preserve FIFO drainability. It returns
// the number of whole pages whose recycling was deferred (span pages;
// slot retirements defer at sub-page granularity and report 0).
func (h *Heap) Retire(ref Ref, stamp uint64) (int, error) {
	if n := len(h.limbo); n > 0 && h.limbo[n-1].stamp > stamp {
		stamp = h.limbo[n-1].stamp
	}
	if sm, ok := h.spans[ref.page]; ok && sm.gen == ref.gen {
		delete(h.spans, ref.page)
		h.stats.LiveAllocs--
		h.stats.TotalFrees++
		h.stats.LiveBytes -= int64(sm.userSize)
		h.stats.SlotBytes -= int64(len(sm.pgs) * pages.Size)
		// PagesHeld stays: the span's pages are still leased until drain.
		h.limbo = append(h.limbo, limboEntry{stamp: stamp, pgs: sm.pgs, span: true})
		h.stats.LimboAllocs++
		h.stats.LimboPages += len(sm.pgs)
		h.stats.DeferredOps++
		return len(sm.pgs), nil
	}
	m := h.liveSlot(ref)
	if m == nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalidRef, ref)
	}
	m.kill(ref.slot) // the ref is invalid immediately; limbo keeps the bytes, not the owner
	h.stats.LiveAllocs--
	h.stats.TotalFrees++
	h.stats.LiveBytes -= int64(m.userSizes[ref.slot])
	h.stats.SlotBytes -= int64(classes[m.class])
	// The slot is NOT returned to freeSlots and used is NOT decremented:
	// the page cannot go empty (or hand this slot to a new allocation)
	// while a reader may still be copying from it.
	h.limbo = append(h.limbo, limboEntry{stamp: stamp, page: ref.page, slot: ref.slot})
	h.stats.LimboAllocs++
	h.stats.DeferredOps++
	return 0, nil
}

// DrainLimbo completes the physical free of every limbo entry whose
// stamp is strictly below safe (the epoch domain's grace frontier) and
// reports how many entries drained. Drained slots rejoin their page's
// free list — possibly retiring the page onto the heap's free-page
// list — and drained span pages return to the source.
func (h *Heap) DrainLimbo(safe uint64) int {
	n := 0
	for ; n < len(h.limbo) && h.limbo[n].stamp < safe; n++ {
		e := h.limbo[n]
		if e.span {
			h.stats.LimboPages -= len(e.pgs)
			h.stats.PagesHeld -= len(e.pgs)
			h.src.ReleasePages(e.pgs)
			continue
		}
		m, ok := h.metas[e.page]
		if !ok {
			continue // page left the heap via Reset; nothing to complete
		}
		m.freeSlots = append(m.freeSlots, e.slot)
		m.used--
		if len(m.freeSlots) == 1 {
			h.addPartial(m) // page was full, now partial
		}
		if m.used == 0 {
			h.retireEmptyPage(m)
		}
	}
	if n == 0 {
		return 0
	}
	h.stats.LimboAllocs -= n
	// Close the gap in place: slicing the drained head off instead would
	// walk the queue down its backing array and reallocate it every few
	// batches.
	rest := copy(h.limbo, h.limbo[n:])
	clear(h.limbo[rest:])
	h.limbo = h.limbo[:rest]
	if rest == 0 && cap(h.limbo) > 64 {
		h.limbo = nil // drop an array sized by a burst
	}
	return n
}

// LimboPending returns how many retirements await their grace period.
func (h *Heap) LimboPending() int { return h.stats.LimboAllocs }

// LimboPages returns how many whole pages (retired spans) limbo holds.
func (h *Heap) LimboPages() int { return h.stats.LimboPages }

// NeedsPage reports whether Alloc(size) would have to lease from the
// page source: always for a multi-page span, and for a slot size whose
// class has no partial page while the heap holds no free page either.
func (h *Heap) NeedsPage(size int) bool {
	ci := classFor(size)
	return ci < 0 || (len(h.partial[ci]) == 0 && len(h.free) == 0)
}

// Bytes returns the live allocation's backing bytes (length = requested
// size). The slice is valid until the allocation is freed or reclaimed.
// A multi-page span has no single slice and returns ErrMultiPage.
func (h *Heap) Bytes(ref Ref) ([]byte, error) {
	if sm, ok := h.spans[ref.page]; ok && sm.gen == ref.gen {
		// Large allocations span pages; expose them as a copy-free slice
		// only when they fit one page, else assemble on demand.
		if len(sm.pgs) == 1 {
			return sm.pgs[0].Bytes()[:sm.userSize], nil
		}
		return nil, ErrMultiPage
	}
	m := h.liveSlot(ref)
	if m == nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRef, ref)
	}
	off := int(ref.slot) * classes[m.class]
	return m.page.Bytes()[off : off+int(m.userSizes[ref.slot])], nil
}

// Segments returns the live allocation's backing bytes as a list of
// page-backed segments (length = requested size across all segments,
// one per page for multi-page spans). It exists for the lock-free read
// path: the segments are captured once at publication time into an
// immutable box, and epoch-deferred recycling guarantees nobody
// rewrites them while a registered reader copies. The segments are
// valid until the allocation's retirement drains.
func (h *Heap) Segments(ref Ref) ([][]byte, error) {
	if sm, ok := h.spans[ref.page]; ok && sm.gen == ref.gen {
		segs := make([][]byte, 0, len(sm.pgs))
		rem := sm.userSize
		for _, pg := range sm.pgs {
			n := rem
			if n > pages.Size {
				n = pages.Size
			}
			segs = append(segs, pg.Bytes()[:n])
			rem -= n
		}
		return segs, nil
	}
	b, err := h.Bytes(ref)
	if err != nil {
		return nil, err
	}
	return [][]byte{b}, nil
}

// AppendTo appends the live allocation's contents to dst and returns
// the extended slice. Unlike Bytes it works for every allocation size:
// multi-page spans are assembled page by page into dst, so read paths
// that copy anyway (SDS Get/GetAppend) stay valid for large values.
func (h *Heap) AppendTo(dst []byte, ref Ref) ([]byte, error) {
	if sm, ok := h.spans[ref.page]; ok && sm.gen == ref.gen && len(sm.pgs) > 1 {
		off := len(dst)
		if cap(dst)-off < sm.userSize {
			grown := make([]byte, off, off+sm.userSize)
			copy(grown, dst)
			dst = grown
		}
		dst = dst[:off+sm.userSize]
		copySpan(sm, dst[off:], 0, false)
		return dst, nil
	}
	b, err := h.Bytes(ref)
	if err != nil {
		return nil, err
	}
	return append(dst, b...), nil
}

// WriteAt copies p into the allocation at the given offset. It works for
// all allocation sizes, including multi-page spans.
func (h *Heap) WriteAt(ref Ref, p []byte, off int) error {
	size, err := h.Size(ref)
	if err != nil {
		return err
	}
	if off < 0 || off+len(p) > size {
		return fmt.Errorf("alloc: WriteAt [%d,%d) outside allocation of %d bytes", off, off+len(p), size)
	}
	if sm, ok := h.spans[ref.page]; ok && sm.gen == ref.gen {
		copySpan(sm, p, off, true)
		return nil
	}
	b, err := h.Bytes(ref)
	if err != nil {
		return err
	}
	copy(b[off:], p)
	return nil
}

// ReadAt copies from the allocation at the given offset into p.
func (h *Heap) ReadAt(ref Ref, p []byte, off int) error {
	size, err := h.Size(ref)
	if err != nil {
		return err
	}
	if off < 0 || off+len(p) > size {
		return fmt.Errorf("alloc: ReadAt [%d,%d) outside allocation of %d bytes", off, off+len(p), size)
	}
	if sm, ok := h.spans[ref.page]; ok && sm.gen == ref.gen {
		copySpan(sm, p, off, false)
		return nil
	}
	b, err := h.Bytes(ref)
	if err != nil {
		return err
	}
	copy(p, b[off:])
	return nil
}

// copySpan copies between p and a multi-page span starting at span offset
// off; toSpan selects direction.
func copySpan(sm *spanMeta, p []byte, off int, toSpan bool) {
	rem := p
	for _, pg := range sm.pgs {
		if off >= pages.Size {
			off -= pages.Size
			continue
		}
		b := pg.Bytes()[off:]
		n := len(b)
		if n > len(rem) {
			n = len(rem)
		}
		if toSpan {
			copy(b[:n], rem[:n])
		} else {
			copy(rem[:n], b[:n])
		}
		rem = rem[n:]
		if len(rem) == 0 {
			return
		}
		off = 0
	}
}

// Size returns the live allocation's requested size in bytes.
func (h *Heap) Size(ref Ref) (int, error) {
	if sm, ok := h.spans[ref.page]; ok && sm.gen == ref.gen {
		return sm.userSize, nil
	}
	m := h.liveSlot(ref)
	if m == nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalidRef, ref)
	}
	return int(m.userSizes[ref.slot]), nil
}

// SlotSize returns the bytes the live allocation actually occupies: its
// size class, or whole pages for spans. Reclamation quotas are counted in
// slot bytes, since those are what turn into free pages.
func (h *Heap) SlotSize(ref Ref) (int, error) {
	if sm, ok := h.spans[ref.page]; ok && sm.gen == ref.gen {
		return len(sm.pgs) * pages.Size, nil
	}
	m := h.liveSlot(ref)
	if m == nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalidRef, ref)
	}
	return classes[m.class], nil
}

// Live reports whether ref names a live allocation.
func (h *Heap) Live(ref Ref) bool {
	_, err := h.Size(ref)
	return err == nil
}

// SetOwner records o as the owner of the live allocation ref. The heap
// drops it again when the allocation dies (Free, Retire, Reset).
func (h *Heap) SetOwner(ref Ref, o Owner) error {
	if sm, ok := h.spans[ref.page]; ok && sm.gen == ref.gen {
		sm.owner = o
		return nil
	}
	m := h.liveSlot(ref)
	if m == nil {
		return fmt.Errorf("%w: %v", ErrInvalidRef, ref)
	}
	if m.owners == nil {
		m.owners = make([]Owner, len(m.gens))
	}
	m.owners[ref.slot] = o
	return nil
}

// Tenants appends to dst the owner of every live allocation that would
// have to die for ref's pages to come free — ref's own included, nil for
// an allocation nobody adopted — and reports how many pages that is: the
// live slots of ref's page, or a multi-page span alone on its pages.
func (h *Heap) Tenants(ref Ref, dst []Owner) (tenants []Owner, npages int, err error) {
	if sm, ok := h.spans[ref.page]; ok && sm.gen == ref.gen {
		return append(dst, sm.owner), len(sm.pgs), nil
	}
	m := h.liveSlot(ref)
	if m == nil {
		return dst, 0, fmt.Errorf("%w: %v", ErrInvalidRef, ref)
	}
	for slot, g := range m.gens {
		if g%2 == 0 {
			continue
		}
		var o Owner
		if m.owners != nil {
			o = m.owners[slot]
		}
		dst = append(dst, o)
	}
	return dst, 1, nil
}

// VerifyOwners checks the owner words against the allocations they sit
// on: an owner's ref names exactly its slot, and no dead slot has one.
func (h *Heap) VerifyOwners() error {
	for id, m := range h.metas {
		for slot, o := range m.owners {
			if o == nil {
				continue
			}
			at := Ref{page: id, slot: uint16(slot), gen: m.gens[slot]}
			if at.gen%2 == 0 {
				return fmt.Errorf("alloc: owner of %v outlived dead slot %v", o.OwnedRef(), at)
			}
			if got := o.OwnedRef(); got != at {
				return fmt.Errorf("alloc: slot %v is owned by the holder of %v", at, got)
			}
		}
	}
	for id, sm := range h.spans {
		if sm.owner == nil {
			continue
		}
		if at, got := (Ref{page: id, gen: sm.gen}), sm.owner.OwnedRef(); got != at {
			return fmt.Errorf("alloc: span %v is owned by the holder of %v", at, got)
		}
	}
	return nil
}

// ReleaseFreePages returns up to max fully-free pages to the page source
// (all of them when max < 0) and reports how many were returned. This is
// the SDS-heap half of the paper's reclamation path: once frees have
// emptied pages, the pages flow back toward the machine.
func (h *Heap) ReleaseFreePages(max int) int {
	n := len(h.free)
	if max >= 0 && n > max {
		n = max
	}
	if n == 0 {
		return 0
	}
	out := h.free[len(h.free)-n:]
	h.src.ReleasePages(out)
	for i := range out {
		delete(h.baseGen, out[i].ID()) // pool never reuses IDs
		out[i] = nil
	}
	h.free = h.free[:len(h.free)-n]
	h.stats.PagesHeld -= n
	return n
}

// Reset frees every allocation and returns every page to the source. Used
// by SDSs (like the paper's SoftArray) that surrender everything at once.
func (h *Heap) Reset() {
	var all []*pages.Page
	h.last = nil
	for id, m := range h.metas {
		all = append(all, m.page)
		delete(h.metas, id)
	}
	for id, sm := range h.spans {
		all = append(all, sm.pgs...)
		delete(h.spans, id)
	}
	// Limbo span pages are still leased; slot entries belong to pages
	// already collected via metas. A Reset tears down the whole SDS, so
	// its readers are gone and the grace period is moot.
	for _, e := range h.limbo {
		if e.span {
			all = append(all, e.pgs...)
		}
	}
	h.limbo = nil
	h.stats.LimboAllocs = 0
	h.stats.LimboPages = 0
	all = append(all, h.free...)
	if len(all) > 0 {
		h.src.ReleasePages(all)
	}
	h.free = h.free[:0]
	clear(h.baseGen)
	for i := range h.partial {
		h.partial[i] = h.partial[i][:0]
	}
	h.stats.TotalFrees += int64(h.stats.LiveAllocs)
	h.stats.LiveAllocs = 0
	h.stats.LiveBytes = 0
	h.stats.SlotBytes = 0
	h.stats.PagesHeld = 0
}

// Stats returns a snapshot of the heap's accounting.
func (h *Heap) Stats() Stats {
	s := h.stats
	s.FreePages = len(h.free)
	return s
}

// FragStats quantifies the heap's fragmentation — the §3.1 trade-off the
// per-SDS heap design accepts in exchange for cheap page reclamation.
type FragStats struct {
	// Internal is the fraction of occupied slot bytes wasted by
	// size-class rounding: 1 − LiveBytes/SlotBytes.
	Internal float64
	// External is the fraction of held (non-free-list) pages' capacity
	// sitting in free slots of partially-used pages.
	External float64
}

// Fragmentation measures current internal and external fragmentation.
func (h *Heap) Fragmentation() FragStats {
	var fs FragStats
	if h.stats.SlotBytes > 0 {
		fs.Internal = 1 - float64(h.stats.LiveBytes)/float64(h.stats.SlotBytes)
	}
	usedPages := h.stats.PagesHeld - len(h.free)
	if usedPages > 0 {
		capacity := int64(usedPages) * pages.Size
		fs.External = float64(capacity-h.stats.SlotBytes) / float64(capacity)
		if fs.External < 0 {
			fs.External = 0 // spans only: no slot waste
		}
	}
	return fs
}

// FreePages returns the number of fully-free pages currently held.
func (h *Heap) FreePages() int { return len(h.free) }

// PagesHeld returns the number of pages leased from the source.
func (h *Heap) PagesHeld() int { return h.stats.PagesHeld }
