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
// (the paper leaves concurrency as an open question, §7). The one state
// read without the owner's lock is what Publish hands out: a lock-free
// reader loads a View and copies through it the published allocation's
// bytes — its slot of a page, or a span's pages (their buffers, through
// pages.Page.Bytes). Both stay unwritten until the allocation's
// retirement has drained; nothing else is ever read unlocked.
//
// A heap handed an epoch domain (DeferFrees) owns that grace period
// whole: its frees retire into limbo, and it decides when limbo drains —
// at a lock hand-back (Trim), before leasing a page (Alloc), under a
// demand (Drain) and at teardown (Reset).
package alloc

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"softmem/internal/epoch"
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
	// AppendTo or ReadAt/WriteAt. A sentinel, so asking "one segment or
	// many" costs no allocation.
	ErrMultiPage = errors.New("alloc: allocation spans pages; use AppendTo or ReadAt/WriteAt")
)

// classes are the slot sizes available within a page, derived from the
// page size: for each slot count n = 1…256, the largest multiple of 16
// that fits n times in a page, each distinct value once. A class thus
// leaves less than 16 bytes per slot unused at its page's end, and an
// allocation rounds up to the smallest slot that packs as many of it to a
// page as its own size allows. The table is a literal so that the heap's
// per-class lists stay arrays; TestClassesTileThePage derives it from
// pages.Size.
var classes = [...]int{
	16, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256,
	272, 288, 304, 336, 368, 400, 448, 512, 576, 672, 816, 1024, 1360, 2048, 4096,
}

// MaxSlotSize is the largest allocation served from a shared page; larger
// allocations get dedicated multi-page spans.
const MaxSlotSize = pages.Size

// classOf maps (size+15)/16 to the index of the smallest class >= size.
// Every class is a multiple of 16 and consecutive classes are at least 16
// apart, so sizes that share a 16-byte step share a class and one step
// moves up one class at most.
var classOf = func() (t [MaxSlotSize/16 + 1]uint8) {
	ci := 0
	for i := range t {
		if i*16 > classes[ci] {
			ci++
		}
		t[i] = uint8(ci)
	}
	return t
}()

// classFor returns the index of the smallest class >= size (size > 0), or
// -1 if the size needs a multi-page span.
func classFor(size int) int {
	if size > MaxSlotSize {
		return -1
	}
	return int(classOf[(size+15)/16])
}

// ClassSize returns the rounded (slot) size an allocation of size bytes
// occupies, counting multi-page spans at page granularity.
func ClassSize(size int) int {
	if i := classFor(max(size, 1)); i >= 0 {
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

// Ref is a generation-checked handle to a live allocation: the metadata
// of the page it lives on, its slot there, and the slot's generation when
// it was handed out. Resolving one is therefore a few loads, no lookup.
// A Ref stays safe to present after its allocation died: the slot's
// generation has moved on, or — when the whole page has left the heap —
// the metadata it points at is dead and validates nothing ever again. The
// zero Ref is nil and never names an allocation.
type Ref struct {
	meta *pageMeta
	slot uint16
	gen  uint32
}

// IsNil reports whether r is the zero (nil) handle.
func (r Ref) IsNil() bool { return r == Ref{} }

// String renders the ref for diagnostics.
func (r Ref) String() string {
	var id pages.ID
	if r.meta != nil {
		id = r.meta.id
	}
	return fmt.Sprintf("ref{p%d s%d g%d}", id, r.slot, r.gen)
}

func invalidRef(ref Ref) error { return fmt.Errorf("%w: %v", ErrInvalidRef, ref) }

// Owner is what an SDS hangs on a live allocation so that the heap can
// answer "who else lives on this page" (Tenants): the heap gives memory
// back a page at a time, so a reclaimer has to choose its victims a page
// at a time. The heap never looks inside an owner beyond asking which
// allocation it believes it owns, which VerifyOwners checks.
type Owner interface {
	OwnedRef() Ref
}

// slot is the per-slot state a Ref is checked against.
type slot struct {
	gen  uint32 // odd = live
	size int32  // bytes the caller asked for
}

// span is the body of an allocation larger than a page: whole pages of
// its own. It is never written after allocSpan, so a View may point at it.
type span struct {
	pgs  []*pages.Page
	size int
}

// View is a published allocation as a lock-free reader copies it: its
// bytes when it sits in one page, else its span. It is the per-slot
// record Publish writes, in an array of records per slotted page. Nothing
// writes a record before the retirements of its page have drained: a
// later Publish of the same slot rewrites it, and once the page has gone
// empty its records are cleared and handed, with its other slot arrays,
// to the next page its class carves. On a heap whose frees are deferred,
// the only kind whose Views readers load, a page goes empty only when its
// last retirement has drained, so no reader still holds one of them.
type View struct {
	b    []byte
	span *span
}

// AppendTo appends the viewed bytes to dst and returns the extended slice.
func (v *View) AppendTo(dst []byte) []byte {
	if v.span == nil {
		return append(dst, v.b...)
	}
	return v.span.appendTo(dst)
}

// record is what the SDS above a heap hangs on one slot: the Owner that
// adopted it and the View published of it.
type record struct {
	owner Owner
	view  View
}

// pageMeta is what a Ref points at: one slotted page of a heap, or one
// multi-page span, which is a page with a single tenant in slot 0. It
// lives exactly as long as the page is carved this way: when the page
// leaves the heap — emptied, Reset, span freed or retired — kill zeroes
// it, and a page the heap carves again gets fresh metadata. A stale Ref
// thus keeps a dead pageMeta (128 bytes) from the garbage collector,
// never a page.
type pageMeta struct {
	heap *Heap    // nil once dead: no Ref into this page validates again
	id   pages.ID // of the (first) page, kept past death for diagnostics
	page *pages.Page
	span *span // nil for a slotted page
	// class indexes classes; a span has none (-1).
	class int32
	used  int32 // slots live or in limbo
	// freeSlots is nil for a span, whose one slot is taken for life.
	freeSlots []uint16
	slots     []slot
	// owners holds one record per slot — its Owner, nil for a slot nobody
	// adopted, and its published View. It is allocated by the page's first
	// SetOwner or Publish, so a heap whose SDS does neither pays nothing
	// for it.
	owners     []record
	partialIdx int32 // index into heap.partial[class], -1 when absent
	heldIdx    int32 // index into heap.held
}

// size returns the bytes the caller asked for in slot s.
func (m *pageMeta) size(s uint16) int {
	if m.span != nil {
		return m.span.size
	}
	return int(m.slots[s].size)
}

// data returns slot s's bytes (length = requested size) on a slotted page.
func (m *pageMeta) data(s uint16) []byte {
	off := int(s) * classes[m.class]
	return m.page.Bytes()[off : off+int(m.slots[s].size)]
}

// records returns m's per-slot records, allocating them on first use.
func (m *pageMeta) records() []record {
	if m.owners == nil {
		m.owners = make([]record, len(m.slots))
	}
	return m.owners
}

// slotBytes returns the bytes one allocation on m occupies.
func (m *pageMeta) slotBytes() int {
	if m.span != nil {
		return len(m.span.pgs) * pages.Size
	}
	return classes[m.class]
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
	m     *pageMeta     // slot retirement: the slot's page, alive while used counts the slot
	slot  uint16
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
	Carves       int64 // cumulative pages cut into slots, each under fresh metadata
}

// slotArrays are the per-slot arrays of a slotted page, which outlive
// its metadata: an emptied page hands them to the next page of its class.
type slotArrays struct {
	slots     []slot
	freeSlots []uint16
	owners    []record
}

// Heap is a size-class allocator over pages from a PageSource.
type Heap struct {
	src     PageSource
	held    []*pageMeta               // every carved page and live span, for Reset and VerifyOwners
	partial [len(classes)][]*pageMeta // per class: pages with at least one free slot
	// spare holds, per class, the slot arrays of its emptied pages, never
	// more than the class's pages at their peak.
	spare [len(classes)][]slotArrays
	free  []*pages.Page // fully-free pages not yet returned to the source
	limbo []limboEntry  // FIFO, stamps non-decreasing
	// dom is the epoch domain whose grace period every Free waits out,
	// nil until DeferFrees.
	dom   *epoch.Domain
	stats Stats
}

// New returns an empty heap drawing pages from src.
func New(src PageSource) *Heap {
	if src == nil {
		panic("alloc: New with nil PageSource")
	}
	return &Heap{src: src}
}

// Alloc reserves size bytes and returns a handle to them. It returns the
// page source's error (e.g. pages.ErrExhausted, or the SMA's budget
// denial) when no page can be obtained.
//
// It is the second drain point: served from the pages the heap holds,
// an allocation leaves limbo alone; one that would lease — always a
// multi-page span, else a class with no partial page while no free page
// is held — drains limbo first, since the slot or page it needs may be
// waiting there. Limbo therefore never costs a page, a budget request or
// a reclaim that an eager drain would have avoided.
func (h *Heap) Alloc(size int) (Ref, error) {
	if size <= 0 {
		return Ref{}, ErrBadSize
	}
	ci := classFor(size)
	if ci < 0 {
		if len(h.limbo) > 0 {
			h.ratchet()
		}
		return h.allocSpan(size)
	}
	m := h.heldPage(ci)
	if m == nil && len(h.limbo) > 0 {
		h.ratchet()
		m = h.heldPage(ci)
	}
	if m == nil {
		pgs, err := h.src.AcquirePages(1)
		if err != nil {
			h.stats.FailedAllocs++
			return Ref{}, err
		}
		h.stats.PagesHeld++
		m = h.carve(pgs[0], ci)
	}
	return h.take(m, size), nil
}

// take hands out the most recently freed slot of m, a page with one free.
func (h *Heap) take(m *pageMeta, size int) Ref {
	s := m.freeSlots[len(m.freeSlots)-1]
	m.freeSlots = m.freeSlots[:len(m.freeSlots)-1]
	m.used++
	if len(m.freeSlots) == 0 {
		h.removePartial(m)
	}
	st := &m.slots[s]
	st.gen++ // now odd: live
	st.size = int32(size)
	h.stats.LiveAllocs++
	h.stats.TotalAllocs++
	h.stats.LiveBytes += int64(size)
	h.stats.SlotBytes += int64(classes[m.class])
	return Ref{meta: m, slot: s, gen: st.gen}
}

// allocSpan serves an allocation larger than a page from a dedicated span.
func (h *Heap) allocSpan(size int) (Ref, error) {
	n := pages.BytesToPages(size)
	pgs, err := h.src.AcquirePages(n)
	if err != nil {
		h.stats.FailedAllocs++
		return Ref{}, err
	}
	m := &pageMeta{
		heap:       h,
		id:         pgs[0].ID(),
		span:       &span{pgs: pgs, size: size},
		class:      -1,
		used:       1,
		slots:      []slot{{gen: 1}},
		partialIdx: -1,
	}
	h.hold(m)
	h.stats.LiveAllocs++
	h.stats.TotalAllocs++
	h.stats.LiveBytes += int64(size)
	h.stats.SlotBytes += int64(n * pages.Size)
	h.stats.PagesHeld += n
	return Ref{meta: m, gen: 1}, nil
}

// heldPage returns a page with a free slot in class ci out of what the
// heap holds — the class's latest partial page, else a free page carved
// for it — or nil when serving the class takes a page from the source.
func (h *Heap) heldPage(ci int) *pageMeta {
	if lst := h.partial[ci]; len(lst) > 0 {
		return lst[len(lst)-1]
	}
	n := len(h.free)
	if n == 0 {
		return nil
	}
	pg := h.free[n-1]
	h.free[n-1] = nil
	h.free = h.free[:n-1]
	return h.carve(pg, ci)
}

// carve cuts pg into slots of class ci under fresh metadata: whatever
// refs an earlier incarnation of the page handed out point at metadata
// that died with it. The slot arrays are those of the class's last
// emptied page, when there is one.
func (h *Heap) carve(pg *pages.Page, ci int) *pageMeta {
	n := pages.Size / classes[ci]
	var a slotArrays
	if sp := h.spare[ci]; len(sp) > 0 {
		a = sp[len(sp)-1]
		sp[len(sp)-1] = slotArrays{}
		h.spare[ci] = sp[:len(sp)-1]
	} else {
		a = slotArrays{slots: make([]slot, n), freeSlots: make([]uint16, n)}
	}
	m := &pageMeta{
		heap:       h,
		id:         pg.ID(),
		page:       pg,
		class:      int32(ci),
		freeSlots:  a.freeSlots[:n],
		slots:      a.slots,
		owners:     a.owners,
		partialIdx: -1,
	}
	for i := range m.freeSlots {
		m.freeSlots[i] = uint16(n - 1 - i) // pop low slots first
	}
	h.stats.Carves++
	h.hold(m)
	h.addPartial(m)
	return m
}

func (h *Heap) hold(m *pageMeta) {
	m.heldIdx = int32(len(h.held))
	h.held = append(h.held, m)
}

// drop takes m off the heap's books and kills it: every Ref into it is
// stale from here on, and it keeps no page and no owner alive.
func (h *Heap) drop(m *pageMeta) {
	last := len(h.held) - 1
	moved := h.held[last]
	h.held[m.heldIdx] = moved
	moved.heldIdx = m.heldIdx
	h.held[last] = nil
	h.held = h.held[:last]
	m.kill()
}

// kill leaves of m what a stale Ref needs to fail and to print itself.
func (m *pageMeta) kill() { *m = pageMeta{id: m.id} }

func (h *Heap) addPartial(m *pageMeta) {
	m.partialIdx = int32(len(h.partial[m.class]))
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

// liveSlot returns the metadata ref points at, or nil unless ref names a
// live allocation of this heap: metadata of another heap, or dead, fails
// the first test whatever its slots once said.
func (h *Heap) liveSlot(ref Ref) *pageMeta {
	m := ref.meta
	if m == nil || m.heap != h || int(ref.slot) >= len(m.slots) || m.slots[ref.slot].gen != ref.gen || ref.gen%2 == 0 {
		return nil
	}
	return m
}

// die ends a live allocation logically: its generation (now even), its
// owner word — an owner never outlives its slot — and its place in the
// live accounting. Its View stays as it is: a reader may be copying
// through it until the retirement drains. What becomes of the memory is
// Free's business: it recycles it now, or retires it for a grace period.
func (h *Heap) die(m *pageMeta, s uint16) {
	h.stats.LiveAllocs--
	h.stats.TotalFrees++
	h.stats.LiveBytes -= int64(m.size(s))
	h.stats.SlotBytes -= int64(m.slotBytes())
	m.slots[s].gen++
	if m.owners != nil {
		m.owners[s].owner = nil
	}
}

// recycle returns a dead slot to its page's free list. The page's last
// slot takes the page with it: onto the heap's free list, where
// ReleaseFreePages can return it to the source (the paper's
// page-granularity reclamation), its metadata dead, its slot arrays
// spare for the class's next page. On a heap whose frees are deferred the
// last slot comes back only when the page's last retirement has drained,
// so no reader holds one of its records any more; clearing them leaves a
// spare array pinning no page buffer.
func (h *Heap) recycle(m *pageMeta, s uint16) {
	m.freeSlots = append(m.freeSlots, s)
	m.used--
	if len(m.freeSlots) == 1 {
		h.addPartial(m) // page was full, now partial
	}
	if m.used == 0 {
		h.removePartial(m)
		h.free = append(h.free, m.page)
		clear(m.owners)
		h.spare[m.class] = append(h.spare[m.class], slotArrays{slots: m.slots, freeSlots: m.freeSlots, owners: m.owners})
		h.drop(m)
	}
}

// Free releases the allocation named by ref: a slot rejoins its page's
// free list, a span's pages return to the source. On a heap whose frees
// are deferred (DeferFrees) it retires the allocation instead.
func (h *Heap) Free(ref Ref) error {
	m := h.liveSlot(ref)
	if m == nil {
		return invalidRef(ref)
	}
	h.die(m, ref.slot)
	switch {
	case h.dom != nil:
		h.retire(m, ref.slot)
	case m.span == nil:
		h.recycle(m, ref.slot)
	default:
		pgs := m.span.pgs
		h.drop(m)
		h.src.ReleasePages(pgs)
		h.stats.PagesHeld -= len(pgs)
	}
	return nil
}

// DeferFrees hands the heap the epoch domain d: from here on every Free
// is a retirement whose memory is recycled only once d's grace period
// covers it, and the heap drains its limbo itself (Trim, Alloc, Drain,
// Reset). Call it once, before anything is published to lock-free
// readers; it is never switched back off, since limbo would be stranded.
func (h *Heap) DeferFrees(d *epoch.Domain) { h.dom = d }

// retire is a deferred Free of the allocation that just died in slot s
// of m. The stamp is the epoch now, read after the caller unpublished the
// value (stored nil, or the replacement's record, over its record
// pointer) — the order internal/epoch's safety argument needs. Stamps are
// non-decreasing down the queue: the epoch only grows, and the heap's
// owner serializes the reads. A slot stays out of its page's free list,
// so no allocation can rewrite it; a span keeps its pages leased.
func (h *Heap) retire(m *pageMeta, s uint16) {
	e := limboEntry{stamp: h.dom.Current()}
	h.stats.LimboAllocs++
	h.stats.DeferredOps++
	if m.span == nil {
		// used still counts the slot: the page cannot go empty while a
		// reader may be copying from it.
		e.m, e.slot = m, s
	} else {
		// PagesHeld stays: the span's pages are leased until the drain.
		e.pgs = m.span.pgs
		h.drop(m)
		h.stats.LimboPages += len(e.pgs)
		h.dom.NoteDeferred(len(e.pgs))
	}
	h.limbo = append(h.limbo, e)
}

// limboBatch is how many slot retirements limbo collects before a lock
// hand-back (Trim) pays for a ratchet: one epoch advance plus a grace
// scan of every reader slot (epoch.NumSlots padded cache lines). Paid
// once per retirement, that scan was 19 % of the CPU time of a 50/50
// GET/SET workload. Measured on the repository benchmark's
// kv_direct_mixed (2 vCPU, 8 s runs, ops/s · soft pages per live byte):
// batch 1 2.38 M · 1.2332, 8 2.63 M · 1.2343, 32 2.80 M · 1.2346,
// 128 2.69 M · 1.2358 with read p50 up 14 % — past 32 the retired slots
// held back start to cost cache and pages more than the scan saves.
const limboBatch = 32

// ratchet advances the epoch, drains every retirement the grace period
// now covers and reports how many that was.
func (h *Heap) ratchet() int {
	h.dom.Advance()
	return h.drain(h.dom.SafeBefore())
}

// drain completes the physical free of every limbo entry whose stamp is
// strictly below safe (the epoch domain's grace frontier) and reports
// how many entries drained. Drained slots rejoin their page's free list
// — possibly retiring the page onto the heap's free-page list — and
// drained span pages return to the source.
func (h *Heap) drain(safe uint64) int {
	n := 0
	for ; n < len(h.limbo) && h.limbo[n].stamp < safe; n++ {
		e := h.limbo[n]
		if e.pgs == nil {
			h.recycle(e.m, e.slot)
			continue
		}
		h.stats.LimboPages -= len(e.pgs)
		h.stats.PagesHeld -= len(e.pgs)
		h.src.ReleasePages(e.pgs)
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

// Trim is the heap's share of a lock hand-back. It is the first drain
// point: once limbo has collected limboBatch slot retirements, or holds
// any retired span (whole pages), it ratchets, so deferred recycling
// needs no background thread; below the batch it costs two loads. Alloc
// and Drain are the other drain points, and between them limbo stays
// below limboBatch retirements while no reader is parked. Then it hands
// the free pages beyond keep back to the source ("periodically transfers
// free pages back to the global free pool", §4).
func (h *Heap) Trim(keep int) {
	if h.stats.LimboAllocs >= limboBatch || h.stats.LimboPages > 0 {
		h.ratchet()
	}
	if over := len(h.free) - keep; over > 0 {
		h.ReleaseFreePages(over)
	}
}

// Drain is the demand's drain point: it ratchets until limbo is empty,
// rescheduling between fruitless rounds so that registered readers can
// leave (they never need the heap's owner, so they make progress while
// the caller holds it), or until deadline has passed. It returns how
// many retirements are still pending.
func (h *Heap) Drain(deadline time.Time) int {
	for len(h.limbo) > 0 {
		if h.ratchet() > 0 {
			continue
		}
		if !time.Now().Before(deadline) {
			break
		}
		runtime.Gosched()
	}
	return len(h.limbo)
}

// view resolves ref, once, to its bytes (length = requested size): b for
// a slot allocation, sp for a multi-page span, which has no single slice.
// Every accessor below is this plus a copy.
func (h *Heap) view(ref Ref) (b []byte, sp *span, err error) {
	m := h.liveSlot(ref)
	if m == nil {
		return nil, nil, invalidRef(ref)
	}
	if m.span != nil {
		return nil, m.span, nil
	}
	return m.data(ref.slot), nil, nil
}

// Bytes returns the live allocation's backing bytes (length = requested
// size). The slice is valid until the allocation is freed or reclaimed.
// A multi-page span has no single slice and returns ErrMultiPage.
func (h *Heap) Bytes(ref Ref) ([]byte, error) {
	b, sp, err := h.view(ref)
	if sp != nil {
		return nil, ErrMultiPage
	}
	return b, err
}

// Publish writes the View of the live allocation ref into the slot's
// record and returns the record, for an SDS to hand to lock-free readers
// through one atomic pointer. Call it once per allocation, after its
// bytes are written. The record is rewritten only when the slot is handed
// out again or its page has gone empty, so it is as stable as the bytes —
// but only on a heap whose frees are deferred, where a slot comes back
// only after its grace period.
// A span's record lives apart from its pageMeta, which a deferred Free
// kills at once.
func (h *Heap) Publish(ref Ref) (*View, error) {
	m := h.liveSlot(ref)
	if m == nil {
		return nil, invalidRef(ref)
	}
	v := &m.records()[ref.slot].view
	if m.span != nil {
		*v = View{span: m.span}
	} else {
		*v = View{b: m.data(ref.slot)}
	}
	return v, nil
}

// AppendTo appends the live allocation's contents to dst and returns
// the extended slice. Unlike Bytes it works for every allocation size:
// multi-page spans are assembled page by page into dst, so read paths
// that copy anyway (SDS Get/GetAppend) stay valid for large values.
// Onto a nil dst a slot's contents are one Go allocation of exactly their
// size, not zeroed first: make then copy, which the compiler fuses, where
// append would round up to the size class and clear the tail.
func (h *Heap) AppendTo(dst []byte, ref Ref) ([]byte, error) {
	b, sp, err := h.view(ref)
	switch {
	case err != nil:
		return nil, err
	case sp != nil:
		return sp.appendTo(dst), nil
	case dst == nil:
		out := make([]byte, len(b))
		copy(out, b)
		return out, nil
	}
	return append(dst, b...), nil
}

// appendTo appends the span's bytes to dst with at most one grow.
func (sp *span) appendTo(dst []byte) []byte {
	off := len(dst)
	if cap(dst)-off < sp.size {
		grown := make([]byte, off, off+sp.size)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+sp.size]
	sp.copy(dst[off:], 0, false)
	return dst
}

// WriteAt copies p into the allocation at the given offset. It works for
// all allocation sizes, including multi-page spans.
func (h *Heap) WriteAt(ref Ref, p []byte, off int) error {
	return h.copyAt("WriteAt", ref, p, off, true)
}

// ReadAt copies from the allocation at the given offset into p.
func (h *Heap) ReadAt(ref Ref, p []byte, off int) error {
	return h.copyAt("ReadAt", ref, p, off, false)
}

// copyAt copies between p and the allocation from offset off on; write
// selects the direction.
func (h *Heap) copyAt(op string, ref Ref, p []byte, off int, write bool) error {
	b, sp, err := h.view(ref)
	if err != nil {
		return err
	}
	size := len(b)
	if sp != nil {
		size = sp.size
	}
	if off < 0 || off+len(p) > size {
		return fmt.Errorf("alloc: %s [%d,%d) outside allocation of %d bytes", op, off, off+len(p), size)
	}
	switch {
	case sp != nil:
		sp.copy(p, off, write)
	case write:
		copy(b[off:], p)
	default:
		copy(p, b[off:])
	}
	return nil
}

// copy copies between p and the span starting at span offset off; toSpan
// selects direction.
func (sp *span) copy(p []byte, off int, toSpan bool) {
	rem := p
	for _, pg := range sp.pgs {
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
	m := h.liveSlot(ref)
	if m == nil {
		return 0, invalidRef(ref)
	}
	return m.size(ref.slot), nil
}

// SlotSize returns the bytes the live allocation actually occupies: its
// size class, or whole pages for spans. Reclamation quotas are counted in
// slot bytes, since those are what turn into free pages.
func (h *Heap) SlotSize(ref Ref) (int, error) {
	m := h.liveSlot(ref)
	if m == nil {
		return 0, invalidRef(ref)
	}
	return m.slotBytes(), nil
}

// Live reports whether ref names a live allocation.
func (h *Heap) Live(ref Ref) bool { return h.liveSlot(ref) != nil }

// SetOwner records o as the owner of the live allocation ref. The heap
// drops it again when the allocation dies (Free, Reset).
func (h *Heap) SetOwner(ref Ref, o Owner) error {
	m := h.liveSlot(ref)
	if m == nil {
		return invalidRef(ref)
	}
	m.records()[ref.slot].owner = o
	return nil
}

// Tenants appends to dst the owner of every live allocation that would
// have to die for ref's pages to come free — ref's own included, nil for
// an allocation nobody adopted — and reports how many pages that is: the
// live slots of ref's page in slot order, or a multi-page span alone on
// its pages.
func (h *Heap) Tenants(ref Ref, dst []Owner) (tenants []Owner, npages int, err error) {
	m := h.liveSlot(ref)
	if m == nil {
		return dst, 0, invalidRef(ref)
	}
	for s := range m.slots {
		if m.slots[s].gen%2 == 0 {
			continue
		}
		var o Owner
		if m.owners != nil {
			o = m.owners[s].owner
		}
		dst = append(dst, o)
	}
	if m.span != nil {
		return dst, len(m.span.pgs), nil
	}
	return dst, 1, nil
}

// VerifyOwners checks the owner words against the allocations they sit
// on: an owner's ref names exactly its slot, and no dead slot has one.
func (h *Heap) VerifyOwners() error {
	for _, m := range h.held {
		what := "slot"
		if m.span != nil {
			what = "span"
		}
		for s, r := range m.owners {
			o := r.owner
			if o == nil {
				continue
			}
			at := Ref{meta: m, slot: uint16(s), gen: m.slots[s].gen}
			if at.gen%2 == 0 {
				return fmt.Errorf("alloc: owner of %v outlived dead slot %v", o.OwnedRef(), at)
			}
			if got := o.OwnedRef(); got != at {
				return fmt.Errorf("alloc: %s %v is owned by the holder of %v", what, at, got)
			}
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
	clear(out)
	h.free = h.free[:len(h.free)-n]
	h.stats.PagesHeld -= n
	return n
}

// Reset frees every allocation and returns every page to the source. Used
// by SDSs (like the paper's SoftArray) that surrender everything at once.
//
// A heap whose frees are deferred first waits (bounded) for every
// registered reader to leave the epoch domain, so teardown cannot release
// pages a straggling reader is still copying from; the caller has
// unpublished everything before. Each round advances the epoch so exits
// become visible to the grace check. The bound keeps a stuck reader from
// wedging teardown: pages released after it are still memory-safe —
// released page buffers are never rewritten, only dropped for the GC.
func (h *Heap) Reset() {
	if d := h.dom; d != nil {
		stamp := d.Advance()
		for i := 0; i < 10000 && d.SafeBefore() <= stamp; i++ {
			d.Advance()
			runtime.Gosched()
		}
	}
	var all []*pages.Page
	for _, m := range h.held {
		if m.span != nil {
			all = append(all, m.span.pgs...)
		} else {
			all = append(all, m.page)
		}
		m.kill()
	}
	clear(h.held)
	h.held = h.held[:0]
	// Limbo span pages are still leased; slot entries belong to pages
	// just collected. The readers are gone, so the grace period is over.
	for _, e := range h.limbo {
		all = append(all, e.pgs...)
	}
	h.limbo = nil
	h.stats.LimboAllocs = 0
	h.stats.LimboPages = 0
	all = append(all, h.free...)
	if len(all) > 0 {
		h.src.ReleasePages(all)
	}
	clear(h.free)
	h.free = h.free[:0]
	for i := range h.partial {
		clear(h.partial[i])
		h.partial[i] = h.partial[i][:0]
	}
	h.spare = [len(classes)][]slotArrays{}
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

// FreePages returns the number of fully-free pages currently held.
func (h *Heap) FreePages() int { return len(h.free) }

// PagesHeld returns the number of pages leased from the source.
func (h *Heap) PagesHeld() int { return h.stats.PagesHeld }
