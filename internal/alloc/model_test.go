package alloc

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"softmem/internal/epoch"
	"softmem/internal/pages"
)

// issued is the model's record of one ref the heap ever handed out.
type issued struct {
	ref   Ref
	data  []byte // what was written; a live ref must read it back
	owner *holder
	live  bool
	// limbo is the View a lock-free reader would copy, published before a
	// deferred Free: until the retirement drains nobody may rewrite what
	// it reads.
	limbo *View
	stamp uint64
}

// reader is a reader slot the model holds in the heap's epoch domain,
// and the epoch it entered at.
type reader struct {
	slot  int
	epoch uint64
}

// model is a shadow of every ref a heap issued, checked against the heap.
type model struct {
	t     *testing.T
	h     *Heap
	pool  *pages.Pool
	d     *epoch.Domain // nil for a heap that frees at once
	all   []*issued
	live  []*issued
	queue []*issued // retired, not yet drained, in stamp order
	// readers are the slots the model holds; no retirement stamped at or
	// after the oldest of them may drain.
	readers []reader
	carved  map[pages.ID]*pageMeta
	// recarved counts allocations that landed on a page the heap had
	// emptied and carved again while refs into its first life were kept.
	recarved int
	// crossed counts checks of live slots that cross a page boundary of
	// their slab.
	crossed int
	scratch []byte
}

// crosses reports whether the slot ref names crosses a page boundary of
// its slab, worked out from the class table alone.
func crosses(ref Ref, size int) bool {
	c := ClassSize(size)
	off := int(ref.slot) * c
	return size <= MaxSlotSize && off/pages.Size != (off+c-1)/pages.Size
}

func (m *model) checkLive(r *issued) {
	m.t.Helper()
	h := m.h
	if n, err := h.Size(r.ref); err != nil || n != len(r.data) {
		m.t.Fatalf("Size(%v) = %d, %v; want %d", r.ref, n, err, len(r.data))
	}
	b, err := h.Bytes(r.ref)
	switch cross := crosses(r.ref, len(r.data)); {
	case cross || len(r.data) > MaxSlotSize:
		if err != ErrMultiPage {
			m.t.Fatalf("Bytes(%v, %d B, crossing %t) err = %v, want ErrMultiPage", r.ref, len(r.data), cross, err)
		}
	case err != nil || !bytes.Equal(b, r.data):
		m.t.Fatalf("Bytes(%v) = %d bytes, %v; want the %d written", r.ref, len(b), err, len(r.data))
	}
	if crosses(r.ref, len(r.data)) {
		m.crossed++
		m.acrossTheBoundary(r)
	}
	m.scratch = append(m.scratch[:0], "prefix"...)
	out, err := h.AppendTo(m.scratch, r.ref)
	if err != nil || !bytes.Equal(out[len("prefix"):], r.data) || string(out[:len("prefix")]) != "prefix" {
		m.t.Fatalf("AppendTo(%v) = %d bytes, %v", r.ref, len(out), err)
	}
	m.scratch = out
	off := len(r.data) / 3
	buf := make([]byte, len(r.data)-off)
	if err := h.ReadAt(r.ref, buf, off); err != nil || !bytes.Equal(buf, r.data[off:]) {
		m.t.Fatalf("ReadAt(%v, off %d): %v", r.ref, off, err)
	}
	if !h.Live(r.ref) {
		m.t.Fatalf("Live(%v) = false for a live ref", r.ref)
	}
}

// acrossTheBoundary rewrites the bytes of r, a slot that crosses a page
// boundary of its slab, on both sides of the boundary, and reads them back
// at offsets that start before it.
func (m *model) acrossTheBoundary(r *issued) {
	m.t.Helper()
	start := int(r.ref.slot) * ClassSize(len(r.data))
	edge := (start/pages.Size+1)*pages.Size - start // the boundary, as an offset into r
	lo, hi := max(edge-24, 0), min(edge+24, len(r.data))
	if lo >= hi {
		return // the allocation ends before its slot reaches the boundary
	}
	fresh := make([]byte, hi-lo)
	for i := range fresh {
		fresh[i] = r.data[lo+i] + 1
	}
	if err := m.h.WriteAt(r.ref, fresh, lo); err != nil {
		m.t.Fatalf("WriteAt(%v, [%d,%d)): %v", r.ref, lo, hi, err)
	}
	copy(r.data[lo:], fresh)
	for _, off := range []int{lo, max(edge-1, 0)} {
		buf := make([]byte, hi-off)
		if err := m.h.ReadAt(r.ref, buf, off); err != nil || !bytes.Equal(buf, r.data[off:hi]) {
			m.t.Fatalf("ReadAt(%v, [%d,%d)) across the boundary at %d: %v", r.ref, off, hi, edge, err)
		}
	}
}

func (m *model) checkDead(r *issued) {
	m.t.Helper()
	rejects(m.t, m.h, r.ref)
	if r.limbo != nil && !bytes.Equal(r.limbo.AppendTo(nil), r.data) {
		m.t.Fatalf("memory of %v was rewritten inside its grace period", r.ref)
	}
}

func (m *model) check(r *issued) {
	m.t.Helper()
	if r.live {
		m.checkLive(r)
	} else {
		m.checkDead(r)
	}
}

// oldestReader is the epoch the oldest held reader entered at, 0 for none.
func (m *model) oldestReader() uint64 {
	var oldest uint64
	for _, r := range m.readers {
		if oldest == 0 || r.epoch < oldest {
			oldest = r.epoch
		}
	}
	return oldest
}

// settle takes what the heap drained off the front of the queue (limbo
// drains in FIFO order), checking that no reader could still see it.
func (m *model) settle() {
	m.t.Helper()
	n := len(m.queue) - m.h.Stats().LimboAllocs
	if n < 0 {
		m.t.Fatalf("limbo holds %d more than the model retired", -n)
	}
	oldest := m.oldestReader()
	for _, r := range m.queue[:n] {
		if oldest != 0 && r.stamp >= oldest {
			m.t.Fatalf("drained stamp %d under a reader that entered at %d", r.stamp, oldest)
		}
		r.limbo = nil // the slot may be handed out again from here on
		m.check(r)
	}
	m.queue = m.queue[n:]
}

// invariants are the whole-heap facts that hold between any two ops.
func (m *model) invariants() {
	m.t.Helper()
	if err := m.h.VerifyOwners(); err != nil {
		m.t.Fatal(err)
	}
	st := m.h.Stats()
	var liveBytes int64
	for _, r := range m.live {
		liveBytes += int64(len(r.data))
	}
	if st.LiveAllocs != len(m.live) || st.LiveBytes != liveBytes || st.LimboAllocs != len(m.queue) {
		m.t.Fatalf("stats %+v; model has %d live (%d B), %d in limbo", st, len(m.live), liveBytes, len(m.queue))
	}
	if st.PagesHeld != m.pool.InUse() {
		m.t.Fatalf("heap holds %d pages, pool leased %d", st.PagesHeld, m.pool.InUse())
	}
}

func (m *model) alloc(rng *rand.Rand) {
	var size int
	switch rng.Intn(10) {
	case 0: // a span
		size = MaxSlotSize + 1 + rng.Intn(2*pages.Size)
	case 1, 2, 3: // one class, so that pages fill, empty and come back
		size = 900 + rng.Intn(124)
	case 4, 5: // the classes carved on slabs of several pages
		size = 1025 + rng.Intn(MaxSlotSize-1024)
	default:
		size = 16 + rng.Intn(MaxSlotSize-15)
	}
	ref, err := m.h.Alloc(size)
	if err != nil {
		m.t.Fatal(err)
	}
	r := &issued{ref: ref, data: make([]byte, size), live: true}
	rng.Read(r.data)
	if err := m.h.WriteAt(ref, r.data, 0); err != nil {
		m.t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		r.owner = &holder{ref: ref}
		if err := m.h.SetOwner(ref, r.owner); err != nil {
			m.t.Fatal(err)
		}
	}
	if first, ok := m.carved[ref.meta.id]; ok && first != ref.meta {
		m.recarved++
	}
	m.carved[ref.meta.id] = ref.meta
	m.all = append(m.all, r)
	m.live = append(m.live, r)
	m.check(r)
}

// kill takes a random live record out of the live set and returns it.
func (m *model) kill(rng *rand.Rand) *issued {
	i := rng.Intn(len(m.live))
	r := m.live[i]
	m.live[i] = m.live[len(m.live)-1]
	m.live = m.live[:len(m.live)-1]
	r.live = false
	return r
}

// TestModelEveryRefEverIssued drives a heap through random ops and
// holds it to a shadow of every ref it ever handed out: a live one reads
// back what was written, and a dead one — freed, retired and waiting,
// retired and drained, on a page since emptied and carved again, or from
// before a Reset — fails every accessor with ErrInvalidRef, for good. It
// runs once on a heap that frees at once and once on a deferring heap,
// whose drains it checks against the reader slots it holds.
func TestModelEveryRefEverIssued(t *testing.T) {
	for _, deferring := range []bool{false, true} {
		runModel(t, deferring)
	}
}

func runModel(t *testing.T, deferring bool) {
	rng := rand.New(rand.NewSource(18))
	h, pool := newHeap(0)
	m := &model{t: t, h: h, pool: pool, carved: make(map[pages.ID]*pageMeta)}
	if deferring {
		m.d = epoch.NewDomain()
		h.DeferFrees(m.d)
	}
	const ops = 50_000
	m.alloc(rng) // so that there is history to sample from the first op on
	for i := 0; i < ops; i++ {
		// The live set swings between a few and a few hundred, so pages
		// fill up and drain out again all through the run.
		grow := len(m.live) < 8 || (i/2000)%2 == 0 && len(m.live) < 300
		switch p := rng.Intn(1000); {
		case p == 0:
			for _, r := range m.readers { // else Reset waits out its bound
				m.d.Exit(r.slot)
			}
			m.readers = m.readers[:0]
			h.Reset()
			for _, r := range m.live {
				r.live = false
			}
			for _, r := range m.queue {
				r.limbo = nil // Reset ends the grace period: the pages are gone
			}
			m.live, m.queue = m.live[:0], m.queue[:0]
		case p < 20:
			h.ReleaseFreePages(rng.Intn(4) - 1)
		case p < 40:
			h.Trim(rng.Intn(3))
		case p < 140 && deferring:
			switch rng.Intn(4) {
			case 0:
				if len(m.readers) < 3 {
					slot, ok := m.d.Enter(uint64(i))
					if !ok {
						t.Fatal("Enter failed")
					}
					m.readers = append(m.readers, reader{slot, m.d.Current()})
				}
			case 1:
				if n := len(m.readers); n > 0 {
					j := rng.Intn(n)
					m.d.Exit(m.readers[j].slot)
					m.readers[j] = m.readers[n-1]
					m.readers = m.readers[:n-1]
				}
			case 2:
				m.d.Advance()
			default:
				h.Drain(time.Time{})
				m.settle()
				if oldest := m.oldestReader(); len(m.queue) > 0 && (oldest == 0 || m.queue[0].stamp < oldest) {
					t.Fatalf("Drain left stamp %d behind (oldest reader %d)", m.queue[0].stamp, oldest)
				}
			}
		case grow && p < 800 || len(m.live) == 0:
			m.alloc(rng)
		default:
			r := m.kill(rng)
			if deferring {
				v, err := h.Publish(r.ref)
				if err != nil {
					t.Fatal(err)
				}
				r.limbo = v
				r.stamp = m.d.Current()
				m.queue = append(m.queue, r)
			}
			if err := h.Free(r.ref); err != nil {
				t.Fatal(err)
			}
			m.check(r)
		}
		m.settle()
		m.invariants()
		for range 2 { // a sample of all history after every op ...
			m.check(m.all[rng.Intn(len(m.all))])
		}
		if i%10_000 == 0 || i == ops-1 { // ... and all of it now and then
			for _, r := range m.all {
				m.check(r)
			}
		}
	}
	if m.recarved == 0 {
		t.Fatal("no allocation landed on a page the heap had emptied and carved again")
	}
	if m.crossed == 0 {
		t.Fatal("no live slot crossed a page boundary of its slab")
	}
	if deferring && h.Stats().DeferredOps == 0 {
		t.Fatal("the deferring heap retired nothing")
	}
	t.Logf("deferring %t: %d refs issued, %d live at the end, %d allocations on re-carved pages, %d checks of crossing slots",
		deferring, len(m.all), len(m.live), m.recarved, m.crossed)
}
