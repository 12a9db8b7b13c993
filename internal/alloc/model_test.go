package alloc

import (
	"bytes"
	"math/rand"
	"testing"

	"softmem/internal/pages"
)

// issued is the model's record of one ref the heap ever handed out.
type issued struct {
	ref   Ref
	data  []byte // what was written; a live ref must read it back
	owner *holder
	live  bool
	// limbo is the slot's memory, captured before Retire: until the
	// retirement drains nobody may rewrite it.
	limbo []byte
	stamp uint64
}

// model is a shadow of every ref a heap issued, checked against the heap.
type model struct {
	t      *testing.T
	h      *Heap
	pool   *pages.Pool
	all    []*issued
	live   []*issued
	queue  []*issued // retired, not yet drained, in stamp order
	carved map[pages.ID]*pageMeta
	// recarved counts allocations that landed on a page the heap had
	// emptied and carved again while refs into its first life were kept.
	recarved int
	scratch  []byte
}

func (m *model) checkLive(r *issued) {
	m.t.Helper()
	h := m.h
	if n, err := h.Size(r.ref); err != nil || n != len(r.data) {
		m.t.Fatalf("Size(%v) = %d, %v; want %d", r.ref, n, err, len(r.data))
	}
	b, err := h.Bytes(r.ref)
	switch {
	case len(r.data) > MaxSlotSize:
		if err != ErrMultiPage {
			m.t.Fatalf("Bytes(span %v) err = %v, want ErrMultiPage", r.ref, err)
		}
	case err != nil || !bytes.Equal(b, r.data):
		m.t.Fatalf("Bytes(%v) = %d bytes, %v; want the %d written", r.ref, len(b), err, len(r.data))
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

func (m *model) checkDead(r *issued) {
	m.t.Helper()
	rejects(m.t, m.h, r.ref)
	if r.limbo != nil && !bytes.Equal(r.limbo, r.data) {
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

// TestModelEveryRefEverIssued drives the heap through random ops and
// holds it to a shadow of every ref it ever handed out: a live one reads
// back what was written, and a dead one — freed, retired and waiting,
// retired and drained, on a page since emptied and carved again, or from
// before a Reset — fails every accessor with ErrInvalidRef, for good.
func TestModelEveryRefEverIssued(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	h, pool := newHeap(0)
	m := &model{t: t, h: h, pool: pool, carved: make(map[pages.ID]*pageMeta)}
	var epoch uint64
	const ops = 50_000
	m.alloc(rng) // so that there is history to sample from the first op on
	for i := 0; i < ops; i++ {
		// The live set swings between a few and a few hundred, so pages
		// fill up and drain out again all through the run.
		grow := len(m.live) < 8 || (i/2000)%2 == 0 && len(m.live) < 300
		switch p := rng.Intn(1000); {
		case p == 0:
			h.Reset()
			for _, r := range m.live {
				r.live = false
			}
			for _, r := range m.queue {
				r.limbo = nil // Reset ends the grace period: the pages are gone
			}
			m.live, m.queue = m.live[:0], m.queue[:0]
		case p < 40:
			h.ReleaseFreePages(rng.Intn(4) - 1)
		case p < 140:
			epoch += uint64(rng.Intn(2))
			safe := epoch - uint64(rng.Intn(3))
			if safe > epoch {
				safe = 0
			}
			n := h.DrainLimbo(safe)
			for _, r := range m.queue[:n] {
				if r.stamp >= safe {
					t.Fatalf("DrainLimbo(%d) drained stamp %d", safe, r.stamp)
				}
				r.limbo = nil // the slot may be handed out again from here on
				m.check(r)
			}
			if m.queue = m.queue[n:]; len(m.queue) > 0 && m.queue[0].stamp < safe {
				t.Fatalf("DrainLimbo(%d) left stamp %d behind", safe, m.queue[0].stamp)
			}
		case grow && p < 800 || len(m.live) == 0:
			m.alloc(rng)
		case p%3 == 0:
			r := m.kill(rng)
			r.limbo, _ = h.Bytes(r.ref) // nil for a span
			r.stamp = epoch
			if _, err := h.Retire(r.ref, epoch); err != nil {
				t.Fatal(err)
			}
			m.queue = append(m.queue, r)
			m.check(r)
		default:
			r := m.kill(rng)
			if err := h.Free(r.ref); err != nil {
				t.Fatal(err)
			}
			m.check(r)
		}
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
	t.Logf("%d refs issued, %d live at the end, %d allocations on re-carved pages", len(m.all), len(m.live), m.recarved)
}
