// Package epoch implements the grace-period machinery behind the
// lock-free SDS read paths: a global epoch counter plus a fixed array of
// reader slots. A reader claims a slot stamped with the current epoch
// before touching any soft-memory bytes and releases it when the copy is
// done; revocation stamps each retired allocation with the epoch at
// retire time and only recycles its pages once no registered reader
// could still observe them (the grace period covers the reclaim epoch).
//
// Safety argument (all atomics in Go are sequentially consistent, so a
// single total order over them exists):
//
//	reader: slot-CAS(0→e_r)  →  record-load (non-nil)  →  copy    →  slot-store(0)
//	writer: record-store(nil) →  epoch-stamp read s    →  retire  →  later slot-scan
//
// If a reader loaded a pointer to the old record, its load precedes the
// writer's store (nil, or the replacement's record) in the total order,
// hence its slot-CAS does too, and e_r ≤ s (the stamp is read from the
// global after the reader sampled it). Every scan after the retire
// therefore observes the slot active with epoch e_r ≤ s, so
// SafeBefore() ≤ e_r ≤ s and the strict `stamp < SafeBefore()` drain
// test keeps the allocation in limbo — its bytes, and the record the
// allocator rewrites only when it hands the slot out again. Readers need
// no validation loop: values are write-once (published via the record
// pointer, never rewritten in place), so a copy that started is never
// torn. When the reader instead observes a nil record the value was
// condemned; it exits its slot and retries on the owned path.
package epoch

import "sync/atomic"

// NumSlots is the size of the reader-slot array. Power of two so the
// hint-derived probe start is a mask, and large enough that a process
// with hundreds of concurrent readers rarely exhausts it (exhaustion is
// not an error — callers fall back to the locked read path).
const NumSlots = 128

// slot is one cache-line-padded reader registration cell. 0 means free;
// any other value is the epoch the occupying reader entered at.
type slot struct {
	epoch atomic.Uint64
	_     [56]byte // pad to a 64-byte cache line
}

// Domain is one process-wide epoch domain. The zero value is NOT ready;
// use NewDomain (the global epoch must start above zero so a live slot
// stamp is never confused with "free").
type Domain struct {
	global atomic.Uint64
	// deferredPages counts pages whose recycling was deferred into limbo
	// cumulatively, fed by the allocator; it lives here so telemetry has
	// one home for epoch-wide counters.
	deferredPages atomic.Int64
	slots         [NumSlots]slot
}

// NewDomain returns a ready Domain with the global epoch at 1.
func NewDomain() *Domain {
	d := &Domain{}
	d.global.Store(1)
	return d
}

// Enter claims a reader slot stamped with the current epoch, probing
// from hint%NumSlots (pass a key hash: readers scatter without sharing
// a contended counter). It returns the slot index and true, or false
// when every slot is occupied — the caller must then take the locked
// read path instead. Enter is wait-free apart from the bounded probe.
func (d *Domain) Enter(hint uint64) (int, bool) {
	e := d.global.Load()
	start := int(hint) & (NumSlots - 1)
	for i := 0; i < NumSlots; i++ {
		idx := (start + i) & (NumSlots - 1)
		if d.slots[idx].epoch.CompareAndSwap(0, e) {
			return idx, true
		}
	}
	return -1, false
}

// Exit releases the slot returned by Enter. The reader must not touch
// epoch-protected bytes after Exit.
func (d *Domain) Exit(i int) {
	d.slots[i].epoch.Store(0)
}

// Current returns the global epoch. Retiring writers stamp allocations
// with it AFTER unpublishing them (storing over the record pointer) —
// that order is what the safety argument above relies on.
func (d *Domain) Current() uint64 { return d.global.Load() }

// Advance bumps the global epoch and returns the new value. Heap owners
// call it where they are about to look at limbo — a lock hand-back that
// finds a batch of retirements, an allocation about to lease a page, a
// reclaim round — so grace periods expire without a dedicated
// background thread.
func (d *Domain) Advance() uint64 { return d.global.Add(1) }

// scan walks the reader slots once and returns the oldest epoch any
// registered reader entered at (0 when none is registered) and how many
// are registered. It is the one announcement scan behind the grace
// check and Lag.
func (d *Domain) scan() (oldest uint64, readers int) {
	for i := range d.slots {
		if e := d.slots[i].epoch.Load(); e != 0 {
			readers++
			if oldest == 0 || e < oldest {
				oldest = e
			}
		}
	}
	return oldest, readers
}

// SafeBefore returns the exclusive upper bound of drained epochs: every
// retirement stamped strictly below it is unobservable by any present
// or future reader and may be recycled. With no active readers it is
// global+1 (a stamp equal to the current epoch is still drainable only
// when nobody holds it — hence the strict comparison at the caller).
func (d *Domain) SafeBefore() uint64 {
	if oldest, _ := d.scan(); oldest != 0 {
		return oldest
	}
	return d.global.Load() + 1
}

// Lag reports how many epochs the slowest active reader trails the
// global epoch — 0 when no reader is registered. A persistently high
// lag means a stuck reader is pinning limbo pages.
func (d *Domain) Lag() uint64 {
	g := d.global.Load()
	oldest, _ := d.scan()
	if oldest == 0 || oldest >= g {
		return 0
	}
	return g - oldest
}

// NoteDeferred adds n pages to the cumulative deferred-recycling
// counter (called by the allocator when a retirement enters limbo).
func (d *Domain) NoteDeferred(n int) {
	if n > 0 {
		d.deferredPages.Add(int64(n))
	}
}

// DeferredPages returns the cumulative number of pages whose recycling
// was deferred through limbo.
func (d *Domain) DeferredPages() int64 { return d.deferredPages.Load() }
