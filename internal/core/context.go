package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"softmem/internal/alloc"
)

// Context is a Soft Data Structure's handle on its isolated heap: the
// paper's "SDS context in charge of tracking the SDS's heap and a
// user-defined priority" (§3.1). All methods are safe for concurrent use;
// they serialize on the context's own heap lock, so operations on
// different contexts proceed in parallel.
type Context struct {
	sma       *SMA
	name      string
	reclaimer Reclaimer
	// seq is the registration sequence number; paths that must hold
	// several heap locks at once (integrity checks) acquire them in
	// ascending seq order to stay deadlock-free.
	seq uint64
	// priority orders the reclamation walk; it is registry state, guarded
	// by the SMA's regMu.
	priority int

	// mu guards the heap and everything below it. The allocation slow
	// path (daemon round-trips) runs with mu dropped and retries.
	//
	// lockers counts goroutines currently blocked in lock(). An Owned
	// holder that retains mu across many operations polls it (Contended)
	// and yields, so external lockers — reclamation demands above all —
	// are never starved by a busy owner.
	mu      sync.Mutex
	lockers atomic.Int32
	// ownedAcquires totals heap-lock acquisitions made through any Owned
	// handle on this context (owner goroutines and caller-runs batches
	// alike) — the denominator of the lock-amortization evidence.
	ownedAcquires atomic.Int64
	// stallNs totals time Owned holders spent inside contended Yields —
	// the reclaim-stall windows where an owner handed the lock to a
	// waiter (a reclamation demand above all) and re-took it. Unlike the
	// per-handle Owned.stallNs it is an atomic, so cross-goroutine
	// aggregators (Store.StallNanos → the SMA's QoS self-report) can read
	// it without touching the heap lock. Only accounted on paths that
	// already blocked, so the uncontended fast path stays clock-free.
	stallNs atomic.Int64
	heap    *alloc.Heap
	closed  bool
	// demandDrain marks that heap page releases are on the demand path
	// and must flow to the machine, not the process free pool;
	// drainReleased counts them for the demand's accounting.
	demandDrain   bool
	drainReleased int
	// epochRetire records that EnableEpochRetire handed the heap the
	// epoch domain (alloc.Heap.DeferFrees), the one case in which
	// Publish is sound. Guarded by mu.
	epochRetire bool
	// doTx is Do's reusable transaction (guarded by mu); see Do.
	doTx Tx
}

// Name returns the context's diagnostic name.
func (c *Context) Name() string { return c.name }

// Priority returns the context's reclamation priority; lower values are
// reclaimed first.
func (c *Context) Priority() int {
	c.sma.regMu.Lock()
	defer c.sma.regMu.Unlock()
	return c.priority
}

// SetPriority changes the context's reclamation priority.
func (c *Context) SetPriority(p int) {
	c.sma.regMu.Lock()
	c.priority = p
	c.sma.sortContextsLocked()
	c.sma.regMu.Unlock()
}

// lock acquires the heap lock the waiter-visible way: a caller about to
// block advertises itself through lockers, so a shard owner holding the
// lock across a command batch knows to yield. A free lock costs the one
// compare-and-swap and advertises nothing — there is nobody to tell.
// Every path that is not the owner itself must come through here.
func (c *Context) lock() {
	if c.mu.TryLock() {
		return
	}
	c.lockers.Add(1)
	c.mu.Lock()
	c.lockers.Add(-1)
}

// lockOpen is lock for an operation on the heap's contents: it fails with
// ErrClosed, the lock not held, once Close has reset the heap. Every
// public operation that resolves a Ref or allocates comes through here,
// so none of them mistakes a closed context for a stale handle.
func (c *Context) lockOpen() error {
	c.lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	return nil
}

// Alloc reserves size bytes of soft memory, growing the process's budget
// through the daemon as needed. It returns ErrExhausted when machine-wide
// pressure cannot be relieved.
func (c *Context) Alloc(size int) (alloc.Ref, error) { return c.alloc(size, nil) }

// AllocData reserves len(data) bytes and copies data into them, in one
// locked section: no demand can revoke the allocation half-written.
func (c *Context) AllocData(data []byte) (alloc.Ref, error) { return c.alloc(len(data), data) }

func (c *Context) alloc(size int, data []byte) (alloc.Ref, error) {
	if m := c.sma.met.Load(); m != nil {
		t0 := time.Now()
		ref, err := c.allocRetry(size, data)
		m.alloc.ObserveDuration(time.Since(t0))
		return ref, err
	}
	return c.allocRetry(size, data)
}

// allocRetry is the allocation loop: try the heap, and on budget or page
// shortfalls drop the heap lock, consult the daemon, and retry.
func (c *Context) allocRetry(size int, data []byte) (alloc.Ref, error) {
	const maxRetries = 10
	for attempt := 0; ; attempt++ {
		if err := c.lockOpen(); err != nil {
			return alloc.Ref{}, err
		}
		ref, err := c.allocLocked(size, data)
		c.mu.Unlock()
		if err == nil {
			return ref, nil
		}
		if err != errNeedBudget && err != errNeedPages {
			return alloc.Ref{}, err
		}
		if attempt >= maxRetries {
			return alloc.Ref{}, fmt.Errorf("%w: contention after %d retries", ErrExhausted, attempt)
		}
		if err == errNeedPages {
			// Machine empty despite budget: force a daemon round so it
			// reclaims physical pages (its slack view was stale).
			if err := c.sma.forcePressureRound(alloc.PagesFor(size)); err != nil {
				return alloc.Ref{}, err
			}
			continue
		}
		if err := c.sma.ensureBudget(alloc.PagesFor(size)); err != nil {
			return alloc.Ref{}, err
		}
	}
}

// Free releases the allocation. Fully-freed pages above the retention
// threshold flow back to the process free pool, and pool overflow returns
// budget to the daemon.
func (c *Context) Free(ref alloc.Ref) error {
	if m := c.sma.met.Load(); m != nil {
		t0 := time.Now()
		err := c.free(ref)
		m.free.ObserveDuration(time.Since(t0))
		return err
	}
	return c.free(ref)
}

func (c *Context) free(ref alloc.Ref) error {
	if err := c.lockOpen(); err != nil {
		return err
	}
	err := c.heap.Free(ref)
	c.heap.Trim(heapFreeMax)
	c.mu.Unlock()
	c.sma.flushTrim()
	return err
}

// EnableEpochRetire hands the context's heap the SMA's epoch domain, so
// every later free is deferred past the grace period and the heap drains
// its limbo itself (alloc.Heap.DeferFrees). SDSs call it once, before
// publishing any value to lock-free readers, and unpublish a value
// before freeing it; it is never switched back off.
func (c *Context) EnableEpochRetire() {
	c.lock()
	c.heap.DeferFrees(c.sma.epochs)
	c.epochRetire = true
	c.mu.Unlock()
}

// allocLocked is heap.Alloc followed by the write of data when there is
// any. Caller holds c.mu.
func (c *Context) allocLocked(size int, data []byte) (alloc.Ref, error) {
	ref, err := c.heap.Alloc(size)
	if err != nil {
		return alloc.Ref{}, err
	}
	if data != nil {
		if err := c.heap.WriteAt(ref, data, 0); err != nil {
			return alloc.Ref{}, err
		}
	}
	return ref, nil
}

// demandGrace is how long a demand waits, per context, for lock-free
// readers to leave the epoch so that retired pages can drain. A reader
// is inside only to copy one value; it stays longer only when its
// thread has lost the processor, which lasts a scheduler timeslice or a
// few. Giving up earlier fails the demand — the daemon then denies
// whoever needed the pages — although the data is already revoked; the
// wait holds this context's lock, and is a small part of the 30 s the
// daemon allows a demand.
const demandGrace = 100 * time.Millisecond

// Write copies data into the allocation at offset off.
func (c *Context) Write(ref alloc.Ref, data []byte, off int) error {
	if err := c.lockOpen(); err != nil {
		return err
	}
	defer c.mu.Unlock()
	return c.heap.WriteAt(ref, data, off)
}

// Read copies from the allocation at offset off into buf.
func (c *Context) Read(ref alloc.Ref, buf []byte, off int) error {
	if err := c.lockOpen(); err != nil {
		return err
	}
	defer c.mu.Unlock()
	return c.heap.ReadAt(ref, buf, off)
}

// ReadAll returns a copy of the allocation's contents.
func (c *Context) ReadAll(ref alloc.Ref) ([]byte, error) {
	if err := c.lockOpen(); err != nil {
		return nil, err
	}
	defer c.mu.Unlock()
	return c.heap.AppendTo(nil, ref)
}

// Size returns the allocation's size in bytes.
func (c *Context) Size(ref alloc.Ref) (int, error) {
	if err := c.lockOpen(); err != nil {
		return 0, err
	}
	defer c.mu.Unlock()
	return c.heap.Size(ref)
}

// Live reports whether ref names a live allocation (false after free,
// reclamation or Close).
func (c *Context) Live(ref alloc.Ref) bool {
	if c.lockOpen() != nil {
		return false
	}
	defer c.mu.Unlock()
	return c.heap.Live(ref)
}

// Do runs fn under the context's heap lock with a Tx for allocation
// access. SDSs use it to mutate their in-memory index atomically with
// respect to reclamation: the Reclaim callback runs under the same lock,
// so an index observed inside Do is never half-reclaimed. fn must not
// call the Context's public methods (deadlock) nor block.
func (c *Context) Do(fn func(tx *Tx) error) error {
	if err := c.lockOpen(); err != nil {
		return err
	}
	// The Tx is reused across Do calls (guarded by mu) because a fresh
	// &Tx{} escapes through fn and would put one heap allocation on
	// every soft-memory operation. fn must not retain it past return.
	c.doTx = Tx{ctx: c}
	err := fn(&c.doTx)
	c.heap.Trim(heapFreeMax)
	c.mu.Unlock()
	c.sma.flushTrim()
	return err
}

// Close frees every allocation in the context and removes it from the
// SMA. Further operations return ErrClosed.
func (c *Context) Close() {
	c.lock()
	already := c.closed
	if !already {
		c.heap.Reset()
		c.closed = true
	}
	c.mu.Unlock()
	if already {
		return
	}
	c.sma.unregister(c)
	c.sma.flushTrim()
}

// HeapStats returns the context's heap accounting.
func (c *Context) HeapStats() alloc.Stats {
	c.lock()
	defer c.mu.Unlock()
	return c.heap.Stats()
}

// Tx exposes allocation operations inside a locked section: within
// Context.Do and within a Reclaimer's Reclaim. A Tx must not escape the
// function it was passed to.
type Tx struct {
	ctx     *Context
	frees   int        // allocations freed, for SMA reclaim accounting
	victims VictimAges // what the Reclaimer said of its victims' ages
}

// Free releases the allocation.
func (tx *Tx) Free(ref alloc.Ref) error {
	err := tx.ctx.heap.Free(ref)
	if err == nil {
		tx.frees++
	}
	return err
}

// Bytes returns the allocation's backing bytes without copying, or
// alloc.ErrMultiPage for one that spans pages and so has no single
// segment. The slice is valid only inside the current locked section.
func (tx *Tx) Bytes(ref alloc.Ref) ([]byte, error) { return tx.ctx.heap.Bytes(ref) }

// Append appends the allocation's contents to dst and returns the
// extended slice. Unlike Bytes it handles every allocation — one that
// spans pages, which Bytes refuses, is assembled into dst — so it is
// the right primitive for read paths that copy the value out.
func (tx *Tx) Append(dst []byte, ref alloc.Ref) ([]byte, error) {
	return tx.ctx.heap.AppendTo(dst, ref)
}

// Read copies from the allocation at offset off into buf.
func (tx *Tx) Read(ref alloc.Ref, buf []byte, off int) error {
	return tx.ctx.heap.ReadAt(ref, buf, off)
}

// Write copies data into the allocation at offset off.
func (tx *Tx) Write(ref alloc.Ref, data []byte, off int) error {
	return tx.ctx.heap.WriteAt(ref, data, off)
}

// Publish returns the record through which lock-free readers copy the
// live allocation: its View, written now and rewritten only when the
// heap hands the slot out again. On a context whose frees are
// epoch-retired that is after every reader that could have loaded the
// record has left, so the record is as stable as the bytes; on any other
// it is not, and Publish panics there. Call it once per allocation, after
// the bytes are written.
func (tx *Tx) Publish(ref alloc.Ref) (*alloc.View, error) {
	if !tx.ctx.epochRetire {
		panic("core: Publish on a context without EnableEpochRetire")
	}
	return tx.ctx.heap.Publish(ref)
}

// SetOwner records o as the owner of the live allocation, for Tenants to
// hand back. The heap forgets it when the allocation is freed.
func (tx *Tx) SetOwner(ref alloc.Ref, o alloc.Owner) error { return tx.ctx.heap.SetOwner(ref, o) }

// Tenants appends to dst the owners of every live allocation on ref's
// slab (ref's own included, nil for one nobody adopted) and reports how
// many pages come free if all of them die: the slab's one to three, or a
// multi-page span's length, which has ref as its only tenant. A Reclaimer picks its victims
// through it, because pages are what a demand is paid in.
func (tx *Tx) Tenants(ref alloc.Ref, dst []alloc.Owner) ([]alloc.Owner, int, error) {
	return tx.ctx.heap.Tenants(ref, dst)
}

// NoteVictims lets a Reclaimer that orders its elements by a stamp say
// which stamps this Reclaim call revoked and which is the oldest it left
// behind; the demand's span carries them to `smdctl trace`.
func (tx *Tx) NoteVictims(v VictimAges) { tx.victims.merge(v) }

// Size returns the allocation's size in bytes.
func (tx *Tx) Size(ref alloc.Ref) (int, error) { return tx.ctx.heap.Size(ref) }

// SlotSize returns the bytes the allocation actually occupies (its size
// class, or whole pages for spans). Reclaim implementations count freed
// slot bytes against their quota, since slot bytes are what become free
// pages.
func (tx *Tx) SlotSize(ref alloc.Ref) (int, error) { return tx.ctx.heap.SlotSize(ref) }

// Live reports whether ref names a live allocation.
func (tx *Tx) Live(ref alloc.Ref) bool { return tx.ctx.heap.Live(ref) }
