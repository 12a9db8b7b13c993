package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"softmem/internal/alloc"
)

// Owned is a single-goroutine ownership handle on a Context's heap lock,
// built for shard-owner execution engines: the owner acquires the lock
// once, runs a whole batch of operations against the SDS with zero
// per-operation mutex traffic, and releases it when the ring drains.
//
// Cooperation instead of starvation: every blocking acquisition in the
// process — reclamation demands above all, and other Owned handles —
// goes through Context.lock(), which advertises the waiter in a counter
// the holder polls (Contended/Yield). The owner hands the lock over between
// commands, so "eviction never races command execution": reclaim runs
// only in the windows the owner explicitly opens, never mid-operation.
//
// An Owned is NOT safe for concurrent use; it belongs to exactly one
// owner goroutine.
type Owned struct {
	ctx  *Context
	held bool
	// acquires counts lock acquisitions (read concurrently by stats, so
	// atomic); comparing it against commands executed is the evidence
	// that batch execution amortizes locking.
	acquires atomic.Int64
	tx       Tx

	// waitNs accumulates time spent blocked inside Acquire; stallNs
	// accumulates contended-Yield windows (the lock handed over to a
	// reclamation demand or another locker and re-taken). Plain fields,
	// not atomics: an Owned belongs to exactly one goroutine, and
	// latency-attribution readers take per-command deltas on that same
	// goroutine. Both are accounted only on paths that already block, so
	// the uncontended fast paths stay free of clock reads.
	waitNs  int64
	stallNs int64
}

// Own returns an ownership handle on the context's heap lock. The
// handle starts unheld.
func (c *Context) Own() *Owned { return &Owned{ctx: c} }

// OwnedAcquisitions returns how many times any Owned handle has taken
// this context's heap lock, across all handles.
func (c *Context) OwnedAcquisitions() int64 { return c.ownedAcquires.Load() }

// StallNanos returns cumulative time Owned holders of this context spent
// inside contended Yields, across all handles — the context-wide
// reclaim-stall signal feeding the process's QoS self-report.
func (c *Context) StallNanos() int64 { return c.stallNs.Load() }

// Context returns the owned context.
func (o *Owned) Context() *Context { return o.ctx }

// Held reports whether the owner currently holds the heap lock.
func (o *Owned) Held() bool { return o.held }

// Acquisitions returns how many times the owner has taken the lock.
func (o *Owned) Acquisitions() int64 { return o.acquires.Load() }

// WaitNanos returns cumulative time this handle spent blocked acquiring
// the heap lock. Like the handle itself it is single-goroutine state;
// attribution code reads deltas around each command.
func (o *Owned) WaitNanos() int64 { return o.waitNs }

// StallNanos returns cumulative time this handle spent inside contended
// Yields — the reclaim-stall windows where the owner handed the lock to
// a waiter and re-took it.
func (o *Owned) StallNanos() int64 { return o.stallNs }

// Acquire takes the heap lock. It fails with ErrClosed once the context
// is closed (the lock is not held on failure).
func (o *Owned) Acquire() error { return o.acquire(true) }

// acquire takes the lock; timed selects whether blocked time lands in
// waitNs. Yield's contended hand-back passes false and accounts its
// whole window as stallNs instead, keeping the two phases disjoint.
func (o *Owned) acquire(timed bool) error {
	c := o.ctx
	if !c.mu.TryLock() {
		// Block the waiter-visible way (Context.lock): the current holder —
		// an owner mid-drain — sees the waiter at its next Yield instead of
		// finishing its whole ring first.
		if timed {
			t0 := time.Now()
			c.lock()
			o.waitNs += time.Since(t0).Nanoseconds()
		} else {
			c.lock()
		}
	}
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	o.tx = Tx{ctx: c}
	o.held = true
	o.acquires.Add(1)
	c.ownedAcquires.Add(1)
	return nil
}

// TryAcquire takes the heap lock only if it is immediately free,
// reporting whether it now holds it. A false return means the lock is
// contended (or the context closed) — callers fall back to queueing
// work for the context's owner instead of blocking.
func (o *Owned) TryAcquire() bool {
	c := o.ctx
	if !c.mu.TryLock() {
		return false
	}
	if c.closed {
		c.mu.Unlock()
		return false
	}
	o.tx = Tx{ctx: c}
	o.held = true
	o.acquires.Add(1)
	c.ownedAcquires.Add(1)
	return true
}

// Release gives the heap lock back, trimming surplus free pages exactly
// as Context.Do does on exit. No-op when not held.
func (o *Owned) Release() {
	if !o.held {
		return
	}
	o.held = false
	c := o.ctx
	c.heap.Trim(heapFreeMax)
	c.mu.Unlock()
	c.sma.flushTrim()
}

// Contended reports whether another goroutine is waiting for the lock
// (one atomic load; called before every command).
func (o *Owned) Contended() bool { return o.ctx.lockers.Load() != 0 }

// Yield ensures the lock is held, handing it over first if someone is
// waiting. Owners call it between commands: uncontended it is a single
// atomic load; contended it releases, reschedules, and re-acquires, so a
// reclamation demand (or any other waiter) gets its turn. It fails with
// ErrClosed when the context closed while the lock was away.
func (o *Owned) Yield() error {
	if !o.held {
		return o.Acquire()
	}
	if o.ctx.lockers.Load() == 0 {
		return nil
	}
	t0 := time.Now()
	o.Release()
	runtime.Gosched()
	err := o.acquire(false)
	d := time.Since(t0).Nanoseconds()
	o.stallNs += d
	o.ctx.stallNs.Add(d)
	return err
}

// Tx returns the handle's transaction for heap access under the held
// lock. It panics when the lock is not held or ctx is not the owned
// context — both are ownership bugs, not runtime conditions.
func (o *Owned) Tx(ctx *Context) *Tx {
	if !o.held || ctx != o.ctx {
		panic("core: Owned.Tx without the matching held context")
	}
	return &o.tx
}

// AllocData reserves len(data) bytes and copies data in, like
// Context.AllocData but from an owner already holding the lock. The
// fast path allocates without any lock traffic; budget and page
// shortfalls drop the lock for the daemon round-trip (demands may then
// reclaim from this very shard) and re-take it, mirroring allocRetry.
// On return the lock is held again unless the context closed, which
// surfaces as ErrClosed.
func (o *Owned) AllocData(data []byte) (alloc.Ref, error) {
	if m := o.ctx.sma.met.Load(); m != nil {
		t0 := time.Now()
		ref, err := o.allocData(data)
		m.alloc.ObserveDuration(time.Since(t0))
		return ref, err
	}
	return o.allocData(data)
}

func (o *Owned) allocData(data []byte) (alloc.Ref, error) {
	c := o.ctx
	const maxRetries = 10
	for attempt := 0; ; attempt++ {
		if !o.held {
			if err := o.Acquire(); err != nil {
				return alloc.Ref{}, err
			}
		}
		ref, err := c.allocLocked(len(data), data)
		if err == nil {
			return ref, nil
		}
		if err != errNeedBudget && err != errNeedPages {
			return alloc.Ref{}, err
		}
		if attempt >= maxRetries {
			return alloc.Ref{}, fmt.Errorf("%w: contention after %d retries", ErrExhausted, attempt)
		}
		o.Release()
		if err == errNeedPages {
			// Machine empty despite budget: force a daemon round so it
			// reclaims physical pages (its slack view was stale).
			err = c.sma.forcePressureRound(alloc.PagesFor(len(data)))
		} else {
			err = c.sma.ensureBudget(alloc.PagesFor(len(data)))
		}
		if err != nil {
			// Best-effort re-take so the caller's lock invariant holds
			// even on the error path; a closed context stays unheld.
			_ = o.Acquire()
			return alloc.Ref{}, err
		}
	}
}
