package sds

import (
	"cmp"
	"hash/maphash"
	"math/rand"
	"sync/atomic"

	"softmem/internal/alloc"
	"softmem/internal/core"
	"softmem/internal/epoch"
)

// SoftSortedMap is an ordered map (skiplist index in traditional memory,
// values in soft memory) supporting range scans. Under a reclamation
// demand it frees entries from the LOW end of the key space first — the
// natural policy for time-indexed data, where the smallest keys are the
// oldest samples (a time-series store or leaderboard history in soft
// memory).
//
// With LockFreeReads enabled, Get and Range first attempt an
// epoch-protected optimistic traversal: the skiplist's forward pointers
// are atomic, nodes are fully initialized before linking, and unlink
// leaves a removed node's forward pointers intact, so a reader holding a
// stale node can always finish its walk. Value bytes are copied through
// the same record/epoch machinery as the hash table (see lockfree.go);
// any attempt that cannot complete optimistically falls back to the
// locked path.
//
// All methods are safe for concurrent use.
type SoftSortedMap[K cmp.Ordered] struct {
	ctx       *core.Context
	onReclaim func(K, []byte)
	rng       *rand.Rand

	// Lock-free read state. lockFree is set once at construction; lfOn
	// flips off at Close so optimistic readers stand down before the
	// heap is torn down.
	lockFree bool
	lfOn     atomic.Bool
	dom      *epoch.Domain
	seed     maphash.Seed
	lf       lfStats

	// Guarded by the context's locked sections.
	head      *smNode[K] // sentinel with max height
	size      int
	reclaimed int64
}

const smMaxLevel = 24

type smNode[K cmp.Ordered] struct {
	key K
	ref alloc.Ref
	// view points at the heap's record of ref for lock-free readers; nil
	// on non-lock-free maps or once condemned. Writers store it under the
	// locked section, and always store nil or the replacement's record
	// BEFORE epoch-retiring the ref.
	view atomic.Pointer[alloc.View]
	// next holds the forward pointers. Writers mutate them only inside
	// the locked section; readers traverse them with atomic loads.
	// Unlink never clears a removed node's forward pointers.
	next []atomic.Pointer[smNode[K]]
}

// SortedMapConfig configures a SoftSortedMap.
type SortedMapConfig[K cmp.Ordered] struct {
	// OnReclaim runs for each entry revoked under memory pressure.
	OnReclaim func(key K, value []byte)
	// Priority is the SDS reclamation priority (lower reclaimed first).
	Priority int
	// Seed drives skiplist level selection; maps with equal seeds and
	// operation histories are structurally identical (deterministic
	// experiments).
	Seed int64
	// LockFreeReads publishes values to an epoch-protected lock-free
	// read path tried first by Get and Range: reads take zero locks and
	// revocation defers page recycling until the epoch grace period
	// covers the retire.
	LockFreeReads bool
}

// NewSoftSortedMap creates a sorted map with its own isolated heap in
// sma.
func NewSoftSortedMap[K cmp.Ordered](sma *core.SMA, name string, cfg SortedMapConfig[K]) *SoftSortedMap[K] {
	m := &SoftSortedMap[K]{
		onReclaim: cfg.OnReclaim,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		head:      &smNode[K]{next: make([]atomic.Pointer[smNode[K]], smMaxLevel)},
	}
	m.ctx = sma.Register(name, cfg.Priority, reclaimerFunc(m.reclaim))
	if cfg.LockFreeReads {
		m.lockFree = true
		m.lfOn.Store(true)
		m.dom = sma.Epochs()
		m.seed = maphash.MakeSeed()
		// Every free on this context must defer recycling past the grace
		// period, since any value may have been published to a reader.
		m.ctx.EnableEpochRetire()
	}
	return m
}

// LockFree reports whether the map serves the lock-free read path.
func (m *SoftSortedMap[K]) LockFree() bool { return m.lockFree }

// LockFreeStats reports the map's lock-free read counters: hits and
// definite misses served with zero locks, fallbacks to the locked path,
// and condemned-read retries.
func (m *SoftSortedMap[K]) LockFreeStats() (hits, misses, fallbacks, condemned int64) {
	return m.lf.hits.Load(), m.lf.misses.Load(), m.lf.fallbacks.Load(), m.lf.condemned.Load()
}

// randomLevel picks a node height with p = 1/4 per extra level.
func (m *SoftSortedMap[K]) randomLevel() int {
	lvl := 1
	for lvl < smMaxLevel && m.rng.Intn(4) == 0 {
		lvl++
	}
	return lvl
}

// publish points n at its value's published record under the locked
// section (no-op on non-lock-free maps). It must run after the value
// bytes are fully written and before any reader can need them.
func (m *SoftSortedMap[K]) publish(tx *core.Tx, n *smNode[K]) error {
	if !m.lockFree {
		return nil
	}
	v, err := tx.Publish(n.ref)
	if err != nil {
		return err
	}
	n.view.Store(v)
	return nil
}

// condemn unpublishes n's value ahead of a free. The nil store must
// precede the tx.Free (which reads the epoch stamp) so any reader still
// copying through the old record is covered by the grace period.
func (m *SoftSortedMap[K]) condemn(n *smNode[K]) {
	if m.lockFree {
		n.view.Store(nil)
	}
}

// findPredecessors fills prev with the rightmost node < key at each
// level. Caller holds the locked section.
func (m *SoftSortedMap[K]) findPredecessors(key K, prev *[smMaxLevel]*smNode[K]) {
	n := m.head
	for lvl := smMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			nx := n.next[lvl].Load()
			if nx == nil || nx.key >= key {
				break
			}
			n = nx
		}
		prev[lvl] = n
	}
}

// Put stores value under key, replacing any previous value.
func (m *SoftSortedMap[K]) Put(key K, value []byte) error {
	ref, err := m.ctx.AllocData(value)
	if err != nil {
		return err
	}
	return m.ctx.Do(func(tx *core.Tx) error {
		var prev [smMaxLevel]*smNode[K]
		m.findPredecessors(key, &prev)
		if n := prev[0].next[0].Load(); n != nil && n.key == key {
			old := n.ref
			n.ref = ref
			// Publishing the new record unpublishes the old one in the
			// same atomic store; the old ref is epoch-retired after it, so
			// readers mid-copy on the old value stay covered.
			if err := m.publish(tx, n); err != nil {
				return err
			}
			return tx.Free(old)
		}
		lvl := m.randomLevel()
		node := &smNode[K]{key: key, ref: ref, next: make([]atomic.Pointer[smNode[K]], lvl)}
		if err := m.publish(tx, node); err != nil {
			return err
		}
		// The node is fully initialized (record published, forward pointers
		// set) before each level link makes it reachable; level 0 links
		// first, so once any reader can find the node its value is up.
		for i := 0; i < lvl; i++ {
			node.next[i].Store(prev[i].next[i].Load())
			prev[i].next[i].Store(node)
		}
		m.size++
		return nil
	})
}

// getLockFree is the optimistic read path: no mutex, no Owned
// acquisition. The epoch registration brackets the skiplist walk AND
// the byte copy, so revocation cannot recycle the value mid-read.
func (m *SoftSortedMap[K]) getLockFree(key K) ([]byte, LookupResult) {
	if !m.lfOn.Load() {
		return nil, LookupRetry
	}
	slot, ok := m.dom.Enter(maphash.Comparable(m.seed, key))
	if !ok {
		m.lf.fallbacks.Add(1)
		return nil, LookupRetry
	}
	n := m.head
	for lvl := smMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			nx := n.next[lvl].Load()
			if nx == nil || nx.key >= key {
				break
			}
			n = nx
		}
	}
	nx := n.next[0].Load()
	if nx == nil || nx.key != key {
		m.dom.Exit(slot)
		m.lf.misses.Add(1)
		return nil, LookupMiss
	}
	rec := nx.view.Load()
	if rec == nil {
		// Condemned between the walk and the record load; the locked path
		// resolves the key's current state.
		m.dom.Exit(slot)
		m.lf.condemned.Add(1)
		return nil, LookupRetry
	}
	v := rec.AppendTo(nil)
	m.dom.Exit(slot)
	m.lf.hits.Add(1)
	return v, LookupHit
}

// Get returns a copy of the value under key. On a lock-free map the
// optimistic path is tried first and the locked path only runs when it
// could not complete.
func (m *SoftSortedMap[K]) Get(key K) (value []byte, ok bool, err error) {
	if m.lockFree {
		switch v, res := m.getLockFree(key); res {
		case LookupHit:
			return v, true, nil
		case LookupMiss:
			return nil, false, nil
		}
	}
	err = m.ctx.Do(func(tx *core.Tx) error {
		var prev [smMaxLevel]*smNode[K]
		m.findPredecessors(key, &prev)
		n := prev[0].next[0].Load()
		if n == nil || n.key != key {
			return nil
		}
		v, err := tx.Append(nil, n.ref)
		if err != nil {
			return err
		}
		value = v
		ok = true
		return nil
	})
	return value, ok, err
}

// Delete removes key, reporting whether it was present.
func (m *SoftSortedMap[K]) Delete(key K) (bool, error) {
	removed := false
	err := m.ctx.Do(func(tx *core.Tx) error {
		var prev [smMaxLevel]*smNode[K]
		m.findPredecessors(key, &prev)
		n := prev[0].next[0].Load()
		if n == nil || n.key != key {
			return nil
		}
		m.unlink(n, &prev)
		m.condemn(n)
		removed = true
		return tx.Free(n.ref)
	})
	return removed, err
}

// unlink removes n given its predecessors, leaving n's own forward
// pointers intact so an optimistic reader parked on n can finish its
// traversal. Caller holds the locked section.
func (m *SoftSortedMap[K]) unlink(n *smNode[K], prev *[smMaxLevel]*smNode[K]) {
	for i := 0; i < len(n.next); i++ {
		if prev[i].next[i].Load() == n {
			prev[i].next[i].Store(n.next[i].Load())
		}
	}
	m.size--
}

// Min returns the smallest key and a copy of its value.
func (m *SoftSortedMap[K]) Min() (key K, value []byte, ok bool, err error) {
	err = m.ctx.Do(func(tx *core.Tx) error {
		n := m.head.next[0].Load()
		if n == nil {
			return nil
		}
		v, err := tx.Append(nil, n.ref)
		if err != nil {
			return err
		}
		key = n.key
		value = v
		ok = true
		return nil
	})
	return key, value, ok, err
}

// Max returns the largest key and a copy of its value.
func (m *SoftSortedMap[K]) Max() (key K, value []byte, ok bool, err error) {
	err = m.ctx.Do(func(tx *core.Tx) error {
		n := m.head
		for lvl := smMaxLevel - 1; lvl >= 0; lvl-- {
			for nx := n.next[lvl].Load(); nx != nil; nx = n.next[lvl].Load() {
				n = nx
			}
		}
		if n == m.head {
			return nil
		}
		v, err := tx.Append(nil, n.ref)
		if err != nil {
			return err
		}
		key = n.key
		value = v
		ok = true
		return nil
	})
	return key, value, ok, err
}

// rangeLockFree walks level 0 without locks, calling fn with copies of
// the live values in [from, to). Like ScanLockFree it is a
// weakly-consistent snapshot: entries inserted or revoked concurrently
// may or may not appear, and each entry's copy is individually
// epoch-protected so a long scan never pins the whole map's limbo. It
// reports false when it could not run lock-free.
func (m *SoftSortedMap[K]) rangeLockFree(from, to K, fn func(K, []byte) bool) bool {
	if !m.lfOn.Load() {
		return false
	}
	n := m.head
	for lvl := smMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			nx := n.next[lvl].Load()
			if nx == nil || nx.key >= from {
				break
			}
			n = nx
		}
	}
	var scratch []byte
	hint := maphash.Comparable(m.seed, from)
	for nx := n.next[0].Load(); nx != nil && nx.key < to; nx = nx.next[0].Load() {
		slot, ok := m.dom.Enter(hint)
		if !ok {
			m.lf.fallbacks.Add(1)
			return false
		}
		hint++
		v := nx.view.Load()
		if v == nil {
			m.dom.Exit(slot)
			continue // revoked mid-scan: treat as not observed
		}
		scratch = v.AppendTo(scratch[:0])
		m.dom.Exit(slot)
		if !fn(nx.key, scratch) {
			return true
		}
	}
	return true
}

// Range calls fn for each entry with from <= key < to, ascending, until
// fn returns false. Values are copies; fn must not call back into the
// map. On a lock-free map the scan runs without locks (weakly
// consistent with concurrent writes, like iterating a concurrent map)
// and falls back to the locked walk only when it cannot.
func (m *SoftSortedMap[K]) Range(from, to K, fn func(K, []byte) bool) error {
	if m.lockFree && m.rangeLockFree(from, to, fn) {
		return nil
	}
	return m.ctx.Do(func(tx *core.Tx) error {
		var prev [smMaxLevel]*smNode[K]
		m.findPredecessors(from, &prev)
		for n := prev[0].next[0].Load(); n != nil && n.key < to; n = n.next[0].Load() {
			v, err := tx.Append(nil, n.ref)
			if err != nil {
				return err
			}
			if !fn(n.key, v) {
				return nil
			}
		}
		return nil
	})
}

// Len returns the number of entries.
func (m *SoftSortedMap[K]) Len() int {
	n := 0
	_ = m.ctx.Do(func(*core.Tx) error {
		n = m.size
		return nil
	})
	return n
}

// Reclaimed returns the number of entries revoked under memory pressure.
func (m *SoftSortedMap[K]) Reclaimed() int64 {
	var n int64
	_ = m.ctx.Do(func(*core.Tx) error {
		n = m.reclaimed
		return nil
	})
	return n
}

// Context exposes the map's SDS context.
func (m *SoftSortedMap[K]) Context() *core.Context { return m.ctx }

// Close frees the map's heap; the map must not be used afterwards. On a
// lock-free map optimistic reads are switched off first and the epoch
// domain drained (bounded), so no straggling reader is copying from
// pages the teardown releases.
func (m *SoftSortedMap[K]) Close() {
	if m.lockFree {
		_ = m.ctx.Do(func(*core.Tx) error {
			m.lfOn.Store(false)
			return nil
		})
		drainReaders(m.dom)
	}
	m.ctx.Close()
}

// reclaim frees entries from the low end until quota bytes are freed.
// Runs under the Context lock.
func (m *SoftSortedMap[K]) reclaim(tx *core.Tx, quota int) int {
	freed := 0
	for freed < quota {
		n := m.head.next[0].Load()
		if n == nil {
			break
		}
		if tx.Pinned(n.ref) {
			break // low-end reclamation halts at a pinned minimum
		}
		size, err := tx.SlotSize(n.ref)
		if err == nil {
			if m.onReclaim != nil {
				if v, err := tx.Append(nil, n.ref); err == nil {
					m.onReclaim(n.key, v)
				}
			}
			// Revocation rides the epochs: condemn (unpublish) first,
			// then epoch-retire, so a reader mid-copy never sees its
			// bytes recycled.
			m.condemn(n)
			if err := tx.Free(n.ref); err == nil {
				freed += size
			}
		} else {
			m.condemn(n)
		}
		// Unlink the minimum: its predecessors are all head.
		for i := 0; i < len(n.next); i++ {
			if m.head.next[i].Load() == n {
				m.head.next[i].Store(n.next[i].Load())
			}
		}
		m.size--
		m.reclaimed++
	}
	return freed
}
