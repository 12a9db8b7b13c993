package sds

import (
	"hash/maphash"
	"sync/atomic"
)

// Lock-free read support for SoftHashTable. The design has three
// pieces:
//
//  1. The value's record: an alloc.View, the per-slot record the heap
//     writes when the SDS publishes the allocation (core.Tx.Publish), and
//     an atomic pointer to it per entry. Values in this repo are
//     write-once — Put always allocates fresh and writes before
//     publication — and the heap rewrites a record only when it hands its
//     slot out again, so a reader that loaded a non-nil record copies
//     bytes, through a view, that nobody rewrites; there is no
//     seqlock-style post-copy validation because no torn read is
//     possible. Unpublishing (delete, replace, reclaim) stores nil or the
//     replacement's record, and the ref is epoch-retired AFTER that
//     store, which is the ordering the grace period's safety argument
//     requires (see internal/epoch). Publishing allocates nothing.
//
//  2. htIndex: the table's one index, an open-addressing probe array of
//     atomic entry pointers published via an atomic pointer. find is
//     the one walk of it, for writers and readers alike. Writers mutate
//     it only under the table's heap lock (plain atomic stores suffice —
//     readers only load); resizes build a fresh array and publish it,
//     leaving the old array frozen and still valid for readers that
//     loaded it earlier. A completed insert is always present in the
//     published index, so a lock-free miss is linearizable: any insert
//     it failed to observe was concurrent, and the read legally orders
//     first.
//
//  3. The epoch domain (core.SMA.Epochs): a reader registers before
//     loading a record and exits after the copy; retirement stamps and
//     the strict grace check keep its slot — record and bytes —
//     unrecycled meanwhile.
//
// The fallback ladder: a reader that cannot complete optimistically —
// a table built without LockFreeReads (its values are unpublished and its
// context recycles a freed slot at once), a table closing (nil index),
// reader-slot exhaustion, or a condemned (nil-record) entry — reports
// LookupRetry and the caller takes the locked path. Readers always exit their epoch
// slot BEFORE falling back, so a reclaimer holding the heap lock never
// waits on a reader that is itself waiting for that lock.

// LookupResult classifies a lock-free read attempt.
type LookupResult uint8

// Lock-free lookup outcomes.
const (
	// LookupHit: the value was copied out with zero locks taken.
	LookupHit LookupResult = iota
	// LookupMiss: the key is definitely absent from the linearized view
	// the reader observed; no fallback is needed.
	LookupMiss
	// LookupRetry: the optimistic read could not complete (condemned
	// entry, reader-slot exhaustion, or lock-free reads unavailable);
	// the caller must fall back to the locked path.
	LookupRetry
)

// htIndex is one generation of the table's probe array. len of buckets
// is a power of two. used (live entries plus tombstones) is
// writer-only state guarded by the table's heap lock.
type htIndex[K comparable] struct {
	buckets []atomic.Pointer[htEntry[K]]
	used    int
}

const htIndexMinSize = 64

// htIndexLoadNum/htIndexLoadDen bound used over len(buckets): an insert
// that would cross it rebuilds the index (DESIGN.md has the runs).
const htIndexLoadNum, htIndexLoadDen = 3, 4

// recencySampleRate is the lock-free hit sampling period for EvictLRU
// recency stamps: one hit in this many (power of two) stores the table
// clock into the entry's stamp. Sampling trades exact recency — already
// approximate under CLOCK rotation — for zero extra atomics on the
// other hits.
const recencySampleRate = 8

// lfStats are the table's lock-free read counters (atomics: bumped on
// unlocked paths).
type lfStats struct {
	hits      atomic.Int64 // reads served with zero locks
	misses    atomic.Int64 // definite misses with zero locks
	fallbacks atomic.Int64 // retries due to slot exhaustion or no index
	condemned atomic.Int64 // retries due to a condemned (nil-record) entry
}

// LockFreeStats reports the table's lock-free read counters: hits and
// definite misses served with zero locks, fallbacks to the locked path,
// and condemned-read retries (the reader found the entry but its value
// was revoked mid-flight).
func (t *SoftHashTable[K]) LockFreeStats() (hits, misses, fallbacks, condemned int64) {
	return t.lf.hits.Load(), t.lf.misses.Load(), t.lf.fallbacks.Load(), t.lf.condemned.Load()
}

// hashKey hashes a key with the table's per-instance seed.
func (t *SoftHashTable[K]) hashKey(key K) uint64 {
	return maphash.Comparable(t.seed, key)
}

// find is the one walk of a probe chain by key: from h's bucket of idx
// to key's entry, or to nil and the bucket an insert of key should take —
// the first tombstone on the chain, else the empty bucket that ended it.
// Writers call it under the heap lock; readers call it without, possibly
// on a generation a resize has since replaced, which is why the walk is
// bounded by the array's length.
func (t *SoftHashTable[K]) find(idx *htIndex[K], h uint64, key K) (e *htEntry[K], insertAt int) {
	insertAt = -1
	mask := uint64(len(idx.buckets) - 1)
	for i, probes := h&mask, 0; probes <= int(mask); i, probes = (i+1)&mask, probes+1 {
		e = idx.buckets[i].Load()
		if e != nil && e != t.tomb {
			if e.hash == h && e.key == key {
				return e, -1
			}
			continue
		}
		if insertAt < 0 {
			insertAt = int(i)
		}
		if e == nil {
			break
		}
	}
	return nil, insertAt
}

// lookup is find for the locked paths that only read: key's entry, or nil.
func (t *SoftHashTable[K]) lookup(key K) *htEntry[K] {
	e, _ := t.find(t.idx.Load(), t.hashKey(key), key)
	return e
}

// GetAppendLockFree is the optimistic read path: no mutex, no Owned
// acquisition, no heap-lock traffic. It appends the value under key to
// dst and reports the outcome; on LookupRetry the caller must use a
// locked variant (GetAppend or GetAppendOwned). The value bytes are
// copied while the reader is registered in the epoch domain, so
// concurrent revocation cannot recycle them mid-copy.
func (t *SoftHashTable[K]) GetAppendLockFree(dst []byte, key K) ([]byte, LookupResult) {
	if !t.lockFree {
		return dst, LookupRetry
	}
	h := t.hashKey(key)
	slot, ok := t.dom.Enter(h)
	if !ok {
		t.lf.fallbacks.Add(1)
		return dst, LookupRetry
	}
	idx := t.idx.Load()
	if idx == nil {
		t.dom.Exit(slot)
		t.lf.fallbacks.Add(1)
		return dst, LookupRetry
	}
	e, _ := t.find(idx, h, key)
	if e == nil {
		t.dom.Exit(slot)
		t.lf.misses.Add(1)
		return dst, LookupMiss
	}
	v := e.view.Load()
	if v == nil {
		// Condemned: the entry was deleted, replaced, or revoked between
		// the index probe and the record load. The locked path resolves
		// what the key's current state really is.
		t.dom.Exit(slot)
		t.lf.condemned.Add(1)
		return dst, LookupRetry
	}
	dst = v.AppendTo(dst)
	t.dom.Exit(slot)
	// Lazy recency sampling: one hit in recencySampleRate advances the
	// table clock into the entry's stamp. A lock-free read cannot move
	// LRU list links; the stamp is what EvictLRU reclaim's second-chance
	// rotation reads instead. A never-stamped entry (stamp 0) is stamped
	// on its first hit so even a single read deterministically registers
	// recency; after that, sampling keeps the common case at the one
	// atomic add the hits counter already paid plus a read-only stamp
	// load. Non-LRU tables skip the branch.
	if n := t.lf.hits.Add(1); t.policy == EvictLRU &&
		(n&(recencySampleRate-1) == 0 || e.stamp.Load() == 0) {
		e.stamp.Store(t.clock.Add(1))
	}
	return dst, LookupHit
}

// ContainsLockFree probes for key without locks. LookupHit means the
// key is present with a live published value; LookupMiss means it is
// definitely absent from the linearized view the probe observed (no
// fallback needed); LookupRetry means the probe could not decide —
// lock-free reads unavailable, or the entry was found condemned
// (deleted, replaced, or revoked mid-flight) and only the locked path
// can resolve the key's current state.
func (t *SoftHashTable[K]) ContainsLockFree(key K) LookupResult {
	if !t.lockFree {
		return LookupRetry
	}
	idx := t.idx.Load()
	if idx == nil {
		t.lf.fallbacks.Add(1)
		return LookupRetry
	}
	e, _ := t.find(idx, t.hashKey(key), key)
	switch {
	case e == nil:
		t.lf.misses.Add(1)
		return LookupMiss
	case e.view.Load() == nil:
		t.lf.condemned.Add(1)
		return LookupRetry
	}
	return LookupHit
}

// KeysLockFree calls fn with each key of the published index, without
// taking the heap lock or entering the epoch: keys are traditional
// memory, write-once in their entries, so the walk copies no soft bytes.
// Iteration order is arbitrary — callers needing the eviction order
// must use Range. The walk is weakly consistent, like iterating a
// concurrent map: keys inserted or deleted concurrently may or may not
// appear, and a key deleted and stored again during the walk may appear
// twice. It stops early when fn returns false, and returns false only
// when the table has no published index (closed).
func (t *SoftHashTable[K]) KeysLockFree(fn func(key K) bool) bool {
	idx := t.idx.Load()
	if idx == nil {
		return false
	}
	for i := range idx.buckets {
		if e := idx.buckets[i].Load(); e != nil && e != t.tomb && !fn(e.key) {
			break
		}
	}
	return true
}

// idxInsert stores a fully-initialized, already linked entry (record
// published, on a lock-free table) into the bucket find chose for it.
// Taking an empty bucket past the load bound rebuilds instead, from the
// eviction list, which already holds e. Caller holds the heap lock.
func (t *SoftHashTable[K]) idxInsert(idx *htIndex[K], at int, e *htEntry[K]) {
	if idx.buckets[at].Load() == nil { // else a tombstone: used already counts it
		if (idx.used+1)*htIndexLoadDen > len(idx.buckets)*htIndexLoadNum {
			t.idxRebuild()
			return
		}
		idx.used++
	}
	idx.buckets[at].Store(e)
}

// idxDelete replaces e's bucket, found by pointer identity along e's
// own chain, with the tombstone, so chains that run through it stay
// intact. Caller holds the heap lock and has condemned e already.
func (t *SoftHashTable[K]) idxDelete(e *htEntry[K]) {
	idx := t.idx.Load()
	mask := uint64(len(idx.buckets) - 1)
	for i := e.hash & mask; ; i = (i + 1) & mask {
		switch idx.buckets[i].Load() {
		case e:
			idx.buckets[i].Store(t.tomb)
			return
		case nil:
			panic("sds: linked hash table entry missing from the index")
		}
	}
}

// idxRebuild publishes a fresh index sized for the live entries and one
// more, dropping accumulated tombstones: it reinserts the eviction list
// by each entry's stored hash and leaves the old array untouched for
// readers that already loaded it. Caller holds the heap lock.
func (t *SoftHashTable[K]) idxRebuild() {
	size := htIndexMinSize
	for (t.n+1)*htIndexLoadDen > size*htIndexLoadNum {
		size *= 2
	}
	fresh := &htIndex[K]{buckets: make([]atomic.Pointer[htEntry[K]], size), used: t.n}
	mask := uint64(size - 1)
	for e := t.head; e != nil; e = e.next {
		i := e.hash & mask
		for fresh.buckets[i].Load() != nil {
			i = (i + 1) & mask
		}
		fresh.buckets[i].Store(e)
	}
	t.idx.Store(fresh)
}
