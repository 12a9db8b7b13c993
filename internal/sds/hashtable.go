package sds

import (
	"cmp"
	"hash/maphash"
	"slices"
	"sync/atomic"

	"softmem/internal/alloc"
	"softmem/internal/core"
	"softmem/internal/epoch"
	"softmem/internal/pages"
)

// EvictPolicy selects which entries a SoftHashTable gives up first under
// a reclamation demand.
type EvictPolicy int

// Eviction policies.
const (
	// EvictOldest frees entries in insertion order, like the paper's
	// linked-list buckets (oldest first).
	EvictOldest EvictPolicy = iota
	// EvictLRU frees least-recently-used entries first — the
	// "infrequently-accessed elements" policy the paper suggests an SDS
	// engineer might choose (§3.2).
	EvictLRU
)

// String returns the policy's name.
func (p EvictPolicy) String() string {
	switch p {
	case EvictOldest:
		return "oldest"
	case EvictLRU:
		return "lru"
	default:
		return "unknown"
	}
}

// SoftHashTable maps comparable keys to byte values stored in soft
// memory. It is the SDS behind the paper's Redis integration: values live
// in revocable soft memory while keys (and the index) are traditional
// memory, cleaned up via the reclaim callback when an entry is revoked —
// the composition pattern §7 describes.
//
// A Get on a reclaimed key misses, exactly like the paper's "not found"
// responses after reclamation; caching clients re-fetch from their
// backing store.
//
// All methods are safe for concurrent use.
type SoftHashTable[K comparable] struct {
	ctx       *core.Context
	sma       *core.SMA
	policy    EvictPolicy
	onReclaim func(key K, value []byte)
	keyBytes  func(K) int

	// Guarded by the context's locked sections.
	n          int         // live entries: the eviction list's length
	head, tail *htEntry[K] // eviction order: head evicted first
	links      uint64      // linkTail calls so far; the last one's seq
	reclaimed  int64
	// tenants and group are reclaim's scratch for one page's occupants.
	tenants []alloc.Owner
	group   []*htEntry[K]

	// idx is the table's one index (see lockfree.go): a probe array
	// written under the heap lock and read with or without it. tomb is its
	// deletion sentinel, seed the per-table hash seed.
	idx  atomic.Pointer[htIndex[K]]
	tomb *htEntry[K]
	seed maphash.Seed
	// lockFree, set once at construction, is whether values are published
	// to unlocked readers: records, the epoch domain dom and epoch-retired
	// frees. lf counts those reads.
	lockFree bool
	dom      *epoch.Domain
	lf       lfStats
	// clock is the table's access clock for lazy recency sampling:
	// advanced (and stored into the entry's stamp) by sampled lock-free
	// hits and by locked touches, on lock-free EvictLRU tables only — the
	// one kind whose reclaim consults it.
	clock atomic.Uint64
}

type htEntry[K comparable] struct {
	key        K
	hash       uint64 // hashKey(key): where the entry's probe chain starts
	ref        alloc.Ref
	prev, next *htEntry[K]
	// view points at the heap's record of ref for lock-free readers; nil
	// while unpublished (non-lock-free tables) or condemned
	// (deleted/replaced/revoked). Writers store it under the heap lock,
	// and always store nil or the replacement's record BEFORE
	// epoch-retiring the ref.
	view atomic.Pointer[alloc.View]
	// stamp is the entry's lazily-sampled access-clock value: lock-free
	// readers (which cannot move LRU list links) store the table clock
	// here on a sampled subset of hits, and locked touches keep it in
	// step. Under EvictLRU, reclaim compares it against seen for a
	// second-chance rotation instead of trusting list order alone.
	stamp atomic.Uint64
	// seen is the stamp value reclaim last observed for this entry
	// (writer-only, guarded by the heap lock): stamp != seen means the
	// entry was read since the previous reclaim visit.
	seen uint64
	// seq is the entry's position in the eviction order: the table's link
	// count when the entry was last linked at the tail, so list order is
	// ascending seq. It is the age reclaim reports, and an entry relinked
	// since a Reclaim call began (seq above the count at its start) is one
	// that call gave a second chance.
	seq uint64
}

// OwnedRef implements alloc.Owner: the entry is the owner word of the
// slot its value sits in, which is how reclaim finds a page's tenants.
func (e *htEntry[K]) OwnedRef() alloc.Ref { return e.ref }

// HashTableConfig configures a SoftHashTable beyond basic Options.
type HashTableConfig[K comparable] struct {
	// Policy selects the eviction order. Default EvictOldest.
	Policy EvictPolicy
	// OnReclaim runs for each entry revoked under memory pressure, with
	// the key and value — the last chance to persist or tag the data. It
	// also runs where the paper's Redis callback "cleans up associated
	// traditional memory".
	OnReclaim func(key K, value []byte)
	// KeyBytes reports a key's traditional-memory footprint, fed into the
	// SMA's self-report so the daemon's weights see the index cost. Nil
	// disables key accounting.
	KeyBytes func(K) int
	// Priority is the SDS reclamation priority (lower reclaimed first).
	Priority int
	// LockFreeReads publishes values to an epoch-protected lock-free
	// read path (GetAppendLockFree, ScanLockFree): reads take zero locks
	// and revocation defers page recycling until the epoch grace period
	// covers the retire. Under EvictLRU, recency survives as lazily
	// sampled per-entry clock stamps (a lock-free read cannot move list
	// links) and reclaim runs a second-chance rotation over them, so
	// LRU tables get the optimistic path too, with approximate rather
	// than exact recency order.
	LockFreeReads bool
}

// NewSoftHashTable creates a hash table with its own isolated heap in
// sma.
func NewSoftHashTable[K comparable](sma *core.SMA, name string, cfg HashTableConfig[K]) *SoftHashTable[K] {
	t := &SoftHashTable[K]{
		sma:       sma,
		policy:    cfg.Policy,
		onReclaim: cfg.OnReclaim,
		keyBytes:  cfg.KeyBytes,
		tomb:      &htEntry[K]{},
		seed:      maphash.MakeSeed(),
	}
	t.idxRebuild()
	t.ctx = sma.Register(name, cfg.Priority, reclaimerFunc(t.reclaim))
	if cfg.LockFreeReads {
		t.lockFree = true
		t.dom = sma.Epochs()
		// Every free on this context must defer recycling past the grace
		// period, since any value may have been published to a reader.
		t.ctx.EnableEpochRetire()
	}
	return t
}

// LockFree reports whether the table serves the lock-free read path.
func (t *SoftHashTable[K]) LockFree() bool { return t.lockFree }

// publish makes e the owner of the slot e.ref names and, on a lock-free
// table, points e at the slot's published record, under the heap lock. It
// must run after the value bytes are fully written and before any reader
// can need them.
func (t *SoftHashTable[K]) publish(tx *core.Tx, e *htEntry[K]) error {
	if t.lockFree {
		v, err := tx.Publish(e.ref)
		if err != nil {
			return err
		}
		e.view.Store(v)
	}
	return tx.SetOwner(e.ref, e)
}

// Put stores value under key, replacing any previous value.
func (t *SoftHashTable[K]) Put(key K, value []byte) error {
	ref, err := t.ctx.AllocData(value)
	if err != nil {
		return err
	}
	return t.ctx.Do(func(tx *core.Tx) error { return t.putLocked(tx, key, ref) })
}

// putLocked installs ref (fully written) as key's value
// inside a locked section: the one index-update body behind Put and the
// Owned put variants.
func (t *SoftHashTable[K]) putLocked(tx *core.Tx, key K, ref alloc.Ref) error {
	idx, h := t.idx.Load(), t.hashKey(key)
	e, at := t.find(idx, h, key)
	if e != nil {
		replaced := e.ref
		e.ref = ref
		// Publishing the new record unpublishes the old one in the same
		// atomic store; the old ref is epoch-retired after it, so
		// readers mid-copy on the old value stay covered.
		if err := t.publish(tx, e); err != nil {
			return err
		}
		t.touch(e)
		return tx.Free(replaced)
	}
	e = &htEntry[K]{key: key, hash: h, ref: ref}
	if err := t.publish(tx, e); err != nil {
		return err
	}
	t.linkTail(e)
	t.idxInsert(idx, at, e)
	if t.keyBytes != nil {
		t.sma.AddTraditionalBytes(int64(t.keyBytes(key)))
	}
	return nil
}

// Get returns a copy of the value under key. ok is false if the key is
// absent — including when its value was reclaimed under memory pressure.
func (t *SoftHashTable[K]) Get(key K) (value []byte, ok bool, err error) {
	return t.GetAppend(nil, key)
}

// GetAppend appends the value under key to dst and returns the
// extended slice, reusing dst's capacity. Hot read paths use it with a
// per-caller scratch to avoid a fresh value allocation on every
// lookup; the result aliases dst's backing array.
func (t *SoftHashTable[K]) GetAppend(dst []byte, key K) (value []byte, ok bool, err error) {
	value = dst
	err = t.ctx.Do(func(tx *core.Tx) (gerr error) {
		value, ok, gerr = t.getLocked(tx, dst, key)
		return gerr
	})
	return value, ok, err
}

// getLocked is the one read body behind GetAppend and GetAppendOwned.
func (t *SoftHashTable[K]) getLocked(tx *core.Tx, dst []byte, key K) ([]byte, bool, error) {
	e := t.lookup(key)
	if e == nil {
		return dst, false, nil
	}
	v, err := tx.Append(dst, e.ref)
	if err != nil {
		return dst, false, err
	}
	if t.policy == EvictLRU {
		t.touch(e)
	}
	return v, true, nil
}

// Contains reports whether key is present without touching recency.
func (t *SoftHashTable[K]) Contains(key K) bool {
	found := false
	_ = t.ctx.Do(func(*core.Tx) error {
		found = t.has(key)
		return nil
	})
	return found
}

// has is the membership probe inside a locked section.
func (t *SoftHashTable[K]) has(key K) bool { return t.lookup(key) != nil }

// Delete removes key, reporting whether it was present.
func (t *SoftHashTable[K]) Delete(key K) (removed bool, err error) {
	err = t.ctx.Do(func(tx *core.Tx) (derr error) {
		removed, derr = t.deleteLocked(tx, key)
		return derr
	})
	return removed, err
}

// deleteLocked is the one removal body behind Delete and DeleteOwned.
func (t *SoftHashTable[K]) deleteLocked(tx *core.Tx, key K) (bool, error) {
	e := t.lookup(key)
	if e == nil {
		return false, nil
	}
	t.drop(e)
	if err := tx.Free(e.ref); err != nil {
		return false, err
	}
	if t.keyBytes != nil {
		t.sma.AddTraditionalBytes(-int64(t.keyBytes(key)))
	}
	return true, nil
}

// Len returns the number of entries.
func (t *SoftHashTable[K]) Len() int {
	n := 0
	_ = t.ctx.Do(func(*core.Tx) error {
		n = t.n
		return nil
	})
	return n
}

// Range calls fn for each entry (copy of the value) until fn returns
// false. Iteration order is the eviction order. fn must not call back
// into the table.
func (t *SoftHashTable[K]) Range(fn func(key K, value []byte) bool) error {
	return t.ctx.Do(func(tx *core.Tx) error {
		for e := t.head; e != nil; e = e.next {
			v, err := tx.Append(nil, e.ref)
			if err != nil {
				return err
			}
			if !fn(e.key, v) {
				return nil
			}
		}
		return nil
	})
}

// Reclaimed returns the number of entries revoked under memory pressure.
func (t *SoftHashTable[K]) Reclaimed() int64 {
	var n int64
	_ = t.ctx.Do(func(*core.Tx) error {
		n = t.reclaimed
		return nil
	})
	return n
}

// Context exposes the table's SDS context.
func (t *SoftHashTable[K]) Context() *core.Context { return t.ctx }

// Close frees the table's heap; the table must not be used afterwards.
// On a lock-free table the index is unpublished first and the
// epoch domain drained (bounded), so no optimistic reader is copying
// from pages the teardown releases.
func (t *SoftHashTable[K]) Close() {
	if t.lockFree {
		_ = t.ctx.Do(func(*core.Tx) error {
			t.idx.Store(nil)
			return nil
		})
		drainReaders(t.dom)
	}
	t.ctx.Close()
}

// Owned variants: the kvstore's command path holds the table's heap
// lock through a core.Owned — across whole batches on a shard owner, for
// one command on a direct call — and uses these instead of the Do-based
// methods above, so an operation costs zero mutex acquisitions of its
// own. Each validates the handle against the table's own context (o.Tx
// panics on a mismatch) and runs the same locked body as its
// counterpart.

// PutOwned is Put under an already-owned heap lock. The allocation slow
// path may drop and re-take the lock (daemon round-trips); the index
// update itself runs in one critical section, so a reclamation that
// slips into the window is observed as a plain replace-vs-insert.
func (t *SoftHashTable[K]) PutOwned(o *core.Owned, key K, value []byte) error {
	ref, err := o.AllocData(value)
	if err != nil {
		return err
	}
	return t.putLocked(o.Tx(t.ctx), key, ref)
}

// PutOwnedIfHeld is PutOwned for read-modify-write callers, whose value
// derives from a read made under this same hold of the lock. When the
// allocation slow path had to drop the lock, that read may be stale: the
// allocation is freed, the index is left untouched and stored is false,
// so the caller redoes its read instead of writing a stale value.
func (t *SoftHashTable[K]) PutOwnedIfHeld(o *core.Owned, key K, value []byte) (stored bool, err error) {
	held := o.Acquisitions()
	ref, err := o.AllocData(value)
	if err != nil {
		return false, err
	}
	tx := o.Tx(t.ctx)
	if o.Acquisitions() != held {
		return false, tx.Free(ref)
	}
	return true, t.putLocked(tx, key, ref)
}

// GetAppendOwned is GetAppend under an already-owned heap lock: zero
// mutex traffic, value appended into dst's capacity.
func (t *SoftHashTable[K]) GetAppendOwned(o *core.Owned, dst []byte, key K) (value []byte, ok bool, err error) {
	return t.getLocked(o.Tx(t.ctx), dst, key)
}

// DeleteOwned is Delete under an already-owned heap lock.
func (t *SoftHashTable[K]) DeleteOwned(o *core.Owned, key K) (bool, error) {
	return t.deleteLocked(o.Tx(t.ctx), key)
}

// ClearOwned removes every entry under an already-owned heap lock.
func (t *SoftHashTable[K]) ClearOwned(o *core.Owned) error {
	tx := o.Tx(t.ctx)
	for t.head != nil {
		if ok, err := t.deleteLocked(tx, t.head.key); !ok {
			return err
		}
	}
	return nil
}

// ContainsOwned is Contains under an already-owned heap lock.
func (t *SoftHashTable[K]) ContainsOwned(o *core.Owned, key K) bool {
	_ = o.Tx(t.ctx) // ownership check only
	return t.has(key)
}

// linkTail appends e at the tail (most recent / newest position).
func (t *SoftHashTable[K]) linkTail(e *htEntry[K]) {
	t.n++
	t.links++
	e.seq = t.links
	e.prev = t.tail
	e.next = nil
	if t.tail != nil {
		t.tail.next = e
	} else {
		t.head = e
	}
	t.tail = e
}

// unlink removes e from the eviction order.
func (t *SoftHashTable[K]) unlink(e *htEntry[K]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = nil, nil
	t.n--
}

// touch moves e to the tail (most recent). On a lock-free LRU table —
// the one kind whose reclaim reads stamps — it also advances the entry's
// recency stamp so list order and the sampled clock agree on what is hot.
func (t *SoftHashTable[K]) touch(e *htEntry[K]) {
	if t.lockFree && t.policy == EvictLRU {
		e.stamp.Store(t.clock.Add(1))
	}
	if t.tail == e {
		return
	}
	t.unlink(e)
	t.linkTail(e)
}

// reclaim revokes whole pages, in the eviction order of their oldest
// tenant, until the pages of a quota in bytes are free or pending in
// limbo, and returns their size. The order picks the page and the page
// picks the victims: the SMA can only give memory back a page at a time,
// so the oldest evictable entry names a page and every entry whose value
// shares it is revoked with it — oldest first — while their neighbours on
// other pages, however old, stay. A multi-page value is a page group with one tenant.
// A page is taken only if every tenant can go: a slot that is allocated
// but not yet installed in the table vetoes it, and its other tenants
// survive with it, because revoking them would free no page. Runs under
// the Context lock.
//
// Under EvictLRU with lock-free reads, list order alone understates
// recency: optimistic readers cannot move list links, they only store
// sampled access-clock stamps. The first pass therefore gives second
// chances (CLOCK): an entry whose stamp advanced since its previous
// reclaim visit is relinked at the tail instead of named as a victim,
// and a tenant spared by this call — before the walk reached its page or
// when the page is looked at — vetoes the page too. A second pass
// that ignores hotness guarantees the quota is still met when everything
// looks hot.
func (t *SoftHashTable[K]) reclaim(tx *core.Tx, bytes int) int {
	quota, taken := pages.BytesToPages(bytes), 0
	var ages core.VictimAges
	var keyBytesFreed int64
	called := t.links
	passes := 1
	if t.policy == EvictLRU && t.lockFree {
		passes = 2
	}
	for pass := 0; pass < passes && taken < quota; pass++ {
		sparing := passes == 2 && pass == 0
		// While sparing, every entry linked after the call began was
		// spared by it, and they are all at the tail: the pass ends there.
		for e := t.head; e != nil && taken < quota && !(sparing && e.seq > called); {
			if next := e.next; sparing && t.spare(e) {
				e = next
				continue
			}
			npages, err := t.pageGroup(tx, e, sparing, called)
			if err != nil { // e's ref died under it: forget the entry
				next := e.next
				t.drop(e)
				e = next
				continue
			}
			if npages == 0 {
				e = e.next // read now: sparing a tenant may have moved it
				continue
			}
			// e is the group's oldest: an older tenant would have
			// named this page before e did.
			prev := e.prev
			if ages.OldestVictim == 0 || e.seq < ages.OldestVictim {
				ages.OldestVictim = e.seq
			}
			for _, m := range t.group {
				if t.onReclaim != nil {
					if v, err := tx.Append(nil, m.ref); err == nil {
						t.onReclaim(m.key, v)
					}
				}
				// Revocation rides the epochs: condemn (unpublish) first,
				// then epoch-retire. The page only reaches the SMA once the
				// demand's drain observes the grace period past the retire
				// stamp, so a reader mid-copy never sees its bytes recycled.
				t.drop(m)
				_ = tx.Free(m.ref) // live, or pageGroup had vetoed
				if t.keyBytes != nil {
					keyBytesFreed += int64(t.keyBytes(m.key))
				}
				t.reclaimed++
				ages.NewestVictim = max(ages.NewestVictim, m.seq)
			}
			taken += npages
			if e = t.head; prev != nil {
				e = prev.next
			}
		}
	}
	clear(t.tenants[:cap(t.tenants)]) // the scratch keeps no entry alive
	clear(t.group[:cap(t.group)])
	if keyBytesFreed > 0 {
		t.sma.AddTraditionalBytes(-keyBytesFreed)
	}
	if ages.OldestVictim != 0 {
		if t.head != nil {
			ages.OldestSurvivor = t.head.seq
		}
		tx.NoteVictims(ages)
	}
	return taken * pages.Size
}

// spare gives e its second chance if it was read since reclaim last
// visited it: it is relinked at the tail — directly, not through touch,
// so the move does not itself advance the stamp and re-arm the entry.
func (t *SoftHashTable[K]) spare(e *htEntry[K]) bool {
	s := e.stamp.Load()
	if s == e.seen {
		return false
	}
	e.seen = s
	t.unlink(e)
	t.linkTail(e)
	return true
}

// drop removes e from the index and the eviction order and condemns
// (unpublishes) its value; the caller frees e.ref afterwards. The nil
// store must precede that tx.Free, which reads the epoch stamp: the
// ordering is what guarantees any reader still copying through the old
// record is covered by the grace period.
func (t *SoftHashTable[K]) drop(e *htEntry[K]) {
	t.unlink(e)
	if t.lockFree {
		e.view.Store(nil)
	}
	t.idxDelete(e)
}

// pageGroup fills t.group with the entries that must be revoked for e's
// page (or span) to come free, oldest first, and returns how many pages
// that frees: 0 if a tenant vetoes the page.
func (t *SoftHashTable[K]) pageGroup(tx *core.Tx, e *htEntry[K], sparing bool, called uint64) (npages int, err error) {
	t.tenants, npages, err = tx.Tenants(e.ref, t.tenants[:0])
	if err != nil {
		return 0, err
	}
	t.group = t.group[:0]
	for _, o := range t.tenants {
		m, owned := o.(*htEntry[K])
		if !owned || sparing && m != e && (m.seq > called || t.spare(m)) {
			npages = 0 // vetoed; the walk goes on so every hot tenant has its chance now
			continue
		}
		t.group = append(t.group, m)
	}
	if npages > 0 {
		slices.SortFunc(t.group, func(a, b *htEntry[K]) int { return cmp.Compare(a.seq, b.seq) })
	}
	return npages, nil
}
