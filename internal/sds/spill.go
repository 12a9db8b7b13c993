package sds

import (
	"strconv"
	"sync/atomic"

	"softmem/internal/core"
	"softmem/internal/faultinject"
	"softmem/internal/spill"
)

// Demote and PromoteOwned are the one tier crossing of every SDS with a
// spill tier, SoftSpillTable and the kvstore alike.

// Demote is the reclaim hook: it writes a revoked entry's value to sink
// and tags the demotion onto the active reclaim trace. It reports false
// when the value did not reach the disk (the "sds.spill.demote" fault
// point vetoed it, or the write failed): the value is then gone.
func Demote(sma *core.SMA, sink *spill.Sink, key string, value []byte) bool {
	if faultinject.Fire("sds.spill.demote") != faultinject.None || sink.Demote(key, value) != nil {
		return false
	}
	sma.NoteDemand("spill_demote", 1, int64(len(value)))
	return true
}

// PromoteOwned is the fault-in path for a key t has just missed under o:
// it takes the key's record from sink with the lock dropped for the disk
// read and puts the value back (PutBackOwned). The caller gets the value
// appended to dst even when a write superseded the promotion: the read
// comes before that write. On return o holds the lock unless the context
// closed.
func PromoteOwned(t *SoftHashTable[string], o *core.Owned, sink *spill.Sink, dst []byte, key string) ([]byte, bool, error) {
	o.Release()
	p, found := sink.Promote(key)
	err := o.Acquire()
	if found {
		t.PutBackOwned(o, key, p)
		dst = append(dst, p.Value...)
	}
	return dst, found, err
}

// PutBackOwned is PutOwned for a promoted value, through the normal
// allocation/budget path, and ends its promotion: the value is stored
// unless p was superseded, and goes back to disk if the heap cannot take
// it. The check follows the allocation, which may drop the lock, so it
// shares one hold with the index update: a write whose drop lands after
// it waits for the lock and then overwrites the put-back.
func (t *SoftHashTable[K]) PutBackOwned(o *core.Owned, key K, p *spill.Promotion) {
	ref, err := o.AllocData(p.Value)
	if err == nil {
		tx := o.Tx(t.ctx)
		if p.Superseded() {
			err = tx.Free(ref)
		} else {
			err = t.putLocked(tx, key, ref)
		}
	}
	if err != nil {
		p.Abort()
		return
	}
	p.Done()
}

// SoftSpillTable is a string-keyed SoftHashTable coupled to a spill
// tier: entries revoked under memory pressure are demoted to compressed
// disk records instead of dropped, and a Get miss transparently promotes
// the value back in through the normal soft-allocation path. Writes and
// deletions invalidate any demoted copy, so with the sink's namespace
// reserved for this table, readers never observe stale values.
//
// All methods are safe for concurrent use.
type SoftSpillTable struct {
	*SoftHashTable[string]
	sink       *spill.Sink
	promotions atomic.Int64
}

// NewSoftSpillTable builds the table. The sink's namespace must be
// dedicated to this table. cfg.OnReclaim, if set, still runs for every
// revoked entry — after the entry has been demoted.
func NewSoftSpillTable(sma *core.SMA, name string, sink *spill.Sink, cfg HashTableConfig[string]) *SoftSpillTable {
	user := cfg.OnReclaim
	cfg.OnReclaim = func(key string, value []byte) {
		Demote(sma, sink, key, value)
		if user != nil {
			user(key, value)
		}
	}
	return &SoftSpillTable{
		SoftHashTable: NewSoftHashTable[string](sma, name, cfg),
		sink:          sink,
	}
}

// Put stores value under key, first invalidating any demoted copy (in
// that order: the reverse races with a reclamation demoting the fresh
// value, and the Drop would then destroy the only copy).
func (t *SoftSpillTable) Put(key string, value []byte) error {
	t.sink.Drop(key)
	return t.SoftHashTable.Put(key, value)
}

// Get returns the value under key, faulting it back in from the spill
// tier on a miss (PromoteOwned).
func (t *SoftSpillTable) Get(key string) (value []byte, ok bool, err error) {
	value, ok, err = t.SoftHashTable.Get(key)
	if err != nil || ok {
		return value, ok, err
	}
	o := t.ctx.Own()
	defer o.Release()
	if value, ok, err = PromoteOwned(t.SoftHashTable, o, t.sink, nil, key); ok {
		t.promotions.Add(1)
	}
	return value, ok, err
}

// Delete removes key from both tiers, reporting whether it existed in
// either. Both happen in one hold of the heap lock, spill side first:
// no promotion can put the value back behind the delete, and no
// reclamation can demote it behind the drop.
func (t *SoftSpillTable) Delete(key string) (bool, error) {
	o := t.ctx.Own()
	defer o.Release()
	if err := o.Acquire(); err != nil {
		return false, err
	}
	dropped := t.sink.Drop(key)
	removed, err := t.DeleteOwned(o, key)
	return removed || dropped, err
}

// Contains reports whether key is present in either tier, without
// promoting it.
func (t *SoftSpillTable) Contains(key string) bool {
	return t.SoftHashTable.Contains(key) || t.sink.Contains(key)
}

// Promotions returns how many Get misses were served from the spill
// tier.
func (t *SoftSpillTable) Promotions() int64 { return t.promotions.Load() }

// Spilled returns the number of this table's entries currently demoted.
func (t *SoftSpillTable) Spilled() int { return t.sink.Len() }

// ArraySpillReclaim adapts a spill sink to ArrayConfig.OnReclaim: each
// element revoked with the array's block is encoded with codec and
// demoted under its index. Encode and write failures degrade to drop
// semantics.
func ArraySpillReclaim[T any](codec Codec[T], sink *spill.Sink) func(index int, v T) {
	return func(index int, v T) {
		data, err := codec.Encode(v)
		if err != nil {
			return
		}
		_ = sink.Demote(strconv.Itoa(index), data)
	}
}

// RestoreArrayFromSpill promotes every demoted element of a rebuilt
// SoftArray back into it: the recovery half of ArraySpillReclaim. It
// returns how many elements were restored; elements whose re-insert
// fails are demoted back and not counted.
func RestoreArrayFromSpill[T any](a *SoftArray[T], codec Codec[T], sink *spill.Sink) (int, error) {
	restored := 0
	for i := 0; i < a.Len(); i++ {
		p, ok := sink.Promote(strconv.Itoa(i))
		if !ok {
			continue
		}
		v, err := codec.Decode(p.Value)
		if err != nil {
			p.Done()
			continue
		}
		if err := a.Set(i, v); err != nil {
			p.Abort()
			if err == ErrReclaimed {
				return restored, err
			}
			continue
		}
		p.Done()
		restored++
	}
	return restored, nil
}
