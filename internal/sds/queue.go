package sds

import (
	"softmem/internal/alloc"
	"softmem/internal/core"
)

// SoftQueue is a FIFO queue whose element payloads live in soft memory —
// the paper's "temporary request queues" use case. Under a reclamation
// demand it drops elements from the front (oldest first): in a request
// queue the oldest entries are the most likely to have timed out anyway.
//
// All methods are safe for concurrent use.
type SoftQueue[T any] struct {
	ctx       *core.Context
	codec     Codec[T]
	onReclaim func(T)

	// Guarded by the context's locked sections. A ring-style slice keeps
	// the implementation simple: indexes shift only on compaction.
	items     []alloc.Ref
	start     int
	reclaimed int64
}

// NewSoftQueue creates a queue with its own isolated heap in sma.
// onReclaim (may be nil) runs for each element dropped under memory
// pressure.
func NewSoftQueue[T any](sma *core.SMA, name string, codec Codec[T], onReclaim func(T), opts ...Option) *SoftQueue[T] {
	o := buildOptions(opts)
	q := &SoftQueue[T]{codec: codec, onReclaim: onReclaim}
	q.ctx = sma.Register(name, o.Priority, reclaimerFunc(q.reclaim))
	return q
}

// Push appends v to the back of the queue.
func (q *SoftQueue[T]) Push(v T) error {
	data, err := q.codec.Encode(v)
	if err != nil {
		return err
	}
	ref, err := q.ctx.AllocData(data)
	if err != nil {
		return err
	}
	return q.ctx.Do(func(*core.Tx) error {
		q.items = append(q.items, ref)
		return nil
	})
}

// Pop removes and returns the front element. ok is false when the queue
// is empty.
func (q *SoftQueue[T]) Pop() (v T, ok bool, err error) {
	err = q.ctx.Do(func(tx *core.Tx) error {
		if q.start >= len(q.items) {
			return nil
		}
		ref := q.items[q.start]
		b, err := readAlloc(tx, ref)
		if err != nil {
			return err
		}
		v, err = q.codec.Decode(b)
		if err != nil {
			return err
		}
		if err := tx.Free(ref); err != nil {
			return err
		}
		q.advance(1)
		ok = true
		return nil
	})
	return v, ok, err
}

// Peek returns the front element without removing it.
func (q *SoftQueue[T]) Peek() (v T, ok bool, err error) {
	err = q.ctx.Do(func(tx *core.Tx) error {
		if q.start >= len(q.items) {
			return nil
		}
		b, err := readAlloc(tx, q.items[q.start])
		if err != nil {
			return err
		}
		v, err = q.codec.Decode(b)
		ok = err == nil
		return err
	})
	return v, ok, err
}

// advance consumes n elements from the front, compacting the backing
// slice once the dead prefix dominates.
func (q *SoftQueue[T]) advance(n int) {
	q.start += n
	if q.start > len(q.items)/2 && q.start > 32 {
		q.items = append(q.items[:0], q.items[q.start:]...)
		q.start = 0
	}
}

// Len returns the number of elements in the queue.
func (q *SoftQueue[T]) Len() int {
	n := 0
	_ = q.ctx.Do(func(*core.Tx) error {
		n = len(q.items) - q.start
		return nil
	})
	return n
}

// Reclaimed returns the number of elements dropped under memory pressure.
func (q *SoftQueue[T]) Reclaimed() int64 {
	var n int64
	_ = q.ctx.Do(func(*core.Tx) error {
		n = q.reclaimed
		return nil
	})
	return n
}

// Context exposes the queue's SDS context.
func (q *SoftQueue[T]) Context() *core.Context { return q.ctx }

// Close frees the queue's heap; the queue must not be used afterwards.
func (q *SoftQueue[T]) Close() { q.ctx.Close() }

// reclaim drops elements from the front until quota bytes are freed.
// Runs under the Context lock.
func (q *SoftQueue[T]) reclaim(tx *core.Tx, quota int) int {
	freed := 0
	for q.start < len(q.items) && freed < quota {
		ref := q.items[q.start]
		size, err := tx.SlotSize(ref)
		if err != nil {
			q.advance(1)
			continue
		}
		if q.onReclaim != nil {
			if b, err := readAlloc(tx, ref); err == nil {
				if v, err := q.codec.Decode(b); err == nil {
					q.onReclaim(v)
				}
			}
		}
		if err := tx.Free(ref); err == nil {
			freed += size
		}
		q.advance(1)
		q.reclaimed++
	}
	return freed
}
