package sds

import (
	"softmem/internal/alloc"
	"softmem/internal/core"
)

// SoftLinkedList is a doubly-linked list whose element payloads live in
// soft memory (the paper's SoftLinkedList, Listing 1). Under a
// reclamation demand it frees elements from oldest to newest, invoking
// the reclaim callback on each before its memory is revoked.
//
// The list's spine (node links) is traditional memory: losing a payload
// must not corrupt the structure, mirroring the paper's prototype where
// structure metadata stays in traditional memory.
//
// All methods are safe for concurrent use.
type SoftLinkedList[T any] struct {
	ctx       *core.Context
	codec     Codec[T]
	onReclaim func(T)

	// All fields below are guarded by the context's locked sections.
	head, tail *listNode // position order
	oldest     *listNode // age order (insertion), head = oldest
	newest     *listNode
	size       int
	reclaimed  int64
}

type listNode struct {
	ref          alloc.Ref
	prev, next   *listNode // position links
	aPrev, aNext *listNode // age links
}

// NewSoftLinkedList creates a list with its own isolated heap in sma.
// onReclaim (may be nil) runs for each element revoked under memory
// pressure, with the decoded element — the last chance to tag or persist
// it.
func NewSoftLinkedList[T any](sma *core.SMA, name string, codec Codec[T], onReclaim func(T), opts ...Option) *SoftLinkedList[T] {
	o := buildOptions(opts)
	l := &SoftLinkedList[T]{codec: codec, onReclaim: onReclaim}
	l.ctx = sma.Register(name, o.Priority, reclaimerFunc(l.reclaim))
	return l
}

// reclaimerFunc adapts a function to core.Reclaimer.
type reclaimerFunc func(tx *core.Tx, bytes int) int

// Reclaim implements core.Reclaimer.
func (f reclaimerFunc) Reclaim(tx *core.Tx, bytes int) int { return f(tx, bytes) }

// PushBack appends v to the list.
func (l *SoftLinkedList[T]) PushBack(v T) error { return l.push(v, true) }

// PushFront prepends v to the list.
func (l *SoftLinkedList[T]) PushFront(v T) error { return l.push(v, false) }

func (l *SoftLinkedList[T]) push(v T, back bool) error {
	data, err := l.codec.Encode(v)
	if err != nil {
		return err
	}
	ref, err := l.ctx.AllocData(data)
	if err != nil {
		return err
	}
	return l.ctx.Do(func(tx *core.Tx) error {
		n := &listNode{ref: ref}
		if back {
			n.prev = l.tail
			if l.tail != nil {
				l.tail.next = n
			} else {
				l.head = n
			}
			l.tail = n
		} else {
			n.next = l.head
			if l.head != nil {
				l.head.prev = n
			} else {
				l.tail = n
			}
			l.head = n
		}
		// Age order is always insertion order.
		n.aPrev = l.newest
		if l.newest != nil {
			l.newest.aNext = n
		} else {
			l.oldest = n
		}
		l.newest = n
		l.size++
		return nil
	})
}

// PopFront removes and returns the first element. ok is false when the
// list is empty.
func (l *SoftLinkedList[T]) PopFront() (v T, ok bool, err error) { return l.pop(true) }

// PopBack removes and returns the last element. ok is false when the list
// is empty.
func (l *SoftLinkedList[T]) PopBack() (v T, ok bool, err error) { return l.pop(false) }

func (l *SoftLinkedList[T]) pop(front bool) (v T, ok bool, err error) {
	err = l.ctx.Do(func(tx *core.Tx) error {
		n := l.tail
		if front {
			n = l.head
		}
		if n == nil {
			return nil
		}
		b, err := readAlloc(tx, n.ref)
		if err != nil {
			return err
		}
		v, err = l.codec.Decode(b)
		if err != nil {
			return err
		}
		if err := tx.Free(n.ref); err != nil {
			return err
		}
		l.unlink(n)
		ok = true
		return nil
	})
	return v, ok, err
}

// unlink removes n from both position and age orders. Caller holds the
// locked section.
func (l *SoftLinkedList[T]) unlink(n *listNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	if n.aPrev != nil {
		n.aPrev.aNext = n.aNext
	} else {
		l.oldest = n.aNext
	}
	if n.aNext != nil {
		n.aNext.aPrev = n.aPrev
	} else {
		l.newest = n.aPrev
	}
	l.size--
}

// Front returns the first element without removing it.
func (l *SoftLinkedList[T]) Front() (v T, ok bool, err error) {
	err = l.ctx.Do(func(tx *core.Tx) error {
		if l.head == nil {
			return nil
		}
		b, err := readAlloc(tx, l.head.ref)
		if err != nil {
			return err
		}
		v, err = l.codec.Decode(b)
		ok = err == nil
		return err
	})
	return v, ok, err
}

// Len returns the number of elements currently in the list.
func (l *SoftLinkedList[T]) Len() int {
	n := 0
	_ = l.ctx.Do(func(*core.Tx) error {
		n = l.size
		return nil
	})
	return n
}

// Each calls fn on every element in position order until fn returns
// false. Elements are decoded copies; fn must not call back into the
// list.
func (l *SoftLinkedList[T]) Each(fn func(T) bool) error {
	return l.ctx.Do(func(tx *core.Tx) error {
		for n := l.head; n != nil; n = n.next {
			b, err := readAlloc(tx, n.ref)
			if err != nil {
				return err
			}
			v, err := l.codec.Decode(b)
			if err != nil {
				return err
			}
			if !fn(v) {
				return nil
			}
		}
		return nil
	})
}

// Reclaimed returns the number of elements revoked under memory pressure
// over the list's lifetime.
func (l *SoftLinkedList[T]) Reclaimed() int64 {
	var n int64
	_ = l.ctx.Do(func(*core.Tx) error {
		n = l.reclaimed
		return nil
	})
	return n
}

// Context exposes the list's SDS context (for priority changes and
// stats).
func (l *SoftLinkedList[T]) Context() *core.Context { return l.ctx }

// Close frees the list's heap; the list must not be used afterwards.
func (l *SoftLinkedList[T]) Close() { l.ctx.Close() }

// reclaim frees elements oldest-first until quota bytes are freed (§3.2:
// "prioritizes newer entries over older entries"). Runs under the
// Context lock.
func (l *SoftLinkedList[T]) reclaim(tx *core.Tx, quota int) int {
	freed := 0
	for n := l.oldest; n != nil && freed < quota; {
		next := n.aNext
		size, err := tx.SlotSize(n.ref)
		if err != nil {
			l.unlink(n)
			n = next
			continue
		}
		if l.onReclaim != nil {
			if b, err := readAlloc(tx, n.ref); err == nil {
				if v, err := l.codec.Decode(b); err == nil {
					l.onReclaim(v)
				}
			}
		}
		if err := tx.Free(n.ref); err == nil {
			freed += size
		}
		l.unlink(n)
		l.reclaimed++
		n = next
	}
	return freed
}
