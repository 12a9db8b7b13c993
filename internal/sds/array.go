package sds

import (
	"fmt"

	"softmem/internal/alloc"
	"softmem/internal/core"
)

// SoftArray is a fixed-length array of fixed-size elements stored in one
// contiguous soft allocation. Because an array is "a single, contiguous
// memory block", it gives up ALL of its soft memory upon a reclamation
// demand (§3.2). After reclamation the array is invalid: accessors return
// ErrReclaimed until Rebuild allocates a fresh (empty) block.
//
// All methods are safe for concurrent use.
type SoftArray[T any] struct {
	ctx       *core.Context
	codec     Codec[T]
	onReclaim func(index int, v T)
	length    int
	elemSize  int

	// Guarded by the context's locked sections.
	ref       alloc.Ref
	present   []bool
	count     int
	valid     bool
	reclaims  int64
	lostElems int64
}

// ArrayConfig configures a SoftArray.
type ArrayConfig[T any] struct {
	// Length is the number of element slots (required > 0).
	Length int
	// ElemSize is the fixed byte size per element; Encode output longer
	// than this fails (required > 0).
	ElemSize int
	// OnReclaim runs for each present element when the array's block is
	// revoked.
	OnReclaim func(index int, v T)
	// Priority is the SDS reclamation priority (lower reclaimed first).
	Priority int
}

// NewSoftArray creates the array and allocates its backing block.
func NewSoftArray[T any](sma *core.SMA, name string, codec Codec[T], cfg ArrayConfig[T]) (*SoftArray[T], error) {
	if cfg.Length <= 0 || cfg.ElemSize <= 0 {
		return nil, fmt.Errorf("sds: SoftArray needs positive Length and ElemSize, got %d/%d", cfg.Length, cfg.ElemSize)
	}
	a := &SoftArray[T]{
		codec:     codec,
		onReclaim: cfg.OnReclaim,
		length:    cfg.Length,
		elemSize:  cfg.ElemSize,
		present:   make([]bool, cfg.Length),
	}
	a.ctx = sma.Register(name, cfg.Priority, reclaimerFunc(a.reclaim))
	if err := a.Rebuild(); err != nil {
		return nil, err
	}
	return a, nil
}

// Rebuild allocates a fresh empty backing block after reclamation. It is
// a no-op when the array is already valid.
func (a *SoftArray[T]) Rebuild() error {
	// Allocate outside the locked section (budget growth may need daemon
	// round-trips), then install.
	ref, err := a.ctx.Alloc(a.length * a.elemSize)
	if err != nil {
		return err
	}
	return a.ctx.Do(func(tx *core.Tx) error {
		if a.valid {
			// Raced with another Rebuild; drop the extra block.
			return tx.Free(ref)
		}
		a.ref = ref
		for i := range a.present {
			a.present[i] = false
		}
		a.count = 0
		a.valid = true
		return nil
	})
}

// Valid reports whether the array currently holds its block (false after
// a reclamation until Rebuild).
func (a *SoftArray[T]) Valid() bool {
	v := false
	_ = a.ctx.Do(func(*core.Tx) error {
		v = a.valid
		return nil
	})
	return v
}

// Len returns the array's fixed length.
func (a *SoftArray[T]) Len() int { return a.length }

// Count returns the number of present elements (0 after reclamation).
func (a *SoftArray[T]) Count() int {
	n := 0
	_ = a.ctx.Do(func(*core.Tx) error {
		n = a.count
		return nil
	})
	return n
}

// Set stores v at index i.
func (a *SoftArray[T]) Set(i int, v T) error {
	if i < 0 || i >= a.length {
		return fmt.Errorf("sds: SoftArray index %d out of range [0,%d)", i, a.length)
	}
	data, err := a.codec.Encode(v)
	if err != nil {
		return err
	}
	if len(data) > a.elemSize {
		return fmt.Errorf("sds: encoded element %d bytes exceeds ElemSize %d", len(data), a.elemSize)
	}
	buf := make([]byte, a.elemSize)
	copy(buf, data)
	return a.ctx.Do(func(tx *core.Tx) error {
		if !a.valid {
			return ErrReclaimed
		}
		if err := tx.Write(a.ref, buf, i*a.elemSize); err != nil {
			return err
		}
		if !a.present[i] {
			a.present[i] = true
			a.count++
		}
		return nil
	})
}

// Get returns the element at index i. ok is false for never-set slots;
// err is ErrReclaimed when the whole array was revoked.
func (a *SoftArray[T]) Get(i int) (v T, ok bool, err error) {
	if i < 0 || i >= a.length {
		return v, false, fmt.Errorf("sds: SoftArray index %d out of range [0,%d)", i, a.length)
	}
	err = a.ctx.Do(func(tx *core.Tx) error {
		if !a.valid {
			return ErrReclaimed
		}
		if !a.present[i] {
			return nil
		}
		buf := make([]byte, a.elemSize)
		if err := tx.Read(a.ref, buf, i*a.elemSize); err != nil {
			return err
		}
		v, err = a.codec.Decode(buf)
		ok = err == nil
		return err
	})
	return v, ok, err
}

// Clear removes the element at index i (the slot remains allocated).
func (a *SoftArray[T]) Clear(i int) error {
	if i < 0 || i >= a.length {
		return fmt.Errorf("sds: SoftArray index %d out of range [0,%d)", i, a.length)
	}
	return a.ctx.Do(func(*core.Tx) error {
		if !a.valid {
			return ErrReclaimed
		}
		if a.present[i] {
			a.present[i] = false
			a.count--
		}
		return nil
	})
}

// Reclaims returns how many times the array's block was revoked.
func (a *SoftArray[T]) Reclaims() int64 {
	var n int64
	_ = a.ctx.Do(func(*core.Tx) error {
		n = a.reclaims
		return nil
	})
	return n
}

// Context exposes the array's SDS context.
func (a *SoftArray[T]) Context() *core.Context { return a.ctx }

// Close frees the array's heap; the array must not be used afterwards.
func (a *SoftArray[T]) Close() { a.ctx.Close() }

// reclaim surrenders the whole block (the array's all-or-nothing policy),
// invoking the callback on each present element first. Runs under the
// Context lock.
func (a *SoftArray[T]) reclaim(tx *core.Tx, quota int) int {
	if !a.valid || quota <= 0 {
		return 0
	}
	size, err := tx.SlotSize(a.ref)
	if err != nil {
		a.valid = false
		return 0
	}
	if a.onReclaim != nil {
		buf := make([]byte, a.elemSize)
		for i, p := range a.present {
			if !p {
				continue
			}
			if err := tx.Read(a.ref, buf, i*a.elemSize); err != nil {
				continue
			}
			if v, err := a.codec.Decode(buf); err == nil {
				a.onReclaim(i, v)
			}
		}
	}
	a.lostElems += int64(a.count)
	if err := tx.Free(a.ref); err != nil {
		return 0
	}
	a.valid = false
	a.count = 0
	a.reclaims++
	return size
}
