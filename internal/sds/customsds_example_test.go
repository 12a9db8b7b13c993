package sds_test

import (
	"encoding/binary"
	"fmt"

	"softmem/internal/alloc"
	"softmem/internal/core"
	"softmem/internal/pages"
)

// softStack is a complete custom Soft Data Structure built directly on
// the core API — the worked example for docs/WRITING_AN_SDS.md. It is a
// LIFO stack of uint64s whose reclamation policy gives up the BOTTOM of
// the stack first (the entries a stack's user touches least).
//
// The SDS contract:
//
//  1. Register a context: one isolated heap plus a priority.
//  2. Allocate before indexing: ctx.Alloc/AllocData may perform daemon
//     round-trips, so call them outside locked sections; then install
//     the ref into your index inside ctx.Do.
//  3. Mutate your index ONLY inside ctx.Do (or your Reclaim) — both run
//     under the Context lock, so reclamation never sees a half-updated
//     index.
//  4. Implement Reclaim(tx, quota): free your least valuable
//     allocations until quota SLOT bytes are freed, updating the index
//     as you go, and return the bytes freed.
type softStack struct {
	ctx  *core.Context
	refs []alloc.Ref // index: bottom first
}

func newSoftStack(sma *core.SMA, name string, priority int) *softStack {
	s := &softStack{}
	s.ctx = sma.Register(name, priority, s)
	return s
}

func (s *softStack) Push(v uint64) error {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, v)
	ref, err := s.ctx.AllocData(buf) // rule 2: allocate first...
	if err != nil {
		return err
	}
	return s.ctx.Do(func(*core.Tx) error { // ...index under the lock
		s.refs = append(s.refs, ref)
		return nil
	})
}

func (s *softStack) Pop() (v uint64, ok bool, err error) {
	err = s.ctx.Do(func(tx *core.Tx) error {
		if len(s.refs) == 0 {
			return nil
		}
		ref := s.refs[len(s.refs)-1]
		b, err := tx.Bytes(ref)
		if err != nil {
			return err
		}
		v = binary.BigEndian.Uint64(b)
		if err := tx.Free(ref); err != nil {
			return err
		}
		s.refs = s.refs[:len(s.refs)-1]
		ok = true
		return nil
	})
	return v, ok, err
}

func (s *softStack) Len() int {
	n := 0
	_ = s.ctx.Do(func(*core.Tx) error { n = len(s.refs); return nil })
	return n
}

// Reclaim implements core.Reclaimer: bottom-first, counting slot bytes
// (rule 4).
func (s *softStack) Reclaim(tx *core.Tx, quota int) int {
	freed := 0
	kept := s.refs[:0]
	for i, ref := range s.refs {
		if freed >= quota {
			kept = append(kept, s.refs[i:]...)
			break
		}
		size, err := tx.SlotSize(ref)
		if err != nil {
			continue // already gone; drop from index
		}
		if err := tx.Free(ref); err != nil {
			kept = append(kept, ref)
			continue
		}
		freed += size
	}
	s.refs = kept
	return freed
}

// Example_customSDS shows the custom stack losing its bottom under
// memory pressure while the top stays poppable.
func Example_customSDS() {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := newSoftStack(sma, "stack", 0)
	for i := uint64(1); i <= 512; i++ { // two pages of 16-byte slots
		if err := st.Push(i); err != nil {
			panic(err)
		}
	}
	sma.HandleDemand(1) // squeeze one page: the bottom 256 entries
	fmt.Println("len after squeeze:", st.Len())
	v, ok, _ := st.Pop()
	fmt.Println("top still pops:", v, ok)
	// Output:
	// len after squeeze: 256
	// top still pops: 512 true
}
