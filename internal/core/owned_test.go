package core

import (
	"sync/atomic"
	"testing"
	"time"

	"softmem/internal/pages"
)

// TestOwnedAcquireVisibleToYieldingHolder: a handle blocking in Acquire
// must advertise itself in lockers exactly as Context.lock does, so a
// holder that keeps the lock across a long drain hands over at its next
// Yield instead of when the drain ends. The holder here never releases
// on its own: without the registration the second Acquire waits forever.
func TestOwnedAcquireVisibleToYieldingHolder(t *testing.T) {
	s := New(Config{Machine: pages.NewPool(10)})
	ctx := s.Register("test", 0, nil)

	var stop atomic.Bool
	held := make(chan struct{})
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		holder := ctx.Own()
		if err := holder.Acquire(); err != nil {
			t.Error(err)
			close(held)
			return
		}
		close(held)
		for !stop.Load() {
			if err := holder.Yield(); err != nil {
				t.Error(err)
				return
			}
		}
		holder.Release()
	}()
	<-held

	acquired := make(chan error, 1)
	go func() {
		o := ctx.Own()
		err := o.Acquire()
		if err == nil {
			o.Release()
		}
		acquired <- err
	}()
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		stop.Store(true)
		t.Fatal("blocked Acquire was never seen by the yielding holder")
	}
	select {
	case <-loopDone:
		t.Fatal("holder loop ended before the waiter was served")
	default:
	}
	stop.Store(true)
	<-loopDone
	if n := ctx.lockers.Load(); n != 0 {
		t.Fatalf("lockers = %d after all waiters left, want 0", n)
	}
}
