package core

import (
	"testing"
	"time"

	"softmem/internal/pages"
)

// TestStallReporterFlowsIntoUsage: SetStallReporter feeds Usage.StallNs
// exactly as SetSpillReporter feeds SpilledBytes, and detaching stops it.
func TestStallReporterFlowsIntoUsage(t *testing.T) {
	s := New(Config{Machine: pages.NewPool(10)})
	if got := s.Usage().StallNs; got != 0 {
		t.Fatalf("StallNs without reporter = %d, want 0", got)
	}
	s.SetStallReporter(func() int64 { return 42 })
	if got := s.Usage().StallNs; got != 42 {
		t.Fatalf("StallNs = %d, want 42", got)
	}
	s.SetStallReporter(nil)
	if got := s.Usage().StallNs; got != 0 {
		t.Fatalf("StallNs after detach = %d, want 0", got)
	}
}

// TestContextStallNanosAccumulatesContendedYields: a contended Yield —
// the owner handing the heap lock to a waiter and re-taking it — must
// land its window in both the handle's StallNanos and the context-wide
// atomic total that feeds the QoS self-report.
func TestContextStallNanosAccumulatesContendedYields(t *testing.T) {
	s := New(Config{Machine: pages.NewPool(10)})
	ctx := s.Register("test", 0, nil)
	o := ctx.Own()
	if err := o.Acquire(); err != nil {
		t.Fatal(err)
	}
	if got := ctx.StallNanos(); got != 0 {
		t.Fatalf("StallNanos before any yield = %d, want 0", got)
	}

	// A waiter advertises itself through the legacy lock path, making
	// the owner's next Yield contended.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ctx.Do(func(tx *Tx) error {
			time.Sleep(time.Millisecond)
			return nil
		})
	}()
	// Spin until the waiter is visible, then hand over.
	deadline := time.Now().Add(5 * time.Second)
	for !o.Contended() {
		if time.Now().After(deadline) {
			t.Fatal("waiter never became visible")
		}
		time.Sleep(10 * time.Microsecond)
	}
	if err := o.Yield(); err != nil {
		t.Fatal(err)
	}
	// Yield may re-take the lock before the waiter wins it, so the
	// waiter can only be awaited once the lock is released.
	o.Release()
	<-done

	if got := ctx.StallNanos(); got <= 0 {
		t.Fatalf("Context.StallNanos = %d, want > 0 after contended yield", got)
	}
	if got := o.StallNanos(); got != ctx.StallNanos() {
		t.Fatalf("handle stall %d != context stall %d (single handle)", got, ctx.StallNanos())
	}
}
