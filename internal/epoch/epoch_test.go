package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestEnterExitBasics(t *testing.T) {
	d := NewDomain()
	if got := d.Current(); got != 1 {
		t.Fatalf("fresh domain epoch = %d, want 1", got)
	}
	if got := d.SafeBefore(); got != 2 {
		t.Fatalf("idle SafeBefore = %d, want global+1 = 2", got)
	}
	s, ok := d.Enter(42)
	if !ok {
		t.Fatal("Enter failed on an empty domain")
	}
	if got := d.SafeBefore(); got != 1 {
		t.Fatalf("SafeBefore with reader at epoch 1 = %d, want 1", got)
	}
	if _, got := d.scan(); got != 1 {
		t.Fatalf("registered readers = %d, want 1", got)
	}
	d.Advance()
	d.Advance()
	// The reader entered at epoch 1, so nothing stamped at or above 1
	// may drain while it is registered.
	if got := d.SafeBefore(); got != 1 {
		t.Fatalf("SafeBefore after advances with old reader = %d, want 1", got)
	}
	if got := d.Lag(); got != 2 {
		t.Fatalf("Lag = %d, want 2", got)
	}
	d.Exit(s)
	if got := d.SafeBefore(); got != 4 {
		t.Fatalf("SafeBefore after exit = %d, want global+1 = 4", got)
	}
	if got := d.Lag(); got != 0 {
		t.Fatalf("idle Lag = %d, want 0", got)
	}
}

func TestEnterExhaustionFallsBack(t *testing.T) {
	d := NewDomain()
	idxs := make([]int, 0, NumSlots)
	for i := 0; i < NumSlots; i++ {
		s, ok := d.Enter(uint64(i) * 7)
		if !ok {
			t.Fatalf("Enter %d failed with free slots remaining", i)
		}
		idxs = append(idxs, s)
	}
	if _, ok := d.Enter(3); ok {
		t.Fatal("Enter succeeded on a full domain")
	}
	d.Exit(idxs[NumSlots/2])
	if _, ok := d.Enter(3); !ok {
		t.Fatal("Enter failed after a slot freed")
	}
	seen := make(map[int]bool, len(idxs))
	for _, s := range idxs {
		if seen[s] {
			t.Fatalf("slot %d handed out twice", s)
		}
		seen[s] = true
	}
}

func TestDeferredCounter(t *testing.T) {
	d := NewDomain()
	d.NoteDeferred(3)
	d.NoteDeferred(0)
	d.NoteDeferred(-5) // ignored
	d.NoteDeferred(2)
	if got := d.DeferredPages(); got != 5 {
		t.Fatalf("DeferredPages = %d, want 5", got)
	}
}

// TestGracePeriodInvariant hammers Enter/Exit from reader goroutines
// while a writer advances the epoch and checks the core invariant:
// SafeBefore never exceeds the epoch of any reader registered at scan
// time, and a stamp taken after a reader registered is never covered
// while that reader is still in.
func TestGracePeriodInvariant(t *testing.T) {
	d := NewDomain()
	var stop atomic.Bool
	var wg sync.WaitGroup
	var violations atomic.Int64

	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			h := seed
			for !stop.Load() {
				s, ok := d.Enter(h)
				h = h*2862933555777941757 + 3037000493
				if !ok {
					continue
				}
				e := d.slots[s].epoch.Load()
				// While registered, the grace frontier may not pass us.
				if sb := d.SafeBefore(); sb > e {
					violations.Add(1)
				}
				d.Exit(s)
			}
		}(uint64(r) * 1000003)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			d.Advance()
			_ = d.SafeBefore()
			_ = d.Lag()
		}
		stop.Store(true)
	}()
	wg.Wait()
	if n := violations.Load(); n != 0 {
		t.Fatalf("grace frontier passed %d registered readers", n)
	}
	if _, got := d.scan(); got != 0 {
		t.Fatalf("readers leaked: %d still registered", got)
	}
}
