package kvstore

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestStallNanosCountsSpillPromotions: a GET that faults a demoted
// value back from the spill tier must charge its promotion window to
// Store.StallNanos — the spill_promote half of the QoS stall signal.
// The store clock is injected so the charge is deterministic.
func TestStallNanosCountsSpillPromotions(t *testing.T) {
	var now time.Time
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(time.Millisecond)
		return now
	}
	var demoted []string
	st, sma, _ := newSpillStore(t, WithClock(clock),
		WithOnReclaim(func(k string) { demoted = append(demoted, k) }))

	for i := 0; i < 64; i++ {
		if err := st.Set(fmt.Sprintf("k%03d", i), make([]byte, 900)); err != nil {
			t.Fatal(err)
		}
	}
	if released := sma.HandleDemand(8); released == 0 {
		t.Fatal("demand released nothing")
	}
	if len(demoted) == 0 {
		t.Fatal("no keys were demoted")
	}

	before := st.StallNanos()
	if _, ok, err := st.Get(demoted[0]); err != nil || !ok {
		t.Fatalf("Get(%s) = %v, %v", demoted[0], ok, err)
	}
	if got := st.StallNanos(); got <= before {
		t.Fatalf("StallNanos = %d after promotion, want > %d", got, before)
	}
}

// TestStallNanosZeroWithoutPressure: an unpressured store reports no
// stall — the signal must not invent pressure where none exists.
func TestStallNanosZeroWithoutPressure(t *testing.T) {
	st, _ := newStore(t, 0)
	for i := 0; i < 32; i++ {
		if err := st.Set(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Get(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.StallNanos(); got != 0 {
		t.Fatalf("StallNanos = %d on an unpressured store, want 0", got)
	}
}
