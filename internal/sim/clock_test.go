package sim

import (
	"testing"
	"time"
)

func TestVirtualStartsAtZero(t *testing.T) {
	v := NewVirtual()
	if got := v.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestVirtualAdvanceMovesTime(t *testing.T) {
	v := NewVirtual()
	v.Advance(5 * time.Second)
	if got := v.Now(); got != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", got)
	}
	v.Advance(250 * time.Millisecond)
	if got := v.Now(); got != 5250*time.Millisecond {
		t.Fatalf("Now() = %v, want 5.25s", got)
	}
}

func TestVirtualScheduleFiresOnAdvance(t *testing.T) {
	v := NewVirtual()
	fired := false
	v.Schedule(time.Second, func() { fired = true })
	v.Advance(999 * time.Millisecond)
	if fired {
		t.Fatal("event fired before its timestamp")
	}
	v.Advance(time.Millisecond)
	if !fired {
		t.Fatal("event did not fire at its timestamp")
	}
}

func TestVirtualEventsFireInTimestampOrder(t *testing.T) {
	v := NewVirtual()
	var order []int
	v.Schedule(3*time.Second, func() { order = append(order, 3) })
	v.Schedule(1*time.Second, func() { order = append(order, 1) })
	v.Schedule(2*time.Second, func() { order = append(order, 2) })
	v.Advance(10 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", order)
	}
}

func TestVirtualEqualTimestampsFIFO(t *testing.T) {
	v := NewVirtual()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		v.Schedule(time.Second, func() { order = append(order, i) })
	}
	v.Advance(2 * time.Second)
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO)", i, got, i)
		}
	}
}

func TestVirtualEventSeesItsOwnTimestamp(t *testing.T) {
	v := NewVirtual()
	var at time.Duration
	v.Schedule(7*time.Second, func() { at = v.Now() })
	v.Advance(10 * time.Second)
	if at != 7*time.Second {
		t.Fatalf("event observed Now()=%v, want 7s", at)
	}
	if v.Now() != 10*time.Second {
		t.Fatalf("clock ended at %v, want 10s", v.Now())
	}
}

func TestVirtualCascadingEvents(t *testing.T) {
	v := NewVirtual()
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		if count < 4 {
			v.Schedule(v.Now()+time.Second, reschedule)
		}
	}
	v.Schedule(time.Second, reschedule)
	v.Advance(10 * time.Second)
	if count != 4 {
		t.Fatalf("cascade fired %d times, want 4", count)
	}
}

func TestVirtualPastEventFiresAtCurrentTime(t *testing.T) {
	v := NewVirtual()
	v.Advance(5 * time.Second)
	var at time.Duration = -1
	v.Schedule(time.Second, func() { at = v.Now() })
	v.Advance(0)
	if at != 5*time.Second {
		t.Fatalf("past-scheduled event fired at %v, want 5s", at)
	}
}

func TestVirtualStep(t *testing.T) {
	v := NewVirtual()
	fired := 0
	v.Schedule(time.Second, func() { fired++ })
	v.Schedule(2*time.Second, func() { fired++ })
	if !v.Step() {
		t.Fatal("Step() = false with events pending")
	}
	if fired != 1 || v.Now() != time.Second {
		t.Fatalf("after one Step: fired=%d now=%v", fired, v.Now())
	}
	if !v.Step() {
		t.Fatal("second Step() = false")
	}
	if v.Step() {
		t.Fatal("Step() = true with no events pending")
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestVirtualRunDrainsAll(t *testing.T) {
	v := NewVirtual()
	fired := 0
	for i := 1; i <= 10; i++ {
		v.Schedule(time.Duration(i)*time.Second, func() { fired++ })
	}
	if n := v.Run(); n != 10 {
		t.Fatalf("Run() = %d, want 10", n)
	}
	if fired != 10 {
		t.Fatalf("fired = %d, want 10", fired)
	}
	if v.Pending() != 0 {
		t.Fatalf("Pending() = %d after Run, want 0", v.Pending())
	}
}
