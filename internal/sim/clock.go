// Package sim provides deterministic virtual time for experiments.
//
// The paper's evaluation (Figure 2) is a wall-clock timeline of two
// processes' memory footprints. To regenerate that figure reproducibly we
// run the same sequence of events against a discrete virtual clock, so the
// series is byte-identical across runs and machines.
package sim

import (
	"container/heap"
	"sync"
	"time"
)

// Virtual is a deterministic discrete-event clock. Time only moves when
// Advance, Step, or Run is called; scheduled events fire in timestamp order
// (FIFO among equal timestamps) on the goroutine driving the clock.
type Virtual struct {
	mu     sync.Mutex
	now    time.Duration
	seq    uint64
	events eventQueue
}

// NewVirtual returns a virtual clock positioned at time zero with no
// pending events.
func NewVirtual() *Virtual {
	return &Virtual{}
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Schedule enqueues fn to run when virtual time reaches at. Events
// scheduled for the past run at the current time on the next advance.
func (v *Virtual) Schedule(at time.Duration, fn func()) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if at < v.now {
		at = v.now
	}
	v.seq++
	heap.Push(&v.events, &event{at: at, seq: v.seq, fn: fn})
}

// Advance moves the clock forward by d, firing every event that falls due.
// Events may schedule further events; those also fire if they fall within
// the advanced window.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now + d
	v.runUntilLocked(target)
	v.now = target
	v.mu.Unlock()
}

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired.
func (v *Virtual) Step() bool {
	v.mu.Lock()
	if v.events.Len() == 0 {
		v.mu.Unlock()
		return false
	}
	ev := heap.Pop(&v.events).(*event)
	v.now = ev.at
	v.mu.Unlock()
	ev.fn()
	return true
}

// Run fires pending events in order until none remain, advancing the clock
// with each event. It returns the number of events fired.
func (v *Virtual) Run() int {
	n := 0
	for v.Step() {
		n++
	}
	return n
}

// Pending reports the number of events waiting to fire.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.events.Len()
}

// runUntilLocked fires all events with at <= target. The mutex is dropped
// around each callback so callbacks may schedule further events.
func (v *Virtual) runUntilLocked(target time.Duration) {
	for v.events.Len() > 0 && v.events[0].at <= target {
		ev := heap.Pop(&v.events).(*event)
		v.now = ev.at
		v.mu.Unlock()
		ev.fn()
		v.mu.Lock()
	}
}

type event struct {
	at  time.Duration
	seq uint64 // tie-break: FIFO among equal timestamps
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
