package metrics

import (
	"sync"
	"testing"
)

// mutexCounter is the pre-refactor Counter implementation, kept here so
// the benchmark documents why the hot-path instruments moved to
// sync/atomic: under parallel increment the atomic version avoids the
// lock handoff entirely.
type mutexCounter struct {
	mu sync.Mutex
	n  int64
}

func (c *mutexCounter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func BenchmarkCounterAtomicInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkCounterMutexInc(b *testing.B) {
	var c mutexCounter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(1.15)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(12345)
		}
	})
}
