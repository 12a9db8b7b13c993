// Package metrics provides the measurement toolkit shared by the
// experiment harness and the live system: atomic counters,
// time series (for the Figure 2 timeline), log-bucketed histograms with
// percentile summaries (for latency distributions), and a named, labeled
// Registry with Prometheus text-format exposition (registry.go).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter safe for concurrent use.
// Increments are a single atomic add, so counters can sit on allocation
// and request hot paths.
type Counter struct {
	n atomic.Int64
}

// Add increases the counter by delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: Counter.Add with negative delta")
	}
	c.n.Add(delta)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Point is one sample in a time series.
type Point struct {
	T time.Duration // time offset from the experiment's epoch
	V float64
}

// TimeSeries records (time, value) samples in append order. It is safe for
// concurrent use.
type TimeSeries struct {
	mu     sync.Mutex
	name   string
	points []Point
}

// NewTimeSeries returns an empty series with the given display name.
func NewTimeSeries(name string) *TimeSeries {
	return &TimeSeries{name: name}
}

// Name returns the series' display name.
func (ts *TimeSeries) Name() string { return ts.name }

// Record appends a sample.
func (ts *TimeSeries) Record(t time.Duration, v float64) {
	ts.mu.Lock()
	ts.points = append(ts.points, Point{T: t, V: v})
	ts.mu.Unlock()
}

// Points returns a copy of the recorded samples.
func (ts *TimeSeries) Points() []Point {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]Point, len(ts.points))
	copy(out, ts.points)
	return out
}

// Len returns the number of recorded samples.
func (ts *TimeSeries) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.points)
}

// Last returns the most recent sample and whether one exists.
func (ts *TimeSeries) Last() (Point, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.points) == 0 {
		return Point{}, false
	}
	return ts.points[len(ts.points)-1], true
}

// At returns the value in effect at time t: the value of the latest sample
// with T <= t, or 0 if t precedes all samples (step interpolation).
func (ts *TimeSeries) At(t time.Duration) float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	i := sort.Search(len(ts.points), func(i int) bool { return ts.points[i].T > t })
	if i == 0 {
		return 0
	}
	return ts.points[i-1].V
}

// Table renders one or more series sharing a time axis as an aligned text
// table, sampling each series at every recorded timestamp (step
// interpolation). This is how the harness prints Figure 2.
func Table(series ...*TimeSeries) string {
	stamps := map[time.Duration]struct{}{}
	for _, s := range series {
		for _, p := range s.Points() {
			stamps[p.T] = struct{}{}
		}
	}
	times := make([]time.Duration, 0, len(stamps))
	for t := range stamps {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	var b strings.Builder
	fmt.Fprintf(&b, "%12s", "time(s)")
	for _, s := range series {
		fmt.Fprintf(&b, " %20s", s.Name())
	}
	b.WriteByte('\n')
	for _, t := range times {
		fmt.Fprintf(&b, "%12.2f", t.Seconds())
		for _, s := range series {
			fmt.Fprintf(&b, " %20.3f", s.At(t))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// histMaxValue bounds the value range the bucket array must cover; larger
// observations are clamped into the last bucket (and still tracked exactly
// by max). 1e15 ns is ~11.5 days — beyond any latency worth bucketing.
const histMaxValue = 1e15

// histMaxBuckets bounds the bucket array for growth factors very close to
// 1, where the geometric ladder to histMaxValue would get long.
const histMaxBuckets = 1 << 14

// Histogram is a log-bucketed histogram of non-negative values (typically
// nanosecond latencies). Buckets grow geometrically by growth per bucket
// starting at 1.0, giving bounded relative error on percentile estimates.
//
// The observation path is lock-free: the bucket array is sized at
// construction and every update (bucket, count, sum, min, max) is an
// atomic operation, so histograms can sit on allocation and request hot
// paths. Readers see a slightly torn view under heavy concurrency —
// acceptable for monitoring, where the error is bounded by in-flight
// observations.
type Histogram struct {
	growth  float64
	logG    float64
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits
	min     atomic.Uint64 // float64 bits; +Inf when empty
	max     atomic.Uint64 // float64 bits; -Inf when empty
}

// NewHistogram returns a histogram with the given per-bucket growth factor.
// A growth of 1.1 gives at most ~5% relative error on reported quantiles.
func NewHistogram(growth float64) *Histogram {
	if growth <= 1 {
		panic("metrics: histogram growth must be > 1")
	}
	logG := math.Log(growth)
	n := 2 + int(math.Log(histMaxValue)/logG)
	if n > histMaxBuckets {
		n = histMaxBuckets
	}
	h := &Histogram{growth: growth, logG: logG, buckets: make([]atomic.Int64, n)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// atomicFloatMin lowers a (stored as float64 bits) to v if v is smaller.
func atomicFloatMin(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// atomicFloatMax raises a to v if v is larger.
func atomicFloatMax(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// atomicFloatAdd adds delta to a.
func atomicFloatAdd(a *atomic.Uint64, delta float64) {
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// Observe records a single non-negative value. Lock-free.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	idx := 0
	if v >= 1 {
		idx = 1 + int(math.Log(v)/h.logG)
		if idx >= len(h.buckets) {
			idx = len(h.buckets) - 1
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	atomicFloatAdd(&h.sum, v)
	atomicFloatMin(&h.min, v)
	atomicFloatMax(&h.max, v)
}

// ObserveN records n identical non-negative values with a single
// bucket computation and one set of atomic updates. Pipelining load
// generators use it to attribute one batch round-trip to every
// operation in the batch without paying per-operation histogram cost.
func (h *Histogram) ObserveN(v float64, n int64) {
	if n <= 0 || v < 0 || math.IsNaN(v) {
		return
	}
	idx := 0
	if v >= 1 {
		idx = 1 + int(math.Log(v)/h.logG)
		if idx >= len(h.buckets) {
			idx = len(h.buckets) - 1
		}
	}
	h.buckets[idx].Add(n)
	h.count.Add(n)
	atomicFloatAdd(&h.sum, v*float64(n))
	atomicFloatMin(&h.min, v)
	atomicFloatMax(&h.max, v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(float64(d.Nanoseconds())) }

// ObserveDurationN records n identical durations in nanoseconds.
func (h *Histogram) ObserveDurationN(d time.Duration, n int64) {
	h.ObserveN(float64(d.Nanoseconds()), n)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the arithmetic mean of all observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.min.Load())
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile returns an estimate of the q-th quantile (0 <= q <= 1). The
// estimate is the upper bound of the bucket containing the target rank, so
// it overestimates by at most the bucket's growth factor.
func (h *Histogram) Quantile(q float64) float64 {
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	max := math.Float64frombits(h.max.Load())
	rank := int64(math.Ceil(q * float64(count)))
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i == 0 {
				return 1
			}
			upper := math.Pow(h.growth, float64(i))
			if upper > max {
				upper = max
			}
			return upper
		}
	}
	return max
}
