package metrics

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("new counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

func TestTimeSeriesRecordAndPoints(t *testing.T) {
	ts := NewTimeSeries("mem")
	ts.Record(time.Second, 1)
	ts.Record(2*time.Second, 2)
	pts := ts.Points()
	if len(pts) != 2 {
		t.Fatalf("len(Points) = %d, want 2", len(pts))
	}
	if pts[0].V != 1 || pts[1].V != 2 {
		t.Fatalf("points = %v", pts)
	}
	if ts.Name() != "mem" {
		t.Fatalf("Name() = %q", ts.Name())
	}
}

func TestTimeSeriesLast(t *testing.T) {
	ts := NewTimeSeries("x")
	if _, ok := ts.Last(); ok {
		t.Fatal("Last() on empty series reported ok")
	}
	ts.Record(time.Second, 7)
	p, ok := ts.Last()
	if !ok || p.V != 7 {
		t.Fatalf("Last() = %v, %v", p, ok)
	}
}

func TestTimeSeriesAtStepInterpolation(t *testing.T) {
	ts := NewTimeSeries("x")
	ts.Record(10*time.Second, 5)
	ts.Record(20*time.Second, 9)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{5 * time.Second, 0},
		{10 * time.Second, 5},
		{15 * time.Second, 5},
		{20 * time.Second, 9},
		{99 * time.Second, 9},
	}
	for _, c := range cases {
		if got := ts.At(c.at); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestTableAlignsSeries(t *testing.T) {
	a := NewTimeSeries("redis")
	b := NewTimeSeries("other")
	a.Record(time.Second, 10)
	b.Record(2*time.Second, 12)
	out := Table(a, b)
	if !strings.Contains(out, "redis") || !strings.Contains(out, "other") {
		t.Fatalf("table missing headers:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + two timestamps
		t.Fatalf("table has %d lines, want 3:\n%s", len(lines), out)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1.1)
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramMeanMinMax(t *testing.T) {
	h := NewHistogram(1.1)
	for _, v := range []float64{1, 2, 3, 4} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 4 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramObserveN(t *testing.T) {
	a, b := NewHistogram(1.1), NewHistogram(1.1)
	for i := 0; i < 7; i++ {
		a.Observe(1234)
	}
	b.ObserveN(1234, 7)
	if a.Count() != b.Count() || a.Sum() != b.Sum() || a.Min() != b.Min() || a.Max() != b.Max() {
		t.Fatalf("ObserveN(v, 7) != 7×Observe(v): count %d/%d sum %v/%v",
			a.Count(), b.Count(), a.Sum(), b.Sum())
	}
	if q := a.Quantile(0.5); q != b.Quantile(0.5) {
		t.Fatalf("quantiles diverge: %v vs %v", q, b.Quantile(0.5))
	}
	b.ObserveN(5, 0)
	b.ObserveN(5, -3)
	b.ObserveN(-1, 2)
	b.ObserveN(math.NaN(), 2)
	if b.Count() != 7 {
		t.Fatalf("invalid ObserveN calls changed count to %d", b.Count())
	}
}

func TestHistogramIgnoresNegativeAndNaN(t *testing.T) {
	h := NewHistogram(1.1)
	h.Observe(-5)
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Fatalf("Count = %d after invalid observations, want 0", h.Count())
	}
}

func TestHistogramQuantileBoundedError(t *testing.T) {
	h := NewHistogram(1.1)
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 0, 10000)
	for i := 0; i < 10000; i++ {
		v := rng.Float64() * 1e6
		values = append(values, v)
		h.Observe(v)
	}
	// Exact quantile by sorting.
	sorted := append([]float64(nil), values...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
		if i > 200 {
			break // partial selection sort is enough for low quantiles
		}
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		est := h.Quantile(q)
		// The estimate must be within one growth factor above the true
		// quantile; verify against the empirical CDF instead of the sort.
		var below int
		for _, v := range values {
			if v <= est {
				below++
			}
		}
		frac := float64(below) / float64(len(values))
		if frac < q-0.02 {
			t.Errorf("Quantile(%v) = %v covers only %.3f of data", q, est, frac)
		}
		if frac > q+0.12 {
			t.Errorf("Quantile(%v) = %v covers %.3f of data (too high)", q, est, frac)
		}
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		h := NewHistogram(1.2)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			h.Observe(rng.Float64() * 1e4)
		}
		prev := 0.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramGrowthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(0.5) did not panic")
		}
	}()
	NewHistogram(0.5)
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(1.5)
	h.ObserveDuration(time.Microsecond)
	if h.Count() != 1 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("Max = %v, want 1000ns", h.Max())
	}
}
