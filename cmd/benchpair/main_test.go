package main

import "testing"

// TestQuartiles pins the cut points to Python's
// statistics.quantiles(data, n=4), the rule the benchmark's own report
// and the driver that judges claims use.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestVerdict covers each verdict choosing-metrics §8 gives a metric.
func TestVerdict(t *testing.T) {
	higher := boundedMetric{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	lower := boundedMetric{Name: "mem_sys_mib", Better: "lower", Bound: 0.1}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shifted := func(vs []float64, by float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v + by
		}
		return out
	}
	wide := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, tc := range []struct {
		name string
		m    boundedMetric
		p, c []float64
		want string
	}{
		{"every pair won, far past the quartiles", higher, tight, shifted(tight, 10), improved},
		{"lower is better", lower, tight, shifted(tight, -10), improved},
		{"won 8 of 10", higher, tight, append(shifted(tight[:8], 10), tight[8]-1, tight[9]-1), noWorse},
		{"won every pair by less than the quartiles", higher, tight, shifted(tight, 0.5), noWorse},
		{"lost every pair, inside the bound", higher, tight, shifted(tight, -10), noWorse},
		{"a spread wider than the bound", higher, wide, shifted(wide, -5), unresolved},
		{"a wide spread does not hide a clear win", higher, wide, shifted(wide, 60), improved},
		{"runs that do not overlap resolve a spread", higher,
			[]float64{50, 50, 50, 100, 100, 100, 100, 150, 150, 150},
			[]float64{151, 151, 151, 151, 151, 151, 151, 151, 151, 151}, noWorse},
		{"worse than the bound", lower, tight, shifted(tight, 20), regressed},
		{"worse than the bound however wide", higher, wide, shifted(wide, -30), regressed},
	} {
		if got := compare(tc.m, tc.p, tc.c).verdict(tc.m.Bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
