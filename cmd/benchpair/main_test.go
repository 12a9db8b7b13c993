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
