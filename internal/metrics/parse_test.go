package metrics

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestParseTextRoundTrip pins the exposition format where it is owned:
// whatever a registry writes — counters, gauges, value functions, a
// histogram's quantile/_sum/_count series, a CollectFunc family, and
// label values made of every character the writer escapes or the reader
// could trip over — ParseText reads back as exactly the series the
// history sampler reports, and every history key splits back into the
// name and labels it was built from.
func TestParseTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	alphabet := []string{`\`, `"`, "\n", ",", "}", "{", "=", " ", "n", `\n`, `="`, `",`, `"}`, "a", "é", "#"}
	value := func() string {
		var b strings.Builder
		for i := rng.Intn(6); i >= 0; i-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}

	r := NewRegistry()
	want := map[string][]Label{} // history key -> the labels registered under it
	sorted := func(labels []Label) []Label {
		out := slices.Clone(labels)
		slices.SortFunc(out, func(a, b Label) int { return strings.Compare(a.Name, b.Name) })
		return out
	}
	note := func(name string, labels []Label, extra ...Label) {
		all := append(slices.Clone(labels), extra...)
		want[SeriesKey(name, all...)] = sorted(all)
	}
	r.CounterFunc("softmem_test_plain_total", "no labels", func() int64 { return 7 })
	note("softmem_test_plain_total", nil)
	r.GaugeFunc("softmem_test_fn", "value function", func() float64 { return -2.5e-7 })
	note("softmem_test_fn", nil)
	var collected []Sample
	for i := 0; i < 40; i++ {
		labels := []Label{{Name: "proc", Value: value()}, {Name: "name", Value: value()}}
		if _, dup := want[SeriesKey("softmem_test_collected", labels...)]; dup {
			continue // a CollectFunc must not report one label set twice
		}
		r.CounterFunc("softmem_test_ops_total", "counter family", func() int64 { return int64(i) }, labels...)
		note("softmem_test_ops_total", labels)
		if _, dup := want[SeriesKey("softmem_test_level", labels[0])]; !dup {
			r.GaugeFunc("softmem_test_level", "gauge family", func() float64 { return float64(i) / 3 }, labels[0])
			note("softmem_test_level", labels[:1])
		}
		h := r.Histogram("softmem_test_ns", "histogram family", labels[1])
		h.Observe(float64(1 + i))
		for _, q := range summaryQuantiles {
			note("softmem_test_ns", labels[1:], Label{Name: "quantile", Value: formatValue(q)})
		}
		note("softmem_test_ns_sum", labels[1:])
		note("softmem_test_ns_count", labels[1:])
		collected = append(collected, Sample{Labels: labels, Value: float64(-i)})
		note("softmem_test_collected", labels)
	}
	r.CollectFunc("softmem_test_collected", "label sets known at collection time", KindGauge,
		func() []Sample { return collected })

	values := r.snapshotValues()
	if len(values) != len(want) {
		t.Fatalf("the sampler reports %d series, the test registered %d", len(values), len(want))
	}
	for key := range values {
		name, labels, err := SplitKey(key)
		if err != nil {
			t.Fatalf("SplitKey(%q): %v", key, err)
		}
		if SeriesKey(name, labels...) != key || !slices.Equal(labels, want[key]) {
			t.Fatalf("SplitKey(%q) = %q %q, built from %q", key, name, labels, want[key])
		}
	}

	var text bytes.Buffer
	if err := r.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	series, err := ParseText(&text)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(values) {
		t.Fatalf("ParseText read %d series, the sampler reports %d", len(series), len(values))
	}
	for _, s := range series {
		key := SeriesKey(s.Name, s.Labels...)
		v, ok := values[key]
		if !ok || v != s.Value || !slices.Equal(s.Labels, want[key]) {
			t.Fatalf("ParseText read %q %q = %v; the sampler has %v (present %v) under labels %q",
				s.Name, s.Labels, s.Value, v, ok, want[key])
		}
	}
}

// TestParseRejectsMalformed: input the writer cannot have produced is an
// error, not a series with a guessed value.
func TestParseRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		`softmem_x{a="b" 1`, `softmem_x{a=b} 1`, `softmem_x{a="b"`, `softmem_x{a="b\"} 1`,
		`softmem_x{} 1`, `softmem_x`, `softmem_x one`, `softmem_x{a="b"}`,
	} {
		if got, err := ParseText(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("ParseText(%q) = %+v, want an error", line, got)
		}
	}
	for _, key := range []string{`softmem_x{a="b"} 1`, `softmem_x 1`, `softmem_x{a="b",}`, `softmem_x{a="b"}}`} {
		if name, labels, err := SplitKey(key); err == nil {
			t.Errorf("SplitKey(%q) = %q %q, want an error", key, name, labels)
		}
	}
	got, err := ParseText(strings.NewReader("# HELP x y\n\nsoftmem_x{a=\"b\"} 3 1700000000\nsoftmem_y +Inf\n"))
	if err != nil || len(got) != 2 || got[0].Value != 3 || !slices.Equal(got[0].Labels, []Label{{"a", "b"}}) || got[1].Name != "softmem_y" {
		t.Errorf("ParseText = %+v, %v", got, err)
	}
}
