package metrics

import (
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRegistryPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("softmem_test_ops_total", "operations", func() int64 { return 3 }, Label{Name: "kind", Value: "get"})
	r.CounterFunc("softmem_test_ops_total", "operations", func() int64 { return 1 }, Label{Name: "kind", Value: "set"})
	r.GaugeFunc("softmem_test_pages", "pages in use", func() float64 { return 42 })
	r.GaugeFunc("softmem_test_budget", "budget", func() float64 { return 7.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP softmem_test_budget budget
# TYPE softmem_test_budget gauge
softmem_test_budget 7.5
# HELP softmem_test_ops_total operations
# TYPE softmem_test_ops_total counter
softmem_test_ops_total{kind="get"} 3
softmem_test_ops_total{kind="set"} 1
# HELP softmem_test_pages pages in use
# TYPE softmem_test_pages gauge
softmem_test_pages 42
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("softmem_test_weird", "has \\ and\nnewline", func() float64 { return 1 },
		Label{Name: "proc", Value: "a\\b\"c\nd"})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP softmem_test_weird has \\ and\nnewline
# TYPE softmem_test_weird gauge
softmem_test_weird{proc="a\\b\"c\nd"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

func TestRegistrySummaryExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("softmem_test_lat_ns", "latency")
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE softmem_test_lat_ns summary",
		`softmem_test_lat_ns{quantile="0.5"}`,
		`softmem_test_lat_ns{quantile="0.9"}`,
		`softmem_test_lat_ns{quantile="0.99"}`,
		"softmem_test_lat_ns_sum 100000",
		"softmem_test_lat_ns_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryCollectFunc(t *testing.T) {
	r := NewRegistry()
	r.CollectFunc("softmem_test_proc_pages", "per-proc pages", KindGauge, func() []Sample {
		return []Sample{
			{Labels: []Label{{Name: "proc", Value: "1"}, {Name: "name", Value: "kv"}}, Value: 10},
			{Labels: []Label{{Name: "proc", Value: "2"}, {Name: "name", Value: "batch"}}, Value: 20},
		}
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`softmem_test_proc_pages{name="kv",proc="1"} 10`,
		`softmem_test_proc_pages{name="batch",proc="2"} 20`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("softmem_test_x_ns", "x")
	b := r.Histogram("softmem_test_x_ns", "x")
	if a != b {
		t.Error("same (name, labels) should return the same instrument")
	}
	l1 := r.Histogram("softmem_test_x_ns", "x", Label{Name: "k", Value: "v"})
	if l1 == a {
		t.Error("different label set should return a distinct instrument")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("softmem_test_y_total", "y", func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("expected panic registering a gauge under a counter name")
		}
	}()
	r.GaugeFunc("softmem_test_y_total", "y", func() float64 { return 0 })
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9starts_with_digit", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for metric name %q", bad)
				}
			}()
			r.Histogram(bad, "")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for invalid label name")
			}
		}()
		r.Histogram("softmem_test_ok_ns", "", Label{Name: "bad-label", Value: "v"})
	}()
}

func TestRegistryDuplicateFuncPanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("softmem_test_g", "", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("expected panic re-registering a GaugeFunc")
		}
	}()
	r.GaugeFunc("softmem_test_g", "", func() float64 { return 1 })
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("softmem_test_h_total", "h", func() int64 { return 1 })

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
}

// Scrapes must not race instruments minted at runtime (first-seen label
// values, e.g. per-command latency series). GOMAXPROCS is raised and
// both sides yield so the interleaving shows up even on one core.
func TestRegistryConcurrentRegisterAndScrape(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r := NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				r.WritePrometheus(&strings.Builder{})
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		h := r.Histogram("test_runtime_ns", "runtime-labeled series",
			Label{Name: "cmd", Value: strconv.Itoa(i)})
		h.Observe(float64(i))
		r.CounterFunc("test_runtime_total", "runtime-labeled counter", func() int64 { return 1 },
			Label{Name: "cmd", Value: strconv.Itoa(i)})
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "test_runtime_ns_count") {
		t.Error("runtime-registered histogram missing from exposition")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(1.15)
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(1 + g*per + i))
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Errorf("Count = %d, want %d", got, goroutines*per)
	}
	if got := h.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := h.Max(); got != goroutines*per {
		t.Errorf("Max = %v, want %d", got, goroutines*per)
	}
}
