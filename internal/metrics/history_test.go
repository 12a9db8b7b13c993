package metrics

import (
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestHistoryFirstSampleSynchronous: StartHistory must leave a usable
// snapshot behind before returning, so /metrics/history is never empty
// even if scraped immediately after boot.
func TestHistoryFirstSampleSynchronous(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_ops_total", "ops", func() int64 { return 7 })
	r.GaugeFunc("test_depth", "depth", func() float64 { return 3 })
	h := r.StartHistory(time.Hour, 8) // ticker never fires in this test
	defer h.Close()

	dump := h.Dump()
	if dump.IntervalNs != time.Hour.Nanoseconds() {
		t.Errorf("IntervalNs = %d, want %d", dump.IntervalNs, time.Hour.Nanoseconds())
	}
	if len(dump.Snapshots) != 1 {
		t.Fatalf("snapshots = %d, want 1 (synchronous first sample)", len(dump.Snapshots))
	}
	v := dump.Snapshots[0].Values
	if v["test_ops_total"] != 7 {
		t.Errorf("test_ops_total = %v, want 7", v["test_ops_total"])
	}
	if v["test_depth"] != 3 {
		t.Errorf("test_depth = %v, want 3", v["test_depth"])
	}
	if dump.Snapshots[0].UnixNs == 0 {
		t.Error("snapshot carries no timestamp")
	}
}

// TestHistoryKeysMatchExposition: history keys must be spelled exactly
// like the text exposition — labeled series with sorted labels, and
// histogram families flattened into quantile, _sum, and _count series —
// so smdctl can treat one snapshot like one scrape.
func TestHistoryKeysMatchExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_cmds_total", "per-command counter", func() int64 { return 2 },
		Label{Name: "cmd", Value: "GET"})
	hist := r.Histogram("test_lat_ns", "latency")
	hist.Observe(1000)
	hist.Observe(1000)
	h := r.StartHistory(time.Hour, 8)
	defer h.Close()

	v := h.Dump().Snapshots[0].Values
	for _, key := range []string{
		`test_cmds_total{cmd="GET"}`,
		`test_lat_ns{quantile="0.5"}`,
		`test_lat_ns{quantile="0.9"}`,
		`test_lat_ns{quantile="0.99"}`,
		"test_lat_ns_sum",
		"test_lat_ns_count",
	} {
		if _, ok := v[key]; !ok {
			t.Errorf("snapshot is missing key %q (have %v)", key, v)
		}
	}
	if v["test_lat_ns_count"] != 2 {
		t.Errorf("test_lat_ns_count = %v, want 2", v["test_lat_ns_count"])
	}
	if v[`test_cmds_total{cmd="GET"}`] != 2 {
		t.Errorf(`test_cmds_total{cmd="GET"} = %v, want 2`, v[`test_cmds_total{cmd="GET"}`])
	}
}

// TestHistoryRingWrapsOldestFirst: the ring keeps only the last `size`
// snapshots and Dump returns them oldest first, so consumers can diff
// adjacent snapshots without re-sorting.
func TestHistoryRingWrapsOldestFirst(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.CounterFunc("test_ticks_total", "ticks", c.Value)
	h := r.StartHistory(time.Hour, 3)
	defer h.Close()

	// The synchronous first sample saw 0; drive five more by hand so the
	// 3-slot ring wraps (sample is the same method the ticker calls).
	for i := 1; i <= 5; i++ {
		c.Inc()
		h.sample(time.Unix(0, int64(i)))
	}
	dump := h.Dump()
	if len(dump.Snapshots) != 3 {
		t.Fatalf("snapshots = %d, want ring size 3", len(dump.Snapshots))
	}
	for i, want := range []float64{3, 4, 5} {
		if got := dump.Snapshots[i].Values["test_ticks_total"]; got != want {
			t.Errorf("snapshot[%d] test_ticks_total = %v, want %v", i, got, want)
		}
	}
	if !(dump.Snapshots[0].UnixNs < dump.Snapshots[1].UnixNs &&
		dump.Snapshots[1].UnixNs < dump.Snapshots[2].UnixNs) {
		t.Errorf("snapshots not oldest first: %+v", dump.Snapshots)
	}
}

// TestHistoryTickerSamples: the background sampler actually runs.
func TestHistoryTickerSamples(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_ops_total", "ops", func() int64 { return 0 })
	h := r.StartHistory(5*time.Millisecond, 16)
	defer h.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(h.Dump().Snapshots) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("sampler produced %d snapshots in 5s, want >= 3",
				len(h.Dump().Snapshots))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHistoryCloseIdempotent: Close must stop the sampler and tolerate
// being called again (both softkv's defer and an explicit shutdown path
// may reach it).
func TestHistoryCloseIdempotent(t *testing.T) {
	r := NewRegistry()
	h := r.StartHistory(time.Millisecond, 4)
	h.Close()
	h.Close()
	n := len(h.Dump().Snapshots)
	time.Sleep(10 * time.Millisecond)
	if got := len(h.Dump().Snapshots); got != n {
		t.Errorf("sampler still running after Close: %d -> %d snapshots", n, got)
	}
}

// TestHistoryConcurrentRegisterAndDump mirrors the registry's
// concurrent-scrape test for the sampler: snapshots must not race
// instruments minted at runtime (first-seen label values). Run under
// -race by `make race`.
func TestHistoryConcurrentRegisterAndDump(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r := NewRegistry()
	h := r.StartHistory(time.Microsecond, 8) // sample as fast as the ticker allows
	defer h.Close()
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
				h.Dump()
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		r.Histogram("test_runtime_ns", "runtime-labeled series",
			Label{Name: "cmd", Value: strconv.Itoa(i)}).Observe(float64(i))
		r.CounterFunc("test_runtime_total", "runtime-labeled counter", func() int64 { return 1 },
			Label{Name: "cmd", Value: strconv.Itoa(i)})
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	h.sample(time.Now())
	v := h.Dump().Snapshots[len(h.Dump().Snapshots)-1].Values
	if _, ok := v[`test_runtime_total{cmd="1999"}`]; !ok {
		t.Error("runtime-registered counter missing from final snapshot")
	}
}
