package main

import (
	"slices"
	"strings"
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/metrics"
)

// history builds a dump of one snapshot per values map, a second apart.
func history(base time.Time, values ...map[string]float64) metrics.HistoryDump {
	hist := metrics.HistoryDump{IntervalNs: time.Second.Nanoseconds()}
	for i, v := range values {
		hist.Snapshots = append(hist.Snapshots, metrics.HistorySnapshot{
			UnixNs: base.Add(time.Duration(i) * time.Second).UnixNano(), Values: v})
	}
	return hist
}

// TestCounterRateClampsResets is the regression test for the `smdctl
// top` rate bug: a counter that went backwards between snapshots (the
// serving process restarted and its counters reset to zero) must render
// as a zero rate, never a negative one.
func TestCounterRateClampsResets(t *testing.T) {
	if got := counterRate(5, 1500, time.Second); got != 0 {
		t.Errorf("rate after counter reset = %v, want 0", got)
	}
	if got := counterRate(10, 4, 2*time.Second); got != 3 {
		t.Errorf("rate = %v, want 3", got)
	}
	if got := counterRate(10, 4, 0); got != 0 {
		t.Errorf("rate with zero elapsed = %v, want 0", got)
	}
	if got := counterRate(10, 4, -time.Second); got != 0 {
		t.Errorf("rate with negative elapsed = %v, want 0", got)
	}
}

// TestSnapshotLookup: a history snapshot is looked up by series name and
// labels in any order, under the key the sampler spelled.
func TestSnapshotLookup(t *testing.T) {
	v := snapshot{
		"softmem_kv_gets_total":                             42,
		`softmem_kv_cmd_ns{cmd="GET",quantile="0.99"}`:      1234,
		`softmem_smd_proc_pages{name="k\"v",proc="p:1234"}`: 7,
	}
	if got := v.get("softmem_kv_gets_total"); got != 42 {
		t.Errorf("plain sample = %v, want 42", got)
	}
	if got := v.get("softmem_kv_cmd_ns", "cmd", "GET", "quantile", "0.99"); got != 1234 {
		t.Errorf("labeled sample = %v, want 1234", got)
	}
	if got := v.get("softmem_smd_proc_pages", "proc", "p:1234", "name", `k"v`); got != 7 {
		t.Errorf("multi-label sample = %v, want 7", got)
	}
}

func TestTopViewsRatesFromHistory(t *testing.T) {
	var snaps []map[string]float64
	for _, gets := range []float64{100, 400, 1400} {
		snaps = append(snaps, map[string]float64{"softmem_kv_gets_total": gets})
	}
	view, prev, elapsed := topViews(history(time.Unix(1000, 0), snaps...))
	if prev == nil {
		t.Fatal("prev view nil with 3 snapshots")
	}
	if elapsed != time.Second {
		t.Fatalf("elapsed = %v, want 1s", elapsed)
	}
	// Rates come from the last two snapshots: (1400-400)/1s.
	cur, before := view.get("softmem_kv_gets_total"), prev.get("softmem_kv_gets_total")
	if got := counterRate(cur, before, elapsed); got != 1000 {
		t.Errorf("gets/s = %v, want 1000", got)
	}
}

func TestTopViewsDegradesGracefully(t *testing.T) {
	view, prev, elapsed := topViews(metrics.HistoryDump{})
	if view == nil {
		t.Fatal("view must be non-nil on an empty history")
	}
	if prev != nil || elapsed != 0 {
		t.Errorf("empty history: prev=%v elapsed=%v, want nil/0", prev, elapsed)
	}
	view, prev, _ = topViews(history(time.Unix(0, 1), map[string]float64{"softmem_smd_free_pages": 9}))
	if prev != nil {
		t.Error("single snapshot should give no prev view")
	}
	if got := view.get("softmem_smd_free_pages"); got != 9 {
		t.Errorf("free pages = %v, want 9", got)
	}
}

// TestTopEpochGauges pins how top surfaces the SMA epoch telemetry: the
// has() gate keys the epoch line off softmem_sma_epoch_global (absent
// from the daemon's own registry), and the deferred-pages rate uses the
// same history window as every other counter rate.
func TestTopEpochGauges(t *testing.T) {
	var snaps []map[string]float64
	for i, deferred := range []float64{100, 160} {
		snaps = append(snaps, map[string]float64{
			"softmem_sma_epoch_global":               41 + float64(i),
			"softmem_sma_epoch_lag":                  2,
			"softmem_sma_epoch_deferred_pages_total": deferred,
		})
	}
	view, prev, elapsed := topViews(history(time.Unix(2000, 0), snaps...))
	if !view.has("softmem_sma_epoch_global") {
		t.Fatal("has() must see the epoch gauge in an SMA-hosting scrape")
	}
	if view.has("softmem_smd_budget_pages") {
		t.Fatal("has() invented a series the scrape does not carry")
	}
	if got := view.get("softmem_sma_epoch_lag"); got != 2 {
		t.Errorf("epoch lag = %v, want 2", got)
	}
	cur, before := view.get("softmem_sma_epoch_deferred_pages_total"), prev.get("softmem_sma_epoch_deferred_pages_total")
	if got := counterRate(cur, before, elapsed); got != 60 {
		t.Errorf("deferred pages rate = %v/s, want 60", got)
	}
}

func TestRenderQoSVictimOrderTable(t *testing.T) {
	body := []byte(`{"qos":[
		{"id":2,"name":"antagonist","tenant":"batch","class":0,"slo_ms":1000,"stall_ratio":0,"pressure":0,"budget_pages":30,"used_pages":30,"demanded_pages":20,"released_pages":20,"slack_pages":0},
		{"id":1,"name":"frontend","tenant":"frontend","class":2,"slo_ms":10,"stall_ratio":0.05,"pressure":1.5,"budget_pages":60,"used_pages":60,"demanded_pages":0,"released_pages":0,"slack_pages":0}
	]}`)
	var b strings.Builder
	if err := printQoS(&b, body, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"victim order", "antagonist", "frontend", "batch", "1.500", "5.00%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("renderQoS output missing %q:\n%s", want, out)
		}
	}
	// The payload arrives in victim order; the table must preserve it
	// (antagonist, the next reclaim target, first).
	if strings.Index(out, "antagonist") > strings.Index(out, "frontend") {
		t.Fatalf("victim order not preserved:\n%s", out)
	}
	b.Reset()
	if err := printQoS(&b, []byte(`{"qos":[]}`), nil); err != nil || !strings.Contains(b.String(), "no processes") {
		t.Fatalf("empty payload render = %q, %v", b.String(), err)
	}
}

func TestSDSSpanLines(t *testing.T) {
	for _, tc := range []struct {
		name string
		sp   core.DemandSpan
		want []string
	}{
		{"no ages", core.DemandSpan{Name: "list", Pages: 2, Allocs: 5, DurNs: 3000},
			[]string{"sds list: 2 pages, 5 allocs revoked (2.5/page) in 3µs"}},
		{"in order", core.DemandSpan{Name: "kvstore/0", Pages: 16, Allocs: 64, DurNs: 412000, VictimAges: core.VictimAges{OldestVictim: 1, NewestVictim: 64, OldestSurvivor: 65}},
			[]string{"sds kvstore/0: 16 pages, 64 allocs revoked (4.0/page) in 412µs", "  victims aged 1..64, oldest survivor 65"}},
		{"a page mate", core.DemandSpan{Name: "kvstore/0", Pages: 1, Allocs: 4, VictimAges: core.VictimAges{OldestVictim: 10, NewestVictim: 14, OldestSurvivor: 11}},
			[]string{"sds kvstore/0: 1 pages, 4 allocs revoked (4.0/page) in 0s", "  victims aged 10..14, oldest survivor 11"}},
		{"far apart", core.DemandSpan{Name: "kvstore/1", Pages: 2, Allocs: 8, VictimAges: core.VictimAges{OldestVictim: 10, NewestVictim: 900, OldestSurvivor: 12}},
			[]string{"sds kvstore/1: 2 pages, 8 allocs revoked (4.0/page) in 0s",
				"  victims aged 10..900, oldest survivor 12  <- newest victim is 888 entries younger than the oldest survivor, a page holds 4"}},
		{"emptied", core.DemandSpan{Name: "kvstore", Pages: 1, Allocs: 3, VictimAges: core.VictimAges{OldestVictim: 1, NewestVictim: 3}},
			[]string{"sds kvstore: 1 pages, 3 allocs revoked (3.0/page) in 0s", "  victims aged 1..3, nothing left behind"}},
		{"frees but no page yet", core.DemandSpan{Name: "q", Allocs: 2},
			[]string{"sds q: 0 pages, 2 allocs revoked in 0s"}},
	} {
		if got := sdsSpanLines(tc.sp); !slices.Equal(got, tc.want) {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
