package main

import (
	"maps"
	"regexp"
	"slices"
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/ipc"
	"softmem/internal/pages"
	"softmem/internal/smd"
)

// The interposer must offer the daemon and the ipc client everything an
// SMA offers them; these fail to compile the day it drops one.
var (
	_ ipc.TracedDemandTarget = (*demandTap)(nil)
	_ ipc.BudgetShrinkTarget = (*demandTap)(nil)
	_ smd.TracedTarget       = (*demandTap)(nil)
	_ smd.BudgetShrinker     = (*demandTap)(nil)
)

// testOps is a short fixed op count per workload; with scale 4 it covers
// two churn periods and, on kv_squeeze, a stretch of the antagonist's
// cycle in which it allocates, forces reclamation and frees.
var testOps = map[string]int64{
	"sma_churn":           1 << 15,
	"kv_direct_mixed":     20_000,
	"resp_read_pipelined": 16 * 500,
	"kv_squeeze":          10_000,
}

func testConfig(t *testing.T, w workload, seed int64) config {
	return config{seed: seed, ops: testOps[w.name], scale: 4, rung: 2 * time.Millisecond, outDir: t.TempDir()}
}

func names(ms []boundedMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	slices.Sort(out)
	return out
}

// TestMetricsMatchManifest runs every workload both ways and checks, in
// both directions, that what it emits is what BENCHMARK.json lists.
func TestMetricsMatchManifest(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(man.Workloads), len(workloads))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := map[string]string{}
	for _, m := range slices.Concat(man.EndToEnd, man.PerLayer) {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", m.Name)
		}
		units[m.Name] = m.Unit
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, man.Workloads[i].Name, man.Workloads[i].Why, w.name, w.why)
		}
		for _, traced := range []bool{false, true} {
			c := testConfig(t, w, 1)
			c.traced = traced
			res, err := runWorkload(w, c)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: failed=%d problems=%v", w.name, traced, res.Failed, res.problems)
			}
			want := names(man.EndToEnd)
			if traced {
				want = names(man.PerLayer)
			}
			if got := slices.Sorted(maps.Keys(res.Metrics)); !slices.Equal(got, want) {
				t.Errorf("%s traced=%v emits\n%v\nBENCHMARK.json lists\n%v", w.name, traced, got, want)
			}
			for name, m := range res.Metrics {
				if m.Unit != units[name] {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, units[name])
				}
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %g; it must never be 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestSeedDeterminesInputs: the same seed gives the same op streams and
// the same single-driver counts; another seed gives other streams.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		run := func(seed int64) result {
			res, err := runWorkload(w, testConfig(t, w, seed))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b, other := run(1), run(1), run(2)
		if a.streamHash != b.streamHash {
			t.Errorf("%s: seed 1 gave stream hashes %x and %x", w.name, a.streamHash, b.streamHash)
		}
		if a.streamHash == other.streamHash {
			t.Errorf("%s: seeds 1 and 2 gave the same stream hash %x", w.name, a.streamHash)
		}
		switch w.name {
		case "resp_read_pipelined":
			if a.hits != b.hits || a.hits != testOps[w.name] {
				t.Errorf("%s: hit counts %d and %d, want %d both times", w.name, a.hits, b.hits, testOps[w.name])
			}
		case "kv_squeeze":
			if a.steps != b.steps || a.steps != testOps[w.name]/opsPerStep {
				t.Errorf("%s: antagonist step counts %d and %d, want %d both times", w.name, a.steps, b.steps, testOps[w.name]/opsPerStep)
			}
		}
	}
}

// TestInterposerKeepsBudgetCoherent: a slack harvest must reach the SMA
// behind the interposer, or the SMA keeps allocating against budget the
// daemon has already given to someone else.
func TestInterposerKeepsBudgetCoherent(t *testing.T) {
	const partition = 256
	machine := pages.NewPool(partition)
	daemon := smd.NewDaemon(smd.Config{TotalPages: partition})
	tp := &taps{rec: newRecorder()}
	attach := func(name string) (*core.SMA, *core.Context) {
		sma := core.New(core.Config{Machine: machine})
		sma.AttachDaemon(tp.client(daemon.Register(name, tp.target(sma)), noParent))
		t.Cleanup(sma.Close)
		return sma, sma.Register(name+"/ctx", 0, nil)
	}
	idle, idleCtx := attach("idle")
	if _, err := idleCtx.Alloc(pages.Size); err != nil { // one page used, a whole budget chunk granted
		t.Fatal(err)
	}
	granted := idle.Stats().BudgetPages
	if granted <= 1 {
		t.Fatalf("idle SMA holds %d pages of budget; the test needs slack to harvest", granted)
	}
	_, busyCtx := attach("busy")
	for range partition - granted + 1 { // one page more than the daemon has free
		if _, err := busyCtx.Alloc(pages.Size); err != nil {
			t.Fatal(err)
		}
	}
	if daemon.Stats().SlackPages == 0 {
		t.Fatal("no slack was harvested; the test did not exercise ShrinkBudget")
	}
	for _, p := range daemon.Snapshot() {
		if p.Name == "idle" && p.BudgetPages != idle.Stats().BudgetPages {
			t.Errorf("daemon says idle holds %d pages of budget, the SMA behind the interposer believes %d", p.BudgetPages, idle.Stats().BudgetPages)
		}
	}
	if len(tp.budgets[0].requests) == 0 {
		t.Error("the budget interposer saw no request")
	}
}

func TestValuesDetectCorruption(t *testing.T) {
	buf := make([]byte, maxValue)
	for _, size := range []int{valueHeader, 48, 256, 1000, 3000, maxValue} {
		v := putValue(buf, 42, 7, size)
		if !checkValue(v, 42) {
			t.Errorf("size %d: intact value rejected", size)
		}
		if checkValue(v, 43) {
			t.Errorf("size %d: value accepted under another key", size)
		}
		for _, i := range []int{0, 9, 13, size - 1} {
			v[i] ^= 1
			if checkValue(v, 42) {
				t.Errorf("size %d: flipped byte %d not detected", size, i)
			}
			v[i] ^= 1
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{2, 4})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of {2,4} = %g .. %g, want 1.5 .. 4.5", q1, q3)
	}
}
