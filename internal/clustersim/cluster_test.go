package clustersim

import (
	"testing"
	"time"

	"softmem/internal/trace"
)

// mkJob builds a trace.Job tersely.
func mkJob(id int, arrive, run time.Duration, pri trace.Priority, mem int, softFrac float64) trace.Job {
	return trace.Job{ID: id, Arrival: arrive, Runtime: run, Priority: pri, MemPages: mem, SoftFrac: softFrac}
}

func TestSingleJobCompletes(t *testing.T) {
	jobs := []trace.Job{mkJob(0, 0, time.Minute, trace.Batch, 100, 0)}
	res := New(Config{Kind: Baseline, Machines: 1, PagesPerMachine: 1000}, jobs).Run()
	if res.Completed != 1 || res.Evictions != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.MeanSlowdown < 0.99 || res.MeanSlowdown > 1.01 {
		t.Fatalf("slowdown = %v, want ~1.0 (uncontended)", res.MeanSlowdown)
	}
	if res.MakespanEnd != time.Minute {
		t.Fatalf("makespan = %v", res.MakespanEnd)
	}
}

func TestBaselineEvictsLowPriority(t *testing.T) {
	jobs := []trace.Job{
		mkJob(0, 0, 10*time.Minute, trace.Batch, 800, 0),
		mkJob(1, time.Minute, time.Minute, trace.Prod, 800, 0),
	}
	res := New(Config{Kind: Baseline, Machines: 1, PagesPerMachine: 1000}, jobs).Run()
	if res.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", res.Evictions)
	}
	// The batch job had done ~1 minute of work when killed.
	if res.WastedCPU < 50*time.Second || res.WastedCPU > 70*time.Second {
		t.Fatalf("wasted CPU = %v, want ~1m", res.WastedCPU)
	}
	// Both eventually finish.
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestBaselineNeverEvictsEqualOrHigher(t *testing.T) {
	jobs := []trace.Job{
		mkJob(0, 0, 5*time.Minute, trace.Prod, 800, 0),
		mkJob(1, time.Minute, time.Minute, trace.Prod, 800, 0),
	}
	res := New(Config{Kind: Baseline, Machines: 1, PagesPerMachine: 1000}, jobs).Run()
	if res.Evictions != 0 {
		t.Fatalf("equal-priority eviction happened: %+v", res)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d (second job should wait then run)", res.Completed)
	}
	if res.UnplacedRounds == 0 {
		t.Fatal("second job never recorded a failed placement")
	}
}

func TestSoftSqueezesInsteadOfKilling(t *testing.T) {
	jobs := []trace.Job{
		// Batch job: 1000 pages, half soft -> 500 traditional + 500 soft.
		mkJob(0, 0, 10*time.Minute, trace.Batch, 1000, 0.5),
		// Prod job needs 400 traditional pages; machine has 0 free but
		// 500 squeezable.
		mkJob(1, time.Minute, time.Minute, trace.Prod, 400, 0),
	}
	res := New(Config{Kind: Soft, Machines: 1, PagesPerMachine: 1000}, jobs).Run()
	if res.Evictions != 0 {
		t.Fatalf("soft scheduler evicted: %+v", res)
	}
	if res.SoftReclaimed == 0 {
		t.Fatal("no soft memory reclaimed")
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.WastedCPU != 0 {
		t.Fatalf("wasted CPU = %v, want 0", res.WastedCPU)
	}
}

func TestSoftRestoresAfterPressure(t *testing.T) {
	jobs := []trace.Job{
		mkJob(0, 0, 20*time.Minute, trace.Batch, 1000, 0.5),
		mkJob(1, time.Minute, time.Minute, trace.Prod, 500, 0),
	}
	res := New(Config{Kind: Soft, Machines: 1, PagesPerMachine: 1000}, jobs).Run()
	if res.SoftReclaimed == 0 {
		t.Fatal("no squeeze happened")
	}
	if res.SoftRestored == 0 {
		t.Fatal("soft memory never restored after the prod job finished")
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestSqueezeSlowsTheVictim(t *testing.T) {
	// slowdownPenalty 1.0, full squeeze -> rate 0.5: the batch job's
	// completion stretches while squeezed.
	jobs := []trace.Job{
		mkJob(0, 0, 10*time.Minute, trace.Batch, 1000, 0.5),
		mkJob(1, 0, 100*time.Minute, trace.Prod, 500, 0), // permanent pressure
	}
	res := New(Config{Kind: Soft, Machines: 1, PagesPerMachine: 1000}, jobs).Run()
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// Batch: fully squeezed immediately -> runs at 0.5 -> ~20 minutes.
	// MeanSlowdown averages batch (~2.0) and prod (~1.0).
	if res.MeanSlowdown < 1.3 || res.MeanSlowdown > 1.7 {
		t.Fatalf("mean slowdown = %v, want ~1.5", res.MeanSlowdown)
	}
}

func TestOversizeJobClamped(t *testing.T) {
	jobs := []trace.Job{mkJob(0, 0, time.Minute, trace.Batch, 99999, 0)}
	res := New(Config{Kind: Baseline, Machines: 1, PagesPerMachine: 100}, jobs).Run()
	if res.Completed != 1 {
		t.Fatalf("oversize job never completed: %+v", res)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	jobs := trace.GenerateJobs(trace.TraceConfig{
		Seed: 42, Jobs: 300, Horizon: time.Hour,
		MeanRuntime: 5 * time.Minute, MeanMemPages: 200,
		BatchFraction: 0.6, SoftFrac: 0.5, SoftAdoption: 0.8,
	})
	cfg := Config{Kind: Soft, Machines: 4, PagesPerMachine: 1000}
	a := New(cfg, jobs).Run()
	b := New(cfg, jobs).Run()
	if a != b {
		t.Fatalf("non-deterministic results:\n%+v\n%+v", a, b)
	}
}

func TestSoftBeatsBaselineUnderPressure(t *testing.T) {
	// The paper's headline claim (E6): with a contended cluster, the
	// soft scheduler avoids evictions and wastes no CPU.
	// Moderately contended: demand peaks exceed capacity (baseline must
	// evict) but the cluster is not in sustained overload — the regime
	// the paper's motivation targets.
	jobs := trace.GenerateJobs(trace.TraceConfig{
		Seed: 7, Jobs: 400, Horizon: 3 * time.Hour,
		MeanRuntime: 8 * time.Minute, MeanMemPages: 250,
		BatchFraction: 0.6, SoftFrac: 0.5, SoftAdoption: 0.9,
	})
	cfg := Config{Machines: 4, PagesPerMachine: 1200}
	base := New(Config{Kind: Baseline, Machines: cfg.Machines, PagesPerMachine: cfg.PagesPerMachine}, jobs).Run()
	soft := New(Config{Kind: Soft, Machines: cfg.Machines, PagesPerMachine: cfg.PagesPerMachine}, jobs).Run()

	if base.Completed != len(jobs) || soft.Completed != len(jobs) {
		t.Fatalf("not all jobs completed: base %d, soft %d of %d", base.Completed, soft.Completed, len(jobs))
	}
	if base.Evictions == 0 {
		t.Fatal("baseline saw no evictions; trace not contended enough for the comparison")
	}
	if soft.Evictions >= base.Evictions {
		t.Fatalf("soft evictions %d not below baseline %d", soft.Evictions, base.Evictions)
	}
	if soft.WastedCPU >= base.WastedCPU {
		t.Fatalf("soft wasted %v, baseline %v", soft.WastedCPU, base.WastedCPU)
	}
	t.Logf("baseline: %v", base)
	t.Logf("soft:     %v", soft)
}

func TestUtilizationTracked(t *testing.T) {
	jobs := []trace.Job{mkJob(0, 0, time.Minute, trace.Batch, 500, 0)}
	res := New(Config{Kind: Baseline, Machines: 1, PagesPerMachine: 1000}, jobs).Run()
	if res.MeanUtilPct <= 0 || res.MeanUtilPct > 100 {
		t.Fatalf("MeanUtilPct = %v", res.MeanUtilPct)
	}
}

func TestKindString(t *testing.T) {
	if Baseline.String() != "baseline" || Soft.String() != "soft" {
		t.Fatal("kind names wrong")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero machines accepted")
		}
	}()
	New(Config{Kind: Baseline}, nil)
}

func TestSoftJobsScheduleSooner(t *testing.T) {
	// The paper's §2 incentive: "jobs employing soft memory will benefit
	// from higher likelihood of being scheduled". With mixed adoption on
	// a contended cluster, opted-in jobs (smaller rigid footprint,
	// squeezable neighbours) place faster at the tail.
	jobs := trace.GenerateJobs(trace.TraceConfig{
		Seed: 13, Jobs: 400, Horizon: 3 * time.Hour,
		MeanRuntime: 8 * time.Minute, MeanMemPages: 250,
		BatchFraction: 0.6, SoftFrac: 0.5, SoftAdoption: 0.5, // half opt in
	})
	res := New(Config{Kind: Soft, Machines: 4, PagesPerMachine: 1200}, jobs).Run()
	if res.Completed != len(jobs) {
		t.Fatalf("completed %d of %d", res.Completed, len(jobs))
	}
	if res.P95QueueSoft >= res.P95QueueHard {
		t.Fatalf("soft jobs queue p95 %v not below hard jobs %v",
			res.P95QueueSoft, res.P95QueueHard)
	}
	t.Logf("p95 queue delay: soft-adopting %v vs non-adopting %v",
		res.P95QueueSoft, res.P95QueueHard)
}

// TestSeededResultsPinned pins one seeded Baseline and one Soft run to
// exact results, so a change in event order (time, then FIFO among equal
// times) or in the model fails here.
func TestSeededResultsPinned(t *testing.T) {
	jobs := trace.GenerateJobs(trace.TraceConfig{
		Seed: 7, Jobs: 400, Horizon: 3 * time.Hour,
		MeanRuntime: 8 * time.Minute, MeanMemPages: 250,
		BatchFraction: 0.6, SoftFrac: 0.5, SoftAdoption: 0.9,
	})
	for _, want := range []Result{
		{Kind: Baseline, Completed: 400, Evictions: 143, WastedCPU: 41990801117707,
			MeanSlowdown: 6.500841252207218, P95QueueDelay: 1875396656410,
			P95QueueHard: 1875396656410, MeanUtilPct: 89.00097968649975,
			MakespanEnd: 15160639841660, UnplacedRounds: 5166},
		{Kind: Soft, Completed: 400, Evictions: 15, WastedCPU: 5925014436823,
			SoftReclaimed: 25538, SoftRestored: 34262, MeanSlowdown: 1.4586852373294321,
			P95QueueDelay: 33970796078, P95QueueSoft: 1, P95QueueHard: 101436253557,
			MeanUtilPct: 89.99787097042208, MakespanEnd: 13621162658765, UnplacedRounds: 254},
	} {
		got := New(Config{Kind: want.Kind, Machines: 4, PagesPerMachine: 1200}, jobs).Run()
		if got != want {
			t.Errorf("%v:\n got %#v\nwant %#v", want.Kind, got, want)
		}
	}
}
