package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// mkJob builds a clusterJob tersely.
func mkJob(id int, arrive, run time.Duration, pri priority, mem int, softFrac float64) clusterJob {
	return clusterJob{ID: id, Arrival: arrive, Runtime: run, Priority: pri, MemPages: mem, SoftFrac: softFrac}
}

// fireOrder pushes one event per time in at and returns the indexes of
// at in the order run fired them.
func fireOrder(at ...time.Duration) []int {
	var q eventQueue
	var order []int
	for i, a := range at {
		q.push(a, func() { order = append(order, i) })
	}
	q.run()
	return order
}

func TestEventQueueTimeOrder(t *testing.T) {
	got := fireOrder(3*time.Second, time.Second, 2*time.Second)
	if !slices.Equal(got, []int{1, 2, 0}) {
		t.Fatalf("fired %v, want [1 2 0]", got)
	}
}

func TestEventQueueEqualTimesFIFO(t *testing.T) {
	got := fireOrder(time.Second, time.Second, time.Second, time.Second, time.Second)
	if !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("fired %v, want FIFO [0 1 2 3 4]", got)
	}
}

func TestEventQueueEventSeesItsTime(t *testing.T) {
	var q eventQueue
	at := time.Duration(-1)
	q.push(7*time.Second, func() { at = q.now })
	q.run()
	if at != 7*time.Second {
		t.Fatalf("event saw now=%v, want 7s", at)
	}
}

func TestEventQueueCascadingEvents(t *testing.T) {
	var q eventQueue
	var seen []time.Duration
	count := 0
	var again func()
	again = func() {
		seen = append(seen, q.now)
		if count++; count < 4 {
			q.push(q.now+time.Second, again)
		}
	}
	q.push(time.Second, again)
	q.run()
	if len(seen) != 4 {
		t.Fatalf("cascade fired %d times, want 4", len(seen))
	}
	for i, at := range seen {
		if want := time.Duration(1+i) * time.Second; at != want {
			t.Fatalf("event %d saw now=%v, want %v", i, at, want)
		}
	}
}

func TestEventQueuePastEventFiresNow(t *testing.T) {
	var q eventQueue
	at := time.Duration(-1)
	q.push(5*time.Second, func() {
		q.push(time.Second, func() { at = q.now })
	})
	q.run()
	if at != 5*time.Second {
		t.Fatalf("past-pushed event fired at %v, want 5s", at)
	}
}

func TestClusterTraceDeterministic(t *testing.T) {
	a, b := clusterTrace(3, 0.6), clusterTrace(3, 0.6)
	if len(a) != clusterJobs || len(b) != clusterJobs {
		t.Fatalf("lengths %d/%d, want %d", len(a), len(b), clusterJobs)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between identical seeds", i)
		}
	}
}

func TestClusterTraceSortedByArrival(t *testing.T) {
	jobs := clusterTrace(9, 0.5)
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Arrival < jobs[i-1].Arrival ||
			jobs[i].Arrival == jobs[i-1].Arrival && jobs[i].ID < jobs[i-1].ID {
			t.Fatalf("jobs not sorted by (arrival, ID) at index %d", i)
		}
	}
}

func TestClusterTraceFieldsValid(t *testing.T) {
	for _, j := range clusterTrace(11, 1.0) {
		if j.Runtime < time.Second {
			t.Fatalf("job %d runtime %v < 1s floor", j.ID, j.Runtime)
		}
		if j.MemPages < 1 {
			t.Fatalf("job %d has %d pages", j.ID, j.MemPages)
		}
		if j.Arrival < 0 || j.Arrival >= clusterHorizon {
			t.Fatalf("job %d arrival %v outside horizon", j.ID, j.Arrival)
		}
		if j.SoftFrac != clusterSoftFrac {
			t.Fatalf("job %d SoftFrac = %v with full adoption", j.ID, j.SoftFrac)
		}
	}
}

func TestClusterTracePriorityMix(t *testing.T) {
	counts := map[priority]int{}
	for _, j := range clusterTrace(21, 0) {
		counts[j.Priority]++
	}
	// 60% of 400 jobs at batch priority.
	if counts[priBatch] < 200 || counts[priBatch] > 280 {
		t.Fatalf("batch count %d implausible for %v fraction", counts[priBatch], clusterBatchFrac)
	}
	if counts[priProd] == 0 || counts[priCritical] == 0 {
		t.Fatalf("missing priority tiers: %v", counts)
	}
}

func TestClusterTraceAdoptionOnlyChangesSoftFrac(t *testing.T) {
	none, all := clusterTrace(5, 0), clusterTrace(5, 1)
	for i := range none {
		if none[i].SoftFrac != 0 {
			t.Fatalf("job %d opted in at zero adoption", none[i].ID)
		}
		none[i].SoftFrac = all[i].SoftFrac
		if none[i] != all[i] {
			t.Fatalf("job %d differs beyond SoftFrac between adoptions", i)
		}
	}
}

func TestSingleJobCompletes(t *testing.T) {
	jobs := []clusterJob{mkJob(0, 0, time.Minute, priBatch, 100, 0)}
	res := simulateCluster(false, 1, 1000, jobs)
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

func TestUtilizationTracked(t *testing.T) {
	jobs := []clusterJob{mkJob(0, 0, time.Minute, priBatch, 500, 0)}
	res := simulateCluster(false, 1, 1000, jobs)
	if res.MeanUtilPct <= 0 || res.MeanUtilPct > 100 {
		t.Fatalf("MeanUtilPct = %v", res.MeanUtilPct)
	}
}

func TestBaselineEvictsLowPriority(t *testing.T) {
	jobs := []clusterJob{
		mkJob(0, 0, 10*time.Minute, priBatch, 800, 0),
		mkJob(1, time.Minute, time.Minute, priProd, 800, 0),
	}
	res := simulateCluster(false, 1, 1000, jobs)
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
	jobs := []clusterJob{
		mkJob(0, 0, 5*time.Minute, priProd, 800, 0),
		mkJob(1, time.Minute, time.Minute, priProd, 800, 0),
	}
	res := simulateCluster(false, 1, 1000, jobs)
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
	jobs := []clusterJob{
		// Batch job: 1000 pages, half soft -> 500 traditional + 500 soft.
		mkJob(0, 0, 10*time.Minute, priBatch, 1000, 0.5),
		// Prod job needs 400 traditional pages; machine has 0 free but
		// 500 squeezable.
		mkJob(1, time.Minute, time.Minute, priProd, 400, 0),
	}
	res := simulateCluster(true, 1, 1000, jobs)
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
	jobs := []clusterJob{
		mkJob(0, 0, 20*time.Minute, priBatch, 1000, 0.5),
		mkJob(1, time.Minute, time.Minute, priProd, 500, 0),
	}
	res := simulateCluster(true, 1, 1000, jobs)
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
	jobs := []clusterJob{
		mkJob(0, 0, 10*time.Minute, priBatch, 1000, 0.5),
		mkJob(1, 0, 100*time.Minute, priProd, 500, 0), // permanent pressure
	}
	res := simulateCluster(true, 1, 1000, jobs)
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
	jobs := []clusterJob{mkJob(0, 0, time.Minute, priBatch, 99999, 0)}
	res := simulateCluster(false, 1, 100, jobs)
	if res.Completed != 1 {
		t.Fatalf("oversize job never completed: %+v", res)
	}
}

func TestClusterDeterministicAcrossRuns(t *testing.T) {
	jobs := clusterTrace(42, 0.8)
	a := simulateCluster(true, clusterMachines, clusterPagesPerMachine, jobs)
	b := simulateCluster(true, clusterMachines, clusterPagesPerMachine, jobs)
	if a != b {
		t.Fatalf("non-deterministic results:\n%+v\n%+v", a, b)
	}
}

func TestSoftBeatsBaselineUnderPressure(t *testing.T) {
	// The paper's headline claim (E6): on E6's contended cluster, the
	// soft scheduler evicts less and wastes less CPU.
	jobs := clusterTrace(7, 0.9)
	base := simulateCluster(false, clusterMachines, clusterPagesPerMachine, jobs)
	soft := simulateCluster(true, clusterMachines, clusterPagesPerMachine, jobs)
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
}

// TestClusterExperimentShape checks E6's sweep: zero adoption squeezes
// nothing, and full adoption evicts less and wastes less CPU than the
// baseline.
func TestClusterExperimentShape(t *testing.T) {
	res := Cluster()
	zero, full := res.Rows[0], res.Rows[len(res.Rows)-1]
	if zero.Adoption != 0 || full.Adoption != 1 {
		t.Fatalf("sweep runs %v..%v, want 0..1", zero.Adoption, full.Adoption)
	}
	if res.Baseline.Evictions == 0 {
		t.Fatal("baseline trace not contended")
	}
	// Zero adoption behaves like the baseline (the soft scheduler can't
	// squeeze anything it wasn't given).
	if zero.Result.SoftReclaimed != 0 {
		t.Fatal("zero-adoption run reclaimed soft memory")
	}
	if full.Result.Evictions >= res.Baseline.Evictions {
		t.Fatalf("soft@100%% evictions %d not below baseline %d", full.Result.Evictions, res.Baseline.Evictions)
	}
	if full.Result.WastedCPU >= res.Baseline.WastedCPU {
		t.Fatalf("soft wasted %v >= baseline %v", full.Result.WastedCPU, res.Baseline.WastedCPU)
	}
}

func TestSoftJobsScheduleSooner(t *testing.T) {
	// The paper's §2 incentive: "jobs employing soft memory will benefit
	// from higher likelihood of being scheduled". With half the jobs
	// opted in on a contended cluster, opted-in jobs (smaller rigid
	// footprint, squeezable neighbours) place faster at the tail.
	res := simulateCluster(true, clusterMachines, clusterPagesPerMachine, clusterTrace(13, 0.5))
	if res.Completed != clusterJobs {
		t.Fatalf("completed %d of %d", res.Completed, clusterJobs)
	}
	if res.P95QueueSoft >= res.P95QueueHard {
		t.Fatalf("soft jobs queue p95 %v not below hard jobs %v",
			res.P95QueueSoft, res.P95QueueHard)
	}
}

// TestSeededResultsPinned pins one seeded baseline and one soft run to
// exact results, so a change in event order (time, then FIFO among equal
// times), in the trace or in the model fails here.
func TestSeededResultsPinned(t *testing.T) {
	jobs := clusterTrace(7, 0.9)
	for _, tc := range []struct {
		soft bool
		want ClusterRun
	}{
		{false, ClusterRun{Completed: 400, Evictions: 143, WastedCPU: 41990801117707,
			MeanSlowdown: 6.500841252207218, P95QueueDelay: 1875396656410,
			P95QueueHard: 1875396656410, MeanUtilPct: 89.00097968649975,
			MakespanEnd: 15160639841660, UnplacedRounds: 5166}},
		{true, ClusterRun{Completed: 400, Evictions: 15, WastedCPU: 5925014436823,
			SoftReclaimed: 25538, SoftRestored: 34262, MeanSlowdown: 1.4586852373294321,
			P95QueueDelay: 33970796078, P95QueueSoft: 1, P95QueueHard: 101436253557,
			MeanUtilPct: 89.99787097042208, MakespanEnd: 13621162658765, UnplacedRounds: 254}},
	} {
		got := simulateCluster(tc.soft, clusterMachines, clusterPagesPerMachine, jobs)
		if got != tc.want {
			t.Errorf("soft=%v:\n got %#v\nwant %#v", tc.soft, got, tc.want)
		}
	}
}

// TestClusterTableDocumented checks that EXPERIMENTS.md's E6 block is
// what `softbench -experiment cluster` prints.
func TestClusterTableDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, e6, ok := strings.Cut(string(doc), "\n## E6 ")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no E6 section")
	}
	_, block, ok := strings.Cut(e6, "```\n")
	block, _, closed := strings.Cut(block, "```\n")
	if !ok || !closed {
		t.Fatal("EXPERIMENTS.md's E6 section has no code block")
	}
	var sb strings.Builder
	Cluster().Fprint(&sb)
	if got := sb.String(); got != block {
		t.Fatalf("EXPERIMENTS.md's E6 block differs from the rendered table:\n--- documented\n%s--- rendered\n%s", block, got)
	}
}
