package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestFig2Shape(t *testing.T) {
	res := Fig2(Fig2Config{})
	// Before pressure: store at ~10 MiB, other near 0.
	if v := res.Store.At(5 * time.Second); v < 9.9 || v > 10.5 {
		t.Fatalf("store footprint at t=5s is %.2f MiB, want ~10", v)
	}
	if v := res.Other.At(5 * time.Second); v > 0.5 {
		t.Fatalf("other footprint at t=5s is %.2f MiB, want ~0", v)
	}
	// Pressure fires at the configured time.
	if res.PressureAt < 10*time.Second || res.PressureAt > 11*time.Second {
		t.Fatalf("pressure at %v", res.PressureAt)
	}
	// After reclamation: other holds 12 MiB, store dropped by ~2 MiB.
	end := res.ReclaimDone + 2*time.Second
	if v := res.Other.At(end); v < 11.9 {
		t.Fatalf("other footprint after reclaim = %.2f MiB, want ~12", v)
	}
	if v := res.Store.At(end); v > 8.5 || v < 7.0 {
		t.Fatalf("store footprint after reclaim = %.2f MiB, want ~8", v)
	}
	if res.ReclaimedMiB < 1.5 {
		t.Fatalf("reclaimed %.2f MiB, want ~2", res.ReclaimedMiB)
	}
	// Reclamation takes seconds (modelled cleanup), like the paper's
	// 3.75 s, and entries were revoked.
	dur := res.ReclaimDone - res.PressureAt
	if dur < time.Second || dur > 10*time.Second {
		t.Fatalf("reclamation took %v, want a few seconds", dur)
	}
	if res.ReclaimedEntries == 0 || res.DemandsServed == 0 {
		t.Fatalf("reclaim counters: %d entries, %d demands", res.ReclaimedEntries, res.DemandsServed)
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "Figure 2") {
		t.Fatal("Fprint output malformed")
	}
}

func TestFig2Deterministic(t *testing.T) {
	a := Fig2(Fig2Config{})
	b := Fig2(Fig2Config{})
	pa, pb := a.Store.Points(), b.Store.Points()
	if len(pa) != len(pb) {
		t.Fatalf("series lengths differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("series diverge at %d: %+v vs %+v", i, pa[i], pb[i])
		}
	}
}

func TestStress1And2SmallRun(t *testing.T) {
	const n = 20000
	r1 := Stress1(n)
	if r1.Allocs != n || r1.SMA <= 0 || r1.Baseline <= 0 {
		t.Fatalf("stress1 = %+v", r1)
	}
	// Ample budget means very few daemon round-trips.
	if r1.BudgetRequests > 3 {
		t.Fatalf("stress1 made %d budget requests, want <=3", r1.BudgetRequests)
	}
	r2 := Stress2(n)
	// Chunked growth: ~n/4/64 requests.
	if r2.BudgetRequests < 50 {
		t.Fatalf("stress2 made %d budget requests, want many (chunked)", r2.BudgetRequests)
	}
	// Micro-benchmark timings are too noisy for tight unit-test bounds;
	// assert order-of-magnitude sanity only (the real numbers come from
	// the benchmark harness at full scale).
	for _, r := range []StressResult{r1, r2} {
		if r.Ratio <= 0 || r.Ratio > 20 {
			t.Fatalf("%s ratio %.2fx implausible", r.Case, r.Ratio)
		}
	}
}

func TestStress3SmallRun(t *testing.T) {
	r := Stress3(20000, 10000)
	if r.PagesReclaimed == 0 {
		t.Fatal("no pages were reclaimed under pressure")
	}
	if r.SMA <= 0 || r.Baseline <= 0 || r.Ratio <= 0 {
		t.Fatalf("stress3 = %+v", r)
	}
	var sb strings.Builder
	FprintStressHeader(&sb)
	r.Fprint(&sb)
	if !strings.Contains(sb.String(), "reclaim under pressure") {
		t.Fatal("stress row malformed")
	}
}

func TestRestartComparison(t *testing.T) {
	// Reclaim a quarter of the cache; killing costs a full refill.
	r := Restart(RestartConfig{Entries: 65536, ReclaimMiB: 1})
	if r.ReclaimedEntries == 0 || r.ReclaimedPages == 0 {
		t.Fatalf("nothing reclaimed: %+v", r)
	}
	// The paper's qualitative claim: reclaiming part of the cache beats
	// killing and refilling everything.
	if r.Advantage <= 1 {
		t.Fatalf("kill path not more expensive: advantage %.2f", r.Advantage)
	}
	if r.KillCost < r.RestartDowntime {
		t.Fatal("kill cost excludes downtime")
	}
	var sb strings.Builder
	r.Fprint(&sb)
	if !strings.Contains(sb.String(), "reclaim vs. kill") {
		t.Fatal("restart output malformed")
	}
}

func TestAblateHeapPolicyShape(t *testing.T) {
	rows := AblateHeapPolicy(4, 2000, 256, 20)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	var perSDS, arbitrary, pagePer HeapPolicyRow
	for _, r := range rows {
		switch r.Policy {
		case "per-SDS heaps":
			perSDS = r
		case "shared heap, arbitrary":
			arbitrary = r
		case "page per allocation":
			pagePer = r
		}
	}
	// All policies satisfy the demand.
	for _, r := range rows {
		if r.PagesReleased < r.DemandPages {
			t.Fatalf("%s released %d of %d pages", r.Policy, r.PagesReleased, r.DemandPages)
		}
	}
	// The trade-off the paper describes (§3.1): arbitrary frees need far
	// more frees per page than localized per-SDS frees...
	if arbitrary.FreesPerPage <= perSDS.FreesPerPage*2 {
		t.Fatalf("arbitrary %.1f frees/page not >> per-SDS %.1f", arbitrary.FreesPerPage, perSDS.FreesPerPage)
	}
	// ...while page-per-allocation frees exactly one per page but wastes
	// copious space.
	if pagePer.FreesPerPage > 1.01 {
		t.Fatalf("page-per-alloc frees/page = %.2f, want 1", pagePer.FreesPerPage)
	}
	if pagePer.SpaceOverhead < 10 {
		t.Fatalf("page-per-alloc space overhead = %.1fx, want 16x for 256B elems", pagePer.SpaceOverhead)
	}
	// Per-SDS reclamation disturbs few structures (priority-ordered).
	if perSDS.SDSsDisturbed > 2 {
		t.Fatalf("per-SDS disturbed %d of 4 structures", perSDS.SDSsDisturbed)
	}
}

func TestAblatePolicyShape(t *testing.T) {
	rows := AblatePolicy(40, 50)
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9 (3 policies x 3 caps)", len(rows))
	}
	byKey := map[string]PolicyRow{}
	for _, r := range rows {
		byKey[r.Policy+string(rune('0'+r.TargetCap))] = r
	}
	// SoftShare targets the good citizen hardest (the disincentive the
	// paper rejects); Proportional shields it.
	prop := byKey["proportional3"]
	share := byKey["softshare3"]
	if share.GoodCitizenPg <= prop.GoodCitizenPg {
		t.Fatalf("softshare took %d from good citizen, proportional took %d; expected softshare >> proportional",
			share.GoodCitizenPg, prop.GoodCitizenPg)
	}
	var sb strings.Builder
	FprintPolicyHeader(&sb)
	for _, r := range rows {
		r.Fprint(&sb)
	}
	if !strings.Contains(sb.String(), "proportional") {
		t.Fatal("policy table malformed")
	}
}

func TestMLExperimentShape(t *testing.T) {
	res := ML(MLConfig{Samples: 500, SampleBytes: 2048, Epochs: 6, SqueezeEpoch: 3})
	if len(res.Epochs) != 6 {
		t.Fatalf("%d epochs", len(res.Epochs))
	}
	warm := res.Epochs[1]     // epoch 2: fully warm
	squeezed := res.Epochs[3] // epoch 4: right after the squeeze
	last := res.Epochs[5]     // recovered
	if warm.HitRate() != 1.0 {
		t.Fatalf("warm hit rate %.2f", warm.HitRate())
	}
	if squeezed.Time <= warm.Time {
		t.Fatalf("squeezed epoch %v not slower than warm %v", squeezed.Time, warm.Time)
	}
	if last.Time >= squeezed.Time {
		t.Fatalf("no recovery: last %v vs squeezed %v", last.Time, squeezed.Time)
	}
	if res.SqueezedPgs == 0 {
		t.Fatal("squeeze reclaimed nothing")
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "E9") {
		t.Fatal("ml output malformed")
	}
}

func TestSwapCompareCrossover(t *testing.T) {
	res := SwapCompare(SwapConfig{Entries: 512, Accesses: 512, Seed: 3})
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	var low, high SwapRow
	for _, r := range res.Rows {
		if r.Reref == 0 {
			low = r
		}
		if r.Reref == 1.0 {
			high = r
		}
	}
	// The paper's positioning: dropping wins when reclaimed data loses
	// its utility (no re-references)...
	if low.Winner != "drop" {
		t.Fatalf("at reref=0 winner = %s, want drop (rows: %+v)", low.Winner, res.Rows)
	}
	// ...and swapping wins when the data is all needed again and the
	// refetch is far more expensive than a fault.
	if high.Winner != "swap" {
		t.Fatalf("at reref=1 winner = %s, want swap (rows: %+v)", high.Winner, res.Rows)
	}
	// Drop cost grows monotonically with the re-reference rate.
	var prev SwapRow
	for i, r := range res.Rows {
		if i > 0 && r.DropCost < prev.DropCost {
			t.Fatalf("drop cost not monotone: %v then %v", prev, r)
		}
		prev = r
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "E10") {
		t.Fatal("swap output malformed")
	}
}

func TestFig2WriteCSV(t *testing.T) {
	res := Fig2(Fig2Config{MachineMiB: 5, StoreMiB: 3, OtherMiB: 3, PressureAt: time.Second, CleanupPerEntry: time.Microsecond})
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "time_s,store_mib,other_mib" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) < 10 {
		t.Fatalf("only %d CSV rows", len(lines))
	}
}

func TestReclaimLatencyShape(t *testing.T) {
	res := ReclaimLatency(LatencyConfig{
		Entries: 8192, Demands: []int{1, 16, 64}, CleanupWorks: []int{0, 500}, Trials: 5,
	})
	if len(res.Rows) != 6 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	byKey := map[[2]int]LatencyRow{}
	for _, r := range res.Rows {
		byKey[[2]int{r.DemandPages, r.CleanupWork}] = r
		if r.Latency <= 0 || r.Entries <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	// Bigger demands take longer in total.
	if byKey[[2]int{64, 0}].Latency < byKey[[2]int{1, 0}].Latency {
		t.Fatal("64-page demand faster than 1-page demand")
	}
	// Cleanup work dominates when present (the paper's Redis
	// observation): per-entry cost with work=500 exceeds work=0.
	if byKey[[2]int{64, 500}].PerEntry <= byKey[[2]int{64, 0}].PerEntry {
		t.Fatalf("cleanup work did not raise per-entry cost: %v vs %v",
			byKey[[2]int{64, 500}].PerEntry, byKey[[2]int{64, 0}].PerEntry)
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "E11") {
		t.Fatal("latency output malformed")
	}
}
