package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExtract builds the parent's tree in a scratch repository: it holds
// exactly the committed files — not the working tree's edits, untracked
// files or what a killed run left behind — and git records no worktree.
// Under the ceiling the parent's runs get, git finds no commit there.
func TestExtract(t *testing.T) {
	repo := t.TempDir()
	gitIn := func(dir string, env []string, args ...string) (string, error) {
		cmd := exec.Command("git", append([]string{"-c", "user.name=bench", "-c", "user.email=bench@localhost"}, args...)...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), env...)
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	run := func(args ...string) string {
		t.Helper()
		out, err := gitIn(repo, nil, args...)
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return out
	}
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(repo, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run("init", "-q")
	write("a.txt", "committed")
	write("sub/b.txt", "b")
	run("add", "-A")
	run("commit", "-q", "-m", "parent")
	sha := strings.TrimSpace(run("rev-parse", "HEAD"))
	write("a.txt", "edited")
	write("untracked.txt", "u")
	dir := filepath.Join(repo, ".bench_build", "pair-"+sha[:12])
	write(filepath.Join(".bench_build", "pair-"+sha[:12], "stale.txt"), "left by a killed run")

	if err := extract(repo, sha, dir); err != nil {
		t.Fatal(err)
	}
	var files []string
	if err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			files = append(files, filepath.ToSlash(rel))
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(files)
	if want := []string{"a.txt", "sub/b.txt"}; !slices.Equal(files, want) {
		t.Fatalf("extracted %v, want %v", files, want)
	}
	if body, _ := os.ReadFile(filepath.Join(dir, "a.txt")); string(body) != "committed" {
		t.Fatalf("a.txt = %q, want the committed content", body)
	}
	if lines := strings.Split(strings.TrimSpace(run("worktree", "list")), "\n"); len(lines) != 1 {
		t.Fatalf("git worktree list printed %d lines: %q", len(lines), lines)
	}
	if out, err := gitIn(dir, []string{"GIT_CEILING_DIRECTORIES=" + filepath.Dir(dir)}, "rev-parse", "HEAD"); err == nil {
		t.Fatalf("git found a commit in the extracted tree: %s", out)
	}
}

// TestPairsRunEveryWorkload drives the pair loop with a stub benchmark:
// each pair runs every workload at every width on both sides, each run
// with its width as GOMAXPROCS beside the side's own environment, the
// side that goes first alternates from pair to pair, and each workload
// and width gets its own verdict rows and status — a regression at one
// width only, a change that fails more of its operations and one with an
// incorrect run each fail on their own, and any of them fails the whole;
// a per-layer metric gets a row too, but no bound and no say in the
// status.
func TestPairsRunEveryWorkload(t *testing.T) {
	workloads := []string{"steady", "slower", "failing", "incorrect"}
	procs, err := parseProcs("1,2")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []job
	for _, w := range workloads {
		for _, p := range procs {
			jobs = append(jobs, job{w, p})
		}
	}
	metrics := []boundedMetric{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25}}
	layers := []boundedMetric{{Name: "alloc.slot_bytes_per_live_byte", Unit: "ratio", Better: "lower"}}
	var calls []string
	bench := func(_ context.Context, s *side, j job) (result, error) {
		calls = append(calls, fmt.Sprintf("%s/%d/%s", j.workload, j.procs, s.name))
		if env, want := s.environ(j), append(slices.Clone(s.env), fmt.Sprintf("GOMAXPROCS=%d", j.procs)); !slices.Equal(env, want) {
			t.Errorf("%s run of %s: environment %q, want %q", s.name, j, env, want)
		}
		res := result{Correct: true, Attempted: 1000, Metrics: map[string]metricValue{"ops_per_s": {100}, "alloc.slot_bytes_per_live_byte": {1.2}}}
		if s.name == "change" {
			res.Metrics["alloc.slot_bytes_per_live_byte"] = metricValue{2}
			switch j.workload {
			case "slower":
				if j.procs == 2 {
					res.Metrics["ops_per_s"] = metricValue{50}
				}
			case "failing":
				res.Failed = 1
			case "incorrect":
				res.Correct = len(calls) > 14 // the change's first run only
			}
		}
		return res, nil
	}
	parent, change := newSide("parent", "", []string{"GIT_CEILING_DIRECTORIES=/x"}), newSide("change", "", nil)
	var log bytes.Buffer
	if err := runPairs(context.Background(), &log, 2, jobs, parent, change, bench); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, first := range [][2]string{{"parent", "change"}, {"change", "parent"}} {
		for _, j := range jobs {
			for _, s := range first {
				want = append(want, fmt.Sprintf("%s/%d/%s", j.workload, j.procs, s))
			}
		}
	}
	if !slices.Equal(calls, want) {
		t.Fatalf("runs in order %v, want %v", calls, want)
	}
	if got := strings.Count(log.String(), "\n"); got != len(want) {
		t.Fatalf("%d run lines for %d runs:\n%s", got, len(want), log.String())
	}
	if !strings.Contains(log.String(), "pair=2 workload=failing procs=2 side=parent ") {
		t.Errorf("run lines do not name the width:\n%s", log.String())
	}

	var out bytes.Buffer
	if report(&out, jobs, metrics, layers, parent, change) {
		t.Fatalf("three failing workloads passed:\n%s", out.String())
	}
	for _, line := range []string{
		"workload=steady procs=1 metric=ops_per_s ",
		"workload=slower procs=2 metric=ops_per_s ",
		"workload=steady procs=2 ok\n",
		"workload=steady procs=2 metric=alloc.slot_bytes_per_live_byte unit=ratio better=lower parent=1.2 [1.2, 1.2] change=2 [2, 2] change_vs_parent=+66.67% parent_iqr=0.00% wins=0 losses=2 of 2 bound=none worse\n",
		"workload=slower procs=1 ok\n",
		"workload=slower procs=2 FAIL: ops_per_s regressed\n",
		"workload=failing procs=1 FAIL: change failed 0.001000 of its operations, parent 0.000000\n",
		"workload=incorrect procs=1 FAIL: 1 of the change's runs reported correct=false\n",
		"workload=incorrect procs=2 ok\n",
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("report lacks %q:\n%s", line, out.String())
		}
	}
	if !strings.Contains(out.String(), "REGRESSED\nworkload=slower procs=2 metric=alloc.slot_bytes_per_live_byte ") ||
		!strings.Contains(out.String(), "bound=none worse\nworkload=slower procs=2 FAIL") {
		t.Errorf("the verdict rows, end-to-end then per-layer, do not precede their status:\n%s", out.String())
	}
	if !report(io.Discard, jobs[:3], metrics, layers, parent, change) {
		t.Fatal("workloads and widths that passed on their own failed the report")
	}
	for _, bad := range []string{"", "0", "1,x", "-2"} {
		if _, err := parseProcs(bad); err == nil {
			t.Errorf("parseProcs(%q) accepted", bad)
		}
	}
}

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

	// A per-layer metric has no bound: only the parent's quartile
	// distance and the pairs decide, in either direction.
	layer := boundedMetric{Name: "alloc.slot_bytes_per_live_byte", Better: "lower"}
	for _, tc := range []struct {
		name string
		m    boundedMetric
		p, c []float64
		want string
	}{
		{"every pair won, past the quartiles", layer, tight, shifted(tight, -10), improved},
		{"higher is better", boundedMetric{Better: "higher"}, tight, shifted(tight, 10), improved},
		{"every pair lost, past the quartiles", layer, tight, shifted(tight, 10), worse},
		{"lost by far more than any bound would allow, still only worse", layer, tight, shifted(tight, 1000), worse},
		{"won every pair by less than the quartiles", layer, tight, shifted(tight, -0.5), noChange},
		{"lost every pair by less than the quartiles", layer, tight, shifted(tight, 0.5), noChange},
		{"lost 8 of 10", layer, tight, append(shifted(tight[:8], 10), tight[8]-1, tight[9]-1), noChange},
		{"a wide spread hides a small move", layer, wide, shifted(wide, 5), noChange},
	} {
		if got := compare(tc.m, tc.p, tc.c).layerVerdict(); got != tc.want {
			t.Errorf("per-layer, %s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
