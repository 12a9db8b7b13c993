// Command benchpair is the same-session A/B the choosing-metrics rules
// ask of a performance claim: it extracts a reference commit's files
// beside the working tree (`git archive` into .bench_build/, once, so git
// itself records nothing), runs benchmark workloads on both — `bash
// bench/run.sh`, which each tree builds from its own source — pair by
// pair, every workload on both sides in each pair, alternating which side
// goes first, and prints per workload, GOMAXPROCS width and end-to-end
// metric both medians, both quartile pairs, the relative change, how many
// pairs the change won and a verdict: "improved" (won at least 9 pairs in
// 10 and moved the median further than the parent's quartile distance),
// "REGRESSED" (median worse than the metric's bound), "unresolved" (the
// parent's quartile distance is wider than the bound, so the runs cannot
// tell, and the change's runs do not all read better than the parent's)
// or "no worse"; then a status line per workload and width. It only
// invokes the benchmark; it shares no code with it.
//
// With -trace the benchmark runs traced (`--trace 1`), which reports the
// per-layer metrics BENCHMARK.json lists in place of the end-to-end ones.
// Each per-layer metric gets the same row. Having no bound, its verdict
// weighs the move of the median against the parent's quartile distance
// alone, either way: "improved", "worse" (lost at least 9 pairs in 10
// and moved further than that distance) or "no clear change". Per-layer
// verdicts do not gate the exit status; correctness and the failed share
// still do.
//
// Exit status 1 when, on any workload at any width, the change's median
// is worse than the reference's by more than the metric's bound in
// BENCHMARK.json, a run reports itself incorrect, or the change fails a
// larger share of its operations than the reference; 2 on a set-up
// error.
//
// Usage: benchpair -workload <name>|all [-procs 1,2,...] [-ref <commit>] [-n 10] [-seed 1] [-seconds 24] [-trace]
//
// -workload all runs every workload BENCHMARK.json lists. Each pair runs
// each workload once per -procs width (default: benchpair's own
// GOMAXPROCS), with GOMAXPROCS set to that width on both sides. Without
// -ref the reference is HEAD when the working tree differs from it (the
// change is not committed yet) and HEAD~1 when it does not.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// boundedMetric is one end_to_end entry of BENCHMARK.json, or a
// per_layer one, which has no bound.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the last stdout line of one benchmark run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricValue is one metric of a result.
type metricValue struct {
	Value float64 `json:"value"`
}

// job is one workload at one GOMAXPROCS width.
type job struct {
	workload string
	procs    int
}

// String is the job's row prefix.
func (j job) String() string { return fmt.Sprintf("workload=%s procs=%d", j.workload, j.procs) }

// tally collects one side's runs of one job.
type tally struct {
	values            map[string][]float64 // metric -> one value per pair
	attempted, failed int64
	incorrect         int // runs that reported correct=false
}

// side is one tree and its runs, by job.
type side struct {
	name, root string
	env        []string // added to the benchmark's environment
	runs       map[job]*tally
}

func newSide(name, root string, env []string) *side {
	return &side{name: name, root: root, env: env, runs: map[job]*tally{}}
}

// environ is what a run of j adds to the benchmark's environment.
func (s *side) environ(j job) []string {
	return append(slices.Clip(s.env), "GOMAXPROCS="+strconv.Itoa(j.procs))
}

// record adds one run of j to the side's tally.
func (s *side) record(j job, res result) {
	t := s.runs[j]
	if t == nil {
		t = &tally{values: map[string][]float64{}}
		s.runs[j] = t
	}
	for name, m := range res.Metrics {
		t.values[name] = append(t.values[name], m.Value)
	}
	t.attempted += res.Attempted
	t.failed += res.Failed
	if !res.Correct {
		t.incorrect++
	}
}

// benchFunc runs j once in a side's tree.
type benchFunc func(ctx context.Context, s *side, j job) (result, error)

func main() {
	workload := flag.String("workload", "", "benchmark workload to run (a name from BENCHMARK.json, or all)")
	procsList := flag.String("procs", strconv.Itoa(runtime.GOMAXPROCS(0)), "comma-separated GOMAXPROCS widths to run every workload at")
	ref := flag.String("ref", "", "reference commit (default: HEAD if the tree is dirty, else HEAD~1)")
	n := flag.Int("n", 10, "parent/change pairs")
	seed := flag.Int64("seed", 1, "workload seed, the same on both sides")
	seconds := flag.Float64("seconds", 24, "run length handed to the benchmark")
	trace := flag.Bool("trace", false, "run the benchmark traced and report its per-layer metrics")
	flag.Parse()
	procs, err := parseProcs(*procsList)
	if *workload == "" || *n < 1 || err != nil {
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchpair: %v\n", err)
		}
		flag.Usage()
		os.Exit(2)
	}
	// An interrupt stops the run in progress and still removes the
	// parent's tree.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ok, err := run(ctx, *workload, procs, *ref, *n, *seed, *seconds, *trace)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchpair: %v\n", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// parseProcs reads -procs: positive widths.
func parseProcs(list string) ([]int, error) {
	var procs []int
	for _, f := range strings.Split(list, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("-procs %q: want positive integers separated by commas", list)
		}
		procs = append(procs, p)
	}
	return procs, nil
}

// git runs one git command in dir and returns its trimmed stdout.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

func run(ctx context.Context, workload string, procs []int, ref string, n int, seed int64, seconds float64, trace bool) (bool, error) {
	root, err := git(".", "rev-parse", "--show-toplevel")
	if err != nil {
		return false, err
	}
	if ref == "" {
		dirty, err := git(root, "status", "--porcelain")
		if err != nil {
			return false, err
		}
		if ref = "HEAD~1"; dirty != "" {
			ref = "HEAD"
		}
	}
	sha, err := git(root, "rev-parse", "--verify", ref+"^{commit}")
	if err != nil {
		return false, err
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []boundedMetric `json:"end_to_end"`
		PerLayer []boundedMetric `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	workloads := []string{workload}
	if workload == "all" {
		workloads = workloads[:0]
		for _, w := range spec.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	var jobs []job
	for _, w := range workloads {
		for _, p := range procs {
			jobs = append(jobs, job{w, p})
		}
	}

	refRoot := filepath.Join(root, ".bench_build", "pair-"+sha[:12])
	if err := extract(root, sha, refRoot); err != nil {
		return false, err
	}
	defer os.RemoveAll(refRoot)

	// The parent's tree sits inside the checkout but is no repository:
	// the ceiling stops git from finding the enclosing one, so its runs
	// do not report the working tree's commit.
	parent := newSide("parent", refRoot, []string{"GIT_CEILING_DIRECTORIES=" + filepath.Dir(refRoot)})
	change := newSide("change", root, nil)
	fmt.Printf("# workloads=%s parent=%s change=working tree of %s pairs=%d seed=%d seconds=%g traced=%t\n",
		strings.Join(workloads, ","), sha[:12], root, n, seed, seconds, trace)
	bench := func(ctx context.Context, s *side, j job) (result, error) {
		return s.bench(ctx, j, seed, seconds, trace)
	}
	if err := runPairs(ctx, os.Stdout, n, jobs, parent, change, bench); err != nil {
		return false, err
	}
	return report(os.Stdout, jobs, spec.EndToEnd, spec.PerLayer, parent, change), nil
}

// runPairs runs n pairs. A pair runs every job on both sides, the parent
// first in odd pairs and the change first in even ones, so that neither
// side always runs on the machine the other has just warmed.
func runPairs(ctx context.Context, out io.Writer, n int, jobs []job, parent, change *side, bench benchFunc) error {
	for i := range n {
		order := [2]*side{parent, change}
		if i%2 == 1 {
			order = [2]*side{change, parent}
		}
		for _, j := range jobs {
			for _, s := range order {
				res, err := bench(ctx, s, j)
				if err != nil {
					return err
				}
				s.record(j, res)
				fmt.Fprintf(out, "pair=%d %s side=%s correct=%t failed=%d", i+1, j, s.name, res.Correct, res.Failed)
				if m, ok := res.Metrics["ops_per_s"]; ok { // a traced run reports none
					fmt.Fprintf(out, " ops_per_s=%g", m.Value)
				}
				fmt.Fprintln(out)
			}
		}
	}
	return nil
}

// report prints every job's verdict rows — end-to-end metrics, then
// per-layer ones — and then its status, and reports whether all of them
// passed: no run reported itself incorrect, the change failed no larger
// share of its operations than the parent, and no end-to-end metric
// regressed.
func report(out io.Writer, jobs []job, metrics, layers []boundedMetric, parent, change *side) bool {
	allOK := true
	for _, j := range jobs {
		p, c := parent.runs[j], change.runs[j]
		var failures []string
		for _, s := range []*side{parent, change} {
			if k := s.runs[j].incorrect; k > 0 {
				failures = append(failures, fmt.Sprintf("%d of the %s's runs reported correct=false", k, s.name))
			}
		}
		if pf, cf := ratio(float64(p.failed), float64(p.attempted)), ratio(float64(c.failed), float64(c.attempted)); cf > pf {
			failures = append(failures, fmt.Sprintf("change failed %.6f of its operations, parent %.6f", cf, pf))
		}
		row := func(m boundedMetric, bound string, verdict func(comparison) string) {
			pv, cv := p.values[m.Name], c.values[m.Name]
			if len(pv) == 0 || len(cv) == 0 {
				return
			}
			cmp := compare(m, pv, cv)
			v := verdict(cmp)
			if v == regressed {
				failures = append(failures, m.Name+" regressed")
			}
			fmt.Fprintf(out, "%s metric=%s unit=%s better=%s parent=%g [%g, %g] change=%g [%g, %g] change_vs_parent=%+.2f%% parent_iqr=%.2f%% wins=%d losses=%d of %d bound=%s %s\n",
				j, m.Name, m.Unit, m.Better, cmp.p[1], cmp.p[0], cmp.p[2], cmp.c[1], cmp.c[0], cmp.c[2],
				100*ratio(cmp.c[1]-cmp.p[1], cmp.p[1]), 100*cmp.iqr, cmp.wins, cmp.losses, cmp.pairs, bound, v)
		}
		for _, m := range metrics {
			row(m, strconv.FormatFloat(m.Bound, 'g', -1, 64), func(c comparison) string { return c.verdict(m.Bound) })
		}
		for _, m := range layers {
			row(m, "none", comparison.layerVerdict)
		}
		if len(failures) > 0 {
			allOK = false
			fmt.Fprintf(out, "%s FAIL: %s\n", j, strings.Join(failures, "; "))
		} else {
			fmt.Fprintf(out, "%s ok\n", j)
		}
	}
	return allOK
}

// extract writes the files committed at sha, and nothing else, into dir,
// replacing whatever a killed run left there.
func extract(root, sha, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("bash", "-c", `set -o pipefail; git archive "$1" | tar -x -C "$2"`, "extract", sha, dir)
	cmd.Dir, cmd.Stderr = root, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("extracting %s into %s: %w", sha, dir, err)
	}
	return nil
}

// The verdicts, one per metric: the first four for an end-to-end
// metric, improved and the last two for a per-layer one.
const (
	improved   = "improved"
	noWorse    = "no worse"
	unresolved = "unresolved"
	regressed  = "REGRESSED"
	worse      = "worse"
	noChange   = "no clear change"
)

// comparison is one metric's pairs, summarised.
type comparison struct {
	p, c                [3]float64 // quartiles of parent and change
	wins, losses, pairs int
	// gain is the relative move of the median in the good direction, iqr
	// the parent's quartile distance, both over the parent's median.
	gain, iqr float64
	// apart: every run of the change reads better than every run of the
	// parent.
	apart bool
}

// compare summarises one metric's paired values, p[i] and c[i] being the
// parent's and the change's runs of pair i.
func compare(m boundedMetric, p, c []float64) comparison {
	var r comparison
	r.p[0], r.p[1], r.p[2] = quartiles(p)
	r.c[0], r.c[1], r.c[2] = quartiles(c)
	r.pairs = len(p)
	r.apart = slices.Min(c) > slices.Max(p)
	if m.Better == "lower" {
		r.apart = slices.Max(c) < slices.Min(p)
	}
	for i := range p {
		switch d := c[i] - p[i]; {
		case d == 0:
		case (d > 0) == (m.Better == "higher"):
			r.wins++
		default:
			r.losses++
		}
	}
	r.gain = ratio(r.c[1]-r.p[1], r.p[1])
	if m.Better == "lower" {
		r.gain = -r.gain
	}
	r.iqr = ratio(r.p[2]-r.p[0], r.p[1])
	return r
}

// verdict applies choosing-metrics §8: a gain needs the change to win at
// least 9 pairs in 10 and its median to move further than the parent's
// quartile distance; a median worse than the bound is a regression; and
// a parent whose quartile distance exceeds the bound cannot show that
// the change stayed inside it, unless the two sides' runs do not overlap
// and the change's are the better ones.
func (r comparison) verdict(bound float64) string {
	switch {
	case -r.gain > bound:
		return regressed
	case 10*r.wins >= 9*r.pairs && r.gain > r.iqr:
		return improved
	case r.iqr > bound && !r.apart:
		return unresolved
	}
	return noWorse
}

// layerVerdict judges a per-layer metric, which has no bound: a move of
// the median counts, either way, only past the parent's quartile distance
// and with at least 9 pairs in 10 on its side.
func (r comparison) layerVerdict() string {
	switch {
	case 10*r.wins >= 9*r.pairs && r.gain > r.iqr:
		return improved
	case 10*r.losses >= 9*r.pairs && -r.gain > r.iqr:
		return worse
	}
	return noChange
}

// bench runs j once in the side's tree, traced or not.
func (s *side) bench(ctx context.Context, j job, seed int64, seconds float64, trace bool) (result, error) {
	traced := "0"
	if trace {
		traced = "1"
	}
	cmd := exec.CommandContext(ctx, "bash", "bench/run.sh", "--workload", j.workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", traced)
	cmd.Dir = s.root
	cmd.Env = append(os.Environ(), s.environ(j)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var res result
	if ctx.Err() != nil {
		return res, ctx.Err()
	}
	// A run that fails operations exits non-zero and still prints its
	// result; only a run with no result line is a set-up error.
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		return res, fmt.Errorf("%s run of %s printed no result (%v): %v", s.name, j, err, jerr)
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the cut points Python's statistics.quantiles(n=4)
// gives — the rule the benchmark's own --repeat report uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	if len(d) < 2 {
		return d[0], d[0], d[0]
	}
	at := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
