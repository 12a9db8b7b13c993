// Command benchpair is the same-session A/B the choosing-metrics rules
// ask of a performance claim: it extracts a reference commit's files
// beside the working tree (`git archive` into .bench_build/, once, so git
// itself records nothing), runs benchmark workloads on both — `bash
// bench/run.sh`, which each tree builds from its own source — pair by
// pair, every workload on both sides in each pair, alternating which side
// goes first, and prints per workload and end-to-end metric both medians,
// both quartile pairs, the relative change, how many pairs the change won
// and a verdict: "improved" (won at least 9 pairs in 10 and moved the
// median further than the parent's quartile distance), "REGRESSED"
// (median worse than the metric's bound), "unresolved" (the parent's
// quartile distance is wider than the bound, so the runs cannot tell,
// and the change's runs do not all read better than the parent's) or "no
// worse"; then a status line per workload. It only invokes the
// benchmark; it shares no code with it.
//
// Exit status 1 when, on any workload, the change's median is worse than
// the reference's by more than the metric's bound in BENCHMARK.json, a
// run reports itself incorrect, or the change fails a larger share of
// its operations than the reference; 2 on a set-up error.
//
// Usage: benchpair -workload <name>|all [-ref <commit>] [-n 10] [-seed 1] [-seconds 24]
//
// -workload all runs every workload BENCHMARK.json lists. Without -ref
// the reference is HEAD when the working tree differs from it (the change
// is not committed yet) and HEAD~1 when it does not.
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
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// boundedMetric is one end_to_end entry of BENCHMARK.json.
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

// tally collects one side's runs of one workload.
type tally struct {
	values            map[string][]float64 // metric -> one value per pair
	attempted, failed int64
	incorrect         int // runs that reported correct=false
}

// side is one tree and its runs, by workload.
type side struct {
	name, root string
	env        []string // added to the benchmark's environment
	runs       map[string]*tally
}

func newSide(name, root string, env []string) *side {
	return &side{name: name, root: root, env: env, runs: map[string]*tally{}}
}

// record adds one run of workload to the side's tally.
func (s *side) record(workload string, res result) {
	t := s.runs[workload]
	if t == nil {
		t = &tally{values: map[string][]float64{}}
		s.runs[workload] = t
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

// benchFunc runs workload once in a side's tree.
type benchFunc func(ctx context.Context, s *side, workload string) (result, error)

func main() {
	workload := flag.String("workload", "", "benchmark workload to run (a name from BENCHMARK.json, or all)")
	ref := flag.String("ref", "", "reference commit (default: HEAD if the tree is dirty, else HEAD~1)")
	n := flag.Int("n", 10, "parent/change pairs")
	seed := flag.Int64("seed", 1, "workload seed, the same on both sides")
	seconds := flag.Float64("seconds", 24, "run length handed to the benchmark")
	flag.Parse()
	if *workload == "" || *n < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// An interrupt stops the run in progress and still removes the
	// parent's tree.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ok, err := run(ctx, *workload, *ref, *n, *seed, *seconds)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchpair: %v\n", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
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

func run(ctx context.Context, workload, ref string, n int, seed int64, seconds float64) (bool, error) {
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
	fmt.Printf("# workloads=%s parent=%s change=working tree of %s pairs=%d seed=%d seconds=%g\n",
		strings.Join(workloads, ","), sha[:12], root, n, seed, seconds)
	bench := func(ctx context.Context, s *side, workload string) (result, error) {
		return s.bench(ctx, workload, seed, seconds)
	}
	if err := runPairs(ctx, os.Stdout, n, workloads, parent, change, bench); err != nil {
		return false, err
	}
	return report(os.Stdout, workloads, spec.EndToEnd, parent, change), nil
}

// runPairs runs n pairs. A pair runs every workload on both sides, the
// parent first in odd pairs and the change first in even ones, so that
// neither side always runs on the machine the other has just warmed.
func runPairs(ctx context.Context, out io.Writer, n int, workloads []string, parent, change *side, bench benchFunc) error {
	for i := range n {
		order := [2]*side{parent, change}
		if i%2 == 1 {
			order = [2]*side{change, parent}
		}
		for _, w := range workloads {
			for _, s := range order {
				res, err := bench(ctx, s, w)
				if err != nil {
					return err
				}
				s.record(w, res)
				fmt.Fprintf(out, "pair=%d workload=%s side=%s correct=%t failed=%d ops_per_s=%g\n",
					i+1, w, s.name, res.Correct, res.Failed, res.Metrics["ops_per_s"].Value)
			}
		}
	}
	return nil
}

// report prints every workload's verdict rows and then its status, and
// reports whether all of them passed: no run reported itself incorrect,
// the change failed no larger share of its operations than the parent,
// and no metric regressed.
func report(out io.Writer, workloads []string, metrics []boundedMetric, parent, change *side) bool {
	allOK := true
	for _, w := range workloads {
		p, c := parent.runs[w], change.runs[w]
		var failures []string
		for _, s := range []*side{parent, change} {
			if k := s.runs[w].incorrect; k > 0 {
				failures = append(failures, fmt.Sprintf("%d of the %s's runs reported correct=false", k, s.name))
			}
		}
		if pf, cf := ratio(float64(p.failed), float64(p.attempted)), ratio(float64(c.failed), float64(c.attempted)); cf > pf {
			failures = append(failures, fmt.Sprintf("change failed %.6f of its operations, parent %.6f", cf, pf))
		}
		for _, m := range metrics {
			pv, cv := p.values[m.Name], c.values[m.Name]
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			cmp := compare(m, pv, cv)
			v := cmp.verdict(m.Bound)
			if v == regressed {
				failures = append(failures, m.Name+" regressed")
			}
			fmt.Fprintf(out, "workload=%s metric=%s unit=%s better=%s parent=%g [%g, %g] change=%g [%g, %g] change_vs_parent=%+.2f%% parent_iqr=%.2f%% wins=%d losses=%d of %d bound=%g %s\n",
				w, m.Name, m.Unit, m.Better, cmp.p[1], cmp.p[0], cmp.p[2], cmp.c[1], cmp.c[0], cmp.c[2],
				100*ratio(cmp.c[1]-cmp.p[1], cmp.p[1]), 100*cmp.iqr, cmp.wins, cmp.losses, cmp.pairs, m.Bound, v)
		}
		if len(failures) > 0 {
			allOK = false
			fmt.Fprintf(out, "workload=%s FAIL: %s\n", w, strings.Join(failures, "; "))
		} else {
			fmt.Fprintf(out, "workload=%s ok\n", w)
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

// The verdicts, one per metric.
const (
	improved   = "improved"
	noWorse    = "no worse"
	unresolved = "unresolved"
	regressed  = "REGRESSED"
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

// bench runs the workload once in the side's tree.
func (s *side) bench(ctx context.Context, workload string, seed int64, seconds float64) (result, error) {
	cmd := exec.CommandContext(ctx, "bash", "bench/run.sh", "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Dir = s.root
	cmd.Env = append(os.Environ(), s.env...)
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
		return res, fmt.Errorf("%s run of %s printed no result (%v): %v", s.name, workload, err, jerr)
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
