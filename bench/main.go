// Command bench is the repository benchmark: four closed-loop workloads
// with bounded end-to-end metrics, and a traced mode that adds per-layer
// counters, spans and the layer ladder. See README.md beside this file and
// BENCHMARK.json at the root of the repository.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"

	"softmem/internal/pages"
)

// setupRuns is how often the untraced run builds its system; setup_s is
// the median, so one slow build does not read as a set-up regression.
const setupRuns = 5

// result is one workload run. The JSON form is the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`

	workload   string
	streamHash uint64
	steps      int64 // antagonist steps in the timed region, kv_squeeze
	hits       int64
	problems   []string
}

// measured is the timed region of one built workload.
type measured struct {
	e             *env
	before, after snapshot
	wall          time.Duration
	ops, failed   int64
	reads, hits   int64
}

func measure(e *env, c config) measured {
	m := measured{e: e, before: e.sys.snapshot()}
	e.driver.probe = e.sys.memory
	m.wall = e.run(c.stopper(), true)
	m.after = e.sys.snapshot()
	d := e.driver
	m.ops, m.failed, m.reads, m.hits = d.ops, d.failed, d.reads, d.hits
	if e.ant != nil {
		m.failed += e.ant.failed
	}
	return m
}

// summary is what the timed region says about speed: each figure is the
// quartile on the good side over the slices of the region (the upper one
// for throughput, the lower one for a latency percentile), or the figure of
// the whole region when it was too short to be cut. Interference from
// outside only ever slows a slice, so that quartile moves far less from run
// to run than the median does, and every slice still holds whole periods of
// whatever the program does periodically.
//
// The two space figures come from the driver's probes, one a slice: soft
// pages held over live bytes, both summed over the probes, and the median of
// what the Go runtime holds, which forgets a heap that overshot once while
// a GC worker was kept off its core.
type summary struct {
	opsPerS            float64
	readP50, readP99   float64
	writeP50, writeP99 float64
	overhead, heldMiB  float64
}

func (m measured) summary() summary {
	d := m.e.driver
	marks := d.marks
	if len(marks) < 2 {
		marks = []mark{{}, {m.wall, d.ops, len(d.read.ns), len(d.write.ns)}}
	}
	mem := d.mem
	if len(mem) == 0 {
		mem = []memSample{m.e.sys.memory()}
	}
	cols := make([][]float64, 5)
	for i, b := range marks[1:] {
		a := marks[i]
		read, write := sortedCopy(d.read.ns[a.reads:b.reads]), sortedCopy(d.write.ns[a.writes:b.writes])
		rate := float64(b.ops-a.ops) / (b.at - a.at).Seconds()
		for j, v := range []float64{rate, quantileUS(read, 0.5), quantileUS(read, 0.99), quantileUS(write, 0.5), quantileUS(write, 0.99)} {
			cols[j] = append(cols[j], v)
		}
	}
	var pagesHeld, live int64
	var held []float64
	for _, s := range mem {
		pagesHeld += s.pages
		live += s.live
		held = append(held, s.heldMiB)
	}
	upper := func(v []float64) float64 { _, _, q3 := quartiles(v); return q3 }
	lower := func(v []float64) float64 { q1, _, _ := quartiles(v); return q1 }
	_, heldMiB, _ := quartiles(held)
	return summary{upper(cols[0]), lower(cols[1]), lower(cols[2]), lower(cols[3]), lower(cols[4]),
		ratio(float64(pagesHeld)*pages.Size, float64(live)), heldMiB}
}

// finish checks the invariants and fills the parts of a result both modes share.
func (m measured) finish(w workload, res *result) {
	res.workload, res.streamHash = w.name, m.e.hash
	res.hits = m.hits
	res.problems = m.e.sys.invariants()
	if w.name == "resp_read_pipelined" && m.hits != m.reads {
		res.problems = append(res.problems, fmt.Sprintf("%d of %d GETs missed a key that fits in memory", m.reads-m.hits, m.reads))
	}
	if n := m.e.driver.read.dropped + m.e.driver.write.dropped; n > 0 {
		res.problems = append(res.problems, fmt.Sprintf("the driver dropped %d latency samples", n))
	}
	if m.e.ant != nil {
		res.steps = m.e.ant.steps
	}
	res.Attempted = m.ops
	res.Failed = m.failed + int64(len(res.problems))
	res.Correct = res.Failed == 0
}

// runEndToEnd is the untraced run: no interposers, no spans.
func runEndToEnd(w workload, c config) (result, error) {
	var e *env
	var setups []float64
	for range setupRuns {
		if e != nil {
			e.sys.close()
			runtime.GC()
		}
		t := time.Now()
		var err error
		if e, err = w.build(c, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer e.sys.close()
	m := measure(e, c)
	res := result{Metrics: metrics{}}
	m.finish(w, &res)

	sum := m.summary()
	_, setup, _ := quartiles(setups)
	res.Metrics.set("setup_s", setup, "s")
	res.Metrics.set("ops_per_s", sum.opsPerS, "1/s")
	res.Metrics.set("read_p50_us", sum.readP50, "us")
	res.Metrics.set("hit_ratio", ratio(float64(m.hits), float64(m.reads)), "ratio")
	res.Metrics.set("mem_overhead_ratio", sum.overhead, "ratio")
	res.Metrics.set("mem_sys_mib", sum.heldMiB, "MiB")
	return res, nil
}

// runTraced spends half the time on an untraced system and half on a
// traced one (so trace.overhead_ratio compares like with like), reports the
// traced half's layer counters, then climbs the ladder.
func runTraced(w workload, c config) (result, error) {
	c.seconds /= 2
	c.ops /= 2
	plain, err := w.build(c, nil)
	if err != nil {
		return result{}, err
	}
	untraced := measure(plain, c).summary().opsPerS
	plain.sys.close()
	runtime.GC()

	t := &taps{rec: newRecorder()}
	e, err := w.build(c, t)
	if err != nil {
		return result{}, err
	}
	defer e.sys.close()
	m := measure(e, c)
	res := result{Metrics: metrics{}}
	m.finish(w, &res)

	e.sys.workloadLayers(res.Metrics, m.before, m.after, m.ops)
	sum := m.summary()
	res.Metrics.set("read_p99_us", sum.readP99, "us")
	res.Metrics.set("write_p50_us", sum.writeP50, "us")
	res.Metrics.set("write_p99_us", sum.writeP99, "us")
	res.Metrics.set("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	var steps []int32
	if e.ant != nil {
		steps = sortedCopy(e.ant.reclaimStep)
	}
	res.Metrics.set("reclaim_step_p50_us", quantileUS(steps, 0.5), "us")
	res.Metrics.set("smd.reclaim_step_p90_us", quantileUS(steps, 0.9), "us")
	spans := t.rec.all()
	request, demand := chainShares(spans)
	res.Metrics.set("trace.reclaim_chain_share", request, "ratio")
	res.Metrics.set("trace.reclaim_demand_share", demand, "ratio")
	res.Metrics.set("trace.overhead_ratio", ratio(untraced, sum.opsPerS), "ratio")
	if err := writeSpans(spans, c.outDir, w.name); err != nil {
		return result{}, fmt.Errorf("%s: write trace: %w", w.name, err)
	}
	if err := ladder(res.Metrics, c); err != nil {
		res.problems = append(res.problems, err.Error())
		res.Failed++
		res.Correct = false
	}
	return res, nil
}

func runWorkload(w workload, c config) (result, error) {
	if c.traced {
		return runTraced(w, c)
	}
	return runEndToEnd(w, c)
}

// header describes the machine and the run, for whoever reads the numbers later.
type header struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Ops        int64   `json:"ops,omitempty"`
	Traced     bool    `json:"traced"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	StreamHash string  `json:"stream_hash"`
}

// buildCommit is set by run.sh through -ldflags.
var buildCommit = "unknown"

// print writes the header, one line per metric, any problems, and the
// result object as the last line.
func (res result) print(c config) error {
	h := header{res.workload, c.seed, c.seconds, c.ops, c.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), buildCommit, strconv.FormatUint(res.streamHash, 16)}
	hj, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Printf("# %s\n", hj)
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[name]
		fmt.Printf("workload=%s metric=%s value=%s unit=%s\n", res.workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, p := range res.problems {
		fmt.Printf("# problem: %s\n", p)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if c.outJSON != "" {
		doc, err := json.Marshal(struct {
			Header header `json:"header"`
			Result result `json:"result"`
		}{h, res})
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.outJSON, doc, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("%s\n", rj)
	return nil
}

func main() {
	var c config
	var name string
	var traced, repeat int
	flag.StringVar(&name, "workload", "", "workload to run in this process; empty runs every workload, each in a child process")
	flag.Int64Var(&c.seed, "seed", 1, "seed of every key, size and op choice")
	flag.Float64Var(&c.seconds, "seconds", 24, "length of the timed region")
	flag.Int64Var(&c.ops, "ops", 0, "run exactly this many ops instead of -seconds, for counts that must repeat exactly")
	flag.IntVar(&traced, "trace", 0, "1: interposers, spans and the layer ladder on; prints the per-layer metrics instead of the end-to-end ones")
	flag.IntVar(&repeat, "repeat", 1, "with no -workload: run this many full sets and judge the spreads against BENCHMARK.json")
	flag.StringVar(&c.outJSON, "json", "", "also write the header and result of a -workload run to this file")
	flag.StringVar(&c.outDir, "out", "bench/out", "directory for trace files")
	flag.Parse()
	c.traced, c.scale, c.rung = traced != 0, 1, 250*time.Millisecond

	if name == "" {
		if err := runSets(c, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		os.Exit(2)
	}
	res, err := runWorkload(w, c)
	if err == nil {
		err = res.print(c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
