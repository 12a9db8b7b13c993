// Command softbench regenerates the paper's tables and figures (see
// DESIGN.md's experiment index E1–E9).
//
// Usage:
//
//	softbench -experiment fig2            # E1: Figure 2 timeline
//	softbench -experiment stress          # E2–E4: the §5 stress table
//	softbench -experiment stress -allocs 977000 -extra 500000   # paper scale
//	softbench -experiment restart         # E5: reclaim vs kill
//	softbench -experiment cluster         # E6: scheduler comparison
//	softbench -experiment ablate-heap     # E7: heap organization ablation
//	softbench -experiment ablate-policy   # E8: weight policy ablation
//	softbench -experiment mlcache         # E9: ML cache use case
//	softbench -experiment qos             # E14: stall-aware multi-tenant QoS
//	softbench -experiment all
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"softmem/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("experiment", "all", "fig2 | stress | restart | cluster | ablate-heap | ablate-policy | mlcache | swap | latency | qos | all")
		allocs = flag.Int("allocs", 100000, "stress allocation count (paper: 977000)")
		extra  = flag.Int("extra", 50000, "stress case (3) pressure allocations (paper: 500000)")
		csv    = flag.String("csv", "", "also write the fig2 timeline as CSV to this file")
	)
	flag.Parse()

	run := func(name string, fn func()) {
		switch *exp {
		case name, "all":
			fn()
			fmt.Println()
		}
	}
	matched := false
	mark := func(fn func()) func() {
		return func() { matched = true; fn() }
	}

	run("fig2", mark(func() {
		res := experiments.Fig2(experiments.Fig2Config{})
		res.Fprint(os.Stdout)
		if *csv != "" {
			f, err := os.Create(*csv)
			if err != nil {
				log.Fatalf("softbench: %v", err)
			}
			defer f.Close()
			if err := res.WriteCSV(f); err != nil {
				log.Fatalf("softbench: %v", err)
			}
			fmt.Fprintf(os.Stdout, "timeline written to %s\n", *csv)
		}
	}))
	run("stress", mark(func() {
		fmt.Printf("E2–E4 — §5 allocator stress table (%d allocs, %d under pressure)\n\n", *allocs, *extra)
		experiments.FprintStressHeader(os.Stdout)
		experiments.Stress1(*allocs).Fprint(os.Stdout)
		experiments.Stress2(*allocs).Fprint(os.Stdout)
		experiments.Stress3(*allocs, *extra).Fprint(os.Stdout)
	}))
	run("restart", mark(func() {
		experiments.Restart(experiments.RestartConfig{}).Fprint(os.Stdout)
	}))
	run("cluster", mark(func() {
		experiments.Cluster().Fprint(os.Stdout)
	}))
	run("ablate-heap", mark(func() {
		fmt.Println("E7 — heap organization ablation (§3.1 efficacy trade-off)")
		fmt.Println()
		experiments.FprintHeapHeader(os.Stdout)
		for _, row := range experiments.AblateHeapPolicy(4, 4000, 256, 40) {
			row.Fprint(os.Stdout)
		}
	}))
	run("ablate-policy", mark(func() {
		fmt.Println("E8 — reclamation weight policy ablation (§3.3, §7)")
		fmt.Println()
		experiments.FprintPolicyHeader(os.Stdout)
		// 24 x 50 = 1200 pages: half the victims' soft capacity, so the
		// policies' orderings are visible rather than everyone draining.
		for _, row := range experiments.AblatePolicy(24, 50) {
			row.Fprint(os.Stdout)
		}
	}))
	run("mlcache", mark(func() {
		experiments.ML(experiments.MLConfig{}).Fprint(os.Stdout)
	}))
	run("swap", mark(func() {
		experiments.SwapCompare(experiments.SwapConfig{Seed: 3}).Fprint(os.Stdout)
	}))
	run("latency", mark(func() {
		experiments.ReclaimLatency(experiments.LatencyConfig{}).Fprint(os.Stdout)
	}))
	run("qos", mark(func() {
		experiments.RunQoS(experiments.QoSConfig{Seed: 1}).Fprint(os.Stdout)
	}))

	if !matched {
		log.Fatalf("softbench: unknown experiment %q", *exp)
	}
}
