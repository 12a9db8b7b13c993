package experiments

import (
	"fmt"
	"io"
	"time"
)

// E6's parameters: a contended cluster, where demand peaks exceed
// capacity (the baseline must evict) but load is not in sustained
// overload — the regime the paper's §2 motivation targets.
const (
	clusterJobs            = 400
	clusterHorizon         = 3 * time.Hour // arrivals are spread over [0, clusterHorizon)
	clusterMeanRuntime     = 8 * time.Minute
	clusterMeanMemPages    = 250
	clusterBatchFrac       = 0.6 // share of jobs at batch priority; the rest split prod/critical
	clusterSoftFrac        = 0.5 // share of an opted-in job's memory held as soft memory
	clusterMachines        = 4
	clusterPagesPerMachine = 1200
	clusterSeed            = 7 // the trace's seed
)

// clusterAdoptions are the soft-memory adoption fractions E6 sweeps.
var clusterAdoptions = []float64{0, 0.25, 0.5, 0.75, 1.0}

// ClusterRow pairs a scheduler run with its adoption setting.
type ClusterRow struct {
	Adoption float64
	Result   ClusterRun
}

// ClusterResult is the E6 sweep.
type ClusterResult struct {
	Baseline ClusterRun
	Rows     []ClusterRow
}

// Fprint renders E6 as one baseline row plus the soft-adoption sweep.
func (r ClusterResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "E6 — cluster scheduler: kill-based vs. soft memory (identical trace)\n\n")
	fmt.Fprintf(w, "%-10s %-9s %10s %10s %12s %10s %10s %8s\n",
		"scheduler", "adoption", "completed", "evictions", "wastedCPU", "slowdown", "p95queue", "util")
	p := func(name string, adoption string, res ClusterRun) {
		fmt.Fprintf(w, "%-10s %-9s %10d %10d %12s %10.3f %10s %7.1f%%\n",
			name, adoption, res.Completed, res.Evictions, res.WastedCPU.Round(time.Second),
			res.MeanSlowdown, res.P95QueueDelay.Round(time.Second), res.MeanUtilPct)
	}
	p("baseline", "-", r.Baseline)
	for _, row := range r.Rows {
		p("soft", fmt.Sprintf("%.0f%%", row.Adoption*100), row.Result)
	}
	// The §2 incentive, visible at mixed adoption: opted-in jobs place
	// sooner than holdouts in the same run.
	for _, row := range r.Rows {
		if row.Adoption > 0 && row.Adoption < 1 {
			fmt.Fprintf(w, "\nincentive at %.0f%% adoption: p95 placement delay %v (soft jobs) vs %v (non-adopters)\n",
				row.Adoption*100,
				row.Result.P95QueueSoft.Round(time.Second),
				row.Result.P95QueueHard.Round(time.Second))
			break
		}
	}
}

// Cluster runs E6, the scheduler comparison quantifying the paper's §2
// motivation: one trace through the kill-based baseline and the soft
// scheduler at each adoption level.
func Cluster() ClusterResult {
	// The baseline holds every page as traditional memory, so the
	// trace's adoption does not change its run.
	res := ClusterResult{
		Baseline: simulateCluster(false, clusterMachines, clusterPagesPerMachine, clusterTrace(clusterSeed, 0)),
	}
	for _, adoption := range clusterAdoptions {
		r := simulateCluster(true, clusterMachines, clusterPagesPerMachine, clusterTrace(clusterSeed, adoption))
		res.Rows = append(res.Rows, ClusterRow{Adoption: adoption, Result: r})
	}
	return res
}
