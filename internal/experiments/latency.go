package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"softmem/internal/core"
	"softmem/internal/kvstore"
	"softmem/internal/pages"
	"softmem/internal/trace"
)

// LatencyConfig parameterizes E11, the reclamation-latency
// characterization. The paper notes reclamation must happen on short
// timescales (§7); this experiment measures how demand latency scales
// with demand size and with the per-entry cleanup work applications hang
// off the callback.
type LatencyConfig struct {
	// Entries preloaded into the store (64-byte values). Default 131072
	// (~8 MiB, the paper's scale).
	Entries int
	// Demands lists the demand sizes (pages) to sweep.
	Demands []int
	// CleanupWorks lists per-entry callback workloads to sweep (0 =
	// free-only).
	CleanupWorks []int
	// Trials per point. Default 5.
	Trials int
}

func (c *LatencyConfig) setDefaults() {
	if c.Entries <= 0 {
		c.Entries = 131072
	}
	if len(c.Demands) == 0 {
		c.Demands = []int{1, 16, 64, 256, 1024}
	}
	if len(c.CleanupWorks) == 0 {
		c.CleanupWorks = []int{0, 1000}
	}
	if c.Trials <= 0 {
		c.Trials = 5
	}
}

// LatencyRow is one point of the E11 sweep. Latency is the median over
// the point's trials: a mean lets one descheduled 1-page trial outweigh
// a whole 64-page row.
type LatencyRow struct {
	DemandPages int
	CleanupWork int
	Latency     time.Duration
	PerPage     time.Duration
	PerEntry    time.Duration
	Entries     int64 // entries reclaimed per trial
}

// LatencyResult is the E11 sweep.
type LatencyResult struct {
	Rows []LatencyRow
}

// Fprint renders E11.
func (r LatencyResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "E11 — reclamation demand latency (store of 64B entries)\n\n")
	fmt.Fprintf(w, "%8s %9s %14s %12s %12s %9s\n", "demand", "cleanup", "latency", "per-page", "per-entry", "entries")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8d %9d %14s %12s %12s %9d\n",
			row.DemandPages, row.CleanupWork,
			row.Latency.Round(time.Microsecond), row.PerPage.Round(time.Nanosecond),
			row.PerEntry.Round(time.Nanosecond), row.Entries)
	}
}

// ReclaimLatency runs E11: for each (demand size, cleanup work) point,
// preload a fresh store and time HandleDemand. Each round of trials
// visits every point once, so a slow stretch of the machine lands on all
// rows alike instead of on whichever row was being measured.
func ReclaimLatency(cfg LatencyConfig) LatencyResult {
	cfg.setDefaults()
	var rows []LatencyRow
	for _, work := range cfg.CleanupWorks {
		for _, demand := range cfg.Demands {
			rows = append(rows, LatencyRow{DemandPages: demand, CleanupWork: work})
		}
	}
	trials := make([][]time.Duration, len(rows))
	value := make([]byte, 64)
	for trial := 0; trial < cfg.Trials; trial++ {
		for i := range rows {
			row := &rows[i]
			sma := core.New(core.Config{Machine: pages.NewPool(0)})
			store := kvstore.New(sma, kvstore.WithCleanupWork(row.CleanupWork))
			keys := trace.NewSequentialKeys(uint64(cfg.Entries))
			for n := 0; n < cfg.Entries; n++ {
				if err := store.Set(trace.Key(keys.Next()), value); err != nil {
					panic(fmt.Sprintf("latency: preload: %v", err))
				}
			}
			// Finish the preload's collection first: left running, it
			// shares the CPUs with the timed demand and adds more to a
			// trial than the cleanup work being compared.
			runtime.GC()
			start := time.Now()
			released := sma.HandleDemand(row.DemandPages)
			trials[i] = append(trials[i], time.Since(start))
			if released < row.DemandPages {
				panic(fmt.Sprintf("latency: released %d of %d", released, row.DemandPages))
			}
			row.Entries += store.Stats().Reclaimed
			store.Close()
		}
	}
	for i := range rows {
		row, d := &rows[i], trials[i]
		sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
		row.Latency = (d[(len(d)-1)/2] + d[len(d)/2]) / 2
		row.PerPage = row.Latency / time.Duration(row.DemandPages)
		row.Entries /= int64(cfg.Trials)
		if row.Entries > 0 {
			row.PerEntry = row.Latency / time.Duration(row.Entries)
		}
	}
	return LatencyResult{Rows: rows}
}
