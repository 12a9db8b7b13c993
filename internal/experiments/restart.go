package experiments

import (
	"fmt"
	"io"
	"time"

	"softmem/internal/core"
	"softmem/internal/kvstore"
	"softmem/internal/pages"
	"softmem/internal/trace"
)

// RestartConfig parameterizes E5, the reclaim-vs-kill cost comparison
// behind the paper's claim that killing Redis costs "a minimum of 12 ms
// of downtime ... with an additional, load-dependent period of increased
// tail latency while the cache refills".
type RestartConfig struct {
	// Entries preloaded into the store. Default 65536 (~4 MiB of 64-byte
	// values).
	Entries int
	// ReclaimMiB is how much the daemon squeezes. Default 2 (the paper's
	// Figure 2 reclamation).
	ReclaimMiB int
	// CleanupWork models per-entry traditional-memory cleanup (see
	// kvstore.Config.CleanupWork). Default 200.
	CleanupWork int
}

// restartDowntime is the process restart floor. Paper: 12 ms.
const restartDowntime = 12 * time.Millisecond

func (c *RestartConfig) setDefaults() {
	if c.Entries <= 0 {
		c.Entries = 65536
	}
	if c.ReclaimMiB <= 0 {
		c.ReclaimMiB = 2
	}
	if c.CleanupWork <= 0 {
		c.CleanupWork = 200
	}
}

// RestartResult compares reclaiming part of a cache against killing and
// restarting the whole process.
type RestartResult struct {
	Entries          int
	ReclaimedEntries int64
	ReclaimedPages   int
	ReclaimTime      time.Duration // squeeze the cache, keep running
	LostEntriesCost  time.Duration // refill just the reclaimed entries
	RestartDowntime  time.Duration // process restart floor
	RefillAllTime    time.Duration // re-populate the entire cache
	KillCost         time.Duration // downtime + full refill
	Advantage        float64       // KillCost / (ReclaimTime + LostEntriesCost)
}

// Fprint renders the comparison.
func (r RestartResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "E5 — reclaim vs. kill-and-restart (store: %d entries)\n\n", r.Entries)
	fmt.Fprintf(w, "  soft memory path:\n")
	fmt.Fprintf(w, "    reclaim %d pages (%d entries): %v\n", r.ReclaimedPages, r.ReclaimedEntries, r.ReclaimTime.Round(time.Microsecond))
	fmt.Fprintf(w, "    refill reclaimed entries on demand: %v\n", r.LostEntriesCost.Round(time.Microsecond))
	fmt.Fprintf(w, "  kill path (what happens without soft memory):\n")
	fmt.Fprintf(w, "    restart downtime (paper: >=12ms): %v\n", r.RestartDowntime)
	fmt.Fprintf(w, "    refill ENTIRE cache: %v\n", r.RefillAllTime.Round(time.Microsecond))
	fmt.Fprintf(w, "    total: %v\n", r.KillCost.Round(time.Microsecond))
	fmt.Fprintf(w, "  advantage: killing costs %.1fx the soft memory path\n", r.Advantage)
}

// Restart runs E5: load a store, measure squeezing ReclaimMiB out of it,
// and compare with the modelled cost of the kill-restart-refill path.
func Restart(cfg RestartConfig) RestartResult {
	cfg.setDefaults()
	machine := pages.NewPool(0)
	sma := core.New(core.Config{Machine: machine})
	store := kvstore.New(sma, kvstore.WithCleanupWork(cfg.CleanupWork))
	defer store.Close()

	value := make([]byte, 64)
	keys := trace.NewSequentialKeys(uint64(cfg.Entries))
	fillStart := time.Now()
	for i := 0; i < cfg.Entries; i++ {
		if err := store.Set(trace.Key(keys.Next()), value); err != nil {
			panic(fmt.Sprintf("restart: preload: %v", err))
		}
	}
	refillAll := time.Since(fillStart)

	demand := cfg.ReclaimMiB << 20 / pages.Size
	reclaimStart := time.Now()
	released := sma.HandleDemand(demand)
	reclaimTime := time.Since(reclaimStart)
	reclaimed := store.Stats().Reclaimed

	// Refilling only the reclaimed entries scales linearly with count.
	perEntry := refillAll / time.Duration(cfg.Entries)
	lostCost := perEntry * time.Duration(reclaimed)

	kill := restartDowntime + refillAll
	softPath := reclaimTime + lostCost
	adv := 0.0
	if softPath > 0 {
		adv = float64(kill) / float64(softPath)
	}
	return RestartResult{
		Entries:          cfg.Entries,
		ReclaimedEntries: reclaimed,
		ReclaimedPages:   released,
		ReclaimTime:      reclaimTime,
		LostEntriesCost:  lostCost,
		RestartDowntime:  restartDowntime,
		RefillAllTime:    refillAll,
		KillCost:         kill,
		Advantage:        adv,
	}
}
