package experiments

import (
	"fmt"
	"io"
	"time"

	"softmem/internal/core"
	"softmem/internal/mlcache"
	"softmem/internal/pages"
)

// MLConfig parameterizes E9, the ML training-cache use case (§2).
type MLConfig struct {
	Samples     int // default 2000
	SampleBytes int // default 2048
	Epochs      int // default 8
	// SqueezeEpoch injects a reclamation after this epoch (default 4),
	// taking mlSqueezeFrac of the cache's pages.
	SqueezeEpoch int
}

// mlSqueezeFrac is the share of the cache's pages the squeeze takes.
const mlSqueezeFrac = 0.5

func (c *MLConfig) setDefaults() {
	if c.Samples <= 0 {
		c.Samples = 2000
	}
	if c.SampleBytes <= 0 {
		c.SampleBytes = 2048
	}
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.SqueezeEpoch <= 0 {
		c.SqueezeEpoch = 4
	}
}

// MLResult is the per-epoch trace of E9.
type MLResult struct {
	Epochs       []mlcache.EpochStats
	SqueezeAfter int
	SqueezedPgs  int
}

// Fprint renders E9's epoch table.
func (r MLResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "E9 — ML training cache under reclamation (§2 use case)\n\n")
	fmt.Fprintf(w, "%-6s %-14s %9s %9s %8s\n", "epoch", "time", "hitrate", "cache", "note")
	for i, e := range r.Epochs {
		note := ""
		if i+1 == r.SqueezeAfter {
			note = fmt.Sprintf("<- %d pages reclaimed after this epoch", r.SqueezedPgs)
		}
		fmt.Fprintf(w, "%-6d %-14s %8.1f%% %9d %s\n",
			e.Epoch, e.Time.Round(time.Millisecond), 100*e.HitRate(), e.CacheLen, note)
	}
}

// ML runs E9: epochs warm the soft cache; a mid-training reclamation
// slows the next epoch; misses repopulate and epoch time recovers —
// "this slows down the ML training, but makes memory available for other
// workloads".
func ML(cfg MLConfig) MLResult {
	cfg.setDefaults()
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	tr := mlcache.New(mlcache.Config{
		SMA: sma, Samples: cfg.Samples, SampleBytes: cfg.SampleBytes, Seed: 7,
	})
	defer tr.Close()

	res := MLResult{SqueezeAfter: cfg.SqueezeEpoch}
	for e := 1; e <= cfg.Epochs; e++ {
		st, err := tr.RunEpoch()
		if err != nil {
			panic(fmt.Sprintf("ml: epoch %d: %v", e, err))
		}
		res.Epochs = append(res.Epochs, st)
		if e == cfg.SqueezeEpoch {
			pagesHeld := tr.Cache().Context().HeapStats().PagesHeld
			demand := int(float64(pagesHeld) * mlSqueezeFrac)
			res.SqueezedPgs = sma.HandleDemand(demand)
		}
	}
	return res
}
