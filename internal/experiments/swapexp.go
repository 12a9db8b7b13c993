package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"softmem/internal/alloc"
	"softmem/internal/core"
	"softmem/internal/pages"
	"softmem/internal/sds"
	"softmem/internal/spill"
)

// SwapConfig parameterizes E10, the drop-vs-swap comparison behind the
// paper's §6 positioning: "soft memory differs from swapping by actually
// revoking and dropping memory contents ... this makes sense when the
// data stored loses its utility once no longer in memory".
type SwapConfig struct {
	// Entries in the cache; values are swapValueBytes each. Default 2048.
	Entries int
	// Accesses after the pressure event. Default = Entries.
	Accesses int
	Seed     int64
}

// The E10 model.
const (
	// swapValueBytes is the size of every cached value.
	swapValueBytes = 4096
	// swapReclaimFrac of the cache is reclaimed by the pressure event.
	swapReclaimFrac = 0.5
	// swapRefetchCost models recomputing/re-fetching a dropped entry (the
	// paper's caching setup): a cheap recomputation. Higher values (a
	// remote database) shift the crossover toward swapping, which is
	// exactly the paper's "when the data stored loses its utility"
	// condition.
	swapRefetchCost = 100 * time.Microsecond
	// swapDeviceLatency and swapDevicePerByte model the far-memory tier.
	swapDeviceLatency = 20 * time.Microsecond
	swapDevicePerByte = time.Nanosecond
)

// swapRerefs lists the re-reference probabilities E10 sweeps: with
// probability p an access targets a reclaimed entry, else a resident one.
var swapRerefs = []float64{0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0}

func (c *SwapConfig) setDefaults() {
	if c.Entries <= 0 {
		c.Entries = 2048
	}
	if c.Accesses <= 0 {
		c.Accesses = c.Entries
	}
}

// SwapRow is one point of the E10 sweep.
type SwapRow struct {
	Reref    float64
	DropCost time.Duration // refetches for dropped entries
	SwapCost time.Duration // spills at reclaim + faults on access
	Winner   string
}

// SwapResult is the E10 sweep.
type SwapResult struct {
	Rows []SwapRow
}

// Fprint renders E10.
func (r SwapResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "E10 — drop (soft memory) vs. spill (far memory/swap) under reclamation\n\n")
	fmt.Fprintf(w, "%8s %14s %14s %8s\n", "reref", "drop-cost", "swap-cost", "winner")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%7.0f%% %14s %14s %8s\n",
			row.Reref*100, row.DropCost.Round(time.Microsecond), row.SwapCost.Round(time.Microsecond), row.Winner)
	}
}

// SwapCompare runs E10: the same cache, pressure event, and access
// stream under two reclamation strategies — dropping (the paper's soft
// memory; misses refetch from the database) and spilling (AIFM/zswap
// style; reclaimed data moves to the internal/spill disk tier, at a
// modelled device cost, and faults back).
func SwapCompare(cfg SwapConfig) SwapResult {
	cfg.setDefaults()
	var res SwapResult
	for _, p := range swapRerefs {
		res.Rows = append(res.Rows, swapPoint(cfg, p))
	}
	return res
}

func swapPoint(cfg SwapConfig, reref float64) SwapRow {
	value := make([]byte, swapValueBytes)
	key := func(i int) string { return fmt.Sprintf("k%06d", i) }
	reclaimPages := int(swapReclaimFrac * float64(cfg.Entries*alloc.ClassSize(swapValueBytes)) / pages.Size)

	// Strategy 1: drop (plain soft hash table, oldest-first eviction).
	var dropCost time.Duration
	{
		sma := core.New(core.Config{Machine: pages.NewPool(0)})
		var dropped []string
		ht := sds.NewSoftHashTable[string](sma, "drop", sds.HashTableConfig[string]{
			OnReclaim: func(k string, _ []byte) { dropped = append(dropped, k) },
		})
		for i := 0; i < cfg.Entries; i++ {
			if err := ht.Put(key(i), value); err != nil {
				panic(err)
			}
		}
		sma.HandleDemand(reclaimPages)
		droppedSet := map[string]bool{}
		for _, k := range dropped {
			droppedSet[k] = true
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		for a := 0; a < cfg.Accesses; a++ {
			k := pickKey(rng, reref, dropped, cfg.Entries, droppedSet, key)
			_, ok, err := ht.Get(k)
			if err != nil {
				panic(err)
			}
			if !ok {
				// Refetch from the database and repopulate.
				dropCost += swapRefetchCost
				if err := ht.Put(k, value); err == nil {
					delete(droppedSet, k)
				}
			}
		}
		ht.Close()
	}

	// Strategy 2: spill to the real disk tier (LRU, as a swapping cache
	// would). What the tier did is real — every reclaimed entry is demoted
	// to a record on disk and a miss promotes it back — but its cost is
	// modelled, so E10 compares modelled costs on both sides and stays
	// deterministic: swapDeviceLatency per demotion and per promotion plus
	// swapDevicePerByte per value byte moved.
	var swapCost time.Duration
	{
		dir, err := os.MkdirTemp("", "softmem-e10-")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		// Uncompressed: the model charges every value byte moved, and the
		// values are all zeros.
		far, err := spill.Open(spill.Config{Dir: dir, CompactInterval: -1, CompressMin: -1})
		if err != nil {
			panic(err)
		}
		defer far.Close()

		sma := core.New(core.Config{Machine: pages.NewPool(0)})
		var spilled []string
		tab := sds.NewSoftSpillTable(sma, "swap", far.Sink("swap"), sds.HashTableConfig[string]{
			Policy:    sds.EvictLRU,
			OnReclaim: func(k string, _ []byte) { spilled = append(spilled, k) },
		})
		for i := 0; i < cfg.Entries; i++ {
			if err := tab.Put(key(i), value); err != nil {
				panic(err)
			}
		}
		sma.HandleDemand(reclaimPages)
		spilledSet := map[string]bool{}
		for _, k := range spilled {
			spilledSet[k] = true
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		for a := 0; a < cfg.Accesses; a++ {
			k := pickKey(rng, reref, spilled, cfg.Entries, spilledSet, key)
			_, ok, err := tab.Get(k)
			if err != nil {
				panic(err)
			}
			if ok {
				delete(spilledSet, k)
			}
		}
		tab.Close()
		st := far.Stats()
		perMove := swapDeviceLatency + swapValueBytes*swapDevicePerByte
		swapCost = time.Duration(st.Demotions+st.Promotions) * perMove
	}

	row := SwapRow{Reref: reref, DropCost: dropCost, SwapCost: swapCost, Winner: "drop"}
	if swapCost < dropCost {
		row.Winner = "swap"
	}
	return row
}

// pickKey draws a reclaimed key with probability reref, else a resident
// one.
func pickKey(rng *rand.Rand, reref float64, reclaimed []string, entries int, reclaimedSet map[string]bool, key func(int) string) string {
	if len(reclaimed) > 0 && rng.Float64() < reref {
		return reclaimed[rng.Intn(len(reclaimed))]
	}
	// Resident: rejection-sample outside the reclaimed set.
	for tries := 0; tries < 64; tries++ {
		k := key(rng.Intn(entries))
		if !reclaimedSet[k] {
			return k
		}
	}
	return key(rng.Intn(entries))
}
