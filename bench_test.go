// Benchmarks regenerating the paper's evaluation (§5) plus the component
// benchmarks behind it. Each paper artifact has a bench:
//
//	E1 / Figure 2  -> BenchmarkFigure2Reclamation
//	E2 / case (1)  -> BenchmarkStressCase1SMA vs BenchmarkStressCase1Baseline
//	E3 / case (2)  -> BenchmarkStressCase2SMA
//	E4 / case (3)  -> BenchmarkStressCase3Pressure vs BenchmarkStressCase3NoPressure
//	E5 / restart   -> BenchmarkReclaim2MiB vs BenchmarkKillRefill
//	E6 / cluster   -> BenchmarkCluster
//	E7 / ablation  -> BenchmarkAblateHeapPolicy
//	E8 / ablation  -> BenchmarkDaemonReclaimPath
//	E9 / ML cache  -> BenchmarkMLWarmEpoch
//
// Run everything: go test -bench=. -benchmem
// Paper-scale stress table: go run ./cmd/softbench -experiment stress -allocs 977000 -extra 500000
package softmem

import (
	"fmt"
	"testing"
	"time"

	"softmem/internal/alloc"
	"softmem/internal/core"
	"softmem/internal/experiments"
	"softmem/internal/kvstore"
	"softmem/internal/mlcache"
	"softmem/internal/pages"
	"softmem/internal/sds"
	"softmem/internal/smd"
	"softmem/internal/trace"
)

// ---- E2 / stress case (1): ample budget ----

// BenchmarkStressCase1SMA times 1 KiB soft allocations with the budget
// pre-granted (paper: 1.22x the system allocator).
func BenchmarkStressCase1SMA(b *testing.B) {
	machine := pages.NewPool(0)
	need := b.N/4 + 64
	daemon := smd.NewDaemon(smd.Config{TotalPages: need * 2})
	sma := core.New(core.Config{Machine: machine, BudgetChunk: need})
	ctx := sma.Register("bench", 0, nil)
	sma.AttachDaemon(daemon.Register("bench", sma))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Alloc(experiments.StressAllocSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStressCase1Baseline is the same workload through the bare
// textbook allocator (the paper's "system allocator").
func BenchmarkStressCase1Baseline(b *testing.B) {
	heap := alloc.New(alloc.PoolSource{Pool: pages.NewPool(0)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heap.Alloc(experiments.StressAllocSize); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E3 / stress case (2): budget grown via SMD round-trips ----

// BenchmarkStressCase2SMA times the same allocations with the default
// 64-page budget chunk, so the budget grows through daemon round-trips
// (paper: 1.23x — the communication amortizes away).
func BenchmarkStressCase2SMA(b *testing.B) {
	machine := pages.NewPool(0)
	daemon := smd.NewDaemon(smd.Config{TotalPages: b.N/2 + 128})
	sma := core.New(core.Config{Machine: machine})
	ctx := sma.Register("bench", 0, nil)
	sma.AttachDaemon(daemon.Register("bench", sma))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Alloc(experiments.StressAllocSize); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E4 / stress case (3): allocation under memory pressure ----

// BenchmarkStressCase3Pressure times allocations that force the daemon
// to reclaim pages from a victim process (paper: 1.44x no-pressure).
func BenchmarkStressCase3Pressure(b *testing.B) {
	res := experiments.Stress3(b.N+1000, b.N)
	b.ReportMetric(float64(res.SMA.Nanoseconds())/float64(b.N), "ns/alloc-pressured")
	b.ReportMetric(res.Ratio, "x-vs-nopressure")
}

// BenchmarkStressCase3NoPressure is the denominator: the same
// allocations against an uncontended machine.
func BenchmarkStressCase3NoPressure(b *testing.B) {
	machine := pages.NewPool(0)
	daemon := smd.NewDaemon(smd.Config{TotalPages: b.N/2 + 128})
	sma := core.New(core.Config{Machine: machine})
	ctx := sma.Register("bench", 0, nil)
	sma.AttachDaemon(daemon.Register("bench", sma))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Alloc(experiments.StressAllocSize); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E1 / Figure 2 ----

// BenchmarkFigure2Reclamation regenerates the Figure 2 scenario (scaled
// to 1/4 size per iteration) and reports the reclaimed volume.
func BenchmarkFigure2Reclamation(b *testing.B) {
	var lastMiB float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2(experiments.Fig2Config{
			MachineMiB: 5, StoreMiB: 3, OtherMiB: 3, // 3+3 > 5: must reclaim ~1 MiB
			PressureAt:      time.Second,
			CleanupPerEntry: time.Microsecond,
		})
		lastMiB = res.ReclaimedMiB
	}
	b.ReportMetric(lastMiB, "MiB-reclaimed")
}

// ---- E5 / reclaim vs kill ----

// BenchmarkReclaim2MiB times squeezing 2 MiB out of a loaded store —
// the soft memory path's cost.
func BenchmarkReclaim2MiB(b *testing.B) {
	value := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sma := core.New(core.Config{Machine: pages.NewPool(0)})
		store := kvstore.New(sma, kvstore.WithCleanupWork(200))
		for k := 0; k < 65536; k++ {
			if err := store.Set(trace.Key(uint64(k)), value); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		sma.HandleDemand(512) // 2 MiB
	}
}

// BenchmarkKillRefill times what the kill path must repeat: refilling
// the entire store from scratch (plus the paper's >=12ms downtime, not
// timed here).
func BenchmarkKillRefill(b *testing.B) {
	value := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		sma := core.New(core.Config{Machine: pages.NewPool(0)})
		store := kvstore.New(sma)
		for k := 0; k < 65536; k++ {
			if err := store.Set(trace.Key(uint64(k)), value); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- E6 / cluster schedulers ----

// BenchmarkCluster runs E6: the kill-based scheduler and the soft one at
// each adoption level over one trace, reporting evictions and wasted CPU
// hours for the baseline and for full adoption.
func BenchmarkCluster(b *testing.B) {
	var res experiments.ClusterResult
	for i := 0; i < b.N; i++ {
		res = experiments.Cluster()
	}
	full := res.Rows[len(res.Rows)-1].Result
	b.ReportMetric(float64(res.Baseline.Evictions), "baseline_evictions")
	b.ReportMetric(res.Baseline.WastedCPU.Hours(), "baseline_wastedCPUh")
	b.ReportMetric(float64(full.Evictions), "soft_evictions")
	b.ReportMetric(full.WastedCPU.Hours(), "soft_wastedCPUh")
}

// ---- E7 / heap organization ablation ----

// BenchmarkAblateHeapPolicy runs the §3.1 efficacy ablation and reports
// frees-per-page for the paper's design vs the arbitrary-free strawman.
func BenchmarkAblateHeapPolicy(b *testing.B) {
	var rows []experiments.HeapPolicyRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblateHeapPolicy(4, 2000, 256, 20)
	}
	for _, r := range rows {
		switch r.Policy {
		case "per-SDS heaps":
			b.ReportMetric(r.FreesPerPage, "frees/page-perSDS")
		case "shared heap, arbitrary":
			b.ReportMetric(r.FreesPerPage, "frees/page-arbitrary")
		}
	}
}

// ---- E8 / daemon reclaim path ----

// BenchmarkDaemonReclaimPath measures one full budget request that must
// reclaim from victims, across the weight policies.
func BenchmarkDaemonReclaimPath(b *testing.B) {
	for _, pol := range []smd.WeightPolicy{smd.ProportionalWeight{}, smd.FootprintWeight{}, smd.SoftShareWeight{}} {
		b.Run(pol.Name(), func(b *testing.B) {
			rows := experiments.AblatePolicy(1, 10) // warm the path once
			_ = rows
			d := smd.NewDaemon(smd.Config{TotalPages: 10000, Policy: pol, ReclaimFactor: 1.0})
			victims := make([]*smd.Proc, 8)
			for i := range victims {
				t := &alwaysYield{}
				victims[i] = d.Register(fmt.Sprintf("v%d", i), t)
				victims[i].RequestBudget(1250, core.Usage{UsedPages: 1250, TraditionalBytes: int64(i+1) << 20})
			}
			needy := d.Register("needy", nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if g, _ := needy.RequestBudget(16, core.Usage{}); g != 16 {
					b.Fatal("request denied")
				}
				needy.ReleaseBudget(16, core.Usage{})
			}
		})
	}
}

// alwaysYield is an smd.Target with infinite reclaimable pages.
type alwaysYield struct{}

func (alwaysYield) HandleDemand(n int) int { return n }

// ---- E9 / ML cache ----

// BenchmarkMLWarmEpoch measures a fully-warm training epoch (all cache
// hits) — the steady state soft memory makes cheap.
func BenchmarkMLWarmEpoch(b *testing.B) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	tr := mlcache.New(mlcache.Config{SMA: sma, Samples: 1000, SampleBytes: 1024, Seed: 1})
	defer tr.Close()
	if _, err := tr.RunEpoch(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := tr.RunEpoch()
		if err != nil {
			b.Fatal(err)
		}
		if st.HitRate() != 1.0 {
			b.Fatalf("epoch not warm: %v", st.HitRate())
		}
	}
}

// ---- E10 / drop vs swap ----

// BenchmarkSwapCompare runs the drop-vs-spill sweep (E10) and reports
// the cost ratio at 100% re-reference.
func BenchmarkSwapCompare(b *testing.B) {
	var res experiments.SwapResult
	for i := 0; i < b.N; i++ {
		res = experiments.SwapCompare(experiments.SwapConfig{Entries: 512, Accesses: 512, Seed: 3})
	}
	last := res.Rows[len(res.Rows)-1]
	if last.SwapCost > 0 {
		b.ReportMetric(float64(last.DropCost)/float64(last.SwapCost), "drop/swap-at-reref1")
	}
}

// ---- Component benchmarks ----

// BenchmarkHeapAllocFree measures the textbook allocator's hot path.
func BenchmarkHeapAllocFree(b *testing.B) {
	heap := alloc.New(alloc.PoolSource{Pool: pages.NewPool(0)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := heap.Alloc(256)
		if err != nil {
			b.Fatal(err)
		}
		if err := heap.Free(ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoftListPushBack measures SDS insertion (alloc + encode +
// index under lock).
func BenchmarkSoftListPushBack(b *testing.B) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	l := sds.NewSoftLinkedList(sma, "bench", sds.BytesCodec{}, nil)
	payload := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.PushBack(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoftHashTablePutGet measures the KV hot path end to end.
func BenchmarkSoftHashTablePutGet(b *testing.B) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	ht := sds.NewSoftHashTable[uint64](sma, "bench", sds.HashTableConfig[uint64]{})
	payload := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i % 4096)
		if err := ht.Put(k, payload); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := ht.Get(k); err != nil || !ok {
			b.Fatal(err)
		}
	}
}

// BenchmarkDemandLatency measures a single small reclamation demand
// against a loaded list (the SMA's two-tier reclaim path).
func BenchmarkDemandLatency(b *testing.B) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	l := sds.NewSoftLinkedList(sma, "bench", sds.BytesCodec{}, nil)
	payload := make([]byte, 1024)
	for i := 0; i < 4*(b.N+1024); i++ {
		if err := l.PushBack(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sma.HandleDemand(1) != 1 {
			b.Fatal("demand unsatisfied")
		}
	}
}

// BenchmarkSoftBufferWrite measures streaming appends into the soft log.
func BenchmarkSoftBufferWrite(b *testing.B) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	buf := sds.NewSoftBuffer(sma, "bench", sds.BufferConfig{})
	defer buf.Close()
	chunk := make([]byte, 1024)
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buf.Write(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVServerLoopback measures full client-server round-trips over
// TCP loopback (the serving stack of cmd/softkv).
func BenchmarkKVServerLoopback(b *testing.B) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	store := kvstore.New(sma)
	defer store.Close()
	srv := kvstore.NewServer(store, func(string, ...any) {})
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	cli, err := kvstore.DialClient("tcp", addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Set("bench", "value"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := cli.Get("bench"); err != nil || !ok {
			b.Fatal(err)
		}
	}
}
