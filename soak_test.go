package softmem

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"softmem/internal/core"
	"softmem/internal/kvstore"
	"softmem/internal/mlcache"
	"softmem/internal/pages"
	"softmem/internal/sds"
	"softmem/internal/smd"
	"softmem/internal/trace"
)

// TestSoakMixedWorkload runs the whole stack at once: one machine, one
// daemon, four processes with different SDS mixes, concurrent mutators,
// and continuous cross-process pressure. Afterwards every SMA's
// accounting must verify, machine pages must be conserved, and every
// surviving structure must read back consistently.
func TestSoakMixedWorkload(t *testing.T) {
	const totalPages = 4096 // 16 MiB machine
	machine := pages.NewPool(totalPages)
	daemon := smd.NewDaemon(smd.Config{TotalPages: totalPages})

	mk := func(name string) *core.SMA {
		sma := core.New(core.Config{Machine: machine})
		sma.AttachDaemon(daemon.Register(name, sma))
		return sma
	}

	// Process 1: a KV cache.
	kvSMA := mk("kv")
	store := kvstore.New(kvSMA, kvstore.WithPolicy(sds.EvictLRU))
	defer store.Close()

	// Process 2: an ML trainer.
	mlSMA := mk("ml")
	trainer := mlcache.New(mlcache.Config{SMA: mlSMA, Samples: 600, SampleBytes: 2048, Seed: 3})
	defer trainer.Close()

	// Process 3: a log shipper with a soft buffer and a request queue.
	logSMA := mk("logger")
	logBuf := sds.NewSoftBuffer(logSMA, "log", sds.BufferConfig{ChunkBytes: 8192})
	defer logBuf.Close()
	queue := sds.NewSoftQueue(logSMA, "requests", sds.Uint64Codec{}, nil, sds.WithPriority(1))
	defer queue.Close()

	// Process 4: a time-series store.
	tsSMA := mk("tsdb")
	series := sds.NewSoftSortedMap[uint64](tsSMA, "points", sds.SortedMapConfig[uint64]{Seed: 5})
	defer series.Close()

	var mut sync.WaitGroup
	fail := make(chan error, 16)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}

	// KV mutator: Zipf churn with value verification.
	mut.Add(1)
	go func() {
		defer mut.Done()
		keys := trace.NewZipfKeys(1, 3000, 1.2)
		value := make([]byte, 512)
		for i := 0; i < 4000; i++ {
			k := trace.Key(keys.Next())
			if i%3 == 0 {
				if err := store.Set(k, value); err != nil {
					report(fmt.Errorf("kv set: %w", err))
					return
				}
			} else {
				v, ok, err := store.Get(k)
				if err != nil {
					report(fmt.Errorf("kv get: %w", err))
					return
				}
				if ok && len(v) != 512 {
					report(fmt.Errorf("kv value corrupted: %d bytes", len(v)))
					return
				}
			}
		}
	}()

	// ML epochs.
	mut.Add(1)
	go func() {
		defer mut.Done()
		for e := 0; e < 6; e++ {
			if _, err := trainer.RunEpoch(); err != nil {
				report(fmt.Errorf("ml epoch: %w", err))
				return
			}
		}
	}()

	// Logger: stream writes plus queue churn.
	mut.Add(1)
	go func() {
		defer mut.Done()
		line := make([]byte, 256)
		for i := 0; i < 3000; i++ {
			if _, err := logBuf.Write(line); err != nil {
				report(fmt.Errorf("log write: %w", err))
				return
			}
			if err := queue.Push(uint64(i)); err != nil {
				report(fmt.Errorf("queue push: %w", err))
				return
			}
			if i%4 == 0 {
				if _, _, err := queue.Pop(); err != nil {
					report(fmt.Errorf("queue pop: %w", err))
					return
				}
			}
		}
	}()

	// Time series: ordered inserts plus range scans.
	mut.Add(1)
	go func() {
		defer mut.Done()
		point := make([]byte, 128)
		for ts := uint64(0); ts < 3000; ts++ {
			if err := series.Put(ts, point); err != nil {
				report(fmt.Errorf("series put: %w", err))
				return
			}
			if ts%64 == 63 {
				prev := uint64(0)
				err := series.Range(0, ts, func(k uint64, _ []byte) bool {
					if k < prev {
						report(fmt.Errorf("series out of order: %d after %d", k, prev))
						return false
					}
					prev = k
					return true
				})
				if err != nil {
					report(fmt.Errorf("series range: %w", err))
					return
				}
			}
		}
	}()

	// Chaos: random direct demands against every process while the
	// daemon also reclaims on its own via budget pressure.
	stop := make(chan struct{})
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(9))
		smas := []*core.SMA{kvSMA, mlSMA, logSMA, tsSMA}
		for {
			select {
			case <-stop:
				return
			default:
				smas[rng.Intn(len(smas))].HandleDemand(1 + rng.Intn(8))
			}
		}
	}()

	mut.Wait()
	close(stop)
	<-chaosDone
	close(fail)
	if err := <-fail; err != nil {
		t.Fatal(err)
	}

	// Post-soak invariants: every SMA's books balance and the machine's
	// pages are exactly accounted for.
	total := 0
	for name, sma := range map[string]*core.SMA{"kv": kvSMA, "ml": mlSMA, "log": logSMA, "ts": tsSMA} {
		if err := sma.VerifyIntegrity(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total += sma.Stats().UsedPages
	}
	if machine.InUse() != total {
		t.Fatalf("machine InUse %d != sum of SMA usage %d", machine.InUse(), total)
	}
	if machine.InUse() > totalPages {
		t.Fatal("machine over-committed")
	}
	if st := daemon.Stats(); st.BudgetPages > totalPages {
		t.Fatalf("daemon over-committed: %+v", st)
	}
	// Structures still respond and agree with themselves.
	if n := store.Len(); n < 0 {
		t.Fatalf("store len %d", n)
	}
	if got := logBuf.Retained(); got < 0 || got > logBuf.Size() {
		t.Fatalf("buffer retained %d of %d", got, logBuf.Size())
	}
	count := 0
	if err := series.Range(0, 1<<62, func(uint64, []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != series.Len() {
		t.Fatalf("series Range saw %d, Len says %d", count, series.Len())
	}
	t.Logf("soak done: kv=%d entries, series=%d points, buffer=%dB retained, machine=%d/%d pages",
		store.Len(), series.Len(), logBuf.Retained(), machine.InUse(), totalPages)
}
