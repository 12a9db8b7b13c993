package kvstore

import (
	"os"
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/pages"
	"softmem/internal/spill"
)

// TestSoakSpill drives the YCSB-style load generator against a real
// RESP server whose store demotes to a spill tier, while a pressure
// loop plays the daemon and squeezes the store throughout the run.
// It is the `make soak-spill` target; skipped unless SOFTMEM_SOAK is
// set so the ordinary test suite stays fast.
func TestSoakSpill(t *testing.T) {
	if os.Getenv("SOFTMEM_SOAK") == "" {
		t.Skip("set SOFTMEM_SOAK=1 (or run `make soak-spill`) to run the spill soak")
	}

	sp, err := spill.Open(spill.Config{
		Dir:             t.TempDir(),
		BudgetBytes:     64 << 20,
		CompactInterval: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("spill.Open: %v", err)
	}
	defer sp.Close()

	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithShards(4), WithSpill(sp))
	defer st.Close()

	srv := NewServer(st, t.Logf)
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve()
	defer srv.Close()

	// The pressure loop: a stand-in daemon demanding pages every few
	// milliseconds, so entries demote continuously during the load.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sma.HandleDemand(64)
			}
		}
	}()

	res, err := RunLoad(LoadGenConfig{
		Addr:         addr.String(),
		Conns:        8,
		Requests:     200000,
		ReadFraction: DefaultReadFraction,
		Keys:         20000,
		ValueBytes:   1024,
		Seed:         1,
	})
	close(stop)
	<-done
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res.Fprint(os.Stderr)

	stats := st.Stats()
	spSt := sp.Stats()
	t.Logf("spill: demotions=%d promotions=%d hits=%d misses=%d compactions=%d on_disk=%d",
		spSt.Demotions, spSt.Promotions, spSt.Hits, spSt.Misses, spSt.Compactions, sp.BytesOnDisk())

	if spSt.Demotions == 0 {
		t.Fatal("soak produced no demotions — pressure loop ineffective")
	}
	if stats.Promotions == 0 {
		t.Fatal("soak produced no promotions — spill reads never happened")
	}
	if spSt.CorruptRecords != 0 || spSt.WriteErrors != 0 {
		t.Fatalf("spill integrity violated: corrupt=%d write_errors=%d",
			spSt.CorruptRecords, spSt.WriteErrors)
	}
	if res.HitRate() < 0.5 {
		t.Fatalf("hit rate %.1f%% under spill — promotion path not recovering demoted keys",
			100*res.HitRate())
	}
}
