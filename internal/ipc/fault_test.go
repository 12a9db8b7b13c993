package ipc

import (
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/faultinject"
	"softmem/internal/pages"
	"softmem/internal/smd"
)

// TestResilientResyncsAfterTornFrame severs the daemon link with an
// injected torn frame (header promises more bytes than arrive) instead
// of a clean Close: the client must treat it like any other disconnect —
// reconnect with jittered backoff, re-register, and resync its budget.
func TestResilientResyncsAfterTornFrame(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	addr := freeAddr(t)
	daemon, srv := startServerOn(t, addr, smd.Config{TotalPages: 1000})
	defer srv.Close()

	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	ctx := sma.Register("data", 0, nil)
	rc, err := DialResilient("tcp", addr, "proc", sma,
		WithBackoff(5*time.Millisecond, 50*time.Millisecond),
		WithJitterSeed(1), WithLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	sma.AttachDaemon(rc)
	for i := 0; i < 256; i++ { // 64 pages held
		if _, err := ctx.Alloc(1024); err != nil {
			t.Fatal(err)
		}
	}

	// The next frame written in this process is the budget request below;
	// it tears mid-write and takes the connection with it.
	if err := faultinject.Arm("ipc.frame.write:on=1:short"); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.RequestBudget(1, core.Usage{}); err == nil {
		t.Fatal("torn frame produced a clean budget call")
	}

	deadline := time.Now().Add(5 * time.Second)
	for (!rc.Connected() || rc.Reconnects() < 1) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if rc.Reconnects() != 1 {
		t.Fatalf("reconnects = %d, want 1", rc.Reconnects())
	}
	ledgerSynced := func() bool {
		st := daemon.Stats()
		return st.BudgetPages >= sma.Stats().UsedPages
	}
	for !ledgerSynced() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !ledgerSynced() {
		t.Fatalf("ledger not resynced: daemon=%+v sma=%+v", daemon.Stats(), sma.Stats())
	}
	if _, err := ctx.Alloc(1024); err != nil {
		t.Fatalf("alloc after torn-frame recovery: %v", err)
	}
}

// TestResilientResyncsAfterDoubleRestart kills and replaces the daemon
// twice in a row; the client must come back both times with the ledger
// resynced (today only single clean restarts were covered).
func TestResilientResyncsAfterDoubleRestart(t *testing.T) {
	faultinject.Reset() // stray armed points would confound the frames here
	addr := freeAddr(t)
	_, srv := startServerOn(t, addr, smd.Config{TotalPages: 1000})

	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	ctx := sma.Register("data", 0, nil)
	rc, err := DialResilient("tcp", addr, "proc", sma,
		WithBackoff(5*time.Millisecond, 50*time.Millisecond),
		WithJitterSeed(7), WithLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	sma.AttachDaemon(rc)
	for i := 0; i < 256; i++ {
		if _, err := ctx.Alloc(1024); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	var lastDaemon *smd.Daemon
	for round := 1; round <= 2; round++ {
		srv.Close()
		for rc.Connected() && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		lastDaemon, srv = startServerOn(t, addr, smd.Config{TotalPages: 1000})
		for rc.Reconnects() < round && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if rc.Reconnects() != round {
			t.Fatalf("round %d: reconnects = %d", round, rc.Reconnects())
		}
	}
	defer srv.Close()

	ledgerSynced := func() bool {
		st := lastDaemon.Stats()
		return st.Procs == 1 && st.BudgetPages >= sma.Stats().UsedPages
	}
	for !ledgerSynced() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !ledgerSynced() {
		t.Fatalf("ledger not resynced after double restart: daemon=%+v sma=%+v",
			lastDaemon.Stats(), sma.Stats())
	}
	for i := 0; i < 64; i++ {
		if _, err := ctx.Alloc(1024); err != nil {
			t.Fatalf("alloc after double restart: %v", err)
		}
	}
}

// TestBackoffJitterIsSeededAndSpread reproduces the thundering-herd fix
// at the unit level: two clients with different seeds must not produce
// identical reconnect schedules, and the same seed must reproduce its
// own schedule (determinism for chaos runs).
func TestBackoffJitterIsSeededAndSpread(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		o := resolveOptions([]DialOption{WithBackoff(100*time.Millisecond, 5*time.Second), WithJitterSeed(seed)})
		j := NewJitter(o.jitterSeed)
		delay := o.backoff
		var out []time.Duration
		for i := 0; i < 8; i++ {
			out = append(out, j.Sleep(delay))
			if delay *= 2; delay > o.maxBackoff {
				delay = o.maxBackoff
			}
		}
		return out
	}
	a, b, a2 := schedule(1), schedule(2), schedule(1)
	same := true
	for i := range a {
		if a[i] != a2[i] {
			t.Fatalf("same seed diverged at step %d: %v vs %v", i, a[i], a2[i])
		}
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules (no jitter)")
	}
}
