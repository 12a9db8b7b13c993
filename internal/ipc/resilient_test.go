package ipc

import (
	"errors"
	"net"
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/pages"
	"softmem/internal/smd"
)

// startServerOn runs a daemon server on a specific address (so a
// "restarted" daemon can reuse it).
func startServerOn(t *testing.T, addr string, cfg smd.Config) (*smd.Daemon, *Server) {
	t.Helper()
	daemon := smd.NewDaemon(cfg)
	srv := NewServer(daemon, func(string, ...any) {})
	if _, err := srv.Listen("tcp", addr); err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	return daemon, srv
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func TestResilientSurvivesDaemonRestart(t *testing.T) {
	addr := freeAddr(t)
	_, srv1 := startServerOn(t, addr, smd.Config{TotalPages: 1000})

	machine := pages.NewPool(0)
	sma := core.New(core.Config{Machine: machine})
	ctx := sma.Register("data", 0, nil)
	rc, err := DialResilient("tcp", addr, "proc", sma,
		WithBackoff(10*time.Millisecond, 0), WithLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	sma.AttachDaemon(rc)

	// Allocate through the first daemon incarnation.
	for i := 0; i < 256; i++ { // 64 pages
		if _, err := ctx.Alloc(1024); err != nil {
			t.Fatal(err)
		}
	}
	heldBudget := sma.BudgetPages()
	if heldBudget == 0 {
		t.Fatal("no budget granted before restart")
	}

	// Daemon dies...
	srv1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for rc.Connected() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if rc.Connected() {
		t.Fatal("client never noticed the daemon dying")
	}
	// ...budget calls fail fast while down...
	if _, err := rc.RequestBudget(1, core.Usage{}); !errors.Is(err, ErrReconnecting) {
		t.Fatalf("err while down = %v, want ErrReconnecting", err)
	}

	// ...and a fresh daemon comes up on the same address.
	daemon2, srv2 := startServerOn(t, addr, smd.Config{TotalPages: 1000})
	defer srv2.Close()
	for !rc.Connected() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !rc.Connected() {
		t.Fatal("client never reconnected")
	}
	if rc.Reconnects() != 1 {
		t.Fatalf("reconnects = %d", rc.Reconnects())
	}

	// The fresh daemon's ledger was resynced with the held pages.
	waitLedger := func() bool {
		st := daemon2.Stats()
		return st.Procs == 1 && st.BudgetPages >= sma.Stats().UsedPages
	}
	for !waitLedger() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !waitLedger() {
		t.Fatalf("ledger not resynced: daemon=%+v sma=%+v", daemon2.Stats(), sma.Stats())
	}

	// And allocation continues against the new incarnation.
	for i := 0; i < 256; i++ {
		if _, err := ctx.Alloc(1024); err != nil {
			t.Fatalf("alloc after restart: %v", err)
		}
	}
}

func TestResilientResyncShrinksWhenMachineShrank(t *testing.T) {
	addr := freeAddr(t)
	_, srv1 := startServerOn(t, addr, smd.Config{TotalPages: 1000})

	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	ctx := sma.Register("data", 0, nil)
	rc, err := DialResilient("tcp", addr, "proc", sma,
		WithBackoff(10*time.Millisecond, 0), WithLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	sma.AttachDaemon(rc)
	for i := 0; i < 512; i++ { // 128 pages
		if _, err := ctx.Alloc(1024); err != nil {
			t.Fatal(err)
		}
	}
	srv1.Close()

	// The replacement daemon arbitrates a much smaller partition.
	_, srv2 := startServerOn(t, addr, smd.Config{TotalPages: 32})
	defer srv2.Close()
	// The resync cannot re-reserve 128 pages against a 32-page machine:
	// the SMA's budget must be adopted downward (the daemon will reclaim
	// the physical difference via future demands). Poll: the watcher
	// takes a moment to notice the disconnect and re-dial.
	deadline := time.Now().Add(5 * time.Second)
	for sma.BudgetPages() > 32 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := sma.BudgetPages(); got > 32 {
		t.Fatalf("budget after shrunken resync = %d, want <= 32", got)
	}
	if !rc.Connected() {
		t.Fatal("not connected after resync")
	}
}

func TestResilientClose(t *testing.T) {
	addr := freeAddr(t)
	_, srv := startServerOn(t, addr, smd.Config{TotalPages: 100})
	defer srv.Close()
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	rc, err := DialResilient("tcp", addr, "p", sma, WithLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if _, err := rc.RequestBudget(1, core.Usage{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err after close = %v", err)
	}
	if rc.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestResilientNeedsProcess(t *testing.T) {
	if _, err := DialResilient("tcp", "127.0.0.1:1", "x", nil); err == nil {
		t.Fatal("nil process accepted")
	}
}
