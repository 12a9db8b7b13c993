package kvstore

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/pages"
)

// TestIncrAppendNoLostUpdates: INCR and APPEND are atomic on every entry
// point because every entry point runs the one exec under the shard's
// lock. The old table-locked Store.Incr read and wrote under two
// separate acquisitions and lost ~3/4 of these updates on two cores.
func TestIncrAppendNoLostUpdates(t *testing.T) {
	// Each worker does perWorker INCRs, then a tenth as many one-byte
	// APPENDs (an APPEND copies the whole value, so the total work is
	// quadratic in their number).
	const workers, perWorker = 4, 20000
	count := func(op Op) int {
		if op == OpAppend {
			return perWorker / 10
		}
		return perWorker
	}
	paths := map[string]func(t *testing.T, st *Store, op Op){
		"direct": func(t *testing.T, st *Store, op Op) {
			for i := 0; i < count(op); i++ {
				var err error
				if op == OpIncr {
					_, err = st.Incr("ctr", 1)
				} else {
					_, err = st.Append("log", []byte("x"))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		},
		// Pairs per Exec, so the commands run as a shard group (caller-runs
		// when the lock is free, the owner's ring when it is not).
		"batch": func(t *testing.T, st *Store, op Op) {
			b := st.NewBatch()
			for i := 0; i < count(op); i += 2 {
				for j := 0; j < 2; j++ {
					if op == OpIncr {
						b.Cmd(b.Add(OpIncr, "ctr")).Delta = 1
					} else {
						b.Cmd(b.Add(OpAppend, "log")).Arg = []byte("x")
					}
				}
				_ = b.Exec()
				for j := 0; j < b.Len(); j++ {
					// A full ring sheds (-BUSY): retry, as a client would.
					for c := b.Cmd(j); c.Err == ErrOverloaded; {
						st.Do(c)
					}
					if err := b.Cmd(j).Err; err != nil {
						t.Error(err)
						return
					}
				}
				b.Reset()
			}
		},
	}
	for _, shards := range []int{1, 2, 8} {
		for name, run := range paths {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				sma := core.New(core.Config{Machine: pages.NewPool(0)})
				st := New(sma, WithShards(shards))
				defer st.Close()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						run(t, st, OpIncr)
						run(t, st, OpAppend)
					}()
				}
				wg.Wait()
				checkTotals(t, st, workers*perWorker)
			})
		}
		// Two serial clients: each command is its own round trip, so every
		// INCR is a one-command settle on its connection's goroutine.
		t.Run(fmt.Sprintf("resp-depth1/shards=%d", shards), func(t *testing.T) {
			const conns, perConn = 2, 10000
			sma := core.New(core.Config{Machine: pages.NewPool(0)})
			st := New(sma, WithShards(shards))
			defer st.Close()
			srv := NewServer(st, func(string, ...any) {})
			addr, err := srv.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = srv.Serve() }()
			defer srv.Close()
			var wg sync.WaitGroup
			for c := 0; c < conns; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					cli, err := DialClient("tcp", addr.String())
					if err != nil {
						t.Error(err)
						return
					}
					defer cli.Close()
					for i := 0; i < perConn; i++ {
						if _, _, err := cli.Do("INCRBY", "ctr", "1"); err != nil {
							t.Error(err)
							return
						}
						if i%10 != 0 {
							continue
						}
						if _, _, err := cli.Do("APPEND", "log", "x"); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			checkTotals(t, st, conns*perConn)
		})
	}
}

// checkTotals: incrs INCRs and a tenth as many one-byte APPENDs landed.
func checkTotals(t *testing.T, st *Store, incrs int) {
	t.Helper()
	v, ok, err := st.Get("ctr")
	if err != nil || !ok || string(v) != strconv.Itoa(incrs) {
		t.Errorf("ctr = %q (ok=%v err=%v), want %d: updates lost", v, ok, err, incrs)
	}
	if n := st.StrLen("log"); n != incrs/10 {
		t.Errorf("len(log) = %d, want %d: appends lost", n, incrs/10)
	}
}

// hookDaemon grants every budget request, running hook (once) inside the
// first request made after arm — that is, on the allocating goroutine,
// in the window where it has dropped its shard lock for the round trip.
type hookDaemon struct {
	armed atomic.Bool
	hook  func()
}

func (d *hookDaemon) RequestBudget(n int, _ core.Usage) (int, error) {
	if d.armed.CompareAndSwap(true, false) {
		d.hook()
	}
	return n, nil
}

func (d *hookDaemon) ReleaseBudget(int, core.Usage) error { return nil }

// TestRMWRedoesReadWhenAllocationDropsLock closes the owner-path window:
// the put's allocation slow path drops and re-takes the shard lock for a
// budget round trip, between APPEND's read and its index update. A write
// that lands in that window must not be overwritten by a value computed
// from the stale read.
func TestRMWRedoesReadWhenAllocationDropsLock(t *testing.T) {
	d := &hookDaemon{}
	sma := core.New(core.Config{Machine: pages.NewPool(0), Daemon: d, BudgetChunk: 1})
	st := New(sma)
	defer st.Close()
	if err := st.Set("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	// The appended value needs a page of its own — a second page, past the
	// one-page budget — so its allocation goes to the daemon; while the
	// lock is away, k is deleted (a Del allocates nothing, so the hook
	// cannot recurse into the budget path).
	d.hook = func() {
		if _, err := st.Del("k"); err != nil {
			t.Error(err)
		}
	}
	d.armed.Store(true)
	data := make([]byte, 3000)
	n, err := st.Append("k", data)
	if err != nil {
		t.Fatal(err)
	}
	if d.armed.Load() {
		t.Fatal("the append never went to the daemon: the test lost its window")
	}
	// APPEND linearizes after the DEL: the key was absent, so it now holds
	// exactly the appended bytes — not "old" + data.
	if n != len(data) {
		t.Fatalf("Append = %d, want %d: stale read written back over the delete", n, len(data))
	}
	if got := st.StrLen("k"); got != len(data) {
		t.Fatalf("StrLen = %d, want %d", got, len(data))
	}
}

// TestDirectSetVisibleToYieldingOwner: a direct Set issued while another
// goroutine holds the shard's Owned and loops on Yield — an owner mid
// drain — must complete while that loop is still running, which needs
// the inline acquirer to register as a waiter; and the waiter count must
// return to zero afterwards.
func TestDirectSetVisibleToYieldingOwner(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma)
	defer st.Close()

	var stop atomic.Bool
	held := make(chan struct{})
	loopDone := make(chan struct{})
	probe := st.shards[0].ht.Context().Own() // Contended() reads the shared waiter count
	go func() {
		defer close(loopDone)
		o := st.shards[0].ht.Context().Own()
		if err := o.Acquire(); err != nil {
			t.Error(err)
			close(held)
			return
		}
		close(held)
		for !stop.Load() {
			if err := o.Yield(); err != nil {
				t.Error(err)
				return
			}
		}
		o.Release()
	}()
	<-held

	setDone := make(chan error, 1)
	go func() { setDone <- st.Set("k", []byte("v")) }()
	select {
	case err := <-setDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		stop.Store(true)
		t.Fatal("direct Set starved behind a yielding lock holder")
	}
	select {
	case <-loopDone:
		t.Fatal("holder loop ended before the Set was served")
	default:
	}
	stop.Store(true)
	<-loopDone
	if probe.Contended() {
		t.Fatal("waiter count did not return to zero")
	}
}
