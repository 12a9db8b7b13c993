package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/pages"
)

// TestNewOptions exercises the functional-options constructor: the
// requested shard count takes effect on a working store, whose rings
// have the one capacity there is.
func TestNewOptions(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithName("opts"), WithShards(4))
	defer st.Close()
	if got := len(st.shards); got != 4 {
		t.Fatalf("WithShards(4): %d shards", got)
	}
	if got := cap(st.shards[0].ring); got != ownerQueue {
		t.Fatalf("ring capacity %d, want %d", got, ownerQueue)
	}
	if err := st.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

// TestBatchCrossShard routes a multi-key batch over many shards and
// checks every result slot, including the batch helpers' semantics
// (MSET-style Sets, MGET-style Gets, DEL counting).
func TestBatchCrossShard(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithName("xshard"), WithShards(8))
	defer st.Close()

	b := st.NewBatch()
	const n = 64
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		vals[i] = []byte(fmt.Sprintf("value-%03d", i))
		b.Set(fmt.Sprintf("key-%03d", i), vals[i])
	}
	if err := b.Exec(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.Cmd(i).Err; err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}

	b.Reset()
	for i := 0; i < n; i++ {
		b.Get(fmt.Sprintf("key-%03d", i))
	}
	b.Get("missing-key")
	if err := b.Exec(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c := b.Cmd(i)
		if c.Err != nil || !c.Ok || !bytes.Equal(c.Val, vals[i]) {
			t.Fatalf("get %d = %q, %v, %v", i, c.Val, c.Ok, c.Err)
		}
	}
	if c := b.Cmd(n); c.Ok || c.Err != nil {
		t.Fatalf("missing key: ok=%v err=%v", c.Ok, c.Err)
	}

	b.Reset()
	for i := 0; i < n; i++ {
		b.Del(fmt.Sprintf("key-%03d", i))
	}
	b.Del("missing-key")
	if err := b.Exec(); err != nil {
		t.Fatal(err)
	}
	var removed int64
	for i := 0; i <= n; i++ {
		c := b.Cmd(i)
		if c.Err != nil {
			t.Fatalf("del %d: %v", i, c.Err)
		}
		removed += c.N
	}
	if removed != n {
		t.Fatalf("removed %d of %d", removed, n)
	}
	if st.Len() != 0 {
		t.Fatalf("Len = %d after deletes", st.Len())
	}
}

// TestBatchMixedOps runs every dispatchable op through one batch and
// checks the typed results against the direct-method semantics.
func TestBatchMixedOps(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithName("mixed"), WithShards(4))
	defer st.Close()

	b := st.NewBatch()
	iSet := b.Set("s", []byte("abc"))
	iApp := b.Add(OpAppend, "s")
	b.Cmd(iApp).Arg = []byte("def")
	iLen := b.Add(OpStrLen, "s")
	iIncr := b.Add(OpIncr, "ctr")
	b.Cmd(iIncr).Delta = 41
	iIncr2 := b.Add(OpIncr, "ctr")
	b.Cmd(iIncr2).Delta = 1
	iEx := b.Add(OpExists, "s")
	iExp := b.Add(OpExpire, "s")
	b.Cmd(iExp).Delta = int64(time.Hour)
	iTTL := b.Add(OpTTL, "s")
	iPer := b.Add(OpPersist, "s")
	iTTL2 := b.Add(OpTTL, "s")
	if err := b.Exec(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Len(); i++ {
		if err := b.Cmd(i).Err; err != nil {
			t.Fatalf("cmd %d: %v", i, err)
		}
	}
	if c := b.Cmd(iSet); c.Err != nil {
		t.Fatalf("set: %v", c.Err)
	}
	if c := b.Cmd(iApp); c.N != 6 {
		t.Fatalf("append len = %d", c.N)
	}
	if c := b.Cmd(iLen); c.N != 6 {
		t.Fatalf("strlen = %d", c.N)
	}
	if c := b.Cmd(iIncr2); c.N != 42 {
		t.Fatalf("incr = %d", c.N)
	}
	if c := b.Cmd(iEx); !c.Ok {
		t.Fatal("exists = false")
	}
	if c := b.Cmd(iExp); !c.Ok {
		t.Fatal("expire = false")
	}
	if c := b.Cmd(iTTL); !c.Ok || c.N <= 0 || c.N > int64(time.Hour) {
		t.Fatalf("ttl = %d, %v", c.N, c.Ok)
	}
	if c := b.Cmd(iPer); !c.Ok {
		t.Fatal("persist = false")
	}
	if c := b.Cmd(iTTL2); !c.Ok || c.N != -1 {
		t.Fatalf("ttl after persist = %d, %v (want -1, persisted key)", c.N, c.Ok)
	}
}

// TestEngineRace hammers the dispatch engine from many goroutines while
// reclamation, TTL sweeps, and integrity verification run concurrently:
// cross-shard MGET/MSET batches against owner-executed reclaim and
// expiry. Run with -race; the shared-nothing design means the only
// cross-goroutine state is the rings and the per-shard heap locks.
func TestEngineRace(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(256)})
	st := New(sma, WithName("race"), WithShards(4))
	defer st.Close()

	const workers = 4
	const rounds = 120
	var wg, churn sync.WaitGroup
	stop := make(chan struct{})

	// Reclaim pressure: steady page demands against the same contexts
	// the owners are executing on.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sma.HandleDemand(4)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// TTL expiry through the rings.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st.SweepExpired()
			time.Sleep(500 * time.Microsecond)
		}
	}()
	// Heap invariants under fire.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := sma.VerifyIntegrity(); err != nil {
				panic(err)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := st.NewBatch()
			val := []byte("race-value-0123456789abcdef")
			for r := 0; r < rounds; r++ {
				b.Reset()
				for i := 0; i < 16; i++ {
					b.Set(fmt.Sprintf("w%d-k%d", w, (r*16+i)%64), val)
				}
				if err := b.Exec(); err != nil {
					t.Errorf("mset: %v", err)
					return
				}
				b.Reset()
				for i := 0; i < 16; i++ {
					b.Get(fmt.Sprintf("w%d-k%d", w, i%64))
				}
				for i := 0; i < 4; i++ {
					idx := b.Add(OpExpire, fmt.Sprintf("w%d-k%d", w, i))
					b.Cmd(idx).Delta = int64(time.Microsecond)
				}
				if err := b.Exec(); err != nil {
					t.Errorf("mget: %v", err)
					return
				}
				// Reclaimed or expired keys may miss; values that do
				// arrive must be intact (no torn reads under reclaim).
				for i := 0; i < 16; i++ {
					c := b.Cmd(i)
					if c.Err == nil && c.Ok && !bytes.Equal(c.Val, val) {
						t.Errorf("torn read: %q", c.Val)
						return
					}
				}
			}
		}(w)
	}

	wg.Wait() // workers done; then stop the background churn
	close(stop)
	churn.Wait()
	if err := sma.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchOverloaded pins the shed path: with a single shard, a
// one-slot ring, and the owner parked on a held heap lock, a third
// batch must come back ErrOverloaded immediately instead of blocking
// the submitter.
func TestBatchOverloaded(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := newWithRing(sma, Config{Name: "overload", Shards: 1}, 1)
	defer st.Close()
	if err := st.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Park the owner: hold the shard's heap lock so the next batch it
	// pops blocks in Acquire until we let go.
	hold := make(chan struct{})
	held := make(chan struct{})
	go func() {
		_ = st.Context().Do(func(tx *core.Tx) error {
			close(held)
			<-hold
			return nil
		})
	}()
	<-held

	// Two in-flight batches: one the owner popped (blocked on Acquire),
	// one filling the single ring slot.
	var wg sync.WaitGroup
	exec := func() {
		defer wg.Done()
		b := st.NewBatch()
		b.Get("k")
		b.Get("k") // two commands: skip the single-command inline path
		if err := b.Exec(); err != nil {
			t.Errorf("in-flight batch: %v", err)
		}
		for i := 0; i < 2; i++ {
			if err := b.Cmd(i).Err; err != nil {
				t.Errorf("in-flight cmd %d: %v", i, err)
			}
		}
	}
	wg.Add(2)
	go exec()
	// Wait for the first batch to be popped by the owner (it blocks in
	// Acquire — the lock now has a waiter — with the ring empty again),
	// then fill the ring. An empty ring alone also describes the moment
	// before the first batch was submitted, and a second batch racing it
	// into the one-slot ring is shed.
	deadline := time.Now().Add(2 * time.Second)
	for len(st.shards[0].ring) != 0 || !st.shards[0].owned.Contended() {
		if time.Now().After(deadline) {
			t.Fatal("owner never popped the first batch")
		}
		time.Sleep(100 * time.Microsecond)
	}
	go exec()
	for len(st.shards[0].ring) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second batch never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Ring full, owner busy: this one must shed.
	b := st.NewBatch()
	b.Get("k")
	b.Get("k")
	if err := b.Exec(); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := b.Cmd(i).Err; err != ErrOverloaded {
			t.Fatalf("cmd %d err = %v, want ErrOverloaded", i, err)
		}
	}
	if st.EngineStats().Overloaded != 2 {
		t.Fatalf("Overloaded = %d, want 2", st.EngineStats().Overloaded)
	}

	close(hold) // release the owner; in-flight batches complete
	wg.Wait()
}

// TestBusyReplyMapping checks both halves of the shed-load protocol:
// the server's -BUSY wire form parses into a ReplyError that
// IsOverloaded recognizes.
func TestBusyReplyMapping(t *testing.T) {
	var buf bytes.Buffer
	rw := newRespWriter(bufio.NewWriter(&buf))
	if err := rw.busy(); err != nil {
		t.Fatal(err)
	}
	if err := rw.flush(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "-BUSY kvstore overloaded; retry later\r\n" {
		t.Fatalf("wire form %q", got)
	}
	rr := replyReader{lr: lineReader{r: bufio.NewReader(&buf)}}
	_, _, err := rr.read()
	if !IsOverloaded(err) {
		t.Fatalf("IsOverloaded(%v) = false", err)
	}
	if IsOverloaded(ReplyError("unknown command")) {
		t.Fatal("IsOverloaded misfires on ordinary reply errors")
	}
}

// BenchmarkServerPipelinedGET drives the full server path — RESP parse,
// batch routing, shard execution, reply rejoin — with one connection
// pipelining 32 GETs per round trip over loopback TCP. This is the
// depth-32 number kvbench reports, minus the load generator.
func BenchmarkServerPipelinedGET(b *testing.B) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithName("bench-pipe"))
	b.Cleanup(st.Close)
	if err := st.Set("bench-key", bytes.Repeat([]byte("v"), 256)); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(st, func(string, ...any) {})
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	b.Cleanup(func() { srv.Close() })
	cli, err := DialClient("tcp", addr.String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cli.Close() })

	const depth = 32
	pl := cli.Pipeline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		for j := 0; j < depth; j++ {
			pl.Command("GET", "bench-key")
		}
		if err := pl.Exec(func(int, []byte, bool, error) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReclaimDuringRead drives GET batches while reclamation is forced
// between every round, on a pool small enough that most rounds revoke
// entries. Owners hold the heap lock across batches and yield to the
// reclaimer between commands, so reads must never observe torn values.
func TestReclaimDuringRead(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(32)})
	st := New(sma, WithName("reclaim-read"), WithShards(2))
	defer st.Close()

	val := bytes.Repeat([]byte("x"), 512)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sma.HandleDemand(2)
		}
	}()

	b := st.NewBatch()
	for r := 0; r < 200; r++ {
		b.Reset()
		for i := 0; i < 8; i++ {
			b.Set(fmt.Sprintf("k%d", i), val)
		}
		_ = b.Exec()
		b.Reset()
		for i := 0; i < 8; i++ {
			b.Get(fmt.Sprintf("k%d", i))
		}
		_ = b.Exec()
		for i := 0; i < 8; i++ {
			c := b.Cmd(i)
			if c.Err == nil && c.Ok && !bytes.Equal(c.Val, val) {
				t.Fatalf("round %d: torn read, len=%d", r, len(c.Val))
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := sma.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
