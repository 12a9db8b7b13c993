package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/metrics"
	"softmem/internal/pages"
)

// newAttribStore builds a store with attribution armed at the given
// slowlog threshold/size (RegisterMetrics is what arms it, matching the
// binaries).
func newAttribStore(t *testing.T, threshold time.Duration, size int) (*Store, *metrics.Registry) {
	t.Helper()
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithSlowLog(threshold, size))
	t.Cleanup(st.Close)
	reg := metrics.NewRegistry()
	st.RegisterMetrics(reg)
	return st, reg
}

func TestSlowLogRingNewestFirst(t *testing.T) {
	l := newSlowLog(0, 4)
	for i := 0; i < 10; i++ {
		l.record(SlowEntry{Cmd: "GET", TotalNs: int64(i)})
	}
	got := l.snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot holds %d entries, want ring size 4", len(got))
	}
	for i, e := range got {
		if want := uint64(10 - i); e.Seq != want {
			t.Errorf("entry[%d].Seq = %d, want %d (newest first)", i, e.Seq, want)
		}
		if e.UnixNs == 0 {
			t.Errorf("entry[%d] has no timestamp", i)
		}
	}
}

// TestSlowEntryDominant: the dominant phase is the largest one, named by
// its phase label; execution wins a tie, an empty entry included. Every
// per-command phase of the span is a column of the entry, in span order.
func TestSlowEntryDominant(t *testing.T) {
	for _, c := range []struct {
		e    SlowEntry
		want string
	}{
		{SlowEntry{ExecNs: 10}, "exec"},
		{SlowEntry{ExecNs: 10, YieldStallNs: 900}, "yield_stall"},
		{SlowEntry{QueueNs: 50, LockWaitNs: 60, ExecNs: 10}, "lock_wait"},
		{SlowEntry{SpillPromoteNs: 500, QueueNs: 499}, "spill_promote"},
		{SlowEntry{QueueNs: 7, ExecNs: 7}, "exec"},
		{SlowEntry{}, "exec"},
	} {
		if got := c.e.Dominant(); got != c.want {
			t.Errorf("%+v.Dominant() = %q, want %q", c.e, got, c.want)
		}
	}
	e := SlowEntry{QueueNs: 11, LockWaitNs: 12, YieldStallNs: 13, SpillPromoteNs: 14, ExecNs: 15}
	if got, want := e.PhaseNs(), [numCmdPhases]int64{11, 12, 13, 14, 15}; got != want {
		t.Errorf("PhaseNs = %v, want %v", got, want)
	}
	for i, c := range SlowColumns {
		if c == "" {
			t.Errorf("phase %s has no column heading", phaseLabels[i].Value)
		}
	}
}

// TestSlowLogInlineThreshold: the serial (unpipelined) dispatch path
// records exec-only entries, and only past the threshold.
func TestSlowLogInlineThreshold(t *testing.T) {
	reg := metrics.NewRegistry()
	a := newAttribState(reg, (50 * time.Microsecond).Nanoseconds(), 8)
	args := [][]byte{[]byte("GET"), []byte("hot-key")}

	a.observeInline(commandTable["GET"], args, 10*time.Microsecond)
	if got := a.slow.snapshot(); len(got) != 0 {
		t.Fatalf("sub-threshold command landed in slowlog: %+v", got)
	}
	a.observeInline(commandTable["GET"], args, 2*time.Millisecond)
	got := a.slow.snapshot()
	if len(got) != 1 {
		t.Fatalf("slowlog entries = %d, want 1", len(got))
	}
	e := got[0]
	if e.Cmd != "GET" || e.Key != "hot-key" {
		t.Errorf("entry = %+v, want cmd GET key hot-key", e)
	}
	if e.ExecNs != e.TotalNs || e.TotalNs != (2*time.Millisecond).Nanoseconds() {
		t.Errorf("inline entry should be all exec: %+v", e)
	}
	if e.QueueNs != 0 || e.YieldStallNs != 0 {
		t.Errorf("inline entry carries engine phases: %+v", e)
	}
}

// TestServerSlowLogEndToEnd drives the server's serial execute path with
// a zero threshold and checks entries surface through Store.SlowLog —
// the same accessor /slowlog serves.
func TestServerSlowLogEndToEnd(t *testing.T) {
	st, _ := newAttribStore(t, time.Nanosecond, 16)
	srv := NewServer(st, func(string, ...any) {})
	rw := newRespWriter(bufio.NewWriterSize(io.Discard, 4096))
	if st.SlowLog() == nil {
		t.Fatal("SlowLog() = nil with attribution armed")
	}
	ce := srv.newConnExec()
	for _, args := range [][][]byte{{[]byte("SET"), []byte("k"), []byte("v")}, {[]byte("GET"), []byte("k")}} {
		ce.serve(rw, canonicalCommand(args[0]), args)
		ce.settle(rw)
	}
	entries := st.SlowLog()
	if len(entries) != 2 {
		t.Fatalf("slowlog entries = %d, want 2 at 1ns threshold", len(entries))
	}
	if entries[0].Cmd != "GET" || entries[1].Cmd != "SET" {
		t.Errorf("order not newest-first: %q then %q", entries[0].Cmd, entries[1].Cmd)
	}
	if entries[0].Key != "k" {
		t.Errorf("entry key = %q, want k", entries[0].Key)
	}
}

// TestBatchPhasesObserved: a batch routed through the shard-owner engine
// must feed the per-phase histograms — at minimum exec time, and queue
// time when the ring path ran.
func TestBatchPhasesObserved(t *testing.T) {
	st, reg := newAttribStore(t, 10*time.Millisecond, 16)
	if err := st.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	b := st.NewBatch()
	b.Get("a")
	b.Set("b", []byte("2"))
	if err := b.Exec(); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `softmem_kv_phase_ns_count{phase="exec"}`) {
		t.Fatalf("exposition has no exec phase series:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `softmem_kv_phase_ns_count{phase="exec"}`) {
			if strings.HasSuffix(line, " 0") {
				t.Errorf("exec phase observed 0 commands: %s", line)
			}
		}
	}
}

// TestObserveReplHop: the replica-side hook lands in phase="repl_hop",
// and is a safe no-op while attribution is disarmed.
func TestObserveReplHop(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma)
	t.Cleanup(st.Close)
	st.ObserveReplHop(time.Millisecond) // disarmed: must not panic

	reg := metrics.NewRegistry()
	st.RegisterMetrics(reg)
	st.ObserveReplHop(3 * time.Millisecond)
	st.ObserveReplHop(0) // non-positive durations are dropped
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `softmem_kv_phase_ns_count{phase="repl_hop"} 1`) {
		t.Fatalf("repl_hop count != 1:\n%s", buf.String())
	}
}

// TestProfilerLabelsPath exercises the pprof-labeled owner execution
// branch (-pprof in softkv); it must produce the same results as the
// unlabeled path.
func TestProfilerLabelsPath(t *testing.T) {
	profLabels.Store(true)
	defer profLabels.Store(false)
	st, _ := newStore(t, 0)
	if err := st.Set("k", bytes.Repeat([]byte("v"), 32)); err != nil {
		t.Fatal(err)
	}
	b := st.NewBatch()
	b.Get("k")
	b.Get("k")
	if err := b.Exec(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Len(); i++ {
		if c := b.Cmd(i); c.Err != nil || !c.Ok {
			t.Fatalf("labeled GET %d = ok=%v err=%v", i, c.Ok, c.Err)
		}
	}
}

// phaseCount reads softmem_kv_phase_ns_count{phase=...} out of the
// registry's exposition.
func phaseCount(t *testing.T, reg *metrics.Registry, phase string) float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	prefix := fmt.Sprintf("softmem_kv_phase_ns_count{phase=%q} ", phase)
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, prefix), 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no %s phase series in exposition", phase)
	return 0
}

// TestContendedPhasesRecorded forces the contended execution paths a
// loaded multi-core server hits — ring hand-off, blocked lock
// acquisition, and reclaim-style lock yields — and checks each records
// into its phase histogram. A legacy Context locker stands in for a
// reclamation demand: both advertise through the same lockers counter
// the owner polls.
func TestContendedPhasesRecorded(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithShards(1))
	t.Cleanup(st.Close)
	reg := metrics.NewRegistry()
	st.RegisterMetrics(reg)
	if err := st.Set("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Set("k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	ctx := st.shards[0].ht.Context()

	// Phase 1 — queue and lock_wait: hold the shard heap lock from a
	// legacy locker so Exec cannot run caller-runs (TryAcquire fails,
	// the batch rides the ring) and the owner blocks taking the lock.
	held := make(chan struct{})
	release := make(chan struct{})
	go ctx.Do(func(*core.Tx) error {
		close(held)
		<-release
		return nil
	})
	<-held
	b := st.NewBatch()
	b.Get("k1")
	b.Get("k2")
	done := make(chan error, 1)
	go func() { done <- b.Exec() }()
	time.Sleep(5 * time.Millisecond) // batch reaches the ring; owner blocks on the lock
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Len(); i++ {
		if c := b.Cmd(i); c.Err != nil || !c.Ok {
			t.Fatalf("cmd %d: ok=%v err=%v", i, c.Ok, c.Err)
		}
	}
	b.Reset()
	if phaseCount(t, reg, "queue") == 0 {
		t.Error("ring hand-off recorded no queue phase")
	}
	if phaseCount(t, reg, "lock_wait") == 0 {
		t.Error("blocked acquisition recorded no lock_wait phase")
	}

	// Phase 2 — yield_stall: a looping legacy locker (sleeping while it
	// holds the lock, the way a reclaim callback with cleanup work does)
	// contends with batch execution; the owner's contended Yields must
	// land in yield_stall.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ctx.Do(func(*core.Tx) error {
				time.Sleep(100 * time.Microsecond)
				return nil
			})
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for phaseCount(t, reg, "yield_stall") == 0 {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatal("no yield_stall recorded after 10s of contended batches")
		}
		for i := 0; i < 64; i++ {
			b.Get("k1")
			b.Get("k2")
		}
		if err := b.Exec(); err != nil {
			t.Fatal(err)
		}
		b.Reset()
	}
	close(stop)
	wg.Wait()
}

// TestSlowLogDisabledByDefault: without RegisterMetrics the slowlog
// accessor reports nil and the hot path carries no attribution state.
func TestSlowLogDisabledByDefault(t *testing.T) {
	st, _ := newStore(t, 0)
	if st.SlowLog() != nil {
		t.Fatal("SlowLog() != nil before RegisterMetrics")
	}
	if st.attrib.Load() != nil {
		t.Fatal("attribution armed without a registry")
	}
}
