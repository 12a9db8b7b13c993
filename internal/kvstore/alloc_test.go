//go:build !race

package kvstore

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"softmem/internal/core"
	"softmem/internal/pages"
)

// These tests pin the steady-state RESP parse and reply paths at zero
// heap allocations per operation — the tentpole property the hot-path
// rework exists to provide. They are excluded under -race because race
// instrumentation itself allocates.

func TestParseZeroAllocs(t *testing.T) {
	probe := ParseProbe()
	if n := testing.AllocsPerRun(200, probe); n != 0 {
		t.Fatalf("parse path allocates %.1f allocs/op, want 0", n)
	}
}

func TestReplyZeroAllocs(t *testing.T) {
	probe := ReplyProbe()
	if n := testing.AllocsPerRun(200, probe); n != 0 {
		t.Fatalf("reply path allocates %.1f allocs/op, want 0", n)
	}
}

// TestDispatchZeroAllocsGET pins the whole server-side depth-1 GET path
// (parse + enqueue + settle + reply) at zero allocations: the key is
// copied into the connection's arena, not converted to a fresh string,
// and the value comes out of the store into the batch slot's reused
// scratch.
func TestDispatchZeroAllocsGET(t *testing.T) {
	st, _ := newStore(t, 0)
	if err := st.Set("bench-key", bytes.Repeat([]byte("v"), 64)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, func(string, ...any) {})
	payload := appendCommand(nil, "GET", "bench-key")
	if n := settleAllocs(srv, payload, 1); n != 0 {
		t.Fatalf("GET round trip allocates %.1f allocs/op, want 0", n)
	}
}

// TestPipelinedSettleZeroAllocs pins one settle of 16 pipelined keyed
// commands — GET hits and misses, EXISTS, SETs replacing existing keys,
// DELs of missing keys, MGETs — at zero Go allocations: every key is
// borrowed from the arena, and nothing of the batch is kept past it.
func TestPipelinedSettleZeroAllocs(t *testing.T) {
	st, _ := newStore(t, 0)
	val := bytes.Repeat([]byte("v"), 256)
	for _, k := range []string{"hit-0", "hit-1", "set-0", "set-1"} {
		if err := st.Set(k, val); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(st, func(string, ...any) {})
	var payload []byte
	for _, c := range [][]string{
		{"GET", "hit-0"}, {"GET", "miss-0"}, {"EXISTS", "hit-1"}, {"SET", "set-0", string(val)},
		{"DEL", "gone-0"}, {"MGET", "hit-0", "miss-1", "hit-1"}, {"GET", "hit-1"}, {"GET", "miss-2"},
		{"EXISTS", "miss-3"}, {"SET", "set-1", string(val)}, {"DEL", "gone-1"}, {"MGET", "hit-1", "hit-0"},
		{"GET", "hit-0"}, {"EXISTS", "hit-0"}, {"SET", "set-0", string(val)}, {"GET", "set-1"},
	} {
		payload = appendCommand(payload, c...)
	}
	if n := settleAllocs(srv, payload, 16); n != 0 {
		t.Fatalf("a settle of 16 pipelined commands allocates %.1f times, want 0", n)
	}
}

// settleAllocs reports the Go allocations of serving payload's cmds
// commands on one connection and settling them together, as serveConn
// does with a pipeline that arrived in one read.
func settleAllocs(srv *Server, payload []byte, cmds int) float64 {
	rd := bytes.NewReader(payload)
	cr := newCmdReader(bufio.NewReader(rd))
	rw := newRespWriter(bufio.NewWriterSize(io.Discard, 4096))
	ce := srv.newConnExec()
	return testing.AllocsPerRun(200, func() {
		rd.Reset(payload)
		cr.lr.r.Reset(rd)
		for range cmds {
			args, err := cr.ReadCommand()
			if err != nil {
				panic(err)
			}
			ce.serve(rw, canonicalCommand(args[0]), args)
		}
		ce.settle(rw)
		if err := rw.flush(); err != nil {
			panic(err)
		}
	})
}

// TestRoutedGetAllocs pins the shard-owner dispatch path: a reused
// Batch carrying two premade-key GETs through route, ring submit, owner
// execution, and rejoin. With the keys already strings and every piece
// of batch state recycled, the routed GET's floor is zero allocations;
// the acceptance bound is <= 1 per GET.
func TestRoutedGetAllocs(t *testing.T) {
	probe, cleanup := DispatchProbe()
	defer cleanup()
	n := testing.AllocsPerRun(200, probe) / 2 // the probe runs two GETs
	if n > 1 {
		t.Fatalf("routed GET allocates %.1f allocs/op, want <= 1", n)
	}
	if n != 0 {
		t.Logf("routed GET allocates %.1f allocs/op (floor is 0)", n)
	}
}

// TestOwnerNoMutexOnHotPath is the no-per-command-mutex evidence: a
// single-connection routed-GET run adds zero runtime mutex contention
// events, because owners retain their shard heap lock across batches
// (EngineStats' commands-per-acquisition shows the amortization), and
// submitters touch only the ring.
func TestOwnerNoMutexOnHotPath(t *testing.T) {
	probe, cleanup := DispatchProbe()
	defer cleanup()
	probe() // warm up: first batch takes the shard locks once
	if n := MutexContentionProbe(func() {
		for i := 0; i < 500; i++ {
			probe()
		}
	}); n != 0 {
		t.Fatalf("routed GETs caused %d mutex contention events, want 0", n)
	}
}

func BenchmarkParse(b *testing.B) {
	probe := ParseProbe()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		probe()
	}
}

func BenchmarkReply(b *testing.B) {
	probe := ReplyProbe()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		probe()
	}
}

func BenchmarkDispatchGET(b *testing.B) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma)
	b.Cleanup(st.Close)
	if err := st.Set("bench-key", bytes.Repeat([]byte("v"), 256)); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(st, func(string, ...any) {})
	payload := appendCommand(nil, "GET", "bench-key")
	rd := bytes.NewReader(payload)
	cr := newCmdReader(bufio.NewReader(rd))
	rw := newRespWriter(bufio.NewWriterSize(io.Discard, 4096))
	ce := srv.newConnExec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(payload)
		cr.lr.r.Reset(rd)
		args, err := cr.ReadCommand()
		if err != nil {
			b.Fatal(err)
		}
		ce.serve(rw, canonicalCommand(args[0]), args)
		ce.settle(rw)
		if err := rw.flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReplacingSetAllocs pins a replacing Store.Set at zero Go
// allocations: the value's record, which the lock-free readers load, is
// the heap's own per-slot record, written in place when the slot is
// published (one Go allocation per Set while it was a fresh box).
func TestReplacingSetAllocs(t *testing.T) {
	st, _ := newStore(t, 0)
	val := bytes.Repeat([]byte("v"), 256)
	if err := st.Set("k", val); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		if err := st.Set("k", val); err != nil {
			panic(err)
		}
	}); n != 0 {
		t.Fatalf("replacing Store.Set does %.2f Go allocations, want 0", n)
	}
}
