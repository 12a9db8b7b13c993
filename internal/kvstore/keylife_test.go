package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/metrics"
	"softmem/internal/pages"
	"softmem/internal/spill"
)

// A RESP key reaches the store as a string aliasing its connection's
// arena (copyKey), which the next settle clears and the next batch
// overwrites. TestKeysOutliveTheArena keeps a key in each place that
// holds one past its settle — the hash table's entry, the TTL table, the
// spill tier's record of a promotion it wrote back, the slowlog, the
// cluster hook — then sends a batch of same-length keys through the same
// arena and checks that the holder still reports the original key. It
// runs each holder at depth 1 (every command settles alone), at depth 16
// (one caller-runs group) and at depth 16 with the shard lock held, so
// the group is executed by the shard's owner goroutine off the ring.

// arenaMode is one way a pipelined group reaches the shard.
type arenaMode struct {
	name  string
	depth int
	ring  bool // hold the shard lock while the group is submitted
}

var arenaModes = []arenaMode{{"depth1", 1, false}, {"depth16", 16, false}, {"ring", 16, true}}

// keyCmds renders one command per key: name, key, then extra.
func keyCmds(name, prefix string, extra ...string) [][]string {
	var cmds [][]string
	for i := range 16 {
		cmds = append(cmds, append([]string{name, fmt.Sprintf("%s-%02d", prefix, i)}, extra...))
	}
	return cmds
}

// sendPipelined sends cmds to srv over one connection, mode.depth at a
// time, and returns each command's reply as readReply decodes it (nil
// for a nil bulk, the text of an error). In ring mode it holds the one
// shard's lock while a group is submitted and checks that the shard's
// owner goroutine, not the connection, ran it.
func sendPipelined(t *testing.T, srv *Server, cmds [][]string, mode arenaMode) [][]byte {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(serverEnd)
	}()
	defer func() {
		clientEnd.Close()
		<-done
	}()
	rd := bufio.NewReader(clientEnd)
	var replies [][]byte
	for lo := 0; lo < len(cmds); lo += mode.depth {
		hi := min(lo+mode.depth, len(cmds))
		var req []byte
		for _, c := range cmds[lo:hi] {
			req = appendCommand(req, c...)
		}
		var hold *core.Owned
		var ownerRuns int64
		if mode.ring {
			sh := srv.store.shards[0]
			hold, ownerRuns = sh.ht.Context().Own(), sh.owned.Acquisitions()
			if err := hold.Acquire(); err != nil {
				t.Fatal(err)
			}
		}
		// net.Pipe's Write returns once serveConn has read the request.
		if _, err := clientEnd.Write(req); err != nil {
			t.Fatal(err)
		}
		if hold != nil {
			for !hold.Contended() {
				time.Sleep(time.Millisecond)
			}
			hold.Release()
		}
		for range hi - lo {
			v, ok, err := readReply(rd)
			if _, isReply := err.(ReplyError); err != nil && !isReply {
				t.Fatalf("reading reply: %v", err)
			}
			switch {
			case err != nil:
				v = []byte(err.Error())
			case !ok:
				v = nil
			}
			replies = append(replies, v)
		}
		if hold != nil && srv.store.shards[0].owned.Acquisitions() == ownerRuns {
			t.Fatal("the group with the shard lock held did not run on the shard's owner")
		}
	}
	return replies
}

// recordingHook is a ClusterHook that redirects nothing and records every
// write it is told about, copying the key as the contract asks.
type recordingHook struct{ keys []string }

func (h *recordingHook) Redirect([]byte) string                               { return "" }
func (h *recordingHook) Moved()                                               {}
func (h *recordingHook) NewSession() ClusterSession                           { return nil }
func (h *recordingHook) Handle(ClusterSession, string, [][]byte, ReplyWriter) {}
func (h *recordingHook) OnApply(_ ClusterSession, _ Op, key string, _ []byte) {
	h.keys = append(h.keys, strings.Clone(key))
}

func TestKeysOutliveTheArena(t *testing.T) {
	now := time.Unix(7000, 0)
	clock := WithClock(func() time.Time { return now })
	want := func(prefix string) []string {
		var keys []string
		for _, c := range keyCmds("", prefix) {
			keys = append(keys, c[1])
		}
		return keys
	}
	for _, mode := range arenaModes {
		t.Run("table/"+mode.name, func(t *testing.T) {
			st := New(core.New(core.Config{Machine: pages.NewPool(0)}), WithShards(1))
			t.Cleanup(st.Close)
			srv := NewServer(st, func(string, ...any) {})
			sendPipelined(t, srv, keyCmds("SET", "keep", "v"), mode)
			sendPipelined(t, srv, keyCmds("SET", "junk", "v"), mode)
			if got, _ := st.Keys("keep-*"); !slices.Equal(sortedCopy(got), want("keep")) {
				t.Fatalf("KEYS keep-* = %q after the arena was reused", got)
			}
			for _, k := range want("keep") {
				if v, ok, err := st.Get(k); err != nil || !ok || string(v) != "v" {
					t.Fatalf("GET %s = %q, %v, %v", k, v, ok, err)
				}
			}
		})
		t.Run("ttl/"+mode.name, func(t *testing.T) {
			st := New(core.New(core.Config{Machine: pages.NewPool(0)}), WithShards(1), clock)
			t.Cleanup(st.Close)
			srv := NewServer(st, func(string, ...any) {})
			for _, k := range append(want("keep"), want("junk")...) {
				if err := st.Set(k, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			sendPipelined(t, srv, keyCmds("EXPIRE", "keep", "100"), mode)
			// A second EXPIRE assigns to the existing map key, which
			// overwrites the key the map stores as well as the deadline.
			sendPipelined(t, srv, keyCmds("EXPIRE", "keep", "200"), mode)
			sendPipelined(t, srv, keyCmds("EXPIRE", "junk", "100"), mode)
			for _, k := range want("keep") {
				if d, exists, hasTTL := st.TTL(k); !exists || !hasTTL || d != 200*time.Second {
					t.Fatalf("TTL %s = %v, exists %v, has a deadline %v; want 200s", k, d, exists, hasTTL)
				}
			}
		})
		t.Run("spill/"+mode.name, func(t *testing.T) {
			sp, err := spill.Open(spill.Config{Dir: t.TempDir(), CompactInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sp.Close)
			st := New(core.New(core.Config{Machine: pages.NewPool(24)}), WithShards(1), WithSpill(sp))
			t.Cleanup(st.Close)
			srv := NewServer(st, func(string, ...any) {})
			// Fill the machine, so that a promoted value cannot be put back
			// and the spill tier writes it back to disk under its key.
			val := bytes.Repeat([]byte("p"), 3000)
			for i := 0; st.Set(fmt.Sprintf("fill-%03d", i), val) == nil; i++ {
			}
			sink := sp.Sink("kvstore")
			for _, k := range want("keep") {
				if err := sink.Demote(k, val); err != nil {
					t.Fatal(err)
				}
			}
			for i, v := range sendPipelined(t, srv, keyCmds("GET", "keep"), mode) {
				if !bytes.Equal(v, val) {
					t.Fatalf("GET keep-%02d of a spilled key = %.20q", i, v)
				}
			}
			sendPipelined(t, srv, keyCmds("GET", "junk"), mode)
			for _, k := range want("keep") {
				if !sink.Contains(k) {
					t.Fatalf("the spill tier lost %s, which a failed put-back wrote back to disk", k)
				}
			}
		})
		t.Run("slowlog/"+mode.name, func(t *testing.T) {
			st := New(core.New(core.Config{Machine: pages.NewPool(0)}), WithShards(1), WithSlowLog(time.Nanosecond, 64))
			t.Cleanup(st.Close)
			st.RegisterMetrics(metrics.NewRegistry())
			srv := NewServer(st, func(string, ...any) {})
			sendPipelined(t, srv, keyCmds("GET", "keep"), mode)
			sendPipelined(t, srv, keyCmds("GET", "junk"), mode)
			var got []string
			for _, e := range st.SlowLog() {
				got = append(got, e.Key)
			}
			if !slices.Equal(sortedCopy(got), append(want("junk"), want("keep")...)) {
				t.Fatalf("slowlog keys = %q", got)
			}
		})
		t.Run("cluster/"+mode.name, func(t *testing.T) {
			st := New(core.New(core.Config{Machine: pages.NewPool(0)}), WithShards(1))
			t.Cleanup(st.Close)
			srv := NewServer(st, func(string, ...any) {})
			h := &recordingHook{}
			srv.SetCluster(h)
			sendPipelined(t, srv, keyCmds("SET", "keep", "v"), mode)
			sendPipelined(t, srv, keyCmds("SET", "junk", "v"), mode)
			if !slices.Equal(h.keys, append(want("keep"), want("junk")...)) {
				t.Fatalf("the cluster hook saw %q", h.keys)
			}
		})
	}
}

// sortedCopy returns keys sorted, leaving keys as it was.
func sortedCopy(keys []string) []string {
	keys = slices.Clone(keys)
	slices.Sort(keys)
	return keys
}
