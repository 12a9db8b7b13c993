package kvstore_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"softmem/internal/clusterkv"
	"softmem/internal/core"
	"softmem/internal/kvstore"
	"softmem/internal/pages"
)

// ringNode is one member of an in-process cluster.
type ringNode struct {
	addr  string
	node  *clusterkv.Node
	store *kvstore.Store
}

func startRingNode(t *testing.T, seeds []string) ringNode {
	t.Helper()
	st := kvstore.New(core.New(core.Config{Machine: pages.NewPool(0)}))
	t.Cleanup(st.Close)
	srv := kvstore.NewServer(st, func(string, ...any) {})
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(srv.Close)
	n, err := clusterkv.Start(clusterkv.Config{Addr: addr.String(), Store: st, Server: srv, Seeds: seeds,
		Heartbeat: 20 * time.Millisecond, JitterSeed: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return ringNode{addr: addr.String(), node: n, store: st}
}

// firstLine sends one command on a fresh connection and returns the
// first line of its reply, terminator included.
func firstLine(t *testing.T, addr string, args []string) string {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	req := fmt.Sprintf("*%d\r\n", len(args))
	for _, a := range args {
		req += fmt.Sprintf("$%d\r\n%s\r\n", len(a), a)
	}
	if _, err := nc.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(nc).ReadString('\n')
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return line
}

// TestCommandTableOnARing drives every command-table row against node a
// of a two-node ring. A keyed row whose keys the peer owns is answered
// with the byte-exact redirect and runs nothing; a multi-key row whose
// keys the peer owns redirects on its first key, and one whose keys
// have two owners is refused with CROSSSLOT; a keyless row is served
// where it arrives, even when its arguments name a peer's key.
func TestCommandTableOnARing(t *testing.T) {
	a := startRingNode(t, nil)
	b := startRingNode(t, []string{a.node.PeerAddr()})
	for deadline := time.Now().Add(5 * time.Second); len(a.node.Ring().Table.Nodes) != 2 || len(b.node.Ring().Table.Nodes) != 2; {
		if time.Now().After(deadline) {
			t.Fatal("the ring did not form")
		}
		time.Sleep(5 * time.Millisecond)
	}
	r := a.node.Ring()
	keyOf := func(owner string, skip int) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("k%d", i)
			if r.Owner(clusterkv.SlotForKey(k)) == owner {
				if skip == 0 {
					return k
				}
				skip--
			}
		}
	}
	local, far, far2 := keyOf(a.addr, 0), keyOf(b.addr, 0), keyOf(b.addr, 1)
	moved := func(k string) string { return fmt.Sprintf("-MOVED %d %s\r\n", clusterkv.SlotForKey(k), b.addr) }
	if err := a.store.Set(local, []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := a.store.Stats()

	var keyless [][]string
	for _, row := range kvstore.TableRows() {
		args := []string{row.Name, far}
		for len(args) < row.MinArgs {
			args = append(args, "1")
		}
		if row.Keys == kvstore.KeysNone {
			keyless = append(keyless, args)
			continue
		}
		if got, want := firstLine(t, a.addr, args), moved(far); got != want {
			t.Errorf("%q: %q, want %q", args, got, want)
		}
	}
	const crossSlot = "-CROSSSLOT Keys in request don't hash to the same slot\r\n"
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"DEL", far, far2}, moved(far)},
		{[]string{"MGET", far, far2}, moved(far)},
		{[]string{"MSET", far, "1", far2, "1"}, moved(far)},
		{[]string{"DEL", local, far, far2}, crossSlot},
		{[]string{"MGET", local, far, far2}, crossSlot},
		{[]string{"MSET", local, "x", far, "1", far2, "1"}, crossSlot},
	} {
		if got := firstLine(t, a.addr, c.args); got != c.want {
			t.Errorf("%q: %q, want %q", c.args, got, c.want)
		}
	}
	after := a.store.Stats()
	if after.Sets != before.Sets || after.Gets != before.Gets || a.store.Len() != 1 ||
		a.store.LLen(far) != 0 || a.store.HLen(far) != 0 {
		t.Errorf("redirected commands ran: stats %+v -> %+v, %d entries", before, after, a.store.Len())
	}
	if v, ok, _ := a.store.Get(local); !ok || string(v) != "v" {
		t.Errorf("local key after redirected DEL/MSET = %q, %v", v, ok)
	}
	for _, args := range keyless {
		if got := firstLine(t, a.addr, args); strings.HasPrefix(got, "-MOVED") {
			t.Errorf("keyless %q: %q, want it served here", args, got)
		}
	}
}
