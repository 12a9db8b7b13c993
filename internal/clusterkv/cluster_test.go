package clusterkv

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/kvstore"
	"softmem/internal/pages"
	"softmem/internal/smd"
)

// testNode is one in-process cluster member: the full single-node stack
// with the cluster layer on top, plus direct handles for white-box
// assertions (the store lets tests see where a key physically landed).
type testNode struct {
	addr  string
	node  *Node
	store *kvstore.Store
	sma   *core.SMA
	srv   *kvstore.Server
}

// startNode brings up a full node. d joins the node's machine into the
// federation (nil disables it); cfg tweaks are applied on top of fast
// test defaults.
func startNode(t *testing.T, d *smd.Daemon, seeds []string, tweak func(*Config)) *testNode {
	t.Helper()
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	if d != nil {
		sma.AttachDaemon(d.Register("kv", sma))
	}
	st := kvstore.New(sma)
	t.Cleanup(st.Close)
	srv := kvstore.NewServer(st, func(string, ...any) {})
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(srv.Close)

	cfg := Config{
		Addr:       addr.String(),
		Store:      st,
		Server:     srv,
		Daemon:     d,
		Seeds:      seeds,
		Heartbeat:  20 * time.Millisecond,
		JitterSeed: 1,
		Logf:       t.Logf,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	n, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start(%s): %v", cfg.Addr, err)
	}
	t.Cleanup(n.Close)
	return &testNode{addr: cfg.Addr, node: n, store: st, sma: sma, srv: srv}
}

// startCluster forms an n-node cluster seeded through the first node
// and waits for every member's ring to converge on full membership.
func startCluster(t *testing.T, n int) []*testNode {
	t.Helper()
	nodes := []*testNode{startNode(t, nil, nil, nil)}
	for i := 1; i < n; i++ {
		nodes = append(nodes, startNode(t, nil, []string{nodes[0].node.PeerAddr()}, nil))
	}
	waitFor(t, 5*time.Second, "ring convergence", func() bool {
		for _, tn := range nodes {
			if len(tn.node.Ring().Table.Nodes) != n {
				return false
			}
		}
		return true
	})
	return nodes
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// keyOwnedBy finds a key whose slot the given node owns (skip lists
// addresses the key must NOT be owned by — used to pin replicas).
func keyOwnedBy(r *Ring, addr string, avoidReplica ...string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%s-%d", addr, i)
		if r.Owner(SlotForKey(k)) != addr {
			continue
		}
		bad := false
		for _, a := range avoidReplica {
			if r.Replica(SlotForKey(k)) == a {
				bad = true
			}
		}
		if !bad {
			return k
		}
	}
}

// TestMovedRedirectByteExact verifies the redirect at the raw RESP
// layer: a command for a foreign key answered with exactly
// "-MOVED <slot> <addr>\r\n", byte for byte, and the named address is
// the slot's owner in the serving node's own ring.
func TestMovedRedirectByteExact(t *testing.T) {
	nodes := startCluster(t, 3)
	a := nodes[0]
	key := keyOwnedBy(a.node.Ring(), nodes[1].addr)
	slot := SlotForKey(key)

	nc, err := net.Dial("tcp", a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	req := fmt.Sprintf("*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$1\r\nv\r\n", len(key), key)
	if _, err := nc.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(nc).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("-MOVED %d %s\r\n", slot, nodes[1].addr)
	if line != want {
		t.Fatalf("raw redirect = %q, want %q", line, want)
	}
	if got := a.node.Status().Moved; got == 0 {
		t.Fatal("moved counter did not advance")
	}
}

// TestCrossSlotRefused: a multi-key command whose keys have two owners
// is answered, on either node, with exactly Redis's CROSSSLOT error,
// runs nothing, and is not counted as a redirect.
func TestCrossSlotRefused(t *testing.T) {
	nodes := startCluster(t, 2)
	r := nodes[0].node.Ring()
	ka, kb := keyOwnedBy(r, nodes[0].addr), keyOwnedBy(r, nodes[1].addr)
	const want = "-CROSSSLOT Keys in request don't hash to the same slot\r\n"
	for _, tn := range nodes {
		nc, err := net.Dial("tcp", tn.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		for _, args := range [][]string{{"MSET", ka, "1", kb, "2"}, {"MGET", ka, kb}} {
			req := fmt.Sprintf("*%d\r\n", len(args))
			for _, a := range args {
				req += fmt.Sprintf("$%d\r\n%s\r\n", len(a), a)
			}
			if _, err := nc.Write([]byte(req)); err != nil {
				t.Fatal(err)
			}
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			if line != want {
				t.Fatalf("%s on %s = %q, want %q", args[0], tn.addr, line, want)
			}
		}
	}
	for _, tn := range nodes {
		if got := tn.node.Status().Moved; got != 0 {
			t.Errorf("%s counted %d redirects for refused commands", tn.addr, got)
		}
		if n := tn.store.Len(); n != 0 {
			t.Errorf("%s holds %d keys after a refused MSET", tn.addr, n)
		}
	}
}

// TestClientFollowsRedirects drives the cluster through the redirect-
// following client: every key lands on (exactly) its owner's store, and
// reads work from a client seeded with only one node.
func TestClientFollowsRedirects(t *testing.T) {
	nodes := startCluster(t, 3)
	cli, err := NewClient(nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const nKeys = 60
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("k%d", i)
		if err := cli.Set(k, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("Set %s: %v", k, err)
		}
	}
	r := nodes[0].node.Ring()
	owners := make(map[string]*testNode)
	for _, tn := range nodes {
		owners[tn.addr] = tn
	}
	spread := make(map[string]int)
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("k%d", i)
		v, ok, err := cli.Get(k)
		if err != nil || !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get %s = %q, %v, %v", k, v, ok, err)
		}
		own := r.Owner(SlotForKey(k))
		spread[own]++
		if _, ok, _ := owners[own].store.Get(k); !ok {
			t.Fatalf("key %s missing from its owner %s", k, own)
		}
	}
	if len(spread) != 3 {
		t.Fatalf("60 keys landed on %d nodes (%v), want all 3", len(spread), spread)
	}
}

// TestGetAcrossSlots reads keys owned by every node through one client:
// each GET is routed, redirects chased, to its key's owner.
func TestGetAcrossSlots(t *testing.T) {
	nodes := startCluster(t, 3)
	cli, err := NewClient(nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	r := nodes[0].node.Ring()
	keys := []string{
		keyOwnedBy(r, nodes[0].addr),
		keyOwnedBy(r, nodes[1].addr),
		keyOwnedBy(r, nodes[2].addr),
		"definitely-absent",
	}
	for i, k := range keys[:3] {
		if err := cli.Set(k, fmt.Sprintf("val%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		v, ok, err := cli.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := i < 3; ok != want || ok && v != fmt.Sprintf("val%d", i) {
			t.Fatalf("Get %s = %q, %v", k, v, ok)
		}
	}
}

// TestReplicationAndWait pins the eventual-ack mode: a SetSync write is
// on the replica's store by the time WAIT returns, and the replica
// derived from the ring is where it physically landed.
func TestReplicationAndWait(t *testing.T) {
	nodes := startCluster(t, 3)
	byAddr := make(map[string]*testNode)
	for _, tn := range nodes {
		byAddr[tn.addr] = tn
	}
	cli, err := NewClient(nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	r := nodes[0].node.Ring()
	key := keyOwnedBy(r, nodes[1].addr)
	rep := r.Replica(SlotForKey(key))
	if rep == "" || rep == nodes[1].addr {
		t.Fatalf("bad replica %q", rep)
	}
	if err := cli.SetSync(key, "durable", 5*time.Second); err != nil {
		t.Fatalf("SetSync: %v", err)
	}
	v, ok, err := byAddr[rep].store.Get(key)
	if err != nil || !ok || string(v) != "durable" {
		t.Fatalf("replica %s store = %q, %v, %v after acked WAIT", rep, v, ok, err)
	}
	owner := byAddr[nodes[1].addr]
	st := owner.node.Status()
	if st.ReplSent == 0 || st.ReplAcked == 0 {
		t.Fatalf("owner repl counters sent=%d acked=%d, want nonzero", st.ReplSent, st.ReplAcked)
	}
	if byAddr[rep].node.Status().ReplApplied == 0 {
		t.Fatal("replica applied counter still zero")
	}

	// Deletes replicate too.
	if err := cli.Del(key); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "replicated delete", func() bool {
		_, ok, _ := byAddr[rep].store.Get(key)
		return !ok
	})
}

// TestWaitAccurateUnderUnrelatedBacklog is the regression test for the
// per-sender WAIT gap: the reply used to be computed as "is EVERY
// replication sender fully drained", collapsing to 0 whenever any
// sender held a backlog — even backlog from other connections bound for
// other replicas. With per-session tracking, WAIT compares each
// recorded sender's monotonic acked high-water mark against the
// session's own last write, so only the caller's genuinely unacked
// writes can hold the reply down. Pre-fix, the first WAIT below
// replies 0.
func TestWaitAccurateUnderUnrelatedBacklog(t *testing.T) {
	nodes := startCluster(t, 3)
	a := nodes[0]
	r := a.node.Ring()

	// keyTo finds a key this node owns whose replica is rep.
	keyTo := func(rep string) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("wait-%d-%s", i, rep)
			if r.Owner(SlotForKey(k)) == a.addr && r.Replica(SlotForKey(k)) == rep {
				return k
			}
		}
	}
	keyLive := keyTo(nodes[1].addr)
	keyDead := keyTo(nodes[2].addr)

	// Sever node 2's RESP listener: gossip rides the separate peer port,
	// so the ring keeps it as a member while node 0's replication sender
	// for it backlogs behind redial backoff.
	nodes[2].srv.Close()

	backlogConn, err := kvstore.DialClient("tcp", a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer backlogConn.Close()
	mainConn, err := kvstore.DialClient("tcp", a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mainConn.Close()

	// Unrelated backlog: another connection's write bound for the dead
	// replica sits unacked in its sender forever.
	if _, _, err := backlogConn.Do("SET", keyDead, "stuck"); err != nil {
		t.Fatalf("SET %s: %v", keyDead, err)
	}
	// The session under test writes only to the live replica.
	if _, _, err := mainConn.Do("SET", keyLive, "replicated"); err != nil {
		t.Fatalf("SET %s: %v", keyLive, err)
	}
	v, _, err := mainConn.Do("WAIT", "1", "5000")
	if err != nil {
		t.Fatalf("WAIT: %v", err)
	}
	if string(v) != "1" {
		t.Fatalf("WAIT = %q under unrelated backlog, want 1 (live replica acked this session's write)", v)
	}
	// The backlogged session really is unreplicated: its own WAIT stays 0.
	v, _, err = backlogConn.Do("WAIT", "1", "100")
	if err != nil {
		t.Fatalf("backlog WAIT: %v", err)
	}
	if string(v) != "0" {
		t.Fatalf("backlogged session WAIT = %q, want 0", v)
	}
}

// TestWaitCoversIncrAndAppend: an INCR-family or APPEND write on a
// slot's owner reaches the slot's replica as the value it stored, so
// WAIT's count of replicas holding the session's writes is true for
// them. They used to go unreplicated while WAIT, seeing a session with
// no recorded writes, answered the live sender count.
func TestWaitCoversIncrAndAppend(t *testing.T) {
	nodes := startCluster(t, 2)
	a, b := nodes[0], nodes[1]
	r := a.node.Ring()
	owned := func(prefix string) string {
		for i := 0; ; i++ {
			if k := fmt.Sprintf("%s-%d", prefix, i); r.Owner(SlotForKey(k)) == a.addr {
				return k
			}
		}
	}
	counter, text, other := owned("counter"), owned("text"), owned("other")

	// Another connection's SET starts the sender to b.
	first, err := kvstore.DialClient("tcp", a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, _, err := first.Do("SET", other, "v"); err != nil {
		t.Fatal(err)
	}
	conn, err := kvstore.DialClient("tcp", a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, c := range [][]string{{"INCR", counter}, {"INCRBY", counter, "41"}, {"APPEND", text, "ab"}, {"APPEND", text, "cd"}} {
		if _, _, err := conn.Do(c...); err != nil {
			t.Fatalf("%q: %v", c, err)
		}
	}
	if v, _, err := conn.Do("WAIT", "1", "5000"); err != nil || string(v) != "1" {
		t.Fatalf("WAIT = %q, %v, want 1", v, err)
	}
	for k, want := range map[string]string{counter: "42", text: "abcd"} {
		if v, ok, err := b.store.Get(k); err != nil || !ok || string(v) != want {
			t.Errorf("replica holds %s = %q, %v, %v after WAIT 1; want %q", k, v, ok, err, want)
		}
	}
}

// TestRingHealsOnNodeDeath removes a member and verifies the survivors
// converge on a 2-node ring, that the dead node's slots fall to their
// replicas, and that the client keeps working through the change.
func TestRingHealsOnNodeDeath(t *testing.T) {
	nodes := startCluster(t, 3)
	victim := nodes[2]
	before := nodes[0].node.Ring()

	victim.node.Close()
	waitFor(t, 10*time.Second, "ring healing", func() bool {
		return len(nodes[0].node.Ring().Table.Nodes) == 2 &&
			len(nodes[1].node.Ring().Table.Nodes) == 2
	})
	after := nodes[0].node.Ring()
	if after.Table.Version <= before.Table.Version {
		t.Fatalf("version did not advance: %d -> %d", before.Table.Version, after.Table.Version)
	}
	for s := 0; s < NumSlots; s++ {
		if before.Owner(s) != victim.addr {
			continue
		}
		if got, want := after.Owner(s), before.Replica(s); got != want {
			t.Fatalf("slot %d: dead owner's slot went to %s, replica was %s", s, got, want)
		}
	}
	cli, err := NewClient(nodes[0].addr, nodes[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	key := keyOwnedBy(after, nodes[1].addr)
	if err := cli.Set(key, "post-death"); err != nil {
		t.Fatalf("Set after heal: %v", err)
	}
	if v, ok, _ := cli.Get(key); !ok || v != "post-death" {
		t.Fatalf("Get after heal = %q, %v", v, ok)
	}
}

// TestClusterAdminCommands smoke-tests CLUSTER INFO/NODES/SLOT through
// the plain client.
func TestClusterAdminCommands(t *testing.T) {
	nodes := startCluster(t, 3)
	cli, err := kvstore.DialClient("tcp", nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	info, _, err := cli.Do("CLUSTER", "INFO")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(info), "cluster_known_nodes:3") {
		t.Fatalf("CLUSTER INFO = %q", info)
	}
	nodesOut, _, err := cli.Do("CLUSTER", "NODES")
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range nodes {
		if !strings.Contains(string(nodesOut), tn.addr) {
			t.Fatalf("CLUSTER NODES missing %s:\n%s", tn.addr, nodesOut)
		}
	}
	slotOut, _, err := cli.Do("CLUSTER", "SLOT", "somekey")
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%d ", SlotForKey("somekey")); !strings.HasPrefix(string(slotOut), want) {
		t.Fatalf("CLUSTER SLOT = %q, want prefix %q", slotOut, want)
	}
}

// TestFederationMigratesBudget is the acceptance scenario for federated
// SMD: a pressured machine borrows soft budget from a slack peer. The
// donor's partition shrinks through the coherent slack-harvest path —
// its resident SMA sees the cached budget ledger drop — and the
// borrower's partition grows by exactly the pages that moved.
func TestFederationMigratesBudget(t *testing.T) {
	const donorPages = 64
	dA := smd.NewDaemon(smd.Config{TotalPages: donorPages, ReclaimFactor: 1.0})
	dB := smd.NewDaemon(smd.Config{TotalPages: 16, ReclaimFactor: 1.0})

	// Donor node: its store allocates a little, which makes the SMA
	// request budget in chunks — the whole partition is granted (no free
	// pages left) but most of it is slack, far above its low-water mark
	// of 64/8 = 8 pages.
	a := startNode(t, dA, nil, nil)
	for i := 0; i < 10; i++ {
		if err := a.store.Set(fmt.Sprintf("donor-%d", i), make([]byte, 4096)); err != nil {
			t.Fatalf("donor fill: %v", err)
		}
	}
	budgetBefore := a.sma.BudgetPages()
	if budgetBefore < 32 {
		t.Fatalf("donor SMA budget = %d, want a chunked grant with slack", budgetBefore)
	}
	pa := dA.Pressure()
	if pa.FreePages != 0 {
		t.Fatalf("donor free = %d, scenario needs the free pool empty so cede must harvest slack", pa.FreePages)
	}

	// Pressured node: another process holds and uses its whole 16-page
	// partition, so free+slack is 0, below its low-water mark of 16/8 = 2
	// pages, and its federation loop borrows 2 pages.
	hog := dB.Register("hog", nil)
	if g, err := hog.RequestBudget(16, core.Usage{UsedPages: 16}); err != nil || g != 16 {
		t.Fatalf("hog granted %d, err %v", g, err)
	}
	b := startNode(t, dB, []string{a.node.PeerAddr()}, nil)

	waitFor(t, 10*time.Second, "budget migration", func() bool {
		return dB.TotalPages() > 16 && dA.TotalPages() < donorPages
	})

	moved := dB.TotalPages() - 16
	if moved != 16/8 {
		t.Fatalf("borrower received %d pages, want one low-water mark's worth (%d)", moved, 16/8)
	}
	if got := donorPages - dA.TotalPages(); got != moved {
		t.Fatalf("pages moved asymmetrically: donor lost %d, borrower gained %d", got, moved)
	}
	if st := dA.Stats(); st.CededPages != int64(moved) {
		t.Fatalf("donor CededPages = %d, want %d", st.CededPages, moved)
	}
	if st := dB.Stats(); st.ReceivedPages != int64(moved) {
		t.Fatalf("borrower ReceivedPages = %d, want %d", st.ReceivedPages, moved)
	}
	if b.node.Status().FedReceivedPages != int64(moved) {
		t.Fatalf("borrower node metric = %d, want %d", b.node.Status().FedReceivedPages, moved)
	}
	if a.node.Status().FedCededPages != int64(moved) {
		t.Fatalf("donor node metric = %d, want %d", a.node.Status().FedCededPages, moved)
	}

	// Budget coherence across the wire: the harvested pages came out of
	// the donor SMA's cached ledger, and the daemon agrees.
	waitFor(t, 2*time.Second, "donor ledger shrink", func() bool {
		return a.sma.BudgetPages() < budgetBefore
	})
	var daemonView int
	for _, pi := range dA.Snapshot() {
		if pi.Name == "kv" {
			daemonView = pi.BudgetPages
		}
	}
	if got := a.sma.BudgetPages(); got != daemonView {
		t.Fatalf("donor caches %d budget pages, daemon granted %d — stale ledger after federated cede", got, daemonView)
	}
	// And the donor's partition never shrank below what remains granted.
	if granted := daemonView; dA.TotalPages() < granted {
		t.Fatalf("donor partition %d below granted %d", dA.TotalPages(), granted)
	}
}
