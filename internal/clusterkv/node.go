package clusterkv

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"softmem/internal/faultinject"
	"softmem/internal/ipc"
	"softmem/internal/kvstore"
	"softmem/internal/smd"
)

// peerCallTimeout bounds every inter-node RPC so one hung peer cannot
// stall a gossip round.
const peerCallTimeout = 2 * time.Second

// Config parameterizes a cluster node.
type Config struct {
	// Addr is this node's RESP address as clients and peers reach it
	// (required; it is the node's identity in the ring and the address
	// MOVED redirects name).
	Addr string
	// PeerAddr is the inter-node listen address (default 127.0.0.1:0;
	// the bound address is advertised to peers).
	PeerAddr string
	// StatusAddr is this node's statusz listener as peers should reach
	// it. Gossiped so cluster tooling (`smdctl top --cluster`) can
	// discover every node's status endpoint from any one of them.
	// Empty = not advertised.
	StatusAddr string
	// Store and Server are the node's existing single-node stack
	// (required). Start installs the node as the server's ClusterHook.
	Store  *kvstore.Store
	Server *kvstore.Server
	// Daemon, when set, joins this machine's SMD into the federation:
	// pressure summaries ride the gossip and budget migrates via
	// Cede/Receive. Nil disables federation only.
	Daemon *smd.Daemon
	// Seeds are peer (inter-node) addresses of existing members to join
	// through. Empty bootstraps a new single-node cluster.
	Seeds []string
	// Heartbeat is the gossip period (default 250ms).
	Heartbeat time.Duration
	// JitterSeed seeds reconnect/backoff jitter (0 = clock).
	JitterSeed int64
	// Logf receives lifecycle diagnostics (nil = log.Printf).
	Logf func(string, ...any)
}

// failAfter is how many consecutive failed heartbeats mark a peer dead
// and remove it from the ring.
const failAfter = 3

// Node is one cluster member: the routing ring, the peer gossip server,
// the replication fan-out, and the kvstore.ClusterHook that stitches
// them into the node's RESP server.
type Node struct {
	cfg  Config
	logf func(string, ...any)
	met  nodeMetrics

	// fedLowWater is the federation's pressure threshold in pages, an
	// eighth of the local daemon's partition at Start: the node borrows
	// budget when local free+slack falls below it, a low-water mark's
	// worth at a time, and never cedes past it.
	fedLowWater int

	// ring is the immutable routing state, swapped whole on membership
	// change; the hook's hot paths load it lock-free.
	ring atomic.Pointer[Ring]

	mu          sync.Mutex
	conns       map[string]*ipc.Conn // outbound, by peer address
	accepted    map[*ipc.Conn]struct{}
	misses      map[string]int                 // consecutive failed heartbeats, by RESP addr
	pressure    map[string]smd.PressureSummary // last gossiped peer pressure, by RESP addr
	statusAddrs map[string]string              // last gossiped statusz listener, by RESP addr
	closed      bool

	// selfStatus is the statusz listener this node advertises in gossip
	// (starts as Config.StatusAddr). An atomic because the status server
	// usually binds after Start, when gossip is already running.
	selfStatus atomic.Pointer[string]

	ln   net.Listener
	repl *replicator
	stop chan struct{}
	wg   sync.WaitGroup
}

// errNodeClosed reports an operation on a closed node.
var errNodeClosed = errors.New("clusterkv: node closed")

// Start brings the node up: listen for peers, join through the seeds,
// install the cluster hook, and begin gossiping.
func Start(cfg Config) (*Node, error) {
	if cfg.Addr == "" || cfg.Store == nil || cfg.Server == nil {
		return nil, errors.New("clusterkv: Config needs Addr, Store, and Server")
	}
	if cfg.PeerAddr == "" {
		cfg.PeerAddr = "127.0.0.1:0"
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 250 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}

	ln, err := net.Listen("tcp", cfg.PeerAddr)
	if err != nil {
		return nil, fmt.Errorf("clusterkv: peer listen: %w", err)
	}
	cfg.PeerAddr = ln.Addr().String()

	n := &Node{
		cfg:         cfg,
		logf:        cfg.Logf,
		conns:       make(map[string]*ipc.Conn),
		accepted:    make(map[*ipc.Conn]struct{}),
		misses:      make(map[string]int),
		pressure:    make(map[string]smd.PressureSummary),
		statusAddrs: make(map[string]string),
		ln:          ln,
		stop:        make(chan struct{}),
	}
	if cfg.Daemon != nil {
		n.fedLowWater = max(cfg.Daemon.TotalPages()/8, 1)
	}
	n.selfStatus.Store(&cfg.StatusAddr)
	n.repl = newReplicator(n)
	n.ring.Store(BuildRing(ipc.ClusterTable{Version: 1, Nodes: []ipc.ClusterNode{n.self()}}))

	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.acceptLoop()
	}()

	if err := n.join(); err != nil {
		n.Close()
		return nil, err
	}

	cfg.Server.SetCluster(n)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.heartbeatLoop()
	}()
	return n, nil
}

// self is this node's membership record.
func (n *Node) self() ipc.ClusterNode {
	return ipc.ClusterNode{Addr: n.cfg.Addr, Peer: n.cfg.PeerAddr}
}

// PeerAddr returns the bound inter-node address.
func (n *Node) PeerAddr() string { return n.cfg.PeerAddr }

// SetStatusAddr updates the statusz listener this node advertises in
// gossip — typically called right after the status server binds, since
// that usually happens after Start.
func (n *Node) SetStatusAddr(addr string) { n.selfStatus.Store(&addr) }

// statusSelf is the currently advertised statusz listener ("" = none).
func (n *Node) statusSelf() string { return *n.selfStatus.Load() }

// Ring returns the current routing state.
func (n *Node) Ring() *Ring { return n.ring.Load() }

// join admits the node through its seeds. With seeds configured, at
// least one must answer; a fresh cluster (no seeds) starts solo.
func (n *Node) join() error {
	if len(n.cfg.Seeds) == 0 {
		return nil
	}
	var lastErr error
	for _, seed := range n.cfg.Seeds {
		var resp ipc.JoinResp
		err := n.callPeer(seed, ipc.KindClusterJoin, ipc.JoinReq{Node: n.self()}, &resp)
		if err != nil {
			lastErr = err
			continue
		}
		n.adopt(resp.Table)
		return nil
	}
	return fmt.Errorf("clusterkv: no seed reachable: %w", lastErr)
}

// acceptLoop serves inbound peer connections.
func (n *Node) acceptLoop() {
	for {
		nc, err := n.ln.Accept()
		if err != nil {
			return
		}
		c := ipc.NewConn(nc, n.handlePeer)
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.accepted[c] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			_ = c.Serve()
			n.mu.Lock()
			delete(n.accepted, c)
			n.mu.Unlock()
		}()
	}
}

// handlePeer serves the inter-node protocol.
func (n *Node) handlePeer(kind string, body json.RawMessage) (any, error) {
	switch kind {
	case ipc.KindClusterJoin:
		var req ipc.JoinReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		if req.Node.Addr == "" || req.Node.Peer == "" {
			return nil, errors.New("clusterkv: join without addresses")
		}
		n.adopt(AddNode(n.ring.Load().Table, req.Node))
		n.logf("clusterkv: %s joined (table v%d)", req.Node.Addr, n.ring.Load().Table.Version)
		return ipc.JoinResp{Table: n.ring.Load().Table}, nil
	case ipc.KindGossip:
		var req ipc.GossipReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		n.met.observeHop(req.OriginNs)
		n.adopt(req.Table)
		n.recordPeer(req.From, req.Pressure, req.StatusAddr)
		return ipc.GossipResp{Table: n.ring.Load().Table, Pressure: n.localPressure(),
			StatusAddr: n.statusSelf()}, nil
	case ipc.KindCedeBudget:
		var req ipc.CedeReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		n.met.observeHop(req.OriginNs)
		return ipc.CedeResp{Granted: n.cedeTo(req)}, nil
	default:
		return nil, fmt.Errorf("clusterkv: unknown peer message %q", kind)
	}
}

// adopt merges an incoming table into the node's view, rebuilding the
// ring when membership actually changed. A node never lets a merge
// erase itself: if the winning table lacks this node (a concurrent
// conflict resolved against our join), it re-adds itself with a version
// bump and gossip spreads the correction.
func (n *Node) adopt(t ipc.ClusterTable) {
	n.mu.Lock()
	cur := n.ring.Load().Table
	merged := Merge(cur, t)
	if !containsAddr(merged, n.cfg.Addr) {
		merged = AddNode(merged, n.self())
	}
	if merged.Version == cur.Version && tableHash(merged) == tableHash(cur) {
		n.mu.Unlock()
		return
	}
	n.ring.Store(BuildRing(merged))
	for addr := range n.misses {
		if !containsAddr(merged, addr) {
			delete(n.misses, addr)
			delete(n.pressure, addr)
			delete(n.statusAddrs, addr)
		}
	}
	n.mu.Unlock()
	n.repl.retarget(merged)
	n.logf("clusterkv: routing table v%d, %d nodes", merged.Version, len(merged.Nodes))
}

// recordPeer stores a peer's latest pressure self-report and clears its
// miss counter (we heard from it). A non-empty statusAddr also refreshes
// the peer's advertised statusz listener.
func (n *Node) recordPeer(addr string, p smd.PressureSummary, statusAddr string) {
	if addr == "" || addr == n.cfg.Addr {
		return
	}
	n.mu.Lock()
	n.misses[addr] = 0
	n.pressure[addr] = p
	if statusAddr != "" {
		n.statusAddrs[addr] = statusAddr
	}
	n.mu.Unlock()
}

// heartbeatLoop drives gossip and federation until Close.
func (n *Node) heartbeatLoop() {
	t := time.NewTicker(n.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		// The chaos suite's node-kill point: an armed crash takes the
		// whole process down between heartbeats, exactly like a machine
		// failure — peers must notice via misses and heal the ring.
		faultinject.Fire("clusterkv.node.crash")
		n.gossipRound()
		n.federate()
	}
}

// gossipRound exchanges table + pressure with every peer and expires
// peers that have missed failAfter consecutive rounds.
func (n *Node) gossipRound() {
	r := n.ring.Load()
	for _, p := range r.Table.Nodes {
		if p.Addr == n.cfg.Addr {
			continue
		}
		n.met.gossipRounds.Add(1)
		if faultinject.Fire("clusterkv.gossip.drop") == faultinject.Drop {
			// The heartbeat to this peer is silently lost this round: we
			// learn nothing and, from the peer's side, went quiet.
			continue
		}
		var resp ipc.GossipResp
		err := n.callPeer(p.Peer, ipc.KindGossip,
			ipc.GossipReq{From: n.cfg.Addr, Table: r.Table, Pressure: n.localPressure(),
				StatusAddr: n.statusSelf(), OriginNs: time.Now().UnixNano()}, &resp)
		if err != nil {
			n.met.gossipFailures.Add(1)
			if n.missed(p.Addr) {
				n.logf("clusterkv: peer %s missed %d heartbeats, removing from ring", p.Addr, failAfter)
				n.adopt(RemoveNode(n.ring.Load().Table, p.Addr))
			}
			continue
		}
		n.recordPeer(p.Addr, resp.Pressure, resp.StatusAddr)
		n.adopt(resp.Table)
	}
}

// missed increments a peer's consecutive-failure count, reporting true
// once it crosses failAfter.
func (n *Node) missed(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.misses[addr]++
	return n.misses[addr] >= failAfter
}

// localPressure is this machine's gossiped self-report.
func (n *Node) localPressure() smd.PressureSummary {
	if n.cfg.Daemon == nil {
		return smd.PressureSummary{}
	}
	return n.cfg.Daemon.Pressure()
}

// federate borrows soft budget when this machine is pressured: below
// the low-water mark it asks the slackest known peer to cede a low-water
// mark's worth of pages and grows the local partition by whatever arrives.
func (n *Node) federate() {
	d := n.cfg.Daemon
	if d == nil {
		return
	}
	p := d.Pressure()
	if p.FreePages+p.SlackPages >= n.fedLowWater {
		return
	}
	n.mu.Lock()
	best, bestAvail := "", 0
	for addr, pp := range n.pressure {
		if avail := pp.FreePages + pp.SlackPages; avail > bestAvail {
			best, bestAvail = addr, avail
		}
	}
	n.mu.Unlock()
	if best == "" || bestAvail <= n.fedLowWater {
		return // no peer has spare budget; stay local
	}
	peer := n.ring.Load().PeerOf(best)
	if peer == "" {
		return
	}
	var resp ipc.CedeResp
	if err := n.callPeer(peer, ipc.KindCedeBudget,
		ipc.CedeReq{From: n.cfg.Addr, Pages: n.fedLowWater,
			OriginNs: time.Now().UnixNano()}, &resp); err != nil {
		return
	}
	if resp.Granted > 0 {
		d.Receive(resp.Granted, best)
		n.met.fedReceived.Add(int64(resp.Granted))
		n.logf("clusterkv: received %d pages of soft budget from %s", resp.Granted, best)
	}
}

// cedeTo serves a peer's borrow request: grant only what keeps this
// machine above its own low-water mark, through the daemon's coherent
// slack-harvest path.
func (n *Node) cedeTo(req ipc.CedeReq) int {
	d := n.cfg.Daemon
	if d == nil || req.Pages <= 0 {
		return 0
	}
	p := d.Pressure()
	avail := p.FreePages + p.SlackPages - n.fedLowWater
	if avail <= 0 {
		return 0
	}
	want := req.Pages
	if want > avail {
		want = avail
	}
	g := d.Cede(want, req.From)
	if g > 0 {
		n.met.fedCeded.Add(int64(g))
		n.logf("clusterkv: ceded %d pages of soft budget to %s", g, req.From)
	}
	return g
}

// callPeer performs one inter-node RPC over the cached connection to
// addr, dialing on first use and dropping the connection on failure so
// the next call redials.
func (n *Node) callPeer(addr, kind string, req, resp any) error {
	c, err := n.peerConn(addr)
	if err != nil {
		return err
	}
	if err := c.CallTimeout(kind, req, resp, peerCallTimeout); err != nil {
		n.dropConn(addr, c)
		return err
	}
	return nil
}

func (n *Node) peerConn(addr string) (*ipc.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, errNodeClosed
	}
	c := n.conns[addr]
	n.mu.Unlock()
	if c != nil {
		select {
		case <-c.Done():
			n.dropConn(addr, c)
		default:
			return c, nil
		}
	}
	nc, err := net.DialTimeout("tcp", addr, peerCallTimeout)
	if err != nil {
		return nil, err
	}
	c = ipc.NewConn(nc, n.handlePeer)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = c.Serve()
	}()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		c.Close()
		return nil, errNodeClosed
	}
	if old := n.conns[addr]; old != nil && old != c {
		// Lost a dial race; use the established conn.
		n.mu.Unlock()
		c.Close()
		return old, nil
	}
	n.conns[addr] = c
	n.mu.Unlock()
	return c, nil
}

func (n *Node) dropConn(addr string, c *ipc.Conn) {
	n.mu.Lock()
	if n.conns[addr] == c {
		delete(n.conns, addr)
	}
	n.mu.Unlock()
	c.Close()
}

// Close detaches the hook, stops gossip and replication, and closes
// every connection.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	conns := make([]*ipc.Conn, 0, len(n.conns)+len(n.accepted))
	for _, c := range n.conns {
		conns = append(conns, c)
	}
	for c := range n.accepted {
		conns = append(conns, c)
	}
	n.conns = map[string]*ipc.Conn{}
	n.accepted = map[*ipc.Conn]struct{}{}
	n.mu.Unlock()

	close(n.stop)
	n.cfg.Server.SetCluster(nil)
	_ = n.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	n.repl.close()
	n.wg.Wait()
}
