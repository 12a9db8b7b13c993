package clusterkv

import (
	"sync/atomic"

	"softmem/internal/ipc"
	"softmem/internal/metrics"
	"softmem/internal/smd"
)

// nodeMetrics are the node's always-on counters; RegisterMetrics
// bridges three of them into a registry, and the /cluster status view
// reads them all directly.
type nodeMetrics struct {
	gossipRounds   atomic.Int64
	gossipFailures atomic.Int64
	moved          atomic.Int64
	replSent       atomic.Int64
	replAcked      atomic.Int64
	replDropped    atomic.Int64
	replApplied    atomic.Int64
	fedCeded       atomic.Int64
	fedReceived    atomic.Int64
}

// RegisterMetrics exposes the node's redirect and federation counters.
func (n *Node) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("softmem_cluster_moved_total", "commands redirected with -MOVED", n.met.moved.Load)
	r.CounterFunc("softmem_cluster_fed_ceded_pages_total", "soft budget pages ceded to peers", n.met.fedCeded.Load)
	r.CounterFunc("softmem_cluster_fed_received_pages_total", "soft budget pages received from peers", n.met.fedReceived.Load)
}

// PeerStatus is one peer's view in Status. StatusAddr is the peer's
// gossiped statusz listener ("" when the peer runs without one), the
// hook `smdctl top --cluster` uses to fan out.
type PeerStatus struct {
	Addr       string
	Peer       string
	StatusAddr string `json:",omitempty"`
	Misses     int
	Pressure   smd.PressureSummary
}

// Status is the node's cluster snapshot, served on /cluster and
// rendered by `smdctl cluster`.
type Status struct {
	Self        string
	PeerAddr    string
	StatusAddr  string `json:",omitempty"`
	RingVersion uint64
	Nodes       []ipc.ClusterNode
	SlotsOwned  int
	Peers       []PeerStatus

	GossipRounds   int64
	GossipFailures int64
	Moved          int64
	ReplSent       int64
	ReplAcked      int64
	ReplDropped    int64
	ReplApplied    int64

	FedCededPages    int64
	FedReceivedPages int64
	Pressure         smd.PressureSummary
}

// Status snapshots the node.
func (n *Node) Status() Status {
	r := n.ring.Load()
	st := Status{
		Self:        n.cfg.Addr,
		PeerAddr:    n.cfg.PeerAddr,
		StatusAddr:  n.statusSelf(),
		RingVersion: r.Table.Version,
		Nodes:       append([]ipc.ClusterNode(nil), r.Table.Nodes...),
		SlotsOwned:  r.SlotsOwned(n.cfg.Addr),

		GossipRounds:   n.met.gossipRounds.Load(),
		GossipFailures: n.met.gossipFailures.Load(),
		Moved:          n.met.moved.Load(),
		ReplSent:       n.met.replSent.Load(),
		ReplAcked:      n.met.replAcked.Load(),
		ReplDropped:    n.met.replDropped.Load(),
		ReplApplied:    n.met.replApplied.Load(),

		FedCededPages:    n.met.fedCeded.Load(),
		FedReceivedPages: n.met.fedReceived.Load(),
		Pressure:         n.localPressure(),
	}
	n.mu.Lock()
	for _, node := range st.Nodes {
		if node.Addr == n.cfg.Addr {
			continue
		}
		st.Peers = append(st.Peers, PeerStatus{
			Addr:       node.Addr,
			Peer:       node.Peer,
			StatusAddr: n.statusAddrs[node.Addr],
			Misses:     n.misses[node.Addr],
			Pressure:   n.pressure[node.Addr],
		})
	}
	n.mu.Unlock()
	return st
}
