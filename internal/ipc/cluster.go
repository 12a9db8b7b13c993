package ipc

import "softmem/internal/smd"

// Inter-node cluster frames. Nodes of a clusterkv deployment talk to
// each other over the same JSON-framed Conn transport the daemon IPC
// uses; these are the message kinds and payloads of that peer protocol.
// The routing-table wire types live here (not in clusterkv) so the
// frame layer has no dependency on ring internals and the table can be
// carried by any peer without importing the cluster package.

// Cluster message kinds on the wire (node -> node).
const (
	// KindClusterJoin asks a seed node to admit the sender into the
	// ring; the response carries the merged routing table.
	KindClusterJoin = "cluster_join"
	// KindGossip is the periodic heartbeat: tables and pressure
	// summaries are exchanged and merged in both directions.
	KindGossip = "cluster_gossip"
	// KindCedeBudget asks a peer to cede soft budget to the sender's
	// SMD partition (federation).
	KindCedeBudget = "cluster_cede"
)

// ClusterNode is one ring member as carried on the wire.
type ClusterNode struct {
	// Addr is the node's RESP service address (host:port) — the address
	// MOVED redirects name.
	Addr string `json:"addr"`
	// Peer is the node's inter-node listener address.
	Peer string `json:"peer"`
}

// ClusterTable is the versioned routing table gossiped between nodes.
// Higher Version wins on merge; ties break deterministically on content
// so concurrent bumps converge (see clusterkv.Merge).
type ClusterTable struct {
	Version uint64        `json:"version"`
	Nodes   []ClusterNode `json:"nodes"`
}

// JoinReq admits a node into the ring.
type JoinReq struct {
	Node ClusterNode `json:"node"`
}

// JoinResp returns the post-join routing table.
type JoinResp struct {
	Table ClusterTable `json:"table"`
}

// GossipReq is one heartbeat: the sender's table and pressure summary.
// StatusAddr is optional (older peers omit it): it advertises the
// sender's statusz listener so tooling can fan out across the cluster.
type GossipReq struct {
	From       string              `json:"from"` // sender's RESP address (node identity)
	Table      ClusterTable        `json:"table"`
	Pressure   smd.PressureSummary `json:"pressure"`
	StatusAddr string              `json:"status_addr,omitempty"`
}

// GossipResp mirrors the receiver's table and pressure back.
type GossipResp struct {
	Table      ClusterTable        `json:"table"`
	Pressure   smd.PressureSummary `json:"pressure"`
	StatusAddr string              `json:"status_addr,omitempty"`
}

// CedeReq asks the receiver's daemon to cede pages to the sender.
type CedeReq struct {
	From  string `json:"from"`
	Pages int    `json:"pages"`
}

// CedeResp reports the pages actually ceded (0 = nothing to spare).
type CedeResp struct {
	Granted int `json:"granted"`
}
