// Package clusterkv is the networked cluster layer over the single-node
// stack: a deterministic consistent-hash ring routes keys to nodes,
// RESP-level -MOVED redirects steer clients to owners, writes replicate
// asynchronously to each slot's ring successor, and federated SMDs
// migrate soft budget from slack machines to pressured ones over the
// same gossip links that carry ring membership.
//
// The keyspace is divided into NumSlots slots (key → slot by hash, as
// in Redis Cluster). Each node projects vnodes virtual points onto a
// 64-bit hash circle; a slot is owned by the node whose point is the
// first at or clockwise of the slot's own hash. The slot's replica is
// the next *distinct* node after the owner's winning point — so when an
// owner dies and its points vanish, each of its slots falls to exactly
// the node that was already its replica, and acknowledged replicated
// writes survive the failover.
package clusterkv

import (
	"fmt"
	"sort"
	"strconv"

	"softmem/internal/ipc"
)

// NumSlots is the fixed size of the slot space keys hash into. 16384
// matches Redis Cluster: small enough that a slot map is cheap to hold
// and gossip, large enough that slot granularity never limits balance.
const NumSlots = 16384

// vnodes is the virtual points each node projects onto the ring.
// Balance error shrinks roughly with 1/√V; 512 keeps 3–9-node rings
// within ±15% of ideal while build cost stays trivial (a few thousand
// points sorted per membership change).
const vnodes = 512

// fnv64a is FNV-1a over a string or byte slice: the ring's one hash
// function, chosen for determinism across processes (no per-process
// seed) and zero allocation.
func fnv64a[T string | []byte](s T) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// SlotForKey maps a key to its slot. It takes the key in either form:
// the per-command claim check holds parser-owned bytes and must not
// allocate.
func SlotForKey[T string | []byte](key T) int {
	return int(fnv64a(key) % NumSlots)
}

// mix64 is a 64-bit avalanche finalizer (the MurmurHash3 fmix64
// constants). FNV over short sequential inputs — "slot-1"…"slot-16383",
// "addr#0"…"addr#511" — leaves the high bits correlated, which lumps
// circle positions into runs and wrecks balance; one mixing pass
// decorrelates them.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// slotHash positions a slot on the hash circle. The decimal rendering
// keeps it trivially reproducible in any language an operator might
// re-derive the map in.
func slotHash(slot int) uint64 {
	return mix64(fnv64a("slot-" + strconv.Itoa(slot)))
}

// point is one virtual node on the hash circle.
type point struct {
	hash uint64
	node int32 // index into the table's (normalized) node list
}

// Ring is the routing state compiled from a table: the sorted vnode
// points and the dense slot → owner/replica maps. Rings are immutable;
// membership changes build a new one.
type Ring struct {
	// Table is the normalized membership the ring was built from.
	Table ipc.ClusterTable

	points  []point
	owner   []int32 // slot -> node index
	replica []int32 // slot -> node index of the successor, -1 if none
}

// BuildRing compiles a table into routing state. An empty table yields
// a ring that owns nothing.
func BuildRing(t ipc.ClusterTable) *Ring {
	t = Normalize(t)
	r := &Ring{Table: t}
	if len(t.Nodes) == 0 {
		return r
	}
	r.points = make([]point, 0, len(t.Nodes)*vnodes)
	for i, n := range t.Nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash: mix64(fnv64a(n.Addr + "#" + strconv.Itoa(v))),
				node: int32(i),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node // deterministic on collision
	})
	r.owner = make([]int32, NumSlots)
	r.replica = make([]int32, NumSlots)
	for s := 0; s < NumSlots; s++ {
		pi := r.search(slotHash(s))
		r.owner[s] = r.points[pi].node
		r.replica[s] = r.successor(pi)
	}
	return r
}

// search returns the index of the first point at or clockwise of h.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0 // wrap
	}
	return i
}

// successor walks clockwise from the winning point to the first point
// of a different node: the slot's replica. -1 when the ring has one
// node.
func (r *Ring) successor(pi int) int32 {
	own := r.points[pi].node
	for i := 1; i < len(r.points); i++ {
		if n := r.points[(pi+i)%len(r.points)].node; n != own {
			return n
		}
	}
	return -1
}

// Owner returns the node owning slot ("" on an empty ring).
func (r *Ring) Owner(slot int) string {
	if len(r.owner) == 0 {
		return ""
	}
	return r.Table.Nodes[r.owner[slot]].Addr
}

// Replica returns the slot's successor node ("" when the ring has fewer
// than two nodes).
func (r *Ring) Replica(slot int) string {
	if len(r.replica) == 0 || r.replica[slot] < 0 {
		return ""
	}
	return r.Table.Nodes[r.replica[slot]].Addr
}

// SlotsOwned counts the slots owned by addr.
func (r *Ring) SlotsOwned(addr string) int {
	n := 0
	for s := 0; s < NumSlots; s++ {
		if len(r.owner) > 0 && r.Table.Nodes[r.owner[s]].Addr == addr {
			n++
		}
	}
	return n
}

// PeerOf returns the inter-node address for a RESP address.
func (r *Ring) PeerOf(addr string) string {
	for _, n := range r.Table.Nodes {
		if n.Addr == addr {
			return n.Peer
		}
	}
	return ""
}

// Normalize returns the table with its node list sorted by Addr and
// deduplicated (first occurrence wins). Tables are normalized before
// hashing or comparison so the merge tie-break is order-independent.
func Normalize(t ipc.ClusterTable) ipc.ClusterTable {
	nodes := make([]ipc.ClusterNode, 0, len(t.Nodes))
	seen := make(map[string]bool, len(t.Nodes))
	for _, n := range t.Nodes {
		if n.Addr == "" || seen[n.Addr] {
			continue
		}
		seen[n.Addr] = true
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Addr < nodes[j].Addr })
	return ipc.ClusterTable{Version: t.Version, Nodes: nodes}
}

// tableHash fingerprints a normalized table's content for the merge
// tie-break.
func tableHash(t ipc.ClusterTable) uint64 {
	h := uint64(0)
	for _, n := range t.Nodes {
		h = h*1099511628211 ^ fnv64a(n.Addr+"|"+n.Peer)
	}
	return h
}

// Merge resolves two routing tables: the higher version wins, and equal
// versions break the tie on content fingerprint so every node resolves
// a concurrent conflict to the same table. Merge is commutative and
// idempotent, and its result is always one of the (normalized) inputs —
// properties the fuzz target asserts.
func Merge(a, b ipc.ClusterTable) ipc.ClusterTable {
	a, b = Normalize(a), Normalize(b)
	switch {
	case a.Version > b.Version:
		return a
	case b.Version > a.Version:
		return b
	}
	if tableHash(a) >= tableHash(b) {
		return a
	}
	return b
}

// AddNode returns a new table with node admitted (or its Peer address
// refreshed) and the version bumped.
func AddNode(t ipc.ClusterTable, node ipc.ClusterNode) ipc.ClusterTable {
	t = Normalize(t)
	nodes := make([]ipc.ClusterNode, 0, len(t.Nodes)+1)
	replaced := false
	for _, n := range t.Nodes {
		if n.Addr == node.Addr {
			nodes = append(nodes, node)
			replaced = true
			continue
		}
		nodes = append(nodes, n)
	}
	if !replaced {
		nodes = append(nodes, node)
	}
	return Normalize(ipc.ClusterTable{Version: t.Version + 1, Nodes: nodes})
}

// RemoveNode returns a new table without addr and the version bumped.
func RemoveNode(t ipc.ClusterTable, addr string) ipc.ClusterTable {
	t = Normalize(t)
	nodes := make([]ipc.ClusterNode, 0, len(t.Nodes))
	for _, n := range t.Nodes {
		if n.Addr != addr {
			nodes = append(nodes, n)
		}
	}
	return ipc.ClusterTable{Version: t.Version + 1, Nodes: nodes}
}

// containsAddr reports whether the table lists addr.
func containsAddr(t ipc.ClusterTable, addr string) bool {
	for _, n := range t.Nodes {
		if n.Addr == addr {
			return true
		}
	}
	return false
}

// movedReply formats the redirect for a slot owned elsewhere.
func movedReply(slot int, addr string) string {
	return fmt.Sprintf("MOVED %d %s", slot, addr)
}
