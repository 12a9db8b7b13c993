package clusterkv

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"softmem/internal/kvstore"
)

// The node implements kvstore.ClusterHook: it names the owner of any
// key this node does not own (the server answers -MOVED), serves the
// command table's hooked rows — cluster admin (CLUSTER, WAIT) and
// replica applies (RSET, RDEL) — and observes locally applied writes to
// feed the replication fan-out.

var _ kvstore.ClusterHook = (*Node)(nil)

// Redirect implements kvstore.ClusterHook.
func (n *Node) Redirect(key []byte) (moved string) {
	r := n.ring.Load()
	if r == nil || len(r.Table.Nodes) <= 1 {
		return ""
	}
	slot := SlotForKey(key)
	owner := r.Owner(slot)
	if owner == n.cfg.Addr {
		return ""
	}
	return movedReply(slot, owner)
}

// Moved implements kvstore.ClusterHook.
func (n *Node) Moved() { n.met.moved.Add(1) }

// Handle implements kvstore.ClusterHook. WAIT answers against the
// session's own replicated writes; the other rows are
// session-independent.
func (n *Node) Handle(sess kvstore.ClusterSession, cmd string, args [][]byte, rw kvstore.ReplyWriter) {
	switch cmd {
	case "RSET":
		// Replica apply: bypasses routing (the owner sent it here) and
		// does not re-enter replication (store writes skip OnApply). The
		// optional trailing argument is the owner's apply timestamp.
		if len(args) == 4 {
			n.observeReplOrigin(args[3])
		}
		if err := n.cfg.Store.Set(string(args[1]), args[2]); err != nil {
			rw.WriteError("ERR soft memory exhausted: " + err.Error())
			return
		}
		n.met.replApplied.Add(1)
		rw.WriteSimple("OK")
	case "RDEL":
		if len(args) == 3 {
			n.observeReplOrigin(args[2])
		}
		removed, err := n.cfg.Store.Del(string(args[1]))
		if err != nil {
			rw.WriteError("ERR " + err.Error())
			return
		}
		n.met.replApplied.Add(1)
		if removed {
			rw.WriteInteger(1)
		} else {
			rw.WriteInteger(0)
		}
	case "WAIT":
		n.handleWait(sess, args, rw)
	case "CLUSTER":
		n.handleClusterCmd(args, rw)
	}
}

// handleClusterCmd serves the CLUSTER admin command.
func (n *Node) handleClusterCmd(args [][]byte, rw kvstore.ReplyWriter) {
	sub := "INFO"
	if len(args) >= 2 {
		sub = upper(args[1])
	}
	r := n.ring.Load()
	switch sub {
	case "INFO":
		rw.WriteBulkString(fmt.Sprintf(
			"cluster_enabled:1\r\ncluster_state:ok\r\ncluster_known_nodes:%d\r\ncluster_ring_version:%d\r\ncluster_slots_total:%d\r\ncluster_slots_owned:%d\r\n",
			len(r.Table.Nodes), r.Table.Version, NumSlots, r.SlotsOwned(n.cfg.Addr)))
	case "NODES":
		out := ""
		for _, node := range r.Table.Nodes {
			role := "peer"
			if node.Addr == n.cfg.Addr {
				role = "self"
			}
			out += fmt.Sprintf("%s %s %s slots=%d\r\n", node.Addr, node.Peer, role, r.SlotsOwned(node.Addr))
		}
		rw.WriteBulkString(out)
	case "SLOT":
		// CLUSTER SLOT <key>: where would this key go (debugging aid).
		if len(args) != 3 {
			rw.WriteError("ERR wrong number of arguments for 'cluster slot'")
			return
		}
		slot := SlotForKey(args[2])
		rw.WriteBulkString(fmt.Sprintf("%d %s %s", slot, r.Owner(slot), r.Replica(slot)))
	default:
		rw.WriteError("ERR unknown CLUSTER subcommand '" + sub + "'")
	}
}

// observeReplOrigin feeds a replicated write's origin timestamp into the
// store's repl_hop phase histogram. Cross-node clocks can disagree, so a
// negative delta clamps to zero; a malformed argument is ignored rather
// than failing the apply.
func (n *Node) observeReplOrigin(arg []byte) {
	origin, err := strconv.ParseInt(string(arg), 10, 64)
	if err != nil || origin <= 0 {
		return
	}
	d := time.Now().UnixNano() - origin
	if d < 0 {
		d = 0
	}
	n.cfg.Store.ObserveReplHop(time.Duration(d))
}

// upper uppercases a short ASCII argument.
func upper(b []byte) string {
	out := make([]byte, len(b))
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}

// waitTimeout parses WAIT's <timeout-ms> argument (default 1s).
func waitTimeout(args [][]byte) time.Duration {
	timeout := time.Second
	if len(args) >= 3 {
		if ms, err := strconv.Atoi(string(args[2])); err == nil && ms >= 0 {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	return timeout
}

// NewSession implements kvstore.ClusterHook.
func (n *Node) NewSession() kvstore.ClusterSession { return &replSession{} }

// handleWait serves WAIT <numreplicas> <timeout-ms>: block until every
// replica holding one of the session's writes has acked the last of
// them, replying with the count of replicas that hold ALL of the
// session's writes. This is the eventual-ack consistency mode: SET then
// WAIT means the write survives this node's death once WAIT returns a
// nonzero count. Acks compare per-sender monotonic high-water marks
// against the session's recorded enqueue sequences, so unrelated
// backlog — other connections' writes, other senders entirely — cannot
// zero the reply; only a genuinely unacked (or shed) session write can.
func (n *Node) handleWait(sess kvstore.ClusterSession, args [][]byte, rw kvstore.ReplyWriter) {
	rs, _ := sess.(*replSession)
	if rs == nil || len(rs.last) == 0 {
		// No replicated writes on this connection: every replica
		// trivially holds all of them. Report the live replication
		// targets, like Redis reports its connected replica count.
		rw.WriteInteger(int64(n.repl.senderCount()))
		return
	}
	rw.WriteInteger(int64(n.repl.waitSession(rs.last, waitTimeout(args))))
}

// OnApply implements kvstore.ClusterHook: it hands every locally applied
// write on an owned slot to the slot successor's sender, recording the
// enqueue on the session so WAIT can answer per-connection. Keys and
// values are copied (they are valid only for the call: the server's
// buffers are reused); replica applies never land here because the hook
// writes them straight to the store.
func (n *Node) OnApply(sess kvstore.ClusterSession, op kvstore.Op, key string, val []byte) {
	r := n.ring.Load()
	if r == nil || len(r.Table.Nodes) <= 1 {
		return
	}
	slot := SlotForKey(key)
	if r.Owner(slot) != n.cfg.Addr {
		return // not ours (stale routing); the owner will replicate it
	}
	rep := r.Replica(slot)
	if rep == "" || rep == n.cfg.Addr {
		return
	}
	e := replEntry{key: strings.Clone(key), del: op == kvstore.OpDel, originNs: time.Now().UnixNano()}
	if !e.del {
		e.val = append([]byte(nil), val...)
	}
	n.met.replSent.Add(1)
	sender, seq, ok := n.repl.enqueue(rep, e)
	if rs, _ := sess.(*replSession); rs != nil && sender != nil {
		if !ok {
			seq = droppedSeq
		}
		rs.record(sender, seq)
	}
}
