package kvstore

import (
	"strconv"
	"strings"
)

// ReplyWriter is the reply surface a ClusterHook writes through. It is
// implemented by the server's per-connection RESP writer; replies go
// into the same coalesced buffer as ordinary command replies, so hook
// output obeys the connection's flush policy.
type ReplyWriter interface {
	WriteSimple(s string)
	// WriteError writes a raw error reply ("-<msg>\r\n") without the
	// "-ERR " prefix the ordinary error path adds — cluster redirects
	// like "MOVED <slot> <addr>" need their own leading token.
	WriteError(msg string)
	WriteInteger(n int64)
	WriteBulk(b []byte)
	WriteBulkString(s string)
	WriteNil()
	WriteArrayHeader(n int)
}

// ClusterHook lets a cluster layer sit between the RESP reader and the
// store: naming the owner of keys this node does not own (the server
// answers -MOVED, or -CROSSSLOT when a command's keys have more than
// one owner), serving the command table's hooked rows (CLUSTER,
// WAIT, and the replica applies RSET and RDEL), and observing locally
// applied writes for replication. A Server without a hook behaves
// exactly as before — the hook pointer is loaded once per command and
// nil skips everything.
type ClusterHook interface {
	// Redirect is asked about every one of a command's keys, in
	// argument order, before the command runs. It returns the error
	// reply "MOVED <slot> <addr>" for a key another node owns, "" for a
	// key served here. The key is parser-owned and valid only for the
	// call.
	Redirect(key []byte) (moved string)
	// Moved is told once for each command the server answers with a
	// MOVED reply.
	Moved()
	// NewSession mints one connection's session state.
	NewSession() ClusterSession
	// Handle serves one hooked row (cmd is its name) whose arity the
	// server checked, writing exactly one reply. The argument slices are
	// parser-owned and valid only for the call.
	Handle(sess ClusterSession, cmd string, args [][]byte, rw ReplyWriter)
	// OnApply observes one locally applied write after it succeeded, in
	// per-connection apply order: OpDel, or OpSet with the value the key
	// now holds (an INCR-family or APPEND write arrives as the OpSet of
	// its result). The key and value are only valid for the call; the
	// hook copies what it keeps.
	OnApply(sess ClusterSession, op Op, key string, val []byte)
}

// ClusterSession is an opaque per-connection state handle minted by the
// ClusterHook, for commands whose reply depends on what THIS connection
// did — WAIT must report how many replicas hold the session's own
// writes, not whether every replication queue on the node happens to be
// drained. The server keeps one per connection and passes it back on
// every Handle and OnApply; only the hook looks inside. Sessions are
// confined to their connection's goroutine, so hooks need no locking for
// state reached only through the session.
type ClusterSession any

// SetCluster installs (or, with nil, removes) the server's cluster
// hook. Safe to call while serving; connections pick the change up on
// their next command.
func (s *Server) SetCluster(h ClusterHook) {
	if h == nil {
		s.cluster.Store(nil)
		return
	}
	s.cluster.Store(&h)
}

// hook returns the installed cluster hook, nil when clustering is off.
func (s *Server) hook() ClusterHook {
	if h := s.cluster.Load(); h != nil {
		return *h
	}
	return nil
}

// onApplyBatch forwards a settled batch's successful writes to the
// hook, in batch order. An INCR-family or APPEND write is forwarded as
// the SET of the value it stored, which exec leaves in Val.
func onApplyBatch(h ClusterHook, sess ClusterSession, cmds []Command) {
	for i := range cmds {
		c := &cmds[i]
		if c.Err != nil {
			continue
		}
		switch c.Op {
		case OpSet, OpDel:
			h.OnApply(sess, c.Op, c.Key, c.Arg)
		case OpIncr, OpAppend:
			h.OnApply(sess, OpSet, c.Key, c.Val)
		}
	}
}

// IsMoved reports whether err is a cluster redirect ("MOVED <slot>
// <addr>") and, if so, returns the slot and the address of the node
// that owns it.
func IsMoved(err error) (slot int, addr string, ok bool) {
	re, isReply := err.(ReplyError)
	if !isReply {
		return 0, "", false
	}
	rest, found := strings.CutPrefix(string(re), "MOVED ")
	if !found {
		return 0, "", false
	}
	slotStr, addr, found := strings.Cut(rest, " ")
	if !found || addr == "" {
		return 0, "", false
	}
	n, convErr := strconv.Atoi(slotStr)
	if convErr != nil || n < 0 {
		return 0, "", false
	}
	return n, addr, true
}
