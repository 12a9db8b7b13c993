package clusterkv

import (
	"strconv"
	"sync"
	"time"

	"softmem/internal/faultinject"
	"softmem/internal/ipc"
	"softmem/internal/kvstore"
)

// replQueueCap bounds each peer sender's in-flight queue. Replication
// is asynchronous: when a replica falls further behind than this, new
// writes for it are dropped (and counted) rather than back-pressuring
// the serving path — fire-and-forget semantics. Clients that need the
// replica to have a write use WAIT (eventual-ack mode), which fails
// closed on a drop because the dropped write never acks.
const replQueueCap = 4096

// replEntry is one queued replica apply. originNs is the owner-side
// apply timestamp, shipped with the entry so the replica can attribute
// replication-hop latency (queue wait + wire + redial backoff) to the
// originating write.
type replEntry struct {
	del      bool
	key      string // owned copy
	val      []byte // owned copy
	originNs int64
}

// replicator fans locally applied writes out to per-peer senders, one
// goroutine per replica address, each maintaining its own RESP
// connection with jittered reconnect backoff.
type replicator struct {
	n *Node

	mu      sync.Mutex
	senders map[string]*replSender
	closed  bool
}

func newReplicator(n *Node) *replicator {
	return &replicator{n: n, senders: make(map[string]*replSender)}
}

// enqueue hands one write to addr's sender, creating it on first use.
// It returns the sender, the accepted write's sequence number, and
// whether the write was queued at all (false: replicator closed or the
// sender's queue was full — the write is gone).
func (r *replicator) enqueue(addr string, e replEntry) (*replSender, uint64, bool) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, 0, false
	}
	s := r.senders[addr]
	if s == nil {
		s = newReplSender(r.n, addr)
		r.senders[addr] = s
		r.n.wg.Add(1)
		go func() {
			defer r.n.wg.Done()
			s.run()
		}()
	}
	r.mu.Unlock()
	seq, ok := s.enqueue(e)
	return s, seq, ok
}

// senderCount reports the number of live replication targets.
func (r *replicator) senderCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.senders)
}

// waitSession blocks until every sender recorded in last has acked the
// session's write, or the deadline passes, returning how many replicas
// hold ALL of the session's writes. A droppedSeq entry never acks (the
// write was shed and will never reach the replica), so WAIT stays
// fail-closed exactly where a write was actually lost — but a backlog of
// unrelated writes on other senders no longer zeroes the reply.
func (r *replicator) waitSession(last map[*replSender]uint64, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		acked := 0
		for s, seq := range last {
			if seq != droppedSeq && s.ackedAtLeast(seq) {
				acked++
			}
		}
		if acked == len(last) || !time.Now().Before(deadline) {
			return acked
		}
		time.Sleep(time.Millisecond)
	}
}

// retarget drops senders for peers no longer in the table, discarding
// their queues (unacked fire-and-forget writes die with the peer).
func (r *replicator) retarget(t ipc.ClusterTable) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for addr, s := range r.senders {
		if !containsAddr(t, addr) {
			s.close()
			delete(r.senders, addr)
		}
	}
}

func (r *replicator) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for addr, s := range r.senders {
		s.close()
		delete(r.senders, addr)
	}
}

// replSender ships writes to one replica address in order.
type replSender struct {
	n    *Node
	addr string

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []replEntry
	enqSeq uint64 // writes accepted
	ackSeq uint64 // writes confirmed by the replica
	closed bool
}

func newReplSender(n *Node, addr string) *replSender {
	s := &replSender{n: n, addr: addr}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// enqueue queues one entry, returning its sequence number. ok is false
// when the write was not accepted (sender closed or queue full).
func (s *replSender) enqueue(e replEntry) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, false
	}
	if len(s.queue) >= replQueueCap {
		s.n.met.replDropped.Add(1)
		return 0, false
	}
	s.queue = append(s.queue, e)
	s.enqSeq++
	s.cond.Signal()
	return s.enqSeq, true
}

// ackedAtLeast reports whether the replica has confirmed every write up
// to and including seq.
func (s *replSender) ackedAtLeast(seq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ackSeq >= seq
}

func (s *replSender) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// next blocks for the head-of-queue entry; ok is false on shutdown.
func (s *replSender) next() (replEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return replEntry{}, false
	}
	return s.queue[0], true
}

// pop removes the (successfully shipped) head entry and acks it.
func (s *replSender) pop() {
	s.mu.Lock()
	s.queue = s.queue[1:]
	s.ackSeq++
	s.mu.Unlock()
}

// run is the sender loop: dial the replica's RESP port, ship queue
// entries in order as RSET/RDEL, redial with jittered backoff on any
// failure. An entry is only popped (and acked) after the replica's
// reply, so WAIT-observed acks mean the replica really applied the
// write.
func (s *replSender) run() {
	jitter := ipc.NewJitter(s.n.cfg.JitterSeed)
	backoff := 50 * time.Millisecond
	const maxBackoff = 2 * time.Second
	var cli *kvstore.Client
	defer func() {
		if cli != nil {
			cli.Close()
		}
	}()
	for {
		e, ok := s.next()
		if !ok {
			return
		}
		// An armed partition severs this link: the send fails as if the
		// network dropped it, the connection is torn down, and the entry
		// stays queued for the retry loop.
		if faultinject.Fire("clusterkv.replicate.partition") != faultinject.None {
			if cli != nil {
				cli.Close()
				cli = nil
			}
			if s.sleepClosed(jitter.Sleep(backoff)) {
				return
			}
			backoff = nextBackoff(backoff, maxBackoff)
			continue
		}
		if cli == nil {
			c, err := kvstore.DialClient("tcp", s.addr)
			if err != nil {
				if s.sleepClosed(jitter.Sleep(backoff)) {
					return
				}
				backoff = nextBackoff(backoff, maxBackoff)
				continue
			}
			cli = c
		}
		// The trailing origin timestamp is the write's span context:
		// replicas observe now-origin as repl_hop latency. Old replicas
		// that predate the extra argument reject it with a ReplyError,
		// but mixed-version rings are not a supported deployment.
		origin := strconv.FormatInt(e.originNs, 10)
		var err error
		if e.del {
			_, _, err = cli.Do("RDEL", e.key, origin)
		} else {
			_, _, err = cli.Do("RSET", e.key, string(e.val), origin)
		}
		if err != nil {
			if _, isReply := err.(kvstore.ReplyError); isReply {
				// The replica refused the apply (e.g. out of soft memory):
				// retrying the same entry cannot succeed, so drop it. The
				// write stays durable on the owner.
				s.n.met.replDropped.Add(1)
				s.pop()
				continue
			}
			cli.Close()
			cli = nil
			if s.sleepClosed(jitter.Sleep(backoff)) {
				return
			}
			backoff = nextBackoff(backoff, maxBackoff)
			continue
		}
		backoff = 50 * time.Millisecond
		s.n.met.replAcked.Add(1)
		s.pop()
	}
}

// sleepClosed sleeps d, returning true if the sender closed meanwhile.
func (s *replSender) sleepClosed(d time.Duration) bool {
	time.Sleep(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func nextBackoff(d, max time.Duration) time.Duration {
	if d *= 2; d > max {
		return max
	}
	return d
}
