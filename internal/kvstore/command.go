package kvstore

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"softmem/internal/core"
	"softmem/internal/sds"
)

// Op names one store operation in the typed dispatch interface. The RESP
// server and the in-process facade both speak it: commands are routed by
// key hash to a shard owner and executed run-to-completion there.
type Op uint8

// Keyed operations.
const (
	// OpGet reads Key: Val (appended into the slot's scratch), Ok.
	OpGet Op = iota + 1
	// OpSet stores Arg under Key: Err on allocation failure.
	OpSet
	// OpDel removes Key: Ok reports existence, N is 1 when removed.
	OpDel
	// OpIncr adjusts the integer at Key by Delta: N is the new value,
	// Val its decimal form as stored.
	OpIncr
	// OpAppend appends Arg to Key's value: N is the new length, Val the
	// stored value.
	OpAppend
	// OpStrLen measures Key's value: N (0 when absent).
	OpStrLen
	// OpExists probes Key: Ok.
	OpExists
	// OpExpire sets Key's TTL to Delta nanoseconds: Ok when the key exists.
	OpExpire
	// OpTTL reads Key's TTL: Ok is existence, N the remaining nanoseconds
	// (-1 when the key has no deadline).
	OpTTL
	// OpPersist clears Key's TTL: Ok when a deadline was removed.
	OpPersist

	// opSweep (internal) collects every expired key of one pre-routed
	// shard: N is the number collected. Submitted by SweepExpired so TTL
	// expiry executes on the owner, never racing command execution.
	opSweep
)

// ErrOverloaded reports that a shard owner's command ring was full: the
// store sheds the command instead of blocking the submitter. The RESP
// server maps it to a -BUSY reply; clients should back off and retry.
var ErrOverloaded = errors.New("kvstore: shard owner ring full")

// Command is one typed request/response slot in a Batch.
//
// Aliasing and ownership: Key may alias a buffer that is valid only
// until the batch's Reset (the RESP server's per-connection arena); the
// store copies every key it keeps past the command — an inserted table
// entry, a TTL deadline, a promotion, a slowlog entry, a replication
// queue entry. Arg (the OpSet/OpAppend input) must stay unchanged until
// Exec returns — the store copies it into soft memory during execution,
// not at Add time. Val is a per-slot reusable scratch: the executed
// value is appended into its capacity, so the result aliases the slot
// and is valid only until the slot's next use (Batch.Add after a Reset).
// Callers needing longer-lived values must copy.
type Command struct {
	Op    Op
	Key   string
	Arg   []byte // input value for OpSet/OpAppend
	Delta int64  // OpIncr delta; OpExpire TTL in nanoseconds

	// Results, valid after Batch.Exec (or Store.Do) returns.
	Val []byte // OpGet value (OpIncr/OpAppend: the stored one), appended into the slot scratch
	Ok  bool
	N   int64
	Err error

	shard int32 // routed shard index (pre-set for opSweep)

	// phaseNs is the command's latency-attribution span: nanoseconds per
	// phase (see span.go), filled by the engine only while attribution
	// is enabled. It lives in the slot — reused with the batch, zeroed
	// by Add — so spans cost no per-request allocation.
	phaseNs [numCmdPhases]int64
}

// Batch accumulates commands, splits them per shard, submits each
// shard's slice to its owner ring, and rejoins the results in order. A
// Batch is reusable (Reset) and free of steady-state allocations; it is
// not safe for concurrent use, but independent Batches are.
type Batch struct {
	s       *Store
	cmds    []Command
	groups  []shardBatch
	order   []int32 // shard indexes touched this Exec, in first-use order
	pending atomic.Int32
	done    chan struct{}
	// owners are this batch's caller-runs handles, one per shard: when a
	// shard's heap lock is free at Exec time, the submitting goroutine
	// takes it and executes that shard's group itself — same
	// run-to-completion discipline as the owner goroutine, zero handoffs.
	owners []*core.Owned
}

// shardBatch is the unit sent on a shard's ring: the indexes of the
// batch's commands owned by that shard, in batch order.
type shardBatch struct {
	b    *Batch
	idxs []int32
	// submitNs is the monotonic stamp of the ring submission (nowNanos),
	// consumed by the timed execution path as the group's queue wait; 0
	// on the caller-runs path, where there is no queueing.
	submitNs int64
}

// NewBatch returns an empty reusable batch bound to the store.
func (s *Store) NewBatch() *Batch {
	b := &Batch{
		s:      s,
		groups: make([]shardBatch, len(s.shards)),
		done:   make(chan struct{}, 1),
		owners: make([]*core.Owned, len(s.shards)),
	}
	for i := range b.groups {
		b.groups[i].b = b
		b.owners[i] = s.shards[i].ht.Context().Own()
	}
	return b
}

// Len reports how many commands are queued.
func (b *Batch) Len() int { return len(b.cmds) }

// Cmd returns the i'th command slot for argument setup or result
// reading. The pointer is invalidated by Reset, not by further Adds.
func (b *Batch) Cmd(i int) *Command { return &b.cmds[i] }

// Reset clears the batch for reuse, keeping every slot's scratch.
func (b *Batch) Reset() { b.cmds = b.cmds[:0] }

// Add queues op on key and returns the command's index; use Cmd to set
// inputs (Arg, Delta) and read results after Exec.
func (b *Batch) Add(op Op, key string) int {
	i := len(b.cmds)
	if i < cap(b.cmds) {
		b.cmds = b.cmds[:i+1]
	} else {
		b.cmds = append(b.cmds, Command{})
	}
	c := &b.cmds[i]
	val := c.Val[:0] // keep the slot's scratch across reuse
	// Zero, then assign field by field: a Command literal would be built
	// in a temporary and copied in, and that copy's wide loads stall on
	// the narrow stores just made (~40 ns per command, measured).
	*c = Command{}
	c.Op, c.Key, c.Val, c.shard = op, key, val, int32(b.s.shardIdx(key))
	return i
}

// Get queues a GET of key.
func (b *Batch) Get(key string) int { return b.Add(OpGet, key) }

// Set queues a SET of key to value (value must outlive Exec; see
// Command's aliasing rules).
func (b *Batch) Set(key string, value []byte) int {
	i := b.Add(OpSet, key)
	b.cmds[i].Arg = value
	return i
}

// Del queues a DEL of key.
func (b *Batch) Del(key string) int { return b.Add(OpDel, key) }

// addSweep queues an internal whole-shard TTL sweep.
func (b *Batch) addSweep(shard int) {
	i := b.Add(opSweep, "")
	b.cmds[i].shard = int32(shard)
}

// Exec routes the queued commands to their shard owners, waits for all
// of them, and leaves per-command results in the slots. Shards whose
// ring is full fail their commands with ErrOverloaded instead of
// blocking. Exec always returns nil; per-command outcomes (including
// ErrOverloaded) live in Command.Err. A single-command batch runs
// inline on the caller (one ring hop saved), which keeps unpipelined
// RESP latency identical to the direct path.
//
// Caller-runs: a shard group whose heap lock is free at Exec time is
// executed by the submitting goroutine itself, under the identical
// run-to-completion discipline the owner goroutine uses (TryLock, so
// the submitter never blocks). Only contended shards pay the ring
// handoff — which is exactly when the handoff buys parallelism. At most
// one caller-runs lock is held at a time, so cross-shard batches cannot
// form hold-and-wait cycles.
func (b *Batch) Exec() error {
	switch len(b.cmds) {
	case 0:
		return nil
	case 1:
		b.s.Do(&b.cmds[0])
		return nil
	}
	touched := b.order[:0]
	for i := range b.cmds {
		si := b.cmds[i].shard
		g := &b.groups[si]
		if len(g.idxs) == 0 {
			touched = append(touched, si)
		}
		g.idxs = append(g.idxs, int32(i))
	}
	b.order = touched
	b.pending.Store(int32(len(touched)))
	for _, si := range touched {
		g := &b.groups[si]
		sh := b.s.shards[si]
		if o := b.owners[si]; o.TryAcquire() {
			g.submitNs = 0
			start := time.Now()
			b.s.runShardBatch(o, sh, g)
			o.Release()
			sh.busyNs.Add(time.Since(start).Nanoseconds())
			continue
		}
		// Stamp the hand-off unconditionally: one monotonic clock read on
		// a path that already pays a channel send, and the timed executor
		// never sees a stale stamp from a previous Exec.
		g.submitNs = nowNanos()
		if err := b.s.submit(int(si), g); err != nil {
			for _, ci := range g.idxs {
				b.cmds[ci].Err = err
			}
			b.s.overloaded.Add(int64(len(g.idxs)))
			g.idxs = g.idxs[:0]
			if b.pending.Add(-1) == 0 {
				b.done <- struct{}{}
			}
		}
	}
	<-b.done
	return nil
}

// Do executes one command inline on the calling goroutine: it takes the
// key's shard lock through a stack-local core.Owned (visible to an owner
// mid-drain, which hands over at its next Yield), runs the same exec the
// shard owners run, and releases. It is the single-command path Exec
// uses, what every direct Store method wraps, and the facade's one-shot
// entry point; results land in c and c.Err is returned.
//
// GET and EXISTS first try the optimistic lock-free probe — zero
// mutexes, zero Owned acquisitions, epoch-protected byte copy. This is
// the only place the probe is issued: callers that already hold the
// shard lock (owners, caller-runs groups) read under it instead. The
// locked path runs only when the probe cannot decide (condemned entry,
// reader-slot exhaustion), when a pending TTL expiry must be collected,
// or when a miss must consult the spill tier for a promotion.
func (s *Store) Do(c *Command) error {
	c.Ok, c.N, c.Err, c.phaseNs = false, 0, nil, [numCmdPhases]int64{}
	sh := s.shard(c.Key)
	if c.Op == opSweep {
		sh = s.shards[c.shard]
	}
	a := s.attrib.Load()
	if c.Op == OpGet || c.Op == OpExists {
		var t0 time.Time
		if a != nil {
			t0 = time.Now()
		}
		if s.probe(sh, c) {
			if a != nil {
				// A lock-free read is all execution: no queue, no lock.
				c.phaseNs[phaseExec] = time.Since(t0).Nanoseconds()
				a.observeCmd(c)
			}
			return nil
		}
	}
	o := sh.ht.Context().Own()
	s.run(a, o, sh, c, 0)
	o.Release()
	return c.Err
}

// probe is the optimistic lock-free read for GET and EXISTS, reporting
// whether it settled the command.
func (s *Store) probe(sh *shard, c *Command) bool {
	get := c.Op == OpGet
	if sh.ttl.due(c.Key) {
		// The deadline is due. If the key is confirmed absent from both
		// tiers (already revoked, deleted, or collected) there is nothing
		// to expire, so the miss stays lock-free: drop the stale deadline
		// without touching the shard's heap lock, exactly as expire would
		// (no expiry is counted for absent keys).
		if sh.ht.ContainsLockFree(c.Key) != sds.LookupMiss || (s.spill != nil && s.spill.Contains(c.Key)) {
			return false
		}
		sh.ttl.clear(c.Key)
		if get {
			c.Val = c.Val[:0]
			sh.countRead(false)
		}
		return true
	}
	if !get {
		// Only a hit is final: a miss or retry still has the condemned
		// races and the spill tier to settle under the lock.
		c.Ok = sh.ht.ContainsLockFree(c.Key) == sds.LookupHit
		return c.Ok
	}
	v, res := sh.ht.GetAppendLockFree(c.Val[:0], c.Key)
	// A definite miss with a spill tier attached still needs the locked
	// promotion path.
	if res == sds.LookupRetry || (res == sds.LookupMiss && s.spill != nil) {
		return false
	}
	c.Val, c.Ok = v, res == sds.LookupHit
	sh.countRead(c.Ok)
	return true
}

func errUnknownOp(op Op) error {
	return errors.New("kvstore: unknown op " + strconv.Itoa(int(op)))
}

func errNotInteger(key string) error {
	return fmt.Errorf("kvstore: value at %q is not an integer", key)
}
