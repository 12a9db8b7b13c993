package kvstore

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"softmem/internal/core"
	"softmem/internal/sds"
)

// ownerQueue is the per-shard command ring capacity (in shard batches,
// not commands). Sized so a deep pipeline across many connections queues
// without shedding, while a stalled shard sheds load as -BUSY instead of
// absorbing unbounded memory: a shard can hold 256 in-flight batch
// slices before submitters see ErrOverloaded.
const ownerQueue = 256

// shard is one string-table shard plus its execution state: the soft
// hash table, the shard-local TTL table, and the owner's bounded MPSC
// command ring. The owner goroutine is the only executor of ring work,
// so per-shard command execution is single-writer (shared-nothing); the
// shard's heap lock is held by the owner across whole batches and
// yielded cooperatively to reclamation demands and inline callers.
type shard struct {
	ht    *sds.SoftHashTable[string]
	ttl   *ttlTable
	ring  chan *shardBatch
	owned *core.Owned
	label string // decimal shard index, preformatted for pprof labels

	// The fields above are written once and loaded by every core on
	// every command; the pad keeps the counters below, which every
	// command writes, off their cache line.
	_ [64]byte

	// Operation counters, summed over the shards by Stats and /metrics
	// (Gets = hits + misses). They live here, not on the Store, so cores
	// serving different shards do not bounce one store-wide line.
	hits   atomic.Int64
	misses atomic.Int64
	sets   atomic.Int64
	dels   atomic.Int64

	// Owner-side telemetry (read by EngineStats/metrics).
	cmds    atomic.Int64 // commands executed under the shard's owned lock
	batches atomic.Int64 // shard batches executed (owner or caller-runs)
	busyNs  atomic.Int64 // cumulative wall time the owner spent executing
}

// EngineStats is a snapshot of the execution engine's own accounting,
// aggregated over every shard owner.
type EngineStats struct {
	// Commands counts every command executed under a shard's owned lock
	// (by owners, caller-runs groups and Store.Do alike; lock-free read
	// hits take no lock and are not counted). Batches counts the shard
	// groups among them.
	Commands int64
	Batches  int64
	// LockAcquisitions counts shard heap-lock acquisitions by those same
	// executors. Commands/LockAcquisitions is the lock-amortization
	// evidence: 1 for a stream of direct calls, the group size for
	// pipelined batches.
	LockAcquisitions int64
	// BusyNs is cumulative owner execution time; divided by wall time and
	// shard count it is owner utilization.
	BusyNs int64
	// Overloaded counts commands shed with ErrOverloaded.
	Overloaded int64
	// Queued is the current total ring depth (shard batches waiting);
	// each shard's ring holds ownerQueue of them.
	Queued int
}

// EngineStats returns the engine's current counters.
func (s *Store) EngineStats() EngineStats {
	st := EngineStats{Overloaded: s.overloaded.Load()}
	for _, sh := range s.shards {
		st.Commands += sh.cmds.Load()
		st.Batches += sh.batches.Load()
		st.LockAcquisitions += sh.ht.Context().OwnedAcquisitions()
		st.BusyNs += sh.busyNs.Load()
		st.Queued += len(sh.ring)
	}
	return st
}

// submit offers one shard batch to a shard's ring without ever blocking
// the submitter: a full ring returns ErrOverloaded (the caller sheds
// the commands), a closed store returns ErrClosed. The RWMutex is
// submitter-side only — owners never touch it — so it cannot appear on
// the owner's execution path.
func (s *Store) submit(si int, g *shardBatch) error {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.closed {
		return core.ErrClosed
	}
	select {
	case s.shards[si].ring <- g:
		return nil
	default:
		return ErrOverloaded
	}
}

// startOwners launches one owner goroutine per shard.
func (s *Store) startOwners() {
	s.stopOwners = make(chan struct{})
	for i := range s.shards {
		s.ownerWG.Add(1)
		go s.ownerLoop(s.shards[i])
	}
}

// stopEngine shuts the engine down: no new submissions, then owners
// drain their rings (completing every in-flight batch) and exit.
func (s *Store) stopEngine() {
	s.submitMu.Lock()
	if s.closed {
		s.submitMu.Unlock()
		return
	}
	s.closed = true
	s.submitMu.Unlock()
	close(s.stopOwners)
	s.ownerWG.Wait()
}

// ownerLoop is one shard's owner: it blocks on the ring, then acquires
// the shard's heap lock once and executes every queued batch
// run-to-completion, draining opportunistically while work keeps
// arriving so the lock is amortized over as many commands as possible.
// Between commands it yields the lock to any waiter (reclamation
// demands, stats, Store.Do callers) via the context's contention
// counter — one atomic load when uncontended.
func (s *Store) ownerLoop(sh *shard) {
	defer s.ownerWG.Done()
	o := sh.owned
	for {
		var g *shardBatch
		select {
		case g = <-sh.ring:
		case <-s.stopOwners:
			// Drain: every batch already submitted completes, so no
			// Exec is left waiting.
			for {
				select {
				case g := <-sh.ring:
					s.runShardBatch(o, sh, g)
				default:
					o.Release()
					return
				}
			}
		}
		start := time.Now()
		s.runShardBatch(o, sh, g)
		for {
			select {
			case g = <-sh.ring:
				s.runShardBatch(o, sh, g)
				continue
			default:
			}
			break
		}
		o.Release()
		sh.busyNs.Add(time.Since(start).Nanoseconds())
	}
}

// runShardBatch executes one shard batch's commands in order and
// completes it against the owning Batch. The heap lock is taken at most
// once for the whole slice (Yield re-takes it only when contended or
// dropped by a slow path). With attribution enabled the group's ring
// wait is charged to every command as queue time.
func (s *Store) runShardBatch(o *core.Owned, sh *shard, g *shardBatch) {
	b := g.b
	a := s.attrib.Load()
	queueNs := int64(0)
	if a != nil && g.submitNs != 0 {
		if queueNs = nowNanos() - g.submitNs; queueNs < 0 {
			queueNs = 0
		}
	}
	for _, ci := range g.idxs {
		s.run(a, o, sh, &b.cmds[ci], queueNs)
	}
	g.idxs = g.idxs[:0]
	sh.batches.Add(1)
	if b.pending.Add(-1) == 0 {
		b.done <- struct{}{}
	}
}

// run executes one command under o — the per-command body every entry
// point shares: shard owners and caller-runs groups arrive holding the
// lock, Store.Do arrives with a fresh handle, and Yield covers both
// (acquire when unheld, hand over when contended). With attribution
// enabled (a != nil) the Owned handle's wait/stall deltas split the
// command's wall time into lock wait, reclaim-yield stall, spill
// promotion (stamped inside lookup) and the execution residual; the
// disabled path reads no clock.
func (s *Store) run(a *attribState, o *core.Owned, sh *shard, c *Command, queueNs int64) {
	var t0 time.Time
	var w0, y0 int64
	if a != nil {
		c.phaseNs[phaseQueue] = queueNs
		t0, w0, y0 = time.Now(), o.WaitNanos(), o.StallNanos()
	}
	if err := o.Yield(); err != nil {
		c.Err = err
		return
	}
	s.execLabeled(o, sh, c)
	if a == nil {
		return
	}
	wall := time.Since(t0).Nanoseconds()
	c.phaseNs[phaseLockWait] = o.WaitNanos() - w0
	c.phaseNs[phaseYieldStall] = o.StallNanos() - y0
	exec := wall - c.phaseNs[phaseLockWait] - c.phaseNs[phaseYieldStall] - c.phaseNs[phaseSpillPromote]
	if exec < 0 {
		exec = 0
	}
	c.phaseNs[phaseExec] = exec
	a.observeCmd(c)
}

// expire collects key if its TTL deadline has passed: the one expiry
// body, used lazily per key and by the sweep. The due check is one
// atomic load while the shard has no TTLs. Like DEL it drops the spill
// side first, so expiry cannot be undone by a promotion.
func (s *Store) expire(o *core.Owned, sh *shard, key string) bool {
	if !sh.ttl.due(key) {
		return false
	}
	sh.ttl.clear(key)
	removed := s.spill != nil && s.spill.Drop(key)
	if deleted, _ := sh.ht.DeleteOwned(o, key); deleted {
		removed = true
	}
	if removed {
		s.expired.Add(1)
	}
	return removed
}

// countRead bumps the shard's read counters for one GET-family lookup.
func (sh *shard) countRead(hit bool) {
	if hit {
		sh.hits.Add(1)
	} else {
		sh.misses.Add(1)
	}
}

// present reports whether key lives in the hot tier or the spill tier,
// without promoting it.
func (s *Store) present(o *core.Owned, sh *shard, key string) bool {
	return sh.ht.ContainsOwned(o, key) || (s.spill != nil && s.spill.Contains(key))
}

// lookup reads key under the owned lock, faulting it in from the spill
// tier on a miss through sds.PromoteOwned, the one promotion path. Around
// it the store keeps only its own accounting: the promotion window is
// charged to StallNanos and, with attribution enabled, stamped into the
// command's span, minus its own lock re-acquisition (which run already
// accounts as lock wait).
func (s *Store) lookup(o *core.Owned, sh *shard, c *Command, dst []byte, key string) ([]byte, bool, error) {
	v, ok, err := sh.ht.GetAppendOwned(o, dst, key)
	if err != nil || ok || s.spill == nil {
		return v, ok, err
	}
	timed := s.attrib.Load() != nil
	var t0 time.Time
	var w0 int64
	if timed {
		t0, w0 = time.Now(), o.WaitNanos()
	}
	p0 := s.now()
	// The spill tier keeps the key while the promotion is in flight, and
	// writes it back to disk under that key if the put-back fails.
	v, found, err := sds.PromoteOwned(sh.ht, o, s.spill, dst, strings.Clone(key))
	if found {
		s.promotions.Add(1)
	}
	s.promoteNs.Add(s.now().Sub(p0).Nanoseconds())
	if timed {
		if d := time.Since(t0).Nanoseconds() - (o.WaitNanos() - w0); d > 0 {
			c.phaseNs[phaseSpillPromote] = d
		}
	}
	return v, found, err
}

// maxRMWRetries bounds how often one INCR/APPEND redoes its read because
// the put's allocation had to drop the shard lock; past it the command
// fails as exhausted rather than spin under sustained pressure.
const maxRMWRetries = 8

// rmw runs c's read-modify-write under the owned lock: modify maps the
// current value (ok=false when absent) to the next one. The read and the
// index update share one hold of the lock — PutOwnedIfHeld refuses to
// store when its allocation had to drop it, and the read is redone — so
// concurrent updates are never lost, on any entry point.
func (s *Store) rmw(o *core.Owned, sh *shard, c *Command, modify func(cur []byte, ok bool) ([]byte, error)) {
	s.expire(o, sh, c.Key)
	for attempt := 0; ; attempt++ {
		cur, ok, err := s.lookup(o, sh, c, c.Val[:0], c.Key)
		c.Val = cur[:0]
		if err != nil {
			c.Err = err
			return
		}
		sh.countRead(ok)
		next, err := modify(cur, ok)
		if err != nil {
			c.Err = err
			return
		}
		sh.sets.Add(1)
		stored, err := sh.ht.PutOwnedIfHeld(o, c.Key, next)
		if stored || err != nil {
			c.Err = err
			return
		}
		if attempt == maxRMWRetries {
			c.Err = fmt.Errorf("%w: shard lock lost to allocation %d times", core.ErrExhausted, attempt+1)
			return
		}
	}
}

// exec executes one command under the shard's owned heap lock. It is the
// only implementation of the keyed string commands: shard owners,
// caller-runs Batch groups and Store.Do (hence every direct method and
// both RESP modes) all arrive here through run. No mutex is acquired per
// command (TTL checks are one atomic load while the shard has no
// deadlines; counters are atomics). Spill interactions take the sink's
// own locks in the same ctx→spill order the reclaim path uses.
func (s *Store) exec(o *core.Owned, sh *shard, c *Command) {
	sh.cmds.Add(1)
	switch c.Op {
	case OpGet:
		s.expire(o, sh, c.Key)
		c.Val, c.Ok, c.Err = s.lookup(o, sh, c, c.Val[:0], c.Key)
		sh.countRead(c.Ok)
	case OpSet:
		sh.sets.Add(1)
		// Drop before Put: it supersedes a promotion in flight, and the
		// reverse order races with a reclamation that demotes the fresh
		// value between the two steps (PutOwned's allocation can drop the
		// lock), and the Drop would then destroy the only copy.
		if s.spill != nil {
			s.spill.Drop(c.Key)
		}
		if c.Err = sh.ht.PutOwned(o, c.Key, c.Arg); c.Err == nil {
			// A successful SET discards the key's deadline (Redis's rule):
			// a lapsed one would otherwise expire the new value.
			sh.ttl.clear(c.Key)
		}
	case OpDel:
		sh.dels.Add(1)
		sh.ttl.clear(c.Key)
		// Spill side first, in the same hold of the lock as the delete:
		// no promotion can put the value back behind the delete, and no
		// reclamation can demote it behind the drop.
		dropped := s.spill != nil && s.spill.Drop(c.Key)
		removed, err := sh.ht.DeleteOwned(o, c.Key)
		removed = removed || dropped
		c.Ok, c.Err = removed, err
		if removed {
			c.N = 1
		}
	case OpIncr:
		s.rmw(o, sh, c, func(cur []byte, ok bool) ([]byte, error) {
			n := int64(0)
			if ok {
				var err error
				if n, err = strconv.ParseInt(string(cur), 10, 64); err != nil {
					return nil, errNotInteger(c.Key)
				}
			}
			c.N = n + c.Delta
			// cur is parsed and done with: format into the same scratch,
			// and leave the stored value there for replication.
			next := strconv.AppendInt(cur[:0], c.N, 10)
			c.Val = next
			return next, nil
		})
	case OpAppend:
		s.rmw(o, sh, c, func(cur []byte, _ bool) ([]byte, error) {
			next := append(cur, c.Arg...)
			c.Val = next // the stored value, in the (possibly grown) scratch
			c.N = int64(len(next))
			return next, nil
		})
	case OpStrLen:
		s.expire(o, sh, c.Key)
		v, ok, err := s.lookup(o, sh, c, c.Val[:0], c.Key)
		c.Val = v[:0]
		if err == nil && ok {
			c.N = int64(len(v))
		}
	case OpExists:
		s.expire(o, sh, c.Key)
		c.Ok = s.present(o, sh, c.Key)
	case OpExpire:
		if s.present(o, sh, c.Key) {
			sh.ttl.set(c.Key, s.now().Add(time.Duration(c.Delta)))
			c.Ok = true
		}
	case OpTTL:
		s.expire(o, sh, c.Key)
		if c.Ok = s.present(o, sh, c.Key); !c.Ok {
			return
		}
		if d, hasTTL := sh.ttl.remaining(c.Key); hasTTL {
			c.N = int64(d)
		} else {
			c.N = -1
		}
	case OpPersist:
		if s.present(o, sh, c.Key) {
			c.Ok = sh.ttl.clear(c.Key)
		}
	case opSweep:
		// Delivered like any command, so the sweep never races the shard's
		// command stream.
		for _, key := range sh.ttl.expired() {
			if s.expire(o, sh, key) {
				c.N++
			}
		}
	default:
		c.Err = errUnknownOp(c.Op)
	}
}
