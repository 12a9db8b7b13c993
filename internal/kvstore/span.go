package kvstore

import (
	"context"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"softmem/internal/core"
	"softmem/internal/metrics"
)

// Latency attribution: every command executed through the engine carries
// a per-phase span (a plain array in its Command slot — stack/arena
// allocated with the batch, nothing heap-per-request) that decomposes
// its latency into where the time actually went. The phases answer the
// paper's core observability question — "did softening memory stall this
// request?" — by separating reclaim-yield stalls and spill traffic from
// plain queueing and execution.
//
// Per-command phases (disjoint; they sum to the command's wall time):
const (
	// phaseQueue is time the command's shard group waited in the owner's
	// MPSC ring before an owner picked it up (0 on the caller-runs path).
	phaseQueue = iota
	// phaseLockWait is time blocked acquiring the shard heap lock.
	phaseLockWait
	// phaseYieldStall is time inside contended Owned.Yield windows — the
	// owner handed the lock to a waiter (above all, a reclamation
	// demand) and re-took it. This is the reclaim-stall signal.
	phaseYieldStall
	// phaseSpillPromote is time faulting a demoted value back in from
	// the spill tier on a GET miss (minus its own lock re-acquisition,
	// which stays in phaseLockWait).
	phaseSpillPromote
	// phaseExec is the residual: actual command execution under the
	// held lock.
	phaseExec
	numCmdPhases
)

// Globally observed phases, fed into the same softmem_kv_phase_ns
// family but not carried in per-command spans:
const (
	// phaseSpillDemote is the synchronous disk write demoting a revoked
	// entry, observed from the reclaim callback.
	phaseSpillDemote = numCmdPhases + iota
	// phaseReplHop is owner-enqueue-to-replica-apply latency of a
	// replicated write, observed replica-side from the origin timestamp
	// the cluster layer carries on RSET/RDEL.
	phaseReplHop
	numPhases
)

// phaseLabels names each phase's series. These literals are the single
// source of phase label values; cmd/metricslint cross-checks them
// against the docs/OBSERVABILITY.md catalogue.
var phaseLabels = [numPhases]metrics.Label{
	phaseQueue:        {Name: "phase", Value: "queue"},
	phaseLockWait:     {Name: "phase", Value: "lock_wait"},
	phaseYieldStall:   {Name: "phase", Value: "yield_stall"},
	phaseSpillPromote: {Name: "phase", Value: "spill_promote"},
	phaseExec:         {Name: "phase", Value: "exec"},
	phaseSpillDemote:  {Name: "phase", Value: "spill_demote"},
	phaseReplHop:      {Name: "phase", Value: "repl_hop"},
}

// epoch anchors nowNanos: queue-wait stamps use monotonic nanoseconds so
// wall-clock jumps cannot produce negative waits.
var epoch = time.Now()

func nowNanos() int64 { return time.Since(epoch).Nanoseconds() }

// attribState is the attribution layer's enabled state: phase histograms
// plus the slow-request log. It hangs off the Store behind an atomic
// pointer (nil until Store.RegisterMetrics), so the disabled hot path
// pays one pointer load and zero allocations — same discipline as the
// server's cmdMetrics.
type attribState struct {
	phases [numPhases]*metrics.Histogram
	slow   *slowLog
}

func newAttribState(r *metrics.Registry, slowThresholdNs int64, slowSize int) *attribState {
	a := &attribState{slow: newSlowLog(slowThresholdNs, slowSize)}
	for i := range a.phases {
		a.phases[i] = r.Histogram("softmem_kv_phase_ns",
			"per-command latency by attribution phase in ns; zero-duration phases are not observed",
			phaseLabels[i])
	}
	return a
}

// observeCmd feeds one executed command's span into the phase
// histograms. Zero phases are skipped: an uncontended command costs two
// observations (queue on the ring path, exec), and each histogram reads
// as "time spent when the phase occurred at all".
func (a *attribState) observeCmd(c *Command) {
	for i := 0; i < numCmdPhases; i++ {
		if n := c.phaseNs[i]; n > 0 {
			a.phases[i].ObserveDuration(time.Duration(n))
		}
	}
}

// observeInline attributes one command that ran inline through its
// row's handler (non-keyed, list, hash, admin — the keyed string
// commands carry real spans from run): its whole wall time is exec, and
// it still lands in the slowlog past the threshold, keyed by the row's
// first key (none for a keyless row). The key is copied only when the
// entry is actually recorded.
func (a *attribState) observeInline(sp *commandSpec, args [][]byte, d time.Duration) {
	a.phases[phaseExec].ObserveDuration(d)
	if n := d.Nanoseconds(); n >= a.slow.thresholdNs {
		a.slow.record(SlowEntry{Cmd: sp.name, Key: string(sp.firstKey(args)), TotalNs: n, ExecNs: n})
	}
}

// SlowEntry is one slow request as kept by the slow-request log and
// served on /slowlog: the command, its dominant key, and the full phase
// breakdown in nanoseconds.
type SlowEntry struct {
	Seq            uint64 `json:"seq"`
	UnixNs         int64  `json:"unix_ns"`
	Cmd            string `json:"cmd"`
	Key            string `json:"key,omitempty"`
	TotalNs        int64  `json:"total_ns"`
	QueueNs        int64  `json:"queue_ns,omitempty"`
	LockWaitNs     int64  `json:"lock_wait_ns,omitempty"`
	YieldStallNs   int64  `json:"yield_stall_ns,omitempty"`
	SpillPromoteNs int64  `json:"spill_promote_ns,omitempty"`
	ExecNs         int64  `json:"exec_ns,omitempty"`
}

// SlowColumns heads the per-command phases' columns in `smdctl slowlog`,
// in the order PhaseNs lists them.
var SlowColumns = [numCmdPhases]string{
	phaseQueue:        "queue",
	phaseLockWait:     "lockwait",
	phaseYieldStall:   "stall",
	phaseSpillPromote: "promote",
	phaseExec:         "exec",
}

// phase returns the entry's field for per-command phase i.
func (e *SlowEntry) phase(i int) *int64 {
	return [numCmdPhases]*int64{
		phaseQueue:        &e.QueueNs,
		phaseLockWait:     &e.LockWaitNs,
		phaseYieldStall:   &e.YieldStallNs,
		phaseSpillPromote: &e.SpillPromoteNs,
		phaseExec:         &e.ExecNs,
	}[i]
}

// PhaseNs returns the entry's phase breakdown in span order.
func (e SlowEntry) PhaseNs() (ns [numCmdPhases]int64) {
	for i := range ns {
		ns[i] = *e.phase(i)
	}
	return ns
}

// Dominant names the slow request's largest recorded phase — the first
// place to look when triaging it. Execution wins a tie.
func (e SlowEntry) Dominant() string {
	ns, best := e.PhaseNs(), phaseExec
	for i := range ns {
		if ns[i] > ns[best] {
			best = i
		}
	}
	return phaseLabels[best].Value
}

// slowLog is a lock-free ring of the last N requests over the latency
// threshold, Redis SLOWLOG style but with phase attribution. Writers
// claim a slot by sequence and publish a fresh entry with one atomic
// pointer store; readers snapshot whatever is published. Recording only
// happens for requests already past the threshold, so the one heap
// allocation per recorded entry is off the hot path by construction.
type slowLog struct {
	thresholdNs int64
	seq         atomic.Uint64
	slots       []atomic.Pointer[SlowEntry]
}

func newSlowLog(thresholdNs int64, size int) *slowLog {
	return &slowLog{thresholdNs: thresholdNs, slots: make([]atomic.Pointer[SlowEntry], size)}
}

// record publishes e with a fresh sequence number and timestamp,
// overwriting the oldest slot.
func (l *slowLog) record(e SlowEntry) {
	e.Seq = l.seq.Add(1)
	e.UnixNs = time.Now().UnixNano()
	l.slots[(e.Seq-1)%uint64(len(l.slots))].Store(&e)
}

// snapshot returns the published entries, newest first.
func (l *slowLog) snapshot() []SlowEntry {
	out := make([]SlowEntry, 0, len(l.slots))
	for i := range l.slots {
		if e := l.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// SlowLog returns the slow-request log, newest first (nil until
// RegisterMetrics enables attribution). Served as /slowlog by the
// binaries and rendered by `smdctl slowlog`.
func (s *Store) SlowLog() []SlowEntry {
	if a := s.attrib.Load(); a != nil {
		return a.slow.snapshot()
	}
	return nil
}

// ObserveReplHop feeds one replicated write's origin-to-apply latency
// into the phase histograms (phase="repl_hop"). The cluster layer calls
// it replica-side; a no-op until attribution is enabled.
func (s *Store) ObserveReplHop(d time.Duration) {
	if a := s.attrib.Load(); a != nil && d > 0 {
		a.phases[phaseReplHop].ObserveDuration(d)
	}
}

// profLabels gates runtime/pprof labels around owner-side command
// execution. Off by default: labeling allocates per command, so the
// softkv binary switches it on only under -pprof, where CPU profiles
// then attribute samples to (cmd, shard).
var profLabels atomic.Bool

// EnableProfilerLabels turns on pprof (cmd, shard) labels around command
// execution on shard owners and caller-runs batches.
func EnableProfilerLabels() { profLabels.Store(true) }

// execLabeled runs one command, wrapping it in pprof labels when -pprof
// enabled them; otherwise it is a single atomic load over exec.
func (s *Store) execLabeled(o *core.Owned, sh *shard, c *Command) {
	if !profLabels.Load() {
		s.exec(o, sh, c)
		return
	}
	pprof.Do(context.Background(), pprof.Labels("cmd", opNames[c.Op], "shard", sh.label),
		func(context.Context) { s.exec(o, sh, c) })
}
