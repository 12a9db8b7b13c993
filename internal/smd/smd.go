// Package smd implements the Soft Memory Daemon (§3.3, §4): the
// machine-wide arbiter of soft memory budgets.
//
// The daemon tracks each process's soft budget and self-reported usage.
// It approves budget requests from free machine memory when it can; under
// pressure it first harvests *slack* (budget processes hold but do not
// use — "excess soft memory budget in any process" costs nothing to take),
// then demands reclamation from a capped number of processes in descending
// reclamation weight, over-demanding by a fixed factor to amortize
// reclamation costs. If the quota cannot be met within the target cap, the
// triggering request is denied — already-reclaimed pages stay reclaimed
// and simply enlarge free memory, exactly as in the paper.
//
// Reclamation weights are pluggable (§7 asks what policy is fair); the
// default ProportionalWeight implements the paper's two criteria: weight
// grows with total footprint, and soft usage raises weight only in
// proportion to traditional usage, so processes that put most of their
// data in soft memory are not punished for it (§3.3's A/B example).
package smd

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"softmem/internal/core"
	"softmem/internal/faultinject"
	"softmem/internal/pages"
)

// ErrUnregistered reports an operation on a process the daemon no longer
// tracks.
var ErrUnregistered = errors.New("smd: process not registered")

// ProcID identifies a registered process for the daemon's lifetime.
type ProcID int

// Target is the daemon's handle for demanding reclamation from a process.
// *core.SMA satisfies it directly; the socket server wraps a connection.
type Target interface {
	// HandleDemand asks the process to release up to pages pages of soft
	// memory back to the machine; it returns the number released.
	HandleDemand(pages int) int
}

// BudgetShrinker is the optional extension of Target for processes that
// cache their granted budget locally (*core.SMA keeps it in an atomic
// ledger; the socket server forwards over the wire). The daemon calls it
// when it harvests slack from the process so the cached ledger shrinks
// in step — without the notification the victim would keep allocating
// against revoked budget, over-committing the machine by up to the
// harvested amount.
type BudgetShrinker interface {
	// ShrinkBudget revokes pages of previously granted budget.
	ShrinkBudget(pages int)
}

// WeightPolicy computes a process's reclamation weight from its
// traditional footprint and soft usage. Higher weight = reclaimed sooner.
type WeightPolicy interface {
	Weight(traditionalBytes int64, softPages int) float64
	Name() string
}

// ProportionalWeight is the default policy: w = T' + S·T'/(T'+S) with T'
// the traditional footprint in pages (floored at one page so a process is
// never invisible). It is strictly increasing in both T and S, and for
// equal soft usage a process with less traditional memory — i.e. a higher
// soft-to-traditional ratio — gets a lower weight, satisfying the paper's
// incentive criterion (§3.3).
type ProportionalWeight struct{}

// Weight implements WeightPolicy.
func (ProportionalWeight) Weight(traditionalBytes int64, softPages int) float64 {
	t := float64(traditionalBytes) / pages.Size
	if t < 1 {
		t = 1
	}
	s := float64(softPages)
	if t+s == 0 {
		return 0
	}
	return t + s*t/(t+s)
}

// Name implements WeightPolicy.
func (ProportionalWeight) Name() string { return "proportional" }

// FootprintWeight weighs processes by total footprint T+S, the "larger
// users give up more" policy §7 debates.
type FootprintWeight struct{}

// Weight implements WeightPolicy.
func (FootprintWeight) Weight(traditionalBytes int64, softPages int) float64 {
	return float64(traditionalBytes)/pages.Size + float64(softPages)
}

// Name implements WeightPolicy.
func (FootprintWeight) Name() string { return "footprint" }

// SoftShareWeight weighs processes purely by soft usage: intuitively fair
// (heavy soft users benefit most) but a disincentive to adopt soft memory,
// which is why the paper rejects it. Kept for the policy ablation (E8).
type SoftShareWeight struct{}

// Weight implements WeightPolicy.
func (SoftShareWeight) Weight(_ int64, softPages int) float64 { return float64(softPages) }

// Name implements WeightPolicy.
func (SoftShareWeight) Name() string { return "softshare" }

// Config parameterizes a Daemon.
type Config struct {
	// TotalPages is the machine's soft memory partition (required > 0).
	TotalPages int
	// TargetCap bounds how many processes one request may disturb
	// ("selects a capped number of processes", §3.3). Default 3.
	TargetCap int
	// ReclaimFactor over-demands by this factor to amortize reclamation
	// ("demands a fixed memory percentage upon reclamation, which may
	// exceed the immediate soft memory request", §4). Default 1.25.
	ReclaimFactor float64
	// Policy is the reclamation-weight policy. Default ProportionalWeight.
	Policy WeightPolicy
	// AllowSelfReclaim lets a requester be chosen as its own reclamation
	// target (§7 open question). Default false.
	AllowSelfReclaim bool
	// OnEvent, if set, receives an audit record for every grant, denial,
	// slack harvest, and demand — the trail an operator needs to answer
	// "who took my memory and why". Called with the daemon lock held;
	// must not call back into the daemon and must be fast.
	OnEvent func(Event)
	// Clock overrides the daemon's wall clock (nil = time.Now). The
	// stall-rate EWMA behind QoS victim selection differentiates
	// cumulative stall reports over inter-report wall time; tests inject
	// a fake clock here to drive it deterministically.
	Clock func() time.Time
}

const (
	// eventLogCap is the capacity of the daemon's in-memory audit ring,
	// served by Events() (and `smdctl events`). Oldest entries are
	// overwritten once full.
	eventLogCap = 256
	// traceLogCap is the capacity of the reclaim-cycle trace ring,
	// served by Traces() (and `smdctl trace`).
	traceLogCap = 64
)

// EventKind classifies audit events.
type EventKind int

// Audit event kinds.
const (
	// EventGrant: a budget request was approved.
	EventGrant EventKind = iota
	// EventDeny: a budget request was denied under unrelievable pressure.
	EventDeny
	// EventSlack: unused budget was harvested from a process.
	EventSlack
	// EventDemand: a reclamation demand was issued to a process.
	EventDemand
	// EventCede: soft budget was ceded to a federated peer machine.
	EventCede
	// EventReceive: soft budget was received from a federated peer.
	EventReceive
)

// String returns the kind's name.
func (k EventKind) String() string {
	switch k {
	case EventGrant:
		return "grant"
	case EventDeny:
		return "deny"
	case EventSlack:
		return "slack"
	case EventDemand:
		return "demand"
	case EventCede:
		return "cede"
	case EventReceive:
		return "receive"
	default:
		return "unknown"
	}
}

// Event is one audit record.
type Event struct {
	// Seq numbers events monotonically from 1 (assigned when the event
	// is recorded).
	Seq  uint64 `json:",omitempty"`
	Kind EventKind
	// KindName is Kind.String(), populated in ring snapshots so JSON
	// dumps (smdctl events) read without a decoder table.
	KindName string `json:",omitempty"`
	// Proc is the acting process: the requester for grants/denials, the
	// source for slack harvests and demands.
	Proc ProcID
	Name string
	// Pages is the request size for grants/denials, the harvested amount
	// for slack, the demanded amount for demands.
	Pages int
	// Released is the pages actually released (demands only).
	Released int
	// Trigger is the requesting process whose need caused a slack
	// harvest or demand (zero otherwise).
	Trigger ProcID
	// SpilledBytes is the acting process's spill-tier footprint at the
	// time of the event (from its latest Usage self-report), so the
	// audit trail shows demotion pressure alongside reclamation.
	SpilledBytes int64 `json:",omitempty"`
	// ReclaimID links the event to its reclaim cycle (`smdctl trace`);
	// 0 for grants served from free memory, which have no cycle.
	ReclaimID uint64 `json:",omitempty"`
}

func (c *Config) setDefaults() {
	if c.TargetCap <= 0 {
		c.TargetCap = 3
	}
	if c.ReclaimFactor < 1 {
		c.ReclaimFactor = 1.25
	}
	if c.Policy == nil {
		c.Policy = ProportionalWeight{}
	}
}

// Stats is a snapshot of the daemon's counters.
type Stats struct {
	Requests       int64 // budget requests received
	Granted        int64 // requests approved
	Denied         int64 // requests denied under unrelievable pressure
	ReclaimEvents  int64 // requests that required any reclamation
	SlackPages     int64 // budget slack harvested without disturbance
	DemandedPages  int64 // pages demanded from processes
	PagesReclaimed int64 // pages actually released by processes
	BudgetPages    int   // Σ budgets currently granted
	FreePages      int   // TotalPages − Σ budgets
	Procs          int
	// SpilledBytes is Σ self-reported spill-tier footprints: reclaimed
	// soft data the machine's processes are holding on local disk.
	SpilledBytes int64
	// CededPages / ReceivedPages count soft budget migrated to and from
	// federated peer machines (see Cede / Receive).
	CededPages    int64
	ReceivedPages int64
	// TotalPages is the current partition size (cfg.TotalPages adjusted
	// by federation).
	TotalPages int
}

// ProcInfo describes one registered process, for observability.
type ProcInfo struct {
	ID          ProcID
	Name        string
	BudgetPages int
	Usage       core.Usage
	Weight      float64
}

type procState struct {
	id     ProcID
	name   string
	target Target
	budget int
	usage  core.Usage
	gone   bool

	// QoS state (qos.go). tenant is the zero value until SetTenant;
	// stallEWMA/stallAt track the smoothed stall rate differentiated
	// from Usage.StallNs self-reports; the page counters accumulate this
	// process's lifetime as a reclamation source, the evidence trail for
	// "where did reclamation pressure land".
	tenant        TenantSpec
	stallEWMA     float64
	stallAt       time.Time
	demandedPages int64
	releasedPages int64
	slackPages    int64
}

// Daemon is the machine-wide soft memory manager.
type Daemon struct {
	mu     sync.Mutex
	cfg    Config
	procs  map[ProcID]*procState
	nextID ProcID
	stats  Stats
	// totalPages is the partition size the daemon arbitrates. It starts
	// at cfg.TotalPages and moves when federated peers cede or receive
	// budget across machines (Cede / Receive).
	totalPages int

	// events is the audit ring; eventSeq numbers every recorded event,
	// so Events() readers can detect gaps when the ring wraps.
	events   [eventLogCap]Event
	eventPos int
	eventLen int
	eventSeq uint64

	// traces is the reclaim-cycle ring; reclaimSeq mints the cycle IDs
	// stamped on events and propagated to processes over IPC.
	traces     [traceLogCap]Trace
	tracePos   int
	traceLen   int
	reclaimSeq uint64

	// eventsDropped / tracesDropped count ring overwrites: entries an
	// operator can no longer inspect because the ring wrapped before
	// they were read. Atomics so the /events and /traces payloads read
	// them without d.mu.
	eventsDropped atomic.Int64
	tracesDropped atomic.Int64

	// met holds the arbitration latency histograms once RegisterMetrics
	// has run; nil keeps the arbitration path free of timing calls.
	met atomic.Pointer[smdMetrics]
}

// NewDaemon returns a daemon arbitrating cfg.TotalPages of soft memory.
func NewDaemon(cfg Config) *Daemon {
	if cfg.TotalPages <= 0 {
		panic("smd: Config.TotalPages must be positive")
	}
	cfg.setDefaults()
	return &Daemon{cfg: cfg, procs: make(map[ProcID]*procState), totalPages: cfg.TotalPages}
}

// TotalPages returns the soft memory partition size. The value is
// cfg.TotalPages plus any net budget received from (or minus any ceded
// to) federated peers.
func (d *Daemon) TotalPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.totalPages
}

// Register adds a process. The returned Proc is the process's
// core.DaemonClient; target receives reclamation demands (it may be nil
// for processes that only ever release, e.g. pure observers, but such a
// process can never be a reclamation source).
func (d *Daemon) Register(name string, target Target) *Proc {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextID++
	ps := &procState{id: d.nextID, name: name, target: target}
	d.procs[ps.id] = ps
	return &Proc{d: d, id: ps.id}
}

// Unregister removes a process, returning its budget to the free pool.
// Typically called when a job exits; its soft pages are assumed returned
// to the machine by process teardown.
func (d *Daemon) Unregister(p *Proc) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ps, ok := d.procs[p.id]; ok {
		ps.gone = true
		delete(d.procs, p.id)
	}
}

// grantedLocked returns Σ budgets.
func (d *Daemon) grantedLocked() int {
	sum := 0
	for _, ps := range d.procs {
		sum += ps.budget
	}
	return sum
}

// weightLocked computes a process's current reclamation weight.
func (d *Daemon) weightLocked(ps *procState) float64 {
	return d.cfg.Policy.Weight(ps.usage.TraditionalBytes, ps.usage.UsedPages)
}

// candidatesLocked returns processes other than requester (unless self-
// reclaim is allowed) in victim order. Legacy order is descending
// reclamation weight (biggest first). Once any process has registered a
// tenant spec, QoS order takes over: ascending stall pressure, so the
// cycle reclaims from whoever is hurting least relative to its SLO and
// disturbs stalling latency-critical tenants last. Weight breaks
// pressure ties (bigger first — among equally unpressured processes the
// legacy bias still applies), then ID for determinism.
func (d *Daemon) candidatesLocked(requester ProcID) []*procState {
	out := make([]*procState, 0, len(d.procs))
	for _, ps := range d.procs {
		if ps.id == requester && !d.cfg.AllowSelfReclaim {
			continue
		}
		out = append(out, ps)
	}
	qos := d.qosActiveLocked()
	sort.Slice(out, func(i, j int) bool {
		if qos {
			pi, pj := d.pressureLocked(out[i]), d.pressureLocked(out[j])
			if pi != pj {
				return pi < pj
			}
			ri, rj := d.qosRankLocked(out[i]), d.qosRankLocked(out[j])
			if ri != rj {
				return ri < rj
			}
		}
		wi, wj := d.weightLocked(out[i]), d.weightLocked(out[j])
		if wi != wj {
			return wi > wj
		}
		return out[i].id < out[j].id // deterministic tie-break
	})
	return out
}

// requestBudget is the core arbitration path, timed into the request
// histogram when instrumented.
func (d *Daemon) requestBudget(id ProcID, n int, u core.Usage) (int, error) {
	m := d.met.Load()
	if m == nil {
		return d.arbitrate(id, n, u, nil)
	}
	t0 := time.Now()
	granted, err := d.arbitrate(id, n, u, m)
	m.request.ObserveDuration(time.Since(t0))
	return granted, err
}

// arbitrate approves a budget request from free memory when it can;
// otherwise it runs a reclaim cycle: mint a reclaim ID, harvest slack,
// demand reclamation, and grant or deny. The cycle is recorded in the
// trace ring and its ID stamped on every event and demand it issues.
func (d *Daemon) arbitrate(id ProcID, n int, u core.Usage, m *smdMetrics) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("smd: non-positive budget request %d", n)
	}
	d.mu.Lock()
	ps, ok := d.procs[id]
	if !ok {
		d.mu.Unlock()
		return 0, ErrUnregistered
	}
	d.adoptUsageLocked(ps, u)
	d.stats.Requests++

	free := d.totalPages - d.grantedLocked()
	if free >= n {
		ps.budget += n
		d.stats.Granted++
		d.emitLocked(Event{Kind: EventGrant, Proc: id, Name: ps.name, Pages: n})
		d.mu.Unlock()
		return n, nil
	}
	need := n - free
	d.stats.ReclaimEvents++
	d.reclaimSeq++
	rid := d.reclaimSeq
	// A reclaim cycle has begun: targets are about to be selected. A
	// crash armed here dies with the cycle ID minted but no demand issued.
	faultinject.Fire("smd.cycle")
	cycleStart := time.Now()
	tr := Trace{ID: rid, Requester: id, ReqName: ps.name, Pages: n, Need: need, Start: cycleStart}

	// finish seals the cycle: stamps duration and outcome, records the
	// trace, and observes the cycle histogram. Caller still holds d.mu.
	finish := func(outcome string) {
		dur := time.Since(cycleStart)
		tr.DurNs = dur.Nanoseconds()
		tr.Outcome = outcome
		d.recordTraceLocked(tr)
		if m != nil {
			m.cycle.ObserveDuration(dur)
		}
	}

	// Phase 1 — harvest slack: unused budget in other processes costs
	// nothing to take ("minimal disturbance", §3.3; the prototype's bias
	// toward "targets that will experience little or no disturbance", §4).
	cands := d.candidatesLocked(id)
	for _, c := range cands {
		if need <= 0 {
			break
		}
		slack := c.budget - c.usage.UsedPages
		if slack <= 0 {
			continue
		}
		take := slack
		if take > need {
			take = need
		}
		c.budget -= take
		need -= take
		c.slackPages += int64(take)
		d.stats.SlackPages += int64(take)
		// Tell the victim its cached budget shrank, or it will keep
		// allocating against the harvested pages. Lock ordering matches
		// the phase-2 demands below: one-way daemon → process.
		if bs, ok := c.target.(BudgetShrinker); ok {
			bs.ShrinkBudget(take)
		}
		tr.Hops = append(tr.Hops, TraceHop{Kind: "slack", Proc: c.id, Name: c.name, Released: take})
		d.emitLocked(Event{Kind: EventSlack, Proc: c.id, Name: c.name, Pages: take, Trigger: id, ReclaimID: rid})
	}
	if need <= 0 {
		ps.budget += n
		d.stats.Granted++
		finish("granted")
		d.emitLocked(Event{Kind: EventGrant, Proc: id, Name: ps.name, Pages: n, ReclaimID: rid})
		d.mu.Unlock()
		return n, nil
	}

	// Phase 2 — demand reclamation from up to TargetCap processes in
	// victim order (legacy: descending weight; QoS: ascending pressure),
	// over-demanding by ReclaimFactor to amortize.
	qosOrder := d.qosActiveLocked()
	quota := int(math.Ceil(float64(need) * d.cfg.ReclaimFactor))
	targets := 0
	for _, c := range cands {
		if quota <= 0 || targets >= d.cfg.TargetCap {
			break
		}
		if c.target == nil || c.usage.UsedPages <= 0 {
			continue
		}
		want := quota
		if want > c.usage.UsedPages {
			want = c.usage.UsedPages
		}
		if qosOrder {
			// Starvation floor: QoS ordering concentrates demands on the
			// least-pressured tenant, so cap each demand to leave the
			// victim 1/qosFloorDiv of its footprint — no class is ever
			// drained to zero, however unpressured it looks.
			if floor := c.usage.UsedPages / qosFloorDiv; want > c.usage.UsedPages-floor {
				want = c.usage.UsedPages - floor
			}
			if want <= 0 {
				continue
			}
		}
		targets++
		c.demandedPages += int64(want)
		d.stats.DemandedPages += int64(want)
		// The daemon lock is held across the demand. Lock ordering is
		// one-way (daemon → process): processes never call the daemon
		// while holding per-Context heap locks, so this cannot deadlock.
		demandStart := time.Now()
		var released int
		var spans []core.DemandSpan
		var fresh *core.Usage
		if tt, ok := c.target.(TracedTarget); ok {
			released, spans, fresh = tt.HandleDemandTraced(want, rid)
		} else {
			released = c.target.HandleDemand(want)
		}
		demandDur := time.Since(demandStart)
		if m != nil {
			m.demandRTT.ObserveDuration(demandDur)
		}
		if released < 0 {
			released = 0
		}
		if released > c.budget {
			released = c.budget
		}
		c.budget -= released
		c.releasedPages += int64(released)
		if fresh != nil {
			// The demand response carried a post-reclaim self-report:
			// adopt it (spill footprint included) instead of estimating.
			d.adoptUsageLocked(c, *fresh)
		} else {
			c.usage.UsedPages -= released
			if c.usage.UsedPages < 0 {
				c.usage.UsedPages = 0
			}
		}
		quota -= released
		need -= released
		d.stats.PagesReclaimed += int64(released)
		tr.Hops = append(tr.Hops, TraceHop{
			Kind: "demand", Proc: c.id, Name: c.name, Asked: want,
			Released: released, DurNs: demandDur.Nanoseconds(), Spans: spans,
		})
		d.emitLocked(Event{Kind: EventDemand, Proc: c.id, Name: c.name, Pages: want, Released: released, Trigger: id, ReclaimID: rid})
		// The chaos suite's kill point: the process has surrendered pages
		// but the requester's grant has not happened — a crash here leaves
		// the machine's ledger mid-cycle, and recovery must come entirely
		// from process-side resync.
		faultinject.Fire("smd.demand.post")
	}

	if need > 0 {
		// Quota unmet within the target cap: deny the triggering request.
		// Pages already reclaimed stay free (§3.3).
		d.stats.Denied++
		finish("denied")
		d.emitLocked(Event{Kind: EventDeny, Proc: id, Name: ps.name, Pages: n, ReclaimID: rid})
		d.mu.Unlock()
		return 0, nil
	}
	ps.budget += n
	d.stats.Granted++
	finish("granted")
	d.emitLocked(Event{Kind: EventGrant, Proc: id, Name: ps.name, Pages: n, ReclaimID: rid})
	d.mu.Unlock()
	return n, nil
}

// emitLocked records an audit event in the ring and delivers it to the
// OnEvent sink if one is configured. The acting process's latest
// spill-tier self-report is stamped onto the event here so both
// consumers see it.
func (d *Daemon) emitLocked(ev Event) {
	if ps, ok := d.procs[ev.Proc]; ok {
		ev.SpilledBytes = ps.usage.SpilledBytes
	}
	d.eventSeq++
	ev.Seq = d.eventSeq
	ev.KindName = ev.Kind.String()
	if d.eventLen == len(d.events) {
		d.eventsDropped.Add(1)
	}
	d.events[d.eventPos] = ev
	d.eventPos = (d.eventPos + 1) % len(d.events)
	if d.eventLen < len(d.events) {
		d.eventLen++
	}
	if d.cfg.OnEvent != nil {
		d.cfg.OnEvent(ev)
	}
}

// Events returns the audit ring's contents, oldest first. The ring
// holds the last eventLogCap events; consecutive Seq values mean no
// events were lost between snapshots. Nil when it is empty.
func (d *Daemon) Events() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.eventLen == 0 {
		return nil
	}
	out := make([]Event, 0, d.eventLen)
	start := d.eventPos - d.eventLen
	if start < 0 {
		start += len(d.events)
	}
	for i := 0; i < d.eventLen; i++ {
		out = append(out, d.events[(start+i)%len(d.events)])
	}
	return out
}

// releaseBudget returns budget from a process.
func (d *Daemon) releaseBudget(id ProcID, n int, u core.Usage) error {
	if n < 0 {
		return fmt.Errorf("smd: negative budget release %d", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ps, ok := d.procs[id]
	if !ok {
		return ErrUnregistered
	}
	d.adoptUsageLocked(ps, u)
	ps.budget -= n
	if ps.budget < 0 {
		ps.budget = 0
	}
	return nil
}

// reportUsage refreshes a process's self-report outside budget traffic.
func (d *Daemon) reportUsage(id ProcID, u core.Usage) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	ps, ok := d.procs[id]
	if !ok {
		return ErrUnregistered
	}
	d.adoptUsageLocked(ps, u)
	return nil
}

// Stats returns a snapshot of the daemon's counters.
func (d *Daemon) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	st.BudgetPages = d.grantedLocked()
	st.FreePages = d.totalPages - st.BudgetPages
	st.TotalPages = d.totalPages
	st.Procs = len(d.procs)
	for _, ps := range d.procs {
		st.SpilledBytes += ps.usage.SpilledBytes
	}
	return st
}

// Snapshot lists registered processes with their budgets, usage, and
// current weights, sorted by descending weight.
func (d *Daemon) Snapshot() []ProcInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ProcInfo, 0, len(d.procs))
	for _, ps := range d.procs {
		out = append(out, ProcInfo{
			ID:          ps.id,
			Name:        ps.name,
			BudgetPages: ps.budget,
			Usage:       ps.usage,
			Weight:      d.weightLocked(ps),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Proc is a process's handle on the daemon; it implements
// core.DaemonClient.
type Proc struct {
	d  *Daemon
	id ProcID
}

// ID returns the process's daemon-assigned identifier.
func (p *Proc) ID() ProcID { return p.id }

// RequestBudget implements core.DaemonClient.
func (p *Proc) RequestBudget(n int, u core.Usage) (int, error) {
	return p.d.requestBudget(p.id, n, u)
}

// ReleaseBudget implements core.DaemonClient.
func (p *Proc) ReleaseBudget(n int, u core.Usage) error {
	return p.d.releaseBudget(p.id, n, u)
}

// ReportUsage refreshes the daemon's view of this process outside budget
// traffic (e.g. when traditional memory changes).
func (p *Proc) ReportUsage(u core.Usage) error {
	return p.d.reportUsage(p.id, u)
}

var _ core.DaemonClient = (*Proc)(nil)
