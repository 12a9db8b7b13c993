// Package cluster simulates a datacenter scheduler to quantify the
// paper's §2 motivation: under memory pressure, a Borg-style scheduler
// kills low-priority jobs (wasting the CPU they already consumed), while
// a soft-memory-aware scheduler reclaims revocable memory instead,
// trading a bounded slowdown for zero kills.
//
// The simulator is discrete-event over virtual time: machines hold
// traditional and soft memory; jobs arrive from a trace, run at a rate
// that depends on how much of their soft allocation (cache) they
// currently hold, and either complete, get evicted (baseline), or get
// squeezed (soft). Both schedulers see the identical trace, so the
// comparison isolates the memory policy.
package clustersim

import (
	"fmt"
	"sort"
	"time"

	"softmem/internal/metrics"
	"softmem/internal/sim"
	"softmem/internal/trace"
)

// Kind selects the scheduling policy.
type Kind int

// Scheduler kinds.
const (
	// Baseline models Borg-style behaviour: all memory is traditional and
	// memory pressure is resolved by evicting lower-priority jobs, whose
	// work is recomputed from scratch when they are rescheduled.
	Baseline Kind = iota
	// Soft models the paper's proposal: opted-in jobs hold part of their
	// memory as revocable soft memory; pressure shrinks those allocations
	// (slowing the owners) before anyone is killed.
	Soft
)

// String returns the scheduler's name.
func (k Kind) String() string {
	if k == Baseline {
		return "baseline"
	}
	return "soft"
}

// Config parameterizes a simulation run.
type Config struct {
	Kind     Kind
	Machines int
	// PagesPerMachine is each machine's memory capacity in pages.
	PagesPerMachine int
}

const (
	// slowdownPenalty scales how much losing soft memory hurts: a job
	// holding fraction f of its soft allocation runs at rate
	// 1/(1+penalty·(1−f)), so a fully reclaimed cache halves its speed.
	slowdownPenalty = 1.0
	// retryBackoff delays rescheduling an evicted or unplaceable job.
	retryBackoff = 30 * time.Second
)

// Result summarizes one simulation run.
type Result struct {
	Kind          Kind
	Completed     int
	Evictions     int           // kill events (baseline resolves pressure this way)
	WastedCPU     time.Duration // work lost to evictions, recomputed later
	SoftReclaimed int64         // pages squeezed out of running jobs
	SoftRestored  int64         // pages given back when pressure eased
	MeanSlowdown  float64       // completion time / ideal runtime, averaged
	P95QueueDelay time.Duration // arrival -> first placement
	// P95QueueSoft / P95QueueHard split placement delay by whether the
	// job opted into soft memory — the paper's §2 incentive claim that
	// soft jobs "benefit from higher likelihood of being scheduled"
	// (their traditional footprint is smaller, so they fit sooner).
	P95QueueSoft   time.Duration
	P95QueueHard   time.Duration
	MeanUtilPct    float64       // mean memory utilization across machines
	MakespanEnd    time.Duration // when the last job finished
	UnplacedRounds int64         // placement attempts that found no room
}

// String renders the result as a table row.
func (r Result) String() string {
	return fmt.Sprintf("%-8s completed=%-5d evictions=%-4d wastedCPU=%-10s slowdown=%.3f p95queue=%-8s util=%.1f%%",
		r.Kind, r.Completed, r.Evictions, r.WastedCPU.Round(time.Second),
		r.MeanSlowdown, r.P95QueueDelay.Round(time.Second), r.MeanUtilPct)
}

// job is a running or pending job's simulation state.
type job struct {
	spec trace.Job

	machine  *machine
	tradPct  int // traditional pages placed
	softHeld int // soft pages currently held
	softFull int // soft pages when unsqueezed

	remaining  time.Duration // work left at rate 1.0
	rate       float64
	lastUpdate time.Duration
	gen        int // invalidates stale completion events
	placed     bool
	done       bool
	workDone   time.Duration // accumulated work (lost on eviction)
}

// machine holds jobs and free-page accounting.
type machine struct {
	id       int
	capacity int
	freePgs  int
	jobs     map[*job]struct{}
}

// Sim runs one scheduler over one trace.
type Sim struct {
	cfg      Config
	clock    *sim.Virtual
	machines []*machine

	completed     int
	evictions     int
	wastedCPU     time.Duration
	softReclaimed int64
	softRestored  int64
	slowdownSum   float64
	queueDelays   *metrics.Histogram
	queueSoft     *metrics.Histogram
	queueHard     *metrics.Histogram
	utilSum       float64
	utilSamples   int
	unplaced      int64
	lastFinish    time.Duration
}

// New builds a simulation over the given trace.
func New(cfg Config, jobs []trace.Job) *Sim {
	if cfg.Machines <= 0 || cfg.PagesPerMachine <= 0 {
		panic("cluster: Machines and PagesPerMachine must be positive")
	}
	s := &Sim{
		cfg:         cfg,
		clock:       sim.NewVirtual(),
		queueDelays: metrics.NewHistogram(1.2),
		queueSoft:   metrics.NewHistogram(1.2),
		queueHard:   metrics.NewHistogram(1.2),
	}
	for i := 0; i < cfg.Machines; i++ {
		s.machines = append(s.machines, &machine{
			id:       i,
			capacity: cfg.PagesPerMachine,
			freePgs:  cfg.PagesPerMachine,
			jobs:     make(map[*job]struct{}),
		})
	}
	for _, spec := range jobs {
		// A job larger than a whole machine could never place and would
		// retry forever; clamp to capacity (real schedulers reject or
		// split such jobs).
		if spec.MemPages > cfg.PagesPerMachine {
			spec.MemPages = cfg.PagesPerMachine
		}
		j := &job{spec: spec, remaining: spec.Runtime, rate: 1.0}
		s.schedule(spec.Arrival, func() { s.place(j) })
	}
	return s
}

// Run drives the simulation to completion and returns the summary.
func (s *Sim) Run() Result {
	s.clock.Run()
	res := Result{
		Kind:           s.cfg.Kind,
		Completed:      s.completed,
		Evictions:      s.evictions,
		WastedCPU:      s.wastedCPU,
		SoftReclaimed:  s.softReclaimed,
		SoftRestored:   s.softRestored,
		P95QueueDelay:  time.Duration(s.queueDelays.Quantile(0.95)),
		P95QueueSoft:   time.Duration(s.queueSoft.Quantile(0.95)),
		P95QueueHard:   time.Duration(s.queueHard.Quantile(0.95)),
		MakespanEnd:    s.lastFinish,
		UnplacedRounds: s.unplaced,
	}
	if s.completed > 0 {
		res.MeanSlowdown = s.slowdownSum / float64(s.completed)
	}
	if s.utilSamples > 0 {
		res.MeanUtilPct = 100 * s.utilSum / float64(s.utilSamples)
	}
	return res
}

// demand returns the pages the job needs as (traditional, soft) under the
// current scheduler kind.
func (s *Sim) demand(j *job) (trad, soft int) {
	if s.cfg.Kind == Baseline || j.spec.SoftFrac <= 0 {
		return j.spec.MemPages, 0
	}
	soft = int(float64(j.spec.MemPages) * j.spec.SoftFrac)
	return j.spec.MemPages - soft, soft
}

// place tries to put a job on a machine, applying the policy's pressure
// response when nothing fits.
func (s *Sim) place(j *job) {
	trad, soft := s.demand(j)

	// Best fit: machine with the least-but-sufficient free pages for the
	// traditional part.
	var best *machine
	for _, m := range s.machines {
		if m.freePgs >= trad && (best == nil || m.freePgs < best.freePgs) {
			best = m
		}
	}

	if best == nil && s.cfg.Kind == Soft {
		// Squeeze soft memory on the machine that can free the most.
		best = s.squeezeForRoom(trad)
	}
	if best == nil {
		// Baseline resolves pressure by eviction; the soft scheduler
		// falls back to it only when squeezing cannot make room (e.g.
		// low soft adoption) — higher-priority work must still place.
		best = s.evictForRoom(j, trad)
	}
	now := s.clock.Now()
	if best == nil {
		s.unplaced++
		s.schedule(now+retryBackoff, func() { s.place(j) })
		return
	}

	if !j.placed {
		j.placed = true
		delay := float64(now - j.spec.Arrival)
		s.queueDelays.Observe(delay)
		if s.cfg.Kind == Soft && j.spec.SoftFrac > 0 {
			s.queueSoft.Observe(delay)
		} else {
			s.queueHard.Observe(delay)
		}
	}
	j.machine = best
	j.tradPct = trad
	j.softFull = soft
	// Soft allocation is opportunistic: take whatever fits right now.
	if avail := best.freePgs - trad; soft > avail {
		soft = avail
	}
	j.softHeld = soft
	best.freePgs -= trad + soft
	best.jobs[j] = struct{}{}
	j.lastUpdate = now
	j.rate = s.rateFor(j)
	s.scheduleCompletion(j)
}

// rateFor computes a job's progress rate from its soft-memory fill.
func (s *Sim) rateFor(j *job) float64 {
	if j.softFull == 0 {
		return 1.0
	}
	f := float64(j.softHeld) / float64(j.softFull)
	return 1.0 / (1.0 + slowdownPenalty*(1.0-f))
}

// settle folds elapsed progress into the job and refreshes lastUpdate.
func (s *Sim) settle(j *job) {
	now := s.clock.Now()
	elapsed := now - j.lastUpdate
	if elapsed > 0 {
		work := time.Duration(float64(elapsed) * j.rate)
		if work > j.remaining {
			work = j.remaining
		}
		j.remaining -= work
		j.workDone += work
	}
	j.lastUpdate = now
}

// scheduleCompletion (re)schedules the job's completion at its current
// rate.
func (s *Sim) scheduleCompletion(j *job) {
	j.gen++
	if j.rate <= 0 {
		return // fully stalled; resumes when soft memory is restored
	}
	eta := time.Duration(float64(j.remaining) / j.rate)
	gen := j.gen
	s.schedule(s.clock.Now()+eta, func() {
		if j.gen == gen && !j.done {
			s.complete(j)
		}
	})
}

// complete finishes a job, frees its memory, and reuses the room for
// pending work and squeezed neighbours.
func (s *Sim) complete(j *job) {
	s.settle(j)
	j.done = true
	m := j.machine
	delete(m.jobs, j)
	m.freePgs += j.tradPct + j.softHeld
	s.completed++
	s.lastFinish = s.clock.Now()
	ideal := j.spec.Runtime
	total := s.lastFinish - j.spec.Arrival
	if ideal > 0 {
		s.slowdownSum += float64(total) / float64(ideal)
	}
	// Pressure eased: first refill squeezed jobs (the paper's cache
	// scaling back up when batch jobs finish), then admit pending work
	// via retries that are already queued.
	if s.cfg.Kind == Soft {
		s.restoreSoft(m)
	}
}

// restoreSoft gives a machine's free pages back to squeezed jobs,
// lowest-rate first.
func (s *Sim) restoreSoft(m *machine) {
	var squeezed []*job
	for j := range m.jobs {
		if j.softHeld < j.softFull {
			squeezed = append(squeezed, j)
		}
	}
	sort.Slice(squeezed, func(a, b int) bool {
		if squeezed[a].rate != squeezed[b].rate {
			return squeezed[a].rate < squeezed[b].rate
		}
		return squeezed[a].spec.ID < squeezed[b].spec.ID
	})
	for _, j := range squeezed {
		if m.freePgs == 0 {
			break
		}
		want := j.softFull - j.softHeld
		if want > m.freePgs {
			want = m.freePgs
		}
		s.settle(j)
		j.softHeld += want
		m.freePgs -= want
		s.softRestored += int64(want)
		j.rate = s.rateFor(j)
		s.scheduleCompletion(j)
	}
}

// squeezeForRoom finds the machine where reclaiming soft memory frees at
// least need pages, and performs the squeeze (lowest-priority jobs
// first). Returns nil when no machine can yield enough.
func (s *Sim) squeezeForRoom(need int) *machine {
	var best *machine
	bestYield := -1
	for _, m := range s.machines {
		yield := m.freePgs
		for j := range m.jobs {
			yield += j.softHeld
		}
		if yield >= need && yield > bestYield {
			best = m
			bestYield = yield
		}
	}
	if best == nil {
		return nil
	}
	s.squeezeMachine(best, need)
	if best.freePgs < need {
		return nil
	}
	return best
}

// squeezeMachine reclaims soft memory on m until need pages are free or
// nothing squeezable remains. Victims are chosen lowest priority first,
// oldest first within a tier — the SMD's weight ordering collapsed to
// the simulator's granularity.
func (s *Sim) squeezeMachine(m *machine, need int) {
	var victims []*job
	for j := range m.jobs {
		if j.softHeld > 0 {
			victims = append(victims, j)
		}
	}
	sort.Slice(victims, func(a, b int) bool {
		if victims[a].spec.Priority != victims[b].spec.Priority {
			return victims[a].spec.Priority < victims[b].spec.Priority
		}
		return victims[a].spec.ID < victims[b].spec.ID
	})
	for _, j := range victims {
		if m.freePgs >= need {
			break
		}
		take := need - m.freePgs
		if take > j.softHeld {
			take = j.softHeld
		}
		s.settle(j)
		j.softHeld -= take
		m.freePgs += take
		s.softReclaimed += int64(take)
		j.rate = s.rateFor(j)
		s.scheduleCompletion(j)
	}
}

// evictForRoom kills lower-priority jobs until need pages are free on
// some machine (baseline policy). Under the soft scheduler this is the
// last resort: the chosen machine is squeezed first, and only the
// remaining shortfall is resolved by eviction. Evicted jobs lose their
// work and retry.
func (s *Sim) evictForRoom(newJob *job, need int) *machine {
	// Pick the machine where evicting the least total priority mass
	// frees enough room: approximate with most reclaimable-by-eviction.
	// Under Soft, squeezable memory of every job counts toward yield.
	var best *machine
	bestYield := -1
	for _, m := range s.machines {
		yield := m.freePgs
		for j := range m.jobs {
			if j.spec.Priority < newJob.spec.Priority {
				yield += j.tradPct + j.softHeld
			} else if s.cfg.Kind == Soft {
				yield += j.softHeld
			}
		}
		if yield >= need && yield > bestYield {
			best = m
			bestYield = yield
		}
	}
	if best == nil {
		return nil
	}
	if s.cfg.Kind == Soft {
		s.squeezeMachine(best, need)
		if best.freePgs >= need {
			return best
		}
	}
	var victims []*job
	for j := range best.jobs {
		if j.spec.Priority < newJob.spec.Priority {
			victims = append(victims, j)
		}
	}
	sort.Slice(victims, func(a, b int) bool {
		if victims[a].spec.Priority != victims[b].spec.Priority {
			return victims[a].spec.Priority < victims[b].spec.Priority
		}
		return victims[a].spec.ID < victims[b].spec.ID
	})
	for _, j := range victims {
		if best.freePgs >= need {
			break
		}
		s.evict(j)
	}
	if best.freePgs < need {
		return nil
	}
	return best
}

// evict kills a running job: its completed work is wasted and it retries
// from scratch after a backoff ("work completed by the evicted job must
// be recomputed at a later time", §2).
func (s *Sim) evict(j *job) {
	s.settle(j)
	m := j.machine
	delete(m.jobs, j)
	m.freePgs += j.tradPct + j.softHeld
	s.evictions++
	s.wastedCPU += j.workDone
	j.workDone = 0
	j.remaining = j.spec.Runtime // recompute everything
	j.gen++                      // invalidate completion event
	j.machine = nil
	s.schedule(s.clock.Now()+retryBackoff, func() { s.place(j) })
}

// sampleUtil records current memory utilization across machines.
func (s *Sim) sampleUtil() {
	used := 0
	total := 0
	for _, m := range s.machines {
		used += m.capacity - m.freePgs
		total += m.capacity
	}
	s.utilSum += float64(used) / float64(total)
	s.utilSamples++
}

// schedule enqueues a simulation event: fn, then a utilization sample.
// Events fire in time order, FIFO among equal times.
func (s *Sim) schedule(at time.Duration, fn func()) {
	s.clock.Schedule(at, func() {
		fn()
		s.sampleUtil()
	})
}
