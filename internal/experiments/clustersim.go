package experiments

import (
	"cmp"
	"container/heap"
	"math/rand"
	"slices"
	"sort"
	"time"

	"softmem/internal/metrics"
	"softmem/internal/trace"
)

// E6's model: a discrete-event datacenter scheduler over virtual time.
// Machines hold traditional and soft memory; jobs arrive from a trace,
// run at a rate that depends on how much of their soft allocation
// (cache) they currently hold, and either complete, get evicted
// (baseline), or get squeezed (soft). Both schedulers see the identical
// trace, so the comparison isolates the memory policy.

// priority is a job's scheduling class, mirroring Borg's tiers, lowest
// first. The baseline scheduler evicts in ascending priority order.
type priority int

const (
	priBatch priority = iota // best-effort batch work
	priProd                  // production services
	priCritical
)

// clusterJob is one entry in a cluster job trace.
type clusterJob struct {
	ID       int
	Arrival  time.Duration // arrival offset from trace start
	Runtime  time.Duration // CPU time required to finish
	Priority priority
	MemPages int     // memory demand, in pages
	SoftFrac float64 // fraction of MemPages the job is willing to hold as soft memory
}

// clusterTrace is E6's job trace for one seed, sorted by arrival.
// Arrivals follow a Poisson process shaped by the diurnal curve (more
// arrivals near load peaks), runtimes and memory demands are
// exponential around their means, and priorities are drawn from
// clusterBatchFrac. adoption is the fraction of jobs that opt into soft
// memory; every random draw happens at every adoption, so traces of one
// seed differ only in SoftFrac.
func clusterTrace(seed int64, adoption float64) []clusterJob {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]clusterJob, 0, clusterJobs)
	for i := 0; i < clusterJobs; i++ {
		// Rejection-sample arrival times against the diurnal curve so
		// arrivals cluster at peak load.
		var at time.Duration
		for {
			at = time.Duration(rng.Int63n(int64(clusterHorizon)))
			accept := trace.Diurnal(at, clusterHorizon, 0.3, 1.0)
			if rng.Float64() < accept {
				break
			}
		}
		runtime := time.Duration(rng.ExpFloat64() * float64(clusterMeanRuntime))
		if runtime < time.Second {
			runtime = time.Second
		}
		mem := int(rng.ExpFloat64() * float64(clusterMeanMemPages))
		if mem < 1 {
			mem = 1
		}
		pri := priBatch
		if rng.Float64() >= clusterBatchFrac {
			if rng.Float64() < 0.7 {
				pri = priProd
			} else {
				pri = priCritical
			}
		}
		soft := 0.0
		if rng.Float64() < adoption {
			soft = clusterSoftFrac
		}
		jobs = append(jobs, clusterJob{
			ID:       i,
			Arrival:  at,
			Runtime:  runtime,
			Priority: pri,
			MemPages: mem,
			SoftFrac: soft,
		})
	}
	slices.SortStableFunc(jobs, func(a, b clusterJob) int { return cmp.Compare(a.Arrival, b.Arrival) })
	return jobs
}

const (
	// slowdownPenalty scales how much losing soft memory hurts: a job
	// holding fraction f of its soft allocation runs at rate
	// 1/(1+penalty·(1−f)), so a fully reclaimed cache halves its speed.
	slowdownPenalty = 1.0
	// retryBackoff delays rescheduling an evicted or unplaceable job.
	retryBackoff = 30 * time.Second
)

// ClusterRun summarizes one scheduler's run over a trace.
type ClusterRun struct {
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

// simJob is a running or pending job's simulation state.
type simJob struct {
	spec clusterJob

	machine  *simMachine
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

// simMachine holds jobs and free-page accounting.
type simMachine struct {
	capacity int
	freePgs  int
	jobs     map[*simJob]struct{}
}

// clusterSim runs one scheduler over one trace.
type clusterSim struct {
	// soft selects the paper's scheduler: opted-in jobs hold part of
	// their memory as revocable soft memory, and pressure shrinks those
	// allocations (slowing the owners) before anyone is killed. Without
	// it, the scheduler is Borg-style: all memory is traditional and
	// pressure is resolved by evicting lower-priority jobs, whose work
	// is recomputed from scratch when they are rescheduled.
	soft     bool
	events   eventQueue
	machines []*simMachine

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

// simulateCluster runs the trace through the soft or the kill-based
// scheduler on machines of pagesPerMachine pages each.
func simulateCluster(soft bool, machines, pagesPerMachine int, jobs []clusterJob) ClusterRun {
	s := &clusterSim{
		soft:        soft,
		queueDelays: metrics.NewHistogram(1.2),
		queueSoft:   metrics.NewHistogram(1.2),
		queueHard:   metrics.NewHistogram(1.2),
	}
	for i := 0; i < machines; i++ {
		s.machines = append(s.machines, &simMachine{
			capacity: pagesPerMachine,
			freePgs:  pagesPerMachine,
			jobs:     make(map[*simJob]struct{}),
		})
	}
	for _, spec := range jobs {
		// A job larger than a whole machine could never place and would
		// retry forever; clamp to capacity (real schedulers reject or
		// split such jobs).
		if spec.MemPages > pagesPerMachine {
			spec.MemPages = pagesPerMachine
		}
		j := &simJob{spec: spec, remaining: spec.Runtime, rate: 1.0}
		s.schedule(spec.Arrival, func() { s.place(j) })
	}
	s.events.run()

	res := ClusterRun{
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
// current scheduler.
func (s *clusterSim) demand(j *simJob) (trad, soft int) {
	if !s.soft || j.spec.SoftFrac <= 0 {
		return j.spec.MemPages, 0
	}
	soft = int(float64(j.spec.MemPages) * j.spec.SoftFrac)
	return j.spec.MemPages - soft, soft
}

// place tries to put a job on a machine, applying the policy's pressure
// response when nothing fits.
func (s *clusterSim) place(j *simJob) {
	trad, soft := s.demand(j)

	// Best fit: machine with the least-but-sufficient free pages for the
	// traditional part.
	var best *simMachine
	for _, m := range s.machines {
		if m.freePgs >= trad && (best == nil || m.freePgs < best.freePgs) {
			best = m
		}
	}

	if best == nil && s.soft {
		// Squeeze soft memory on the machine that can free the most.
		best = s.squeezeForRoom(trad)
	}
	if best == nil {
		// The baseline resolves pressure by eviction; the soft scheduler
		// falls back to it only when squeezing cannot make room (e.g.
		// low soft adoption) — higher-priority work must still place.
		best = s.evictForRoom(j, trad)
	}
	now := s.events.now
	if best == nil {
		s.unplaced++
		s.schedule(now+retryBackoff, func() { s.place(j) })
		return
	}

	if !j.placed {
		j.placed = true
		delay := float64(now - j.spec.Arrival)
		s.queueDelays.Observe(delay)
		if s.soft && j.spec.SoftFrac > 0 {
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
func (s *clusterSim) rateFor(j *simJob) float64 {
	if j.softFull == 0 {
		return 1.0
	}
	f := float64(j.softHeld) / float64(j.softFull)
	return 1.0 / (1.0 + slowdownPenalty*(1.0-f))
}

// settle folds elapsed progress into the job and refreshes lastUpdate.
func (s *clusterSim) settle(j *simJob) {
	now := s.events.now
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
func (s *clusterSim) scheduleCompletion(j *simJob) {
	j.gen++
	if j.rate <= 0 {
		return // fully stalled; resumes when soft memory is restored
	}
	eta := time.Duration(float64(j.remaining) / j.rate)
	gen := j.gen
	s.schedule(s.events.now+eta, func() {
		if j.gen == gen && !j.done {
			s.complete(j)
		}
	})
}

// complete finishes a job, frees its memory, and reuses the room for
// pending work and squeezed neighbours.
func (s *clusterSim) complete(j *simJob) {
	s.settle(j)
	j.done = true
	m := j.machine
	delete(m.jobs, j)
	m.freePgs += j.tradPct + j.softHeld
	s.completed++
	s.lastFinish = s.events.now
	ideal := j.spec.Runtime
	total := s.lastFinish - j.spec.Arrival
	if ideal > 0 {
		s.slowdownSum += float64(total) / float64(ideal)
	}
	// Pressure eased: first refill squeezed jobs (the paper's cache
	// scaling back up when batch jobs finish), then admit pending work
	// via retries that are already queued.
	if s.soft {
		s.restoreSoft(m)
	}
}

// restoreSoft gives a machine's free pages back to squeezed jobs,
// lowest-rate first.
func (s *clusterSim) restoreSoft(m *simMachine) {
	var squeezed []*simJob
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
func (s *clusterSim) squeezeForRoom(need int) *simMachine {
	var best *simMachine
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
func (s *clusterSim) squeezeMachine(m *simMachine, need int) {
	var victims []*simJob
	for j := range m.jobs {
		if j.softHeld > 0 {
			victims = append(victims, j)
		}
	}
	sortByPriority(victims)
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
func (s *clusterSim) evictForRoom(newJob *simJob, need int) *simMachine {
	// Pick the machine where evicting the least total priority mass
	// frees enough room: approximate with most reclaimable-by-eviction.
	// Under the soft scheduler, every job's squeezable memory counts
	// toward yield.
	var best *simMachine
	bestYield := -1
	for _, m := range s.machines {
		yield := m.freePgs
		for j := range m.jobs {
			if j.spec.Priority < newJob.spec.Priority {
				yield += j.tradPct + j.softHeld
			} else if s.soft {
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
	if s.soft {
		s.squeezeMachine(best, need)
		if best.freePgs >= need {
			return best
		}
	}
	var victims []*simJob
	for j := range best.jobs {
		if j.spec.Priority < newJob.spec.Priority {
			victims = append(victims, j)
		}
	}
	sortByPriority(victims)
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

// sortByPriority orders jobs lowest priority first, oldest first within
// a tier.
func sortByPriority(jobs []*simJob) {
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].spec.Priority != jobs[b].spec.Priority {
			return jobs[a].spec.Priority < jobs[b].spec.Priority
		}
		return jobs[a].spec.ID < jobs[b].spec.ID
	})
}

// evict kills a running job: its completed work is wasted and it retries
// from scratch after a backoff ("work completed by the evicted job must
// be recomputed at a later time", §2).
func (s *clusterSim) evict(j *simJob) {
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
	s.schedule(s.events.now+retryBackoff, func() { s.place(j) })
}

// sampleUtil records current memory utilization across machines.
func (s *clusterSim) sampleUtil() {
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
func (s *clusterSim) schedule(at time.Duration, fn func()) {
	s.events.push(at, func() {
		fn()
		s.sampleUtil()
	})
}

// eventQueue is the simulator's virtual time. Events fire in time order,
// FIFO among equal times, each with now at its own time; an event pushed
// for the past fires at the current time.
type eventQueue struct {
	now    time.Duration
	seq    uint64
	events eventHeap
}

type event struct {
	at  time.Duration
	seq uint64 // tie-break: FIFO among equal times
	fn  func()
}

// push enqueues fn to run when virtual time reaches at.
func (q *eventQueue) push(at time.Duration, fn func()) {
	q.seq++
	heap.Push(&q.events, event{at: max(at, q.now), seq: q.seq, fn: fn})
}

// run fires events in order until none remain; events may push more.
func (q *eventQueue) run() {
	for len(q.events) > 0 {
		ev := heap.Pop(&q.events).(event)
		q.now = ev.at
		ev.fn()
	}
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(event)) }

func (h *eventHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	old[len(old)-1] = event{}
	*h = old[:len(old)-1]
	return ev
}
