package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"softmem/internal/alloc"
	"softmem/internal/epoch"
	"softmem/internal/faultinject"
	"softmem/internal/pages"
)

// Soft allocation errors.
var (
	// ErrExhausted reports that a soft allocation could not be satisfied:
	// the daemon denied a budget request (machine-wide pressure that
	// reclamation could not relieve) or the machine pool is empty.
	ErrExhausted = errors.New("core: soft memory exhausted")
	// ErrClosed reports use of a closed Context.
	ErrClosed = errors.New("core: context closed")

	// errNeedBudget is the internal signal that an allocation needs more
	// budget; the allocation loop catches it, drops the heap lock, talks
	// to the daemon, and retries.
	errNeedBudget = errors.New("core: budget required")

	// errNeedPages signals that the machine pool is empty even though the
	// process has budget: the daemon granted budget against stale usage
	// reports (its view of other processes lags by up to a budget chunk).
	// The allocation loop forces a fresh daemon round-trip, which reclaims
	// physical pages from other processes, and retries.
	errNeedPages = errors.New("core: machine pages required")
)

// Usage is the process self-report piggybacked on every daemon
// interaction so the daemon's reclamation-weight inputs stay fresh.
type Usage struct {
	// UsedPages is the number of soft pages the process currently holds
	// (heaps plus its local free pool).
	UsedPages int
	// TraditionalBytes is the process's self-reported traditional (hard)
	// memory footprint, used by the daemon's weight policy.
	TraditionalBytes int64
	// SpilledBytes is the process's spill-tier footprint: bytes of
	// reclaimed soft data demoted to local disk and still live there.
	// Zero when the process runs without a spill tier.
	SpilledBytes int64 `json:",omitempty"`
	// StallNs is the process's cumulative reclamation-stall time in
	// nanoseconds: serving-path time lost inside reclaim-yield windows
	// and spill promotions (the yield_stall / spill_promote span signal,
	// aggregated). The daemon differentiates successive reports into a
	// stall rate that feeds stall-aware QoS victim selection. Zero when
	// the process does not wire a stall reporter.
	StallNs int64 `json:",omitempty"`
}

// DaemonClient is the SMA's view of the Soft Memory Daemon. The in-process
// daemon and the socket client both satisfy it. Implementations must be
// safe for concurrent use; the SMA never holds a heap or pool lock while
// calling (only the budget lock, which the demand path never takes).
type DaemonClient interface {
	// RequestBudget asks the daemon to grow this process's soft budget by
	// pages. The daemon grants all-or-nothing; granted is pages or 0.
	RequestBudget(pages int, u Usage) (granted int, err error)
	// ReleaseBudget returns budget the process no longer needs.
	ReleaseBudget(pages int, u Usage) error
}

// Reclaimer is implemented by every Soft Data Structure: given a byte
// quota, free allocations (oldest/lowest-value first per the SDS's
// policy), invoking the application callback before each free, and return
// the number of slot bytes freed; 0 means the SDS has nothing more to
// give. The quota is always a whole number of pages, because pages are
// what a demand is paid in: an SDS that can see which allocations share
// a page (Tx.Tenants) should choose whole pages and answer in whole
// pages, counting those that come free only once the epoch grace period
// lets their retired slots drain. The SMA counts the pages that really
// leave the heap and asks again for the shortfall. Reclaim is called
// with the owning Context's heap lock held; it must use only the Tx
// passed to it, never the Context's public methods.
type Reclaimer interface {
	Reclaim(tx *Tx, bytes int) int
}

// Config parameterizes an SMA.
type Config struct {
	// Machine is the machine's soft page pool (physical frames). Required.
	Machine *pages.Pool
	// Daemon is the SMD client. Nil runs the SMA standalone with an
	// unlimited budget (bounded only by Machine), used by baselines.
	Daemon DaemonClient
	// BudgetChunk is the number of pages requested from the daemon at a
	// time, amortizing round-trips. Default 64 (256 KiB).
	BudgetChunk int
}

func (c *Config) setDefaults() {
	if c.BudgetChunk <= 0 {
		c.BudgetChunk = 64
	}
}

const (
	// freePoolMax caps the process-local free pool; beyond it pages are
	// returned to the machine and budget to the daemon.
	freePoolMax = 64
	// heapFreeMax caps fully-free pages retained inside each SDS heap
	// before they are transferred to the process free pool ("periodically
	// transfers free pages back to the global free pool", §4).
	heapFreeMax = 8
)

// Stats is a snapshot of an SMA's accounting.
type Stats struct {
	BudgetPages     int   // budget currently granted by the daemon
	UsedPages       int   // pages held (heaps + free pool)
	FreePoolPages   int   // pages in the process-local free pool
	Contexts        int   // registered SDS contexts
	BudgetRequests  int64 // daemon budget round-trips
	BudgetDenied    int64 // denied budget requests
	DemandsServed   int64 // reclamation demands handled
	PagesReclaimed  int64 // pages released to the machine under demands
	AllocsReclaimed int64 // allocations freed by SDS reclaim
	ReleasedVirtual int64 // cumulative unbacked virtual pages (released under demand)
	RebackedPages   int64 // previously released pages re-backed on growth
	ReclaimPanics   int64 // SDS reclaim callbacks that panicked and were contained
}

// daemonBox wraps the attached DaemonClient so it can live in an
// atomic.Pointer: allocation fast paths read it lock-free.
type daemonBox struct{ c DaemonClient }

// SMA is a process's Soft Memory Allocator.
//
// Locking model: there is no single SMA lock. Each Context guards its own
// heap with a per-Context mutex, so independent SDS heaps allocate, read,
// and free in parallel. Shared state is split:
//
//   - budget, used, unbackedVirtual, pendingTrim and the stat counters
//     are atomics — the allocation fast path reserves ledger room with a
//     CAS and never blocks on another heap;
//   - poolMu guards the process-local free pool (tier-0 pages);
//   - regMu guards the context registry and pressure listeners;
//   - budgetMu single-flights daemon round-trips (slow path only);
//   - demandMu serializes reclamation demands so a demand's multi-step
//     accounting appears atomic to integrity checks.
//
// Lock order, for paths that nest: demandMu → regMu → Context.mu
// (ascending registration order when holding several) → poolMu → the
// machine pool's internal lock. budgetMu nests with none of these: it is
// held only around daemon calls, and the demand path — which the daemon
// may run while a budget request is in flight — never takes it.
type SMA struct {
	cfg     Config
	machine *pages.Pool

	// epochs is the process-wide grace-period domain behind the lock-free
	// SDS read paths: readers register in it before touching soft bytes,
	// and epoch-retired allocations drain through it (see internal/epoch).
	epochs *epoch.Domain

	// daemon is the attached DaemonClient (nil box pointer = standalone).
	daemon atomic.Pointer[daemonBox]

	// Budget ledger. used <= budget is enforced by a CAS reservation loop
	// in acquire; both only ever change by exact page counts, so machine
	// conservation invariants hold without a global lock.
	budget atomic.Int64
	used   atomic.Int64
	// unbackedVirtual counts pages released to the machine under demands
	// whose virtual range the prototype would re-back before growing.
	unbackedVirtual atomic.Int64
	// pendingTrim accumulates pages trimmed to the machine whose budget
	// must be returned to the daemon once all heap locks are dropped.
	pendingTrim atomic.Int64
	// traditional is the self-reported hard-memory footprint; atomic so
	// SDS reclaim callbacks can adjust it from inside locked sections.
	traditional atomic.Int64
	// spillReport, when set, supplies the process's spill-tier footprint
	// for the daemon self-report (an atomic pointer so usage() — called
	// from budget paths with no heap locks held — reads it lock-free).
	spillReport atomic.Pointer[func() int64]
	// stallReport, when set, supplies the process's cumulative
	// reclamation-stall nanoseconds for the daemon self-report (same
	// lock-free atomic-pointer contract as spillReport).
	stallReport atomic.Pointer[func() int64]

	// budgetMu single-flights daemon round-trips: when many goroutines
	// hit the budget ceiling at once, one performs the request and the
	// rest observe the grant and retry.
	budgetMu sync.Mutex

	// demandMu serializes reclamation demands (see lock order above).
	demandMu sync.Mutex

	// regMu guards the registry (sorted by ascending priority) and the
	// pressure listeners. Context priorities are registry state too.
	regMu       sync.Mutex
	contexts    []*Context
	nextSeq     uint64
	pressureFns []func(PressureEvent)

	// poolMu guards the process-local free pool.
	poolMu   sync.Mutex
	freePool []*pages.Page

	// met holds the hot-path latency histograms once RegisterMetrics has
	// run; nil keeps uninstrumented paths free of timing calls.
	met atomic.Pointer[smaMetrics]

	// noteMu guards activeTrace, the span accumulator for the demand in
	// flight (demandMu guarantees at most one). It is a leaf lock:
	// NoteDemand is callable from reclaim callbacks that already hold a
	// Context lock.
	noteMu      sync.Mutex
	activeTrace *demandTrace

	c counters
}

// counters are the monotonic halves of Stats, kept as atomics so hot
// paths bump them without a lock.
type counters struct {
	budgetRequests  atomic.Int64
	budgetDenied    atomic.Int64
	demandsServed   atomic.Int64
	pagesReclaimed  atomic.Int64
	allocsReclaimed atomic.Int64
	releasedVirtual atomic.Int64
	rebackedPages   atomic.Int64
	reclaimPanics   atomic.Int64
}

// New returns an SMA drawing pages from cfg.Machine under cfg.Daemon's
// budget arbitration.
func New(cfg Config) *SMA {
	if cfg.Machine == nil {
		panic("core: Config.Machine is required")
	}
	cfg.setDefaults()
	s := &SMA{cfg: cfg, machine: cfg.Machine, epochs: epoch.NewDomain()}
	if cfg.Daemon != nil {
		s.daemon.Store(&daemonBox{cfg.Daemon})
	}
	return s
}

// Epochs returns the SMA's grace-period domain. Lock-free SDS read
// paths Enter/Exit it around every optimistic read; everything else
// (retire stamping, drains) is handled inside core.
func (s *SMA) Epochs() *epoch.Domain { return s.epochs }

// daemonClient returns the attached daemon, or nil when standalone.
func (s *SMA) daemonClient() DaemonClient {
	if b := s.daemon.Load(); b != nil {
		return b.c
	}
	return nil
}

// AttachDaemon wires the SMA to its daemon client after construction.
// Registration is circular — the daemon needs the SMA as a reclamation
// target, and the SMA needs the daemon's client — so the usual sequence
// is: build the SMA without a daemon, register it with the daemon to get
// the client, then attach. Must be called before the first allocation.
func (s *SMA) AttachDaemon(d DaemonClient) {
	s.daemon.Store(&daemonBox{d})
}

// AddTraditionalBytes adjusts by delta the process's traditional-memory
// footprint, reported to the daemon for reclamation-weight computation.
// Applications call it as their hard state grows and shrinks. Safe to
// call from SDS reclaim callbacks.
func (s *SMA) AddTraditionalBytes(delta int64) {
	if s.traditional.Add(delta) < 0 {
		s.traditional.Store(0)
	}
}

// TraditionalBytes returns the reported traditional-memory footprint.
func (s *SMA) TraditionalBytes() int64 {
	return s.traditional.Load()
}

// Register creates a Context (an SDS's isolated heap) with the given
// priority; lower priorities are reclaimed first. The reclaimer is the
// SDS's reclamation protocol; it may be nil for contexts that never hold
// reclaimable state (they are skipped during demands).
func (s *SMA) Register(name string, priority int, r Reclaimer) *Context {
	ctx := &Context{sma: s, name: name, priority: priority, reclaimer: r}
	ctx.heap = alloc.New(ctxSource{ctx})
	s.regMu.Lock()
	s.nextSeq++
	ctx.seq = s.nextSeq
	s.contexts = append(s.contexts, ctx)
	s.sortContextsLocked()
	s.regMu.Unlock()
	return ctx
}

// sortContextsLocked keeps contexts in ascending priority (reclaim order),
// stable in registration order among equals. Caller holds regMu.
func (s *SMA) sortContextsLocked() {
	sort.SliceStable(s.contexts, func(i, j int) bool {
		return s.contexts[i].priority < s.contexts[j].priority
	})
}

// unregister drops a closed context so long-lived processes that churn
// SDSs do not accumulate dead entries.
func (s *SMA) unregister(ctx *Context) {
	s.regMu.Lock()
	for i, c := range s.contexts {
		if c == ctx {
			s.contexts = append(s.contexts[:i], s.contexts[i+1:]...)
			break
		}
	}
	s.regMu.Unlock()
}

// snapshotContexts copies the registry in reclaim order (ascending
// priority) without holding regMu across the caller's work.
func (s *SMA) snapshotContexts() []*Context {
	s.regMu.Lock()
	out := append([]*Context(nil), s.contexts...)
	s.regMu.Unlock()
	return out
}

// snapshotTiers groups the contexts that can reclaim into tiers of equal
// priority, in reclaim order and in registration order within a tier.
func (s *SMA) snapshotTiers() [][]*Context {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	var tiers [][]*Context
	for _, c := range s.contexts {
		if c.reclaimer == nil {
			continue
		}
		if n := len(tiers); n > 0 && tiers[n-1][0].priority == c.priority {
			tiers[n-1] = append(tiers[n-1], c)
		} else {
			tiers = append(tiers, []*Context{c})
		}
	}
	return tiers
}

// Close tears the SMA down: every context is closed (freeing its heap),
// the free pool returns to the machine, and all budget is released to
// the daemon. The SMA must not be used afterwards.
func (s *SMA) Close() {
	for _, c := range s.snapshotContexts() {
		c.Close()
	}
	s.poolMu.Lock()
	n := len(s.freePool)
	if n > 0 {
		s.machine.Release(s.freePool...)
		s.freePool = s.freePool[:0]
	}
	s.poolMu.Unlock()
	if n > 0 {
		s.used.Add(-int64(n))
	}
	budget := s.budget.Swap(0)
	if d := s.daemonClient(); d != nil && budget > 0 {
		_ = d.ReleaseBudget(int(budget), s.usage())
	}
}

// SetSpillReporter wires a spill-tier footprint source (typically
// spill.Store.BytesOnDisk) into the daemon self-report, making SMD
// spill-aware: the daemon sees how much reclaimed data each process is
// holding on disk. The reporter is called from budget round-trips with
// no heap locks held; it must be safe for concurrent use and must not
// call back into the SMA. A nil reporter detaches it.
func (s *SMA) SetSpillReporter(fn func() int64) {
	if fn == nil {
		s.spillReport.Store(nil)
		return
	}
	s.spillReport.Store(&fn)
}

// SetStallReporter wires a cumulative reclamation-stall source
// (typically kvstore.Store.StallNanos, summing contended-yield windows
// and spill-promotion time) into the daemon self-report, making SMD
// stall-aware: the daemon can see how much each process is actually
// hurting from reclamation and pick victims accordingly. Same contract
// as SetSpillReporter: called from budget round-trips with no heap
// locks held, must be concurrency-safe, must not call back into the
// SMA. A nil reporter detaches it.
func (s *SMA) SetStallReporter(fn func() int64) {
	if fn == nil {
		s.stallReport.Store(nil)
		return
	}
	s.stallReport.Store(&fn)
}

// usage snapshots the self-report sent with daemon interactions.
func (s *SMA) usage() Usage {
	u := Usage{UsedPages: int(s.used.Load()), TraditionalBytes: s.traditional.Load()}
	if fn := s.spillReport.Load(); fn != nil {
		u.SpilledBytes = (*fn)()
	}
	if fn := s.stallReport.Load(); fn != nil {
		u.StallNs = (*fn)()
	}
	return u
}

// Usage returns the current self-report.
func (s *SMA) Usage() Usage {
	return s.usage()
}

// BudgetPages returns the soft budget the SMA currently believes it
// holds.
func (s *SMA) BudgetPages() int {
	return int(s.budget.Load())
}

// ResetBudget overwrites the SMA's view of its budget. Transports use it
// to resync after a daemon restart: the new daemon re-grants what it can
// and the SMA must adopt that number, even if it is less than what it
// held before (subsequent allocations renegotiate; the daemon may demand
// the difference back).
func (s *SMA) ResetBudget(n int) {
	if n < 0 {
		n = 0
	}
	s.budget.Store(int64(n))
}

// ShrinkBudget revokes n pages of budget the daemon has harvested as
// slack, clamping at zero. Without this the SMA would keep allocating
// against its cached (now stale) budget, silently over-committing the
// machine by the harvested amount. used may transiently exceed budget
// afterwards; the next allocation that needs pages then hits the CAS
// ceiling and renegotiates with the daemon instead of succeeding
// locally against revoked budget.
func (s *SMA) ShrinkBudget(n int) {
	if n <= 0 {
		return
	}
	atomicSubClamp(&s.budget, int64(n))
}

// VerifyIntegrity checks the SMA's internal accounting invariants and
// returns a descriptive error on the first violation. Tests and soak
// harnesses call it after churn; it is cheap enough to call in
// production health checks. To get a consistent snapshot it quiesces the
// allocator: demandMu stops demands, regMu stops registration, and every
// context's heap lock (taken in registration order) stops allocation.
func (s *SMA) VerifyIntegrity() error {
	s.demandMu.Lock()
	defer s.demandMu.Unlock()
	s.regMu.Lock()
	defer s.regMu.Unlock()
	ctxs := append([]*Context(nil), s.contexts...)
	sort.Slice(ctxs, func(i, j int) bool { return ctxs[i].seq < ctxs[j].seq })
	for _, c := range ctxs {
		c.lock()
		defer c.mu.Unlock()
	}
	s.poolMu.Lock()
	defer s.poolMu.Unlock()

	heapPages := 0
	for _, c := range ctxs {
		heapPages += c.heap.PagesHeld()
	}
	used := int(s.used.Load())
	if got := heapPages + len(s.freePool); got != used {
		return fmt.Errorf("core: used=%d but heaps+pool hold %d pages", used, got)
	}
	if s.daemonClient() != nil && s.budget.Load() < 0 {
		return fmt.Errorf("core: negative budget %d", s.budget.Load())
	}
	if len(s.freePool) > freePoolMax {
		return fmt.Errorf("core: free pool %d exceeds cap %d", len(s.freePool), freePoolMax)
	}
	for _, pg := range s.freePool {
		if !pg.Held() {
			return fmt.Errorf("core: free pool contains released page %d", pg.ID())
		}
	}
	for _, c := range ctxs {
		if err := c.heap.VerifyOwners(); err != nil {
			return fmt.Errorf("core: context %q: %w", c.name, err)
		}
	}
	return nil
}

// Stats returns a snapshot of the SMA's accounting.
func (s *SMA) Stats() Stats {
	s.poolMu.Lock()
	free := len(s.freePool)
	s.poolMu.Unlock()
	s.regMu.Lock()
	nctx := len(s.contexts)
	s.regMu.Unlock()
	return Stats{
		BudgetPages:     int(s.budget.Load()),
		UsedPages:       int(s.used.Load()),
		FreePoolPages:   free,
		Contexts:        nctx,
		BudgetRequests:  s.c.budgetRequests.Load(),
		BudgetDenied:    s.c.budgetDenied.Load(),
		DemandsServed:   s.c.demandsServed.Load(),
		PagesReclaimed:  s.c.pagesReclaimed.Load(),
		AllocsReclaimed: s.c.allocsReclaimed.Load(),
		ReleasedVirtual: s.c.releasedVirtual.Load(),
		RebackedPages:   s.c.rebackedPages.Load(),
		ReclaimPanics:   s.c.reclaimPanics.Load(),
	}
}

// FootprintBytes returns the process's current soft-memory footprint in
// bytes (pages held times page size) — the quantity plotted in Figure 2.
func (s *SMA) FootprintBytes() int64 {
	return s.used.Load() * pages.Size
}

// ContextInfo describes one registered SDS context for observability.
type ContextInfo struct {
	Name     string
	Priority int
	Closed   bool
	Heap     alloc.Stats
}

// Contexts lists the SMA's registered contexts in reclamation order
// (ascending priority).
func (s *SMA) Contexts() []ContextInfo {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	out := make([]ContextInfo, 0, len(s.contexts))
	for _, c := range s.contexts {
		c.lock()
		out = append(out, ContextInfo{
			Name:     c.name,
			Priority: c.priority,
			Closed:   c.closed,
			Heap:     c.heap.Stats(),
		})
		c.mu.Unlock()
	}
	return out
}

// atomicSubClamp subtracts up to n from a, never going below zero, and
// returns how much was actually subtracted.
func atomicSubClamp(a *atomic.Int64, n int64) int64 {
	for {
		cur := a.Load()
		take := n
		if take > cur {
			take = cur
		}
		if take <= 0 {
			return 0
		}
		if a.CompareAndSwap(cur, cur-take) {
			return take
		}
	}
}

// acquire hands n pages to a heap, preferring the free pool, then the
// machine within budget. It returns errNeedBudget when the daemon must be
// consulted; the caller drops its heap lock and retries. Runs with the
// owning Context's lock held; ledger room is reserved with a CAS so
// concurrent heaps never over-commit the budget.
func (s *SMA) acquire(n int) ([]*pages.Page, error) {
	// Fast path: the process-local free pool (all-or-nothing, so a
	// multi-page span never mixes sources).
	s.poolMu.Lock()
	if len(s.freePool) >= n {
		out := make([]*pages.Page, n)
		copy(out, s.freePool[len(s.freePool)-n:])
		for i := len(s.freePool) - n; i < len(s.freePool); i++ {
			s.freePool[i] = nil
		}
		s.freePool = s.freePool[:len(s.freePool)-n]
		s.poolMu.Unlock()
		return out, nil
	}
	s.poolMu.Unlock()

	// Reserve ledger room before touching the machine; roll back on
	// failure so used always equals pages actually held.
	hasDaemon := s.daemonClient() != nil
	if hasDaemon {
		for {
			u := s.used.Load()
			if u+int64(n) > s.budget.Load() {
				return nil, errNeedBudget
			}
			if s.used.CompareAndSwap(u, u+int64(n)) {
				break
			}
		}
	} else {
		s.used.Add(int64(n))
	}
	pgs, err := s.machine.Acquire(n)
	if err != nil {
		s.used.Add(-int64(n))
		if hasDaemon {
			return nil, errNeedPages
		}
		return nil, fmt.Errorf("%w: machine pool: %v", ErrExhausted, err)
	}
	// Re-back previously released virtual pages before growing (§4).
	if reback := atomicSubClamp(&s.unbackedVirtual, int64(n)); reback > 0 {
		s.c.rebackedPages.Add(reback)
	}
	return pgs, nil
}

// releasePages accepts pages back from a heap into the free pool,
// trimming overflow to the machine. Trimmed budget is accumulated in
// pendingTrim and returned to the daemon by flushTrim once the caller's
// heap lock is dropped.
func (s *SMA) releasePages(pgs []*pages.Page) {
	var cut []*pages.Page
	s.poolMu.Lock()
	s.freePool = append(s.freePool, pgs...)
	if over := len(s.freePool) - freePoolMax; over > 0 {
		tail := s.freePool[len(s.freePool)-over:]
		cut = append(cut, tail...)
		for i := range tail {
			tail[i] = nil
		}
		s.freePool = s.freePool[:len(s.freePool)-over]
	}
	s.poolMu.Unlock()
	if len(cut) > 0 {
		s.machine.Release(cut...)
		s.used.Add(-int64(len(cut)))
		s.pendingTrim.Add(int64(len(cut)))
	}
}

// requestBudget performs one daemon budget round-trip, timing it into
// the budget-RTT histogram when instrumented.
func (s *SMA) requestBudget(d DaemonClient, ask int, u Usage) (int, error) {
	s.c.budgetRequests.Add(1)
	if err := faultinject.FireErr("core.budget.request"); err != nil {
		return 0, err
	}
	m := s.met.Load()
	if m == nil {
		return d.RequestBudget(ask, u)
	}
	t0 := time.Now()
	granted, err := d.RequestBudget(ask, u)
	m.budgetRTT.ObserveDuration(time.Since(t0))
	return granted, err
}

// ensureBudget grows the budget by at least need pages via the daemon.
// Called WITHOUT any heap lock. budgetMu single-flights the round-trip:
// a goroutine that arrives while another is mid-request blocks here, then
// usually finds the fresh grant sufficient and returns without its own
// round-trip.
func (s *SMA) ensureBudget(need int) error {
	d := s.daemonClient()
	if d == nil {
		return nil
	}
	s.budgetMu.Lock()
	defer s.budgetMu.Unlock()
	if s.used.Load()+int64(need) <= s.budget.Load() {
		return nil
	}
	ask := s.cfg.BudgetChunk
	if need > ask {
		ask = need
	}
	u := s.usage()
	granted, err := s.requestBudget(d, ask, u)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrExhausted, err)
	}
	if granted == 0 && ask > need {
		// The chunk was denied under pressure; retry with the exact need
		// before giving up, to avoid spurious failures near the limit.
		granted, err = s.requestBudget(d, need, u)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrExhausted, err)
		}
	}
	if granted == 0 {
		s.c.budgetDenied.Add(1)
		return fmt.Errorf("%w: daemon denied budget request", ErrExhausted)
	}
	s.budget.Add(int64(granted))
	return nil
}

// forcePressureRound performs an unconditional daemon round-trip when the
// machine pool is empty despite available budget. The fresh request makes
// the daemon reclaim physical pages from other processes (its slack view
// of them was stale). Called WITHOUT any heap lock.
func (s *SMA) forcePressureRound(need int) error {
	d := s.daemonClient()
	if d == nil {
		return fmt.Errorf("%w: machine pool empty", ErrExhausted)
	}
	// Ask for a whole chunk: the daemon over-reclaims proportionally, so
	// one round frees enough physical pages to amortize many allocations
	// (the paper's "fixed memory percentage" amortization, §4).
	if need < s.cfg.BudgetChunk {
		need = s.cfg.BudgetChunk
	}
	s.budgetMu.Lock()
	defer s.budgetMu.Unlock()
	granted, err := s.requestBudget(d, need, s.usage())
	if err != nil {
		return fmt.Errorf("%w: %v", ErrExhausted, err)
	}
	if granted == 0 {
		s.c.budgetDenied.Add(1)
		return fmt.Errorf("%w: daemon denied pressure request", ErrExhausted)
	}
	s.budget.Add(int64(granted))
	return nil
}

// returnBudget gives back budget for pages trimmed to the machine.
// Called WITHOUT any heap lock.
func (s *SMA) returnBudget(n int) {
	if n <= 0 {
		return
	}
	d := s.daemonClient()
	if d == nil {
		return
	}
	atomicSubClamp(&s.budget, int64(n))
	// Best-effort: a failed release only strands budget at the daemon.
	_ = d.ReleaseBudget(n, s.usage())
}

// PressureEvent describes one served reclamation demand, delivered to
// pressure listeners after the demand completes.
type PressureEvent struct {
	// DemandedPages is what the daemon asked for; ReleasedPages is what
	// the process actually gave back.
	DemandedPages int
	ReleasedPages int
	// AllocsReclaimed counts SDS allocations freed by this demand (0 when
	// the free pool covered it).
	AllocsReclaimed int64
	// UsedPages is the process's soft footprint after the demand.
	UsedPages int
	// ReclaimID is the daemon's reclaim-cycle identifier carried on the
	// demand, or 0 when the demand was untraced.
	ReclaimID uint64
}

// OnPressure registers a listener invoked after every served reclamation
// demand, outside all SMA locks. This is the explicitness the paper
// contrasts with swapping (§1): the application *knows* it was squeezed
// and can follow a less aggressive caching strategy, shed load, or log
// the event. Listeners must not block for long; they run on the
// demanding goroutine.
func (s *SMA) OnPressure(fn func(PressureEvent)) {
	s.regMu.Lock()
	s.pressureFns = append(s.pressureFns, fn)
	s.regMu.Unlock()
}

// HandleDemand serves a reclamation demand from the daemon: release up to
// demandPages pages back to the machine, first from the free pool, then
// from the SDS contexts one priority tier at a time, lowest first (see
// reclaimFromTier). It returns the number of pages actually released; the
// daemon shrinks the process budget by the same amount. Safe to call from
// any goroutine; demands serialize on demandMu and take each context's
// heap lock one at a time, so allocation on other heaps proceeds while
// one SDS is being squeezed.
func (s *SMA) HandleDemand(demandPages int) int {
	released, _, _ := s.HandleDemandTraced(demandPages, 0)
	return released
}

// HandleDemandTraced is HandleDemand carrying the daemon's reclaim-cycle
// ID: it additionally returns the ordered spans of the demand (free-pool
// draw, per-SDS reclaims, application notes such as spill demotions) and
// a post-demand usage self-report, which transports ship back to the
// daemon for `smdctl trace` and a fresh ledger view.
func (s *SMA) HandleDemandTraced(demandPages int, reclaimID uint64) (int, []DemandSpan, *Usage) {
	if demandPages <= 0 {
		return 0, nil, nil
	}
	m := s.met.Load()
	start := time.Now()
	s.demandMu.Lock()
	tr := &demandTrace{}
	s.noteMu.Lock()
	s.activeTrace = tr
	s.noteMu.Unlock()
	released := 0
	var allocsFreed int64

	// Tier 0: the free pool — zero-disturbance pages (§3.1).
	poolStart := time.Now()
	s.poolMu.Lock()
	if n := len(s.freePool); n > 0 {
		take := n
		if take > demandPages {
			take = demandPages
		}
		cut := append([]*pages.Page(nil), s.freePool[n-take:]...)
		for i := n - take; i < n; i++ {
			s.freePool[i] = nil
		}
		s.freePool = s.freePool[:n-take]
		s.poolMu.Unlock()
		s.machine.Release(cut...)
		released += take
		tr.spans = append(tr.spans, DemandSpan{
			Kind: "freepool", Pages: take, DurNs: time.Since(poolStart).Nanoseconds(),
		})
	} else {
		s.poolMu.Unlock()
	}

	// Tier 1: the SDS contexts, lowest priority first; a higher priority
	// is touched only once everything below it has run dry.
	if released < demandPages {
		turn := int(s.c.demandsServed.Load())
		for _, tier := range s.snapshotTiers() {
			if released >= demandPages {
				break
			}
			for _, sp := range s.reclaimFromTier(tier, demandPages-released, turn) {
				if sp.Pages > 0 || sp.Allocs > 0 {
					tr.spans = append(tr.spans, sp)
				}
				released += sp.Pages
				allocsFreed += sp.Allocs
			}
		}
	}

	s.used.Add(-int64(released))
	atomicSubClamp(&s.budget, int64(released))
	s.unbackedVirtual.Add(int64(released))
	s.c.demandsServed.Add(1)
	s.c.pagesReclaimed.Add(int64(released))
	s.c.releasedVirtual.Add(int64(released))
	ev := PressureEvent{
		DemandedPages:   demandPages,
		ReleasedPages:   released,
		AllocsReclaimed: allocsFreed,
		UsedPages:       int(s.used.Load()),
		ReclaimID:       reclaimID,
	}
	s.noteMu.Lock()
	s.activeTrace = nil
	s.noteMu.Unlock()
	spans := tr.finish()
	s.demandMu.Unlock()
	s.regMu.Lock()
	listeners := append([]func(PressureEvent){}, s.pressureFns...)
	s.regMu.Unlock()
	for _, fn := range listeners {
		fn(ev)
	}
	if m != nil {
		m.demand.ObserveDuration(time.Since(start))
	}
	// Sample usage after the pressure listeners: they run application
	// reactions (spill bookkeeping, resizing) that belong in the
	// self-report the daemon's ledger will adopt.
	u := s.usage()
	return released, spans, &u
}

// reclaimFromTier takes quota pages from a tier of equal-priority
// contexts as from one victim. The quota is dealt in rounds: a round
// splits what is still missing evenly over the contexts still giving
// (shares differ by a page at most), those that have given least asked
// first, and a context that returns less than its share is dry and
// leaves the deal, its shortfall going into the next round — until the
// quota is met or every context is dry. So no context pays two pages
// more than another that still had pages to give. turn rotates which
// context is asked first, so the odd page of successive demands does
// not always fall on the same one; a context whose heap holds no page
// is left out from the start. A sharded store is N equal-priority
// contexts holding an even mix of ages, so equal shares keep "oldest
// first" true of the store and not of whichever shard registered first.
// It returns one span per context, in tier order.
func (s *SMA) reclaimFromTier(tier []*Context, quota, turn int) []DemandSpan {
	spans := make([]DemandSpan, len(tier))
	giving := make([]int, 0, len(tier))
	for n := range tier {
		i := (turn + n) % len(tier)
		spans[i] = DemandSpan{Kind: "sds", Name: tier[i].name}
		// An empty heap is dealt no share: its Reclaimer would return
		// nothing and the others would be called a second time for it.
		if tier[i].HeapStats().PagesHeld > 0 {
			giving = append(giving, i)
		}
	}
	for quota > 0 && len(giving) > 0 {
		slices.SortStableFunc(giving, func(a, b int) int { return spans[a].Pages - spans[b].Pages })
		undealt, still := quota, giving[:0]
		for n, i := range giving {
			ask := min((undealt+len(giving)-n-1)/(len(giving)-n), quota)
			if ask <= 0 {
				still = append(still, giving[n:]...) // not asked this round, still in the deal
				break
			}
			undealt -= ask
			got := s.reclaimFromContext(tier[i], ask, &spans[i])
			quota -= got
			if got >= ask {
				still = append(still, i)
			}
		}
		giving = still
	}
	return spans
}

// reclaimFromContext asks one SDS to free allocations until quota pages
// have flowed from its heap to the machine, or the SDS runs dry. It takes
// the context's heap lock for the duration; while it runs, every page the
// heap releases — emptied slot pages and freed multi-page spans alike —
// goes straight to the machine and is counted via ctx.drainReleased. It
// returns the pages drained and adds them, the allocations freed, the
// victims' ages and the time all this took to sp (counted per demand, so
// concurrent observers never see another demand's frees).
func (s *SMA) reclaimFromContext(ctx *Context, quota int, sp *DemandSpan) (drained int) {
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		sp.DurNs += d.Nanoseconds()
		if m := s.met.Load(); m != nil {
			m.sdsReclaim.ObserveDuration(d)
		}
	}()
	ctx.lock()
	defer ctx.mu.Unlock()
	if ctx.closed {
		return 0
	}
	tx := &Tx{ctx: ctx}
	ctx.demandDrain = true
	ctx.drainReleased = 0
	// A Reclaimer is application code running inside the demand path; if
	// it panics, containment matters more than its remaining quota. The
	// recover below keeps whatever pages had already drained, restores the
	// context's drain flag, and lets the demand move on to the next SDS —
	// without it the panic would unwind through HandleDemandTraced with
	// demandMu still held, wedging every future demand.
	defer func() {
		ctx.demandDrain = false
		if r := recover(); r != nil {
			s.c.reclaimPanics.Add(1)
		}
		drained = ctx.drainReleased
		sp.Pages += drained
		sp.Allocs += int64(tx.frees)
		sp.VictimAges.merge(tx.victims)
		s.c.allocsReclaimed.Add(int64(tx.frees))
	}()
	// Epoch-retired frees sit in limbo until the grace period passes, so
	// every round first has the heap drain what it can (alloc.Heap.Drain),
	// then takes the heap's free pages, and only then asks the SDS for what is
	// still missing. While limbo holds anything no page can leave this
	// heap whatever is freed, so the SDS is not asked: a page in limbo is
	// already paid for in revoked data, and asking again would revoke
	// more without releasing more. If demandGrace runs out first, what is
	// in limbo surfaces on a later trim or demand.
	epochDeadline := time.Now().Add(demandGrace)
	for dry := false; ; {
		limbo := ctx.heap.Drain(epochDeadline)
		if rem := quota - ctx.drainReleased; rem > 0 {
			ctx.heap.ReleaseFreePages(rem)
		}
		if ctx.drainReleased >= quota || dry || limbo > 0 {
			break
		}
		// The callback fault point: delay= holds the demand cycle open
		// (the daemon's CallTimeout bounds the damage), panic exercises
		// the containment above, error abandons this SDS mid-drain.
		if faultinject.Fire("core.reclaim.sds") == faultinject.Error {
			break
		}
		before := tx.frees
		got := ctx.reclaimer.Reclaim(tx, (quota-ctx.drainReleased)*pages.Size)
		// An SDS that reports progress without freeing anything would
		// hold the demand here for ever; one that frees is done once it
		// has nothing left.
		dry = got <= 0 || tx.frees == before
	}
	return ctx.drainReleased
}

// ctxSource is the alloc.PageSource wired into each context's heap. All
// its methods run with the owning Context's lock held (heap operations
// only happen under that lock).
type ctxSource struct{ ctx *Context }

// AcquirePages leases pages for the heap from the free pool or machine.
func (cs ctxSource) AcquirePages(n int) ([]*pages.Page, error) {
	return cs.ctx.sma.acquire(n)
}

// ReleasePages accepts pages back from the heap. On the demand path they
// go straight to the machine; otherwise to the process free pool.
func (cs ctxSource) ReleasePages(pgs []*pages.Page) {
	s := cs.ctx.sma
	if cs.ctx.demandDrain {
		s.machine.Release(pgs...)
		cs.ctx.drainReleased += len(pgs)
		return
	}
	s.releasePages(pgs)
}

// flushTrim returns budget for trimmed pages to the daemon. Called
// WITHOUT any heap lock, after every public operation that may trim.
// The Load-before-Swap keeps the common no-trim case a read of a shared
// cache line instead of a contended read-modify-write.
func (s *SMA) flushTrim() {
	if s.pendingTrim.Load() == 0 {
		return
	}
	if n := s.pendingTrim.Swap(0); n > 0 {
		s.returnBudget(int(n))
	}
}
