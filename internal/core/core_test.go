package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"softmem/internal/alloc"
	"softmem/internal/pages"
)

// fakeDaemon is a DaemonClient granting budget against a fixed total.
type fakeDaemon struct {
	mu       sync.Mutex
	total    int
	granted  int
	requests int
	releases int
	denyAll  bool
	lastUse  Usage
}

func (d *fakeDaemon) RequestBudget(n int, u Usage) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.requests++
	d.lastUse = u
	if d.denyAll || d.granted+n > d.total {
		return 0, nil
	}
	d.granted += n
	return n, nil
}

func (d *fakeDaemon) ReleaseBudget(n int, u Usage) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.releases += n
	d.granted -= n
	d.lastUse = u
	return nil
}

// stackSDS is a minimal Reclaimer: a stack of equal-size allocations,
// reclaimed oldest-first, with an optional callback.
type stackSDS struct {
	ctx      *Context
	refs     []alloc.Ref
	callback func([]byte)
}

func (s *stackSDS) push(t *testing.T, size int) {
	t.Helper()
	ref, err := s.ctx.Alloc(size)
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	if err := s.ctx.Do(func(tx *Tx) error {
		s.refs = append(s.refs, ref)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func (s *stackSDS) Reclaim(tx *Tx, bytes int) int {
	freed := 0
	for len(s.refs) > 0 && freed < bytes {
		ref := s.refs[0]
		s.refs = s.refs[1:]
		size, err := tx.Size(ref)
		if err != nil {
			continue
		}
		if s.callback != nil {
			b, _ := tx.Bytes(ref)
			s.callback(b)
		}
		if err := tx.Free(ref); err == nil {
			freed += size
		}
	}
	return freed
}

func newSMA(machinePages, daemonPages int) (*SMA, *fakeDaemon, *pages.Pool) {
	pool := pages.NewPool(machinePages)
	d := &fakeDaemon{total: daemonPages}
	s := New(Config{Machine: pool, Daemon: d})
	return s, d, pool
}

func TestStandaloneAllocFree(t *testing.T) {
	pool := pages.NewPool(10)
	s := New(Config{Machine: pool})
	ctx := s.Register("test", 0, nil)
	ref, err := ctx.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Write(ref, []byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	got, err := ctx.ReadAll(ref)
	if err != nil || string(got[:3]) != "abc" {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
	if err := ctx.Free(ref); err != nil {
		t.Fatal(err)
	}
	if s.Stats().UsedPages != 1 {
		t.Fatalf("UsedPages = %d, want 1 (page retained in heap/pool)", s.Stats().UsedPages)
	}
}

func TestStandaloneMachineExhaustion(t *testing.T) {
	pool := pages.NewPool(2)
	s := New(Config{Machine: pool})
	ctx := s.Register("test", 0, nil)
	if _, err := ctx.Alloc(2 * pages.Size); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Alloc(pages.Size); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
}

func TestBudgetRequestsAreChunked(t *testing.T) {
	s, d, _ := newSMA(0, 10000)
	ctx := s.Register("test", 0, nil)
	// 256 × 1 KiB = 64 pages = exactly one default chunk.
	for i := 0; i < 256; i++ {
		if _, err := ctx.Alloc(1024); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Lock()
	reqs := d.requests
	d.mu.Unlock()
	if reqs != 1 {
		t.Fatalf("daemon requests = %d for 256 allocs, want 1 (chunked)", reqs)
	}
	if s.Stats().BudgetPages != 64 {
		t.Fatalf("budget = %d, want 64", s.Stats().BudgetPages)
	}
}

func TestBudgetDenialSurfacesExhaustion(t *testing.T) {
	s, d, _ := newSMA(0, 0)
	d.denyAll = true
	ctx := s.Register("test", 0, nil)
	if _, err := ctx.Alloc(1024); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if s.Stats().BudgetDenied == 0 {
		t.Fatal("BudgetDenied not counted")
	}
}

func TestDeniedChunkRetriesExactNeed(t *testing.T) {
	// Daemon has only 2 pages; the 64-page chunk is denied but the exact
	// need (1 page) succeeds.
	s, d, _ := newSMA(0, 2)
	ctx := s.Register("test", 0, nil)
	if _, err := ctx.Alloc(1024); err != nil {
		t.Fatalf("alloc failed despite available exact budget: %v", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.requests != 2 {
		t.Fatalf("requests = %d, want 2 (chunk denied, exact granted)", d.requests)
	}
	if d.granted != 1 {
		t.Fatalf("granted = %d, want 1", d.granted)
	}
}

// TestSlabBudgetInOneRound: a context one page short of the budget for a
// new three-page slab asks the daemon for the whole slab, so the
// allocation is served after a single budget round rather than retried
// until it fails.
func TestSlabBudgetInOneRound(t *testing.T) {
	d := &fakeDaemon{total: 1000}
	s := New(Config{Machine: pages.NewPool(0), Daemon: d, BudgetChunk: 3})
	defer s.Close()
	ctx := s.Register("slabs", 0, nil)
	if _, err := ctx.Alloc(1000); err != nil { // one page of a three-page grant
		t.Fatal(err)
	}
	if st := s.Stats(); st.BudgetPages != 3 || st.UsedPages != 1 {
		t.Fatalf("budget %d, used %d; want 3 and 1", st.BudgetPages, st.UsedPages)
	}
	if _, err := ctx.Alloc(3000); err != nil { // a 3,072-B slot: a new slab of three pages
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.requests != 2 {
		t.Fatalf("daemon requests = %d, want 2: one budget round for the slab", d.requests)
	}
	if st := s.Stats(); st.BudgetPages != 6 || st.UsedPages != 4 {
		t.Fatalf("budget %d, used %d; want 6 and 4", st.BudgetPages, st.UsedPages)
	}
}

func TestUsageReportedToDaemon(t *testing.T) {
	s, d, _ := newSMA(0, 1000)
	s.AddTraditionalBytes(12345)
	ctx := s.Register("test", 0, nil)
	if _, err := ctx.Alloc(1024); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lastUse.TraditionalBytes != 12345 {
		t.Fatalf("daemon saw traditional=%d, want 12345", d.lastUse.TraditionalBytes)
	}
}

func TestHandleDemandFreePoolFirst(t *testing.T) {
	s, _, pool := newSMA(0, 1000)
	ctx := s.Register("test", 0, nil)
	// Allocate and free a page's worth so the free pool holds pages.
	var refs []alloc.Ref
	for i := 0; i < 40; i++ { // 10 pages of 1 KiB slots
		r, err := ctx.Alloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	for _, r := range refs {
		if err := ctx.Free(r); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.FreePoolPages == 0 {
		t.Fatalf("free pool empty after frees: %+v", st)
	}
	before := pool.InUse()
	released := s.HandleDemand(2)
	if released != 2 {
		t.Fatalf("HandleDemand(2) = %d, want 2 from free pool", released)
	}
	if pool.InUse() != before-2 {
		t.Fatalf("machine pool InUse %d -> %d, want -2", before, pool.InUse())
	}
	if s.Stats().AllocsReclaimed != 0 {
		t.Fatal("free-pool demand should not touch SDS allocations")
	}
}

func TestHandleDemandReclaimsFromSDS(t *testing.T) {
	s, _, pool := newSMA(0, 10000)
	var reclaimed [][]byte
	sds := &stackSDS{callback: func(b []byte) {
		cp := make([]byte, len(b))
		copy(cp, b)
		reclaimed = append(reclaimed, cp)
	}}
	sds.ctx = s.Register("list", 0, sds)
	// 8 × 2 KiB elements = 4 pages, like the paper's linked-list example.
	for i := 0; i < 8; i++ {
		sds.push(t, 2048)
		ref := sds.refs[len(sds.refs)-1]
		if err := sds.ctx.Write(ref, []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := pool.InUse()
	released := s.HandleDemand(3) // the paper's "12 KiB demand, three pages"
	if released != 3 {
		t.Fatalf("HandleDemand(3) = %d, want 3", released)
	}
	if pool.InUse() != before-3 {
		t.Fatalf("machine InUse %d -> %d", before, pool.InUse())
	}
	// Oldest-first: elements 0..5 freed (two 2 KiB per page × 3 pages).
	if len(reclaimed) != 6 {
		t.Fatalf("callback ran %d times, want 6", len(reclaimed))
	}
	for i, b := range reclaimed {
		if b[0] != byte(i) {
			t.Fatalf("reclaim order: got element %d at position %d", b[0], i)
		}
	}
	if len(sds.refs) != 2 {
		t.Fatalf("%d elements survive, want 2", len(sds.refs))
	}
	for _, r := range sds.refs {
		if !sds.ctx.Live(r) {
			t.Fatal("surviving element not live")
		}
	}
	if s.Stats().AllocsReclaimed != 6 {
		t.Fatalf("AllocsReclaimed = %d, want 6", s.Stats().AllocsReclaimed)
	}
}

func TestHandleDemandPriorityOrder(t *testing.T) {
	s, _, _ := newSMA(0, 10000)
	low := &stackSDS{}
	low.ctx = s.Register("low", 1, low)
	high := &stackSDS{}
	high.ctx = s.Register("high", 10, high)
	for i := 0; i < 4; i++ {
		low.push(t, 4096)
		high.push(t, 4096)
	}
	if released := s.HandleDemand(2); released != 2 {
		t.Fatalf("released %d, want 2", released)
	}
	if len(low.refs) != 2 {
		t.Fatalf("low-priority SDS has %d elements, want 2 (reclaimed first)", len(low.refs))
	}
	if len(high.refs) != 4 {
		t.Fatalf("high-priority SDS has %d elements, want 4 (untouched)", len(high.refs))
	}
}

func TestSetPriorityReordersReclaim(t *testing.T) {
	s, _, _ := newSMA(0, 10000)
	a := &stackSDS{}
	a.ctx = s.Register("a", 1, a)
	b := &stackSDS{}
	b.ctx = s.Register("b", 2, b)
	for i := 0; i < 2; i++ {
		a.push(t, 4096)
		b.push(t, 4096)
	}
	a.ctx.SetPriority(5) // now b is lowest
	if b.ctx.Priority() != 2 || a.ctx.Priority() != 5 {
		t.Fatal("priorities not updated")
	}
	s.HandleDemand(1)
	if len(b.refs) != 1 || len(a.refs) != 2 {
		t.Fatalf("after reorder: a=%d b=%d, want a=2 b=1", len(a.refs), len(b.refs))
	}
}

func TestHandleDemandPartial(t *testing.T) {
	s, _, _ := newSMA(0, 10000)
	sds := &stackSDS{}
	sds.ctx = s.Register("list", 0, sds)
	sds.push(t, 4096)
	// Only one page exists; demand for five releases just one.
	if released := s.HandleDemand(5); released != 1 {
		t.Fatalf("HandleDemand(5) = %d, want 1", released)
	}
}

func TestDemandBudgetAccounting(t *testing.T) {
	s, _, _ := newSMA(0, 10000)
	sds := &stackSDS{}
	sds.ctx = s.Register("list", 0, sds)
	for i := 0; i < 8; i++ {
		sds.push(t, 4096)
	}
	before := s.Stats()
	released := s.HandleDemand(4)
	after := s.Stats()
	if after.BudgetPages != before.BudgetPages-released {
		t.Fatalf("budget %d -> %d after releasing %d", before.BudgetPages, after.BudgetPages, released)
	}
	if after.UsedPages != before.UsedPages-released {
		t.Fatalf("used %d -> %d after releasing %d", before.UsedPages, after.UsedPages, released)
	}
	if after.ReleasedVirtual != int64(released) {
		t.Fatalf("ReleasedVirtual = %d, want %d", after.ReleasedVirtual, released)
	}
}

func TestRebackingTracked(t *testing.T) {
	s, _, _ := newSMA(0, 10000)
	sds := &stackSDS{}
	sds.ctx = s.Register("list", 0, sds)
	for i := 0; i < 4; i++ {
		sds.push(t, 4096)
	}
	s.HandleDemand(2)
	// Growing again re-backs the released virtual pages.
	sds.push(t, 4096)
	sds.push(t, 4096)
	if got := s.Stats().RebackedPages; got != 2 {
		t.Fatalf("RebackedPages = %d, want 2", got)
	}
}

func TestFreePoolOverflowReturnsBudget(t *testing.T) {
	pool := pages.NewPool(0)
	d := &fakeDaemon{total: 100000}
	s := New(Config{Machine: pool, Daemon: d})
	ctx := s.Register("test", 0, nil)
	var refs []alloc.Ref
	// 1 KiB slots, four a page: 16 pages more than the heap and the free
	// pool together keep.
	for i := 0; i < 4*(heapFreeMax+freePoolMax+16); i++ {
		r, err := ctx.Alloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	for _, r := range refs {
		if err := ctx.Free(r); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Lock()
	releases := d.releases
	d.mu.Unlock()
	if releases == 0 {
		t.Fatal("no budget returned to daemon despite free-pool overflow")
	}
	st := s.Stats()
	if st.FreePoolPages > freePoolMax {
		t.Fatalf("free pool %d exceeds freePoolMax %d", st.FreePoolPages, freePoolMax)
	}
	if st.BudgetPages < st.UsedPages {
		t.Fatalf("budget %d < used %d after trim", st.BudgetPages, st.UsedPages)
	}
}

func TestContextClose(t *testing.T) {
	s, _, _ := newSMA(0, 1000)
	ctx := s.Register("test", 0, nil)
	ref, _ := ctx.Alloc(1024)
	ctx.Close()
	if _, err := ctx.Alloc(10); !errors.Is(err, ErrClosed) {
		t.Fatalf("Alloc after Close = %v, want ErrClosed", err)
	}
	if err := ctx.Do(func(*Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
	if ctx.Live(ref) {
		t.Fatal("allocation live after Close")
	}
	ctx.Close() // idempotent
}

func TestClosedContextSkippedByDemand(t *testing.T) {
	s, _, _ := newSMA(0, 10000)
	closed := &stackSDS{}
	closed.ctx = s.Register("closed", 0, closed)
	closed.push(t, 4096)
	open := &stackSDS{}
	open.ctx = s.Register("open", 1, open)
	open.push(t, 4096)
	closed.ctx.Close() // its page lands in the process free pool
	// Demand 2: one page comes free from the pool (the closed context's),
	// the second must come from the open SDS — the closed one is skipped.
	if released := s.HandleDemand(2); released != 2 {
		t.Fatalf("released %d, want 2", released)
	}
	if len(open.refs) != 0 {
		t.Fatal("open SDS not reclaimed when closed SDS was skipped")
	}
}

func TestAllocDataRoundtrip(t *testing.T) {
	s, _, _ := newSMA(0, 1000)
	ctx := s.Register("test", 0, nil)
	ref, err := ctx.AllocData([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := ctx.ReadAll(ref)
	if string(got) != "payload" {
		t.Fatalf("got %q", got)
	}
	if n, _ := ctx.Size(ref); n != 7 {
		t.Fatalf("Size = %d", n)
	}
}

func TestFootprintBytes(t *testing.T) {
	s, _, _ := newSMA(0, 1000)
	ctx := s.Register("test", 0, nil)
	if s.FootprintBytes() != 0 {
		t.Fatal("non-zero initial footprint")
	}
	if _, err := ctx.Alloc(3 * pages.Size); err != nil {
		t.Fatal(err)
	}
	if got := s.FootprintBytes(); got != 3*pages.Size {
		t.Fatalf("footprint = %d, want %d", got, 3*pages.Size)
	}
}

func TestHandleDemandZeroAndNegative(t *testing.T) {
	s, _, _ := newSMA(0, 1000)
	if s.HandleDemand(0) != 0 || s.HandleDemand(-3) != 0 {
		t.Fatal("zero/negative demand released pages")
	}
}

func TestNilMachinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without machine did not panic")
		}
	}()
	New(Config{})
}

// TestConcurrentAllocAndDemand exercises the lock protocol under race:
// allocating goroutines race with reclamation demands.
func TestConcurrentAllocAndDemand(t *testing.T) {
	s, _, _ := newSMA(0, 1_000_000)
	sds := &stackSDS{}
	sds.ctx = s.Register("list", 0, sds)

	var allocators sync.WaitGroup
	for g := 0; g < 4; g++ {
		allocators.Add(1)
		go func() {
			defer allocators.Done()
			for i := 0; i < 300; i++ {
				ref, err := sds.ctx.Alloc(1024)
				if err != nil {
					continue
				}
				_ = sds.ctx.Do(func(tx *Tx) error {
					sds.refs = append(sds.refs, ref)
					return nil
				})
			}
		}()
	}
	stop := make(chan struct{})
	demander := make(chan struct{})
	go func() {
		defer close(demander)
		for {
			select {
			case <-stop:
				return
			default:
				s.HandleDemand(2)
			}
		}
	}()
	allocators.Wait()
	close(stop)
	<-demander
	// Invariant: every surviving indexed ref is live.
	_ = sds.ctx.Do(func(tx *Tx) error {
		for _, r := range sds.refs {
			if !tx.Live(r) {
				t.Error("indexed ref not live after concurrent demands")
				break
			}
		}
		return nil
	})
}

// flakyDaemon fails every other budget request, modelling a daemon under
// churn or a lossy transport.
type flakyDaemon struct {
	mu    sync.Mutex
	calls int
	inner fakeDaemon
}

func (d *flakyDaemon) RequestBudget(n int, u Usage) (int, error) {
	d.mu.Lock()
	d.calls++
	fail := d.calls%2 == 1
	d.mu.Unlock()
	if fail {
		return 0, errors.New("daemon unavailable")
	}
	return d.inner.RequestBudget(n, u)
}

func (d *flakyDaemon) ReleaseBudget(n int, u Usage) error {
	return errors.New("daemon unavailable")
}

func TestFlakyDaemonSurfacesButDoesNotCorrupt(t *testing.T) {
	pool := pages.NewPool(0)
	d := &flakyDaemon{inner: fakeDaemon{total: 1000}}
	s := New(Config{Machine: pool, Daemon: d})
	ctx := s.Register("test", 0, nil)

	var got, failed int
	var refs []alloc.Ref
	// 1 KiB slots, four a page: about 100 pages, more than the heap and
	// the free pool together keep, so the frees below trim and release.
	for i := 0; i < 400; i++ {
		ref, err := ctx.Alloc(1024)
		if err != nil {
			if !errors.Is(err, ErrExhausted) {
				t.Fatalf("unexpected error type: %v", err)
			}
			failed++
			continue
		}
		got++
		refs = append(refs, ref)
	}
	if got == 0 {
		t.Fatal("no allocation ever succeeded against a 50%-available daemon")
	}
	if failed == 0 {
		t.Fatal("no allocation failed; flaky daemon not exercised")
	}
	// Accounting stays exact: pool in use == SMA used pages.
	if pool.InUse() != s.Stats().UsedPages {
		t.Fatalf("pool %d != used %d after daemon flakiness", pool.InUse(), s.Stats().UsedPages)
	}
	// Frees still work and trimming tolerates release failures.
	for _, r := range refs {
		if err := ctx.Free(r); err != nil {
			t.Fatal(err)
		}
	}
	if pool.InUse() != s.Stats().UsedPages {
		t.Fatalf("pool %d != used %d after frees", pool.InUse(), s.Stats().UsedPages)
	}
}

// TestMachineConservationUnderChaos drives several SMAs with random
// allocations, frees, and demands, checking after every step that
// machine pages in use exactly equal the sum of SMA usage.
func TestMachineConservationUnderChaos(t *testing.T) {
	const totalPages = 512
	pool := pages.NewPool(totalPages)
	rng := rand.New(rand.NewSource(99))

	type proc struct {
		sma *SMA
		sds *stackSDS
	}
	var procs []*proc
	for i := 0; i < 3; i++ {
		s := New(Config{Machine: pool})
		sds := &stackSDS{}
		sds.ctx = s.Register("sds", 0, sds)
		procs = append(procs, &proc{sma: s, sds: sds})
	}
	check := func(step int) {
		t.Helper()
		sum := 0
		for _, p := range procs {
			sum += p.sma.Stats().UsedPages
		}
		if pool.InUse() != sum {
			t.Fatalf("step %d: machine InUse %d != sum of SMA used %d", step, pool.InUse(), sum)
		}
		if pool.InUse() > totalPages {
			t.Fatalf("step %d: machine over-committed", step)
		}
	}
	for step := 0; step < 3000; step++ {
		p := procs[rng.Intn(len(procs))]
		switch rng.Intn(4) {
		case 0, 1: // allocate
			size := 1 + rng.Intn(6000)
			ref, err := p.sds.ctx.Alloc(size)
			if err == nil {
				_ = p.sds.ctx.Do(func(tx *Tx) error {
					p.sds.refs = append(p.sds.refs, ref)
					return nil
				})
			}
		case 2: // free
			_ = p.sds.ctx.Do(func(tx *Tx) error {
				if len(p.sds.refs) > 0 {
					i := rng.Intn(len(p.sds.refs))
					_ = tx.Free(p.sds.refs[i])
					p.sds.refs[i] = p.sds.refs[len(p.sds.refs)-1]
					p.sds.refs = p.sds.refs[:len(p.sds.refs)-1]
				}
				return nil
			})
		case 3: // demand
			p.sma.HandleDemand(1 + rng.Intn(16))
		}
		check(step)
	}
}

func TestUsageSnapshot(t *testing.T) {
	s, _, _ := newSMA(0, 100)
	s.AddTraditionalBytes(4096)
	ctx := s.Register("u", 0, nil)
	if _, err := ctx.Alloc(4096); err != nil {
		t.Fatal(err)
	}
	u := s.Usage()
	if u.UsedPages != 1 || u.TraditionalBytes != 4096 {
		t.Fatalf("usage = %+v", u)
	}
	s.AddTraditionalBytes(-9999)
	if got := s.TraditionalBytes(); got != 0 {
		t.Fatalf("traditional floored at %d, want 0", got)
	}
}

func TestHeapStatsThroughContext(t *testing.T) {
	s, _, _ := newSMA(0, 100)
	ctx := s.Register("h", 0, nil)
	ctx.Alloc(100)
	hs := ctx.HeapStats()
	if hs.LiveAllocs != 1 || hs.LiveBytes != 100 {
		t.Fatalf("heap stats = %+v", hs)
	}
}

func TestPressureListeners(t *testing.T) {
	s, _, _ := newSMA(0, 10000)
	sds := &stackSDS{}
	sds.ctx = s.Register("list", 0, sds)
	for i := 0; i < 8; i++ {
		sds.push(t, 4096)
	}
	var events []PressureEvent
	s.OnPressure(func(ev PressureEvent) { events = append(events, ev) })
	s.HandleDemand(3)
	if len(events) != 1 {
		t.Fatalf("listener fired %d times, want 1", len(events))
	}
	ev := events[0]
	if ev.DemandedPages != 3 || ev.ReleasedPages != 3 {
		t.Fatalf("event = %+v", ev)
	}
	if ev.AllocsReclaimed != 3 {
		t.Fatalf("AllocsReclaimed = %d, want 3", ev.AllocsReclaimed)
	}
	if ev.UsedPages != 5 {
		t.Fatalf("UsedPages = %d, want 5", ev.UsedPages)
	}
	// Zero-page demands do not fire listeners.
	s.HandleDemand(0)
	if len(events) != 1 {
		t.Fatal("listener fired for zero demand")
	}
}

func TestContextsListing(t *testing.T) {
	s, _, _ := newSMA(0, 1000)
	a := s.Register("alpha", 5, nil)
	s.Register("beta", 1, nil)
	a.Alloc(100)
	infos := s.Contexts()
	if len(infos) != 2 {
		t.Fatalf("%d contexts", len(infos))
	}
	// Reclamation order: beta (priority 1) first.
	if infos[0].Name != "beta" || infos[1].Name != "alpha" {
		t.Fatalf("order = %s, %s", infos[0].Name, infos[1].Name)
	}
	if infos[1].Heap.LiveAllocs != 1 {
		t.Fatalf("alpha heap stats = %+v", infos[1].Heap)
	}
	a.Close()
	infos = s.Contexts()
	if len(infos) != 1 || infos[0].Name != "beta" {
		t.Fatalf("closed context not removed: %+v", infos)
	}
}

func TestTxReadWriteSlotSize(t *testing.T) {
	s, _, _ := newSMA(0, 100)
	ctx := s.Register("tx", 0, nil)
	ref, err := ctx.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Do(func(tx *Tx) error {
		if err := tx.Write(ref, []byte("hello"), 10); err != nil {
			return err
		}
		buf := make([]byte, 5)
		if err := tx.Read(ref, buf, 10); err != nil {
			return err
		}
		if string(buf) != "hello" {
			t.Errorf("tx read = %q", buf)
		}
		slot, err := tx.SlotSize(ref)
		if err != nil || slot != 112 {
			t.Errorf("SlotSize = %d, %v (want 112 for a 100B alloc)", slot, err)
		}
		if n, _ := tx.Size(ref); n != 100 {
			t.Errorf("Size = %d", n)
		}
		if !tx.Live(ref) {
			t.Error("not live")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ctx.Name() != "tx" {
		t.Fatalf("Name = %q", ctx.Name())
	}
}

func TestContextReadOffset(t *testing.T) {
	s, _, _ := newSMA(0, 100)
	ctx := s.Register("r", 0, nil)
	ref, _ := ctx.AllocData([]byte("abcdefgh"))
	buf := make([]byte, 3)
	if err := ctx.Read(ref, buf, 2); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "cde" {
		t.Fatalf("Read = %q", buf)
	}
}

// reclaimingDaemon is a mini-SMD: when a request cannot be served from
// its ledger it demands pages from the victim SMA, exactly like the real
// daemon. It drives core's machine-pressure (errNeedPages) path without
// importing smd.
type reclaimingDaemon struct {
	mu     sync.Mutex
	total  int
	ledger int
	victim *SMA
}

func (d *reclaimingDaemon) RequestBudget(n int, u Usage) (int, error) {
	d.mu.Lock()
	free := d.total - d.ledger
	d.mu.Unlock()
	if free < n {
		released := d.victim.HandleDemand(n - free)
		d.mu.Lock()
		d.ledger -= released
		d.mu.Unlock()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.total-d.ledger < n {
		return 0, nil
	}
	d.ledger += n
	return n, nil
}

func (d *reclaimingDaemon) ReleaseBudget(n int, u Usage) error {
	d.mu.Lock()
	d.ledger -= n
	d.mu.Unlock()
	return nil
}

func TestForcePressureRoundReclaimsPhysicalPages(t *testing.T) {
	const totalPages = 64
	pool := pages.NewPool(totalPages)
	d := &reclaimingDaemon{total: totalPages}

	victim := New(Config{Machine: pool, Daemon: d, BudgetChunk: 8})
	vsds := &stackSDS{}
	vsds.ctx = victim.Register("victim", 0, vsds)
	d.victim = victim
	d.ledger = 0
	for i := 0; i < totalPages; i++ { // fill the whole machine
		vsds.push(t, 4096)
	}
	if pool.Free() != 0 {
		t.Fatalf("machine not full: %d free", pool.Free())
	}

	// A second process allocates: its budget may be granted against the
	// daemon's stale view, but the machine is physically full — the
	// forced pressure round must reclaim real pages from the victim.
	aggressor := New(Config{Machine: pool, Daemon: d, BudgetChunk: 8})
	actx := aggressor.Register("aggressor", 0, nil)
	for i := 0; i < 16; i++ {
		if _, err := actx.Alloc(4096); err != nil {
			t.Fatalf("aggressor alloc %d: %v", i, err)
		}
	}
	if victim.Stats().PagesReclaimed == 0 {
		t.Fatal("victim lost no pages; pressure path not exercised")
	}
	if pool.InUse() > totalPages {
		t.Fatal("machine over-committed")
	}
}

func TestResetBudgetAndBudgetPages(t *testing.T) {
	s, _, _ := newSMA(0, 1000)
	ctx := s.Register("b", 0, nil)
	ctx.Alloc(1024)
	if s.BudgetPages() != 64 {
		t.Fatalf("BudgetPages = %d", s.BudgetPages())
	}
	s.ResetBudget(5)
	if s.BudgetPages() != 5 {
		t.Fatalf("after ResetBudget: %d", s.BudgetPages())
	}
	s.ResetBudget(-3)
	if s.BudgetPages() != 0 {
		t.Fatalf("negative reset: %d", s.BudgetPages())
	}
}

func TestSMAClose(t *testing.T) {
	pool := pages.NewPool(0)
	d := &fakeDaemon{total: 10000}
	s := New(Config{Machine: pool, Daemon: d})
	ctxA := s.Register("a", 0, nil)
	ctxB := s.Register("b", 1, nil)
	for i := 0; i < 100; i++ {
		if _, err := ctxA.Alloc(1024); err != nil {
			t.Fatal(err)
		}
		if _, err := ctxB.Alloc(2048); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if pool.InUse() != 0 {
		t.Fatalf("machine still holds %d pages after SMA.Close", pool.InUse())
	}
	st := s.Stats()
	if st.UsedPages != 0 || st.BudgetPages != 0 || st.Contexts != 0 {
		t.Fatalf("stats after Close = %+v", st)
	}
	d.mu.Lock()
	granted := d.granted
	d.mu.Unlock()
	if granted != 0 {
		t.Fatalf("daemon still has %d pages granted after Close", granted)
	}
	if _, err := ctxA.Alloc(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("context usable after SMA.Close: %v", err)
	}
}
