package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"softmem/internal/alloc"
	"softmem/internal/core"
	"softmem/internal/ipc"
	"softmem/internal/kvstore"
	"softmem/internal/pages"
	"softmem/internal/smd"
)

// workload is one traffic mix with the system it runs against.
type workload struct {
	name  string
	why   string
	setup func(c config, sys *system) (*env, error)
}

// build sets the workload up, traced when t is not nil, and tears down
// whatever a failed set-up had already started.
func (w workload) build(c config, t *taps) (*env, error) {
	sys := &system{taps: t}
	e, err := w.setup(c, sys)
	if err != nil {
		sys.close()
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	return e, nil
}

// The workloads. Names, order and reasons are mirrored in BENCHMARK.json.
var workloads = []workload{
	{"sma_churn", "allocator stress as in the paper: pages, alloc, core and the daemon budget path do all the work; sds, kvstore, RESP and ipc do none", setupChurn},
	{"kv_direct_mixed", "embedded Get/Set mix at Zipf 1.1: writes beside reads on the kvstore and sds code that resp_read_pipelined uses read-only; RESP, smd and ipc idle", setupDirect},
	{"resp_read_pipelined", "one connection at pipeline depth 16, all GET hits: RESP, the Batch engine and lock-free sds reads work; alloc, budget, smd and ipc must show no change", setupResp},
	{"kv_squeeze", "the paper's Fig. 2 as a steady state: an antagonist forces smd to reclaim from the serving store over ipc, so reclaim runs concurrently with depth-1 RESP traffic", setupSqueeze},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// storeOptions mirrors what softkv ships with on two cores: two shards,
// lock-free reads (the default), oldest-first eviction (the default).
func storeOptions(sys *system) []kvstore.Option {
	return []kvstore.Option{kvstore.WithShards(2), kvstore.WithOnReclaim(func(string) { sys.evicted.Add(1) })}
}

// env is one built workload, ready to be driven.
type env struct {
	sys    *system
	driver *driver
	exec   func(ops []op) uint8 // one call of the driver: loop.batch ops
	loop   loop
	warmup int64  // ops replayed untimed by setup
	hash   uint64 // fingerprint of the op stream
	ant    *antagonist
}

// run drives the driver to st and returns the wall time.
func (e *env) run(st stopper, record bool) time.Duration {
	start := time.Now()
	e.driver.drive(st, e.loop, record, e.exec)
	if e.ant != nil {
		e.ant.drain()
	}
	return time.Since(start)
}

func (e *env) warm() {
	if e.warmup > 0 {
		e.run(opsStopper(e.warmup), false)
		e.driver.reads, e.driver.hits = 0, 0 // failures during warm-up still count
	}
}

// sma_churn ------------------------------------------------------------

var churnSizes = [...]uint16{48, 200, 1000, 3000}

// liveRef is one allocation a churn driver holds.
type liveRef struct {
	ref  alloc.Ref
	id   uint32
	size uint16
}

// churnRing generates one period of the oscillating live set: half the ops
// read; the others allocate while the set is below the phase's target and
// free while above, so the set climbs to hi in the first half of the
// period and falls back to lo in the second.
func churnRing(rng *rand.Rand, period, lo, hi int) []op {
	ring := make([]op, period)
	count := lo
	for i := range ring {
		target := hi
		if i >= period/2 {
			target = lo
		}
		o := op{key: rng.Uint32(), size: churnSizes[rng.Intn(len(churnSizes))]}
		switch {
		case rng.Intn(2) == 0:
			o.kind = opRead
		case count <= target:
			o.kind = opWrite
			count++
		default:
			o.kind = opFree
			count--
		}
		ring[i] = o
	}
	return ring
}

func setupChurn(c config, sys *system) (*env, error) {
	t := sys.taps
	const partition = 256 << 20 / pages.Size
	lo, hi, period := 512/c.scale, 4096/c.scale, (1<<16)/c.scale

	sys.machine = pages.NewPool(partition)
	sys.daemon = smd.NewDaemon(smd.Config{TotalPages: partition})
	sma := core.New(core.Config{Machine: sys.machine})
	sys.smas = []*core.SMA{sma}
	sma.AttachDaemon(t.client(sys.daemon.Register("churn", t.target(sma)), noParent))
	sys.onClose(sma.Close)

	rng := rand.New(rand.NewSource(c.seed << 8))
	ring := churnRing(rng, period, lo, hi)
	d := newDriver(ring, c, 10e6/64, t.recorder())
	ctx := sma.Register("churn/0", 0, nil)
	live := make([]liveRef, 0, hi+2)
	var nextID uint32
	allocOne := func(size uint16) {
		nextID++
		ref, err := ctx.AllocData(putValue(d.scratch, uint64(nextID), 0, int(size)))
		if err != nil {
			d.failed++
			return
		}
		live = append(live, liveRef{ref, nextID, size})
	}
	for len(live) < lo {
		allocOne(churnSizes[rng.Intn(len(churnSizes))])
	}
	e := &env{
		sys:    sys,
		driver: d,
		loop:   loop{batch: 1, sampleEvery: 64, spanEvery: 4096, align: int64(period)},
		warmup: int64(4 * period),
		hash:   streamHash(ring),
	}
	e.exec = func(ops []op) uint8 {
		o := ops[0]
		if len(live) == 0 {
			o.kind = opWrite
		}
		switch o.kind {
		case opRead:
			d.reads++
			l := live[int(o.key)%len(live)]
			v, err := ctx.ReadAll(l.ref)
			if err != nil || len(v) != int(l.size) || !checkValue(v, uint64(l.id)) {
				d.failed++
			} else {
				d.hits++
			}
		case opWrite:
			allocOne(o.size)
		case opFree:
			j := int(o.key) % len(live)
			if err := ctx.Free(live[j].ref); err != nil {
				d.failed++
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		return o.kind
	}
	e.warm()
	return e, nil
}

// kv_direct_mixed ------------------------------------------------------

// preload stores the n most popular keys at version 0 with sizes from rng,
// in random order: under oldest-first eviction an entry's age says nothing
// about its popularity once a cache has been serving for a while (a hot
// key is evicted in its turn and comes straight back as the newest), and a
// preload ordered by index or by popularity would take a full turnover of
// the store to forget its order.
func preload(store *kvstore.Store, keys []string, n int, rng *rand.Rand, minSize, maxSize int) error {
	buf := make([]byte, maxValue)
	for _, rank := range rng.Perm(n) {
		k := keyOfRank(uint64(rank), len(keys))
		size := minSize + rng.Intn(maxSize-minSize+1)
		if err := store.Set(keys[k], putValue(buf, uint64(k), 0, size)); err != nil {
			return fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	return nil
}

func setupDirect(c config, sys *system) (*env, error) {
	t := sys.taps
	nKeys, ringLen := 12_000/c.scale, (1<<17)/c.scale

	sys.machine = pages.NewPool(0)
	sma := core.New(core.Config{Machine: sys.machine})
	sys.smas = []*core.SMA{sma}
	sys.store = kvstore.New(sma, storeOptions(sys)...)
	sys.onClose(sma.Close)
	sys.onClose(sys.store.Close)

	keys := keyNames(nKeys)
	if err := preload(sys.store, keys, nKeys, rand.New(rand.NewSource(c.seed<<8+0xff)), 64, 512); err != nil {
		return nil, err
	}
	ring := zipfRing(rand.New(rand.NewSource(c.seed<<8)), ringLen, nKeys, 1.1, 0.5, 64, 512)
	d := newDriver(ring, c, 10e6/64, t.recorder())
	store := sys.store
	e := &env{
		sys:    sys,
		driver: d,
		loop:   loop{batch: 1, sampleEvery: 64, spanEvery: 4096, align: 4096},
		warmup: int64(4 * ringLen),
		hash:   streamHash(ring),
	}
	e.exec = func(ops []op) uint8 {
		o := ops[0]
		if o.kind == opRead {
			d.reads++
			v, ok, err := store.GetAppend(d.dst[:0], keys[o.key])
			// Nothing can be revoked here, so a miss is a failure too.
			if err != nil || !ok || !checkValue(v, uint64(o.key)) {
				d.failed++
			} else {
				d.hits++
			}
		} else if err := store.Set(keys[o.key], putValue(d.scratch, uint64(o.key), uint32(d.total), int(o.size))); err != nil {
			d.failed++
		}
		return o.kind
	}
	e.warm()
	return e, nil
}

// resp_read_pipelined --------------------------------------------------

// serve starts a RESP server for the store on loopback TCP and returns
// its address.
func serve(sys *system) (string, error) {
	srv := kvstore.NewServer(sys.store, quiet)
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve() // returns once Close stops the listener
	}()
	sys.onClose(func() {
		srv.Close()
		<-done
	})
	return addr.String(), nil
}

func dial(sys *system, addr string) (*kvstore.Client, error) {
	cl, err := kvstore.DialClient("tcp", addr)
	if err != nil {
		return nil, err
	}
	sys.onClose(func() { _ = cl.Close() }) // the server is about to go away anyway
	return cl, nil
}

const pipelineDepth = 16

func setupResp(c config, sys *system) (*env, error) {
	t := sys.taps
	nKeys, ringLen := 10_000/c.scale, (1<<17)/c.scale

	sys.machine = pages.NewPool(0)
	sma := core.New(core.Config{Machine: sys.machine})
	sys.smas = []*core.SMA{sma}
	sys.store = kvstore.New(sma, storeOptions(sys)...)
	sys.onClose(sma.Close)
	sys.onClose(sys.store.Close)

	keys := keyNames(nKeys)
	if err := preload(sys.store, keys, nKeys, rand.New(rand.NewSource(c.seed<<8+0xff)), 256, 256); err != nil {
		return nil, err
	}
	addr, err := serve(sys)
	if err != nil {
		return nil, err
	}
	cl, err := dial(sys, addr)
	if err != nil {
		return nil, err
	}
	ring := zipfRing(rand.New(rand.NewSource(c.seed<<8)), ringLen, nKeys, 1.1, 1, 256, 256)
	d := newDriver(ring, c, 100e3, t.recorder())
	pipe := cl.Pipeline()
	var batch []op
	check := func(j int, v []byte, ok bool, err error) {
		if err != nil || !ok || !checkValue(v, uint64(batch[j].key)) {
			d.failed++
		} else {
			d.hits++
		}
	}
	e := &env{
		sys:    sys,
		driver: d,
		loop:   loop{batch: pipelineDepth, sampleEvery: 1, spanEvery: 16, align: pipelineDepth},
		warmup: int64(ringLen),
		hash:   streamHash(ring),
	}
	e.exec = func(ops []op) uint8 {
		batch = ops
		for _, o := range ops {
			pipe.Command("GET", keys[o.key])
		}
		d.reads += int64(len(ops))
		startNs := d.rttStart()
		if err := pipe.Exec(check); err != nil {
			d.failed += int64(len(ops))
		}
		d.rttSpan(startNs)
		return opRead
	}
	e.warm()
	return e, nil
}

// kv_squeeze -----------------------------------------------------------

func quiet(string, ...any) {}

// serveDaemon puts daemon behind an ipc server on an abstract unix socket
// (a unix socket with no file to leave behind) and returns its address.
func serveDaemon(sys *system, daemon *smd.Daemon) (string, error) {
	srv := ipc.NewServer(daemon, quiet)
	sock := fmt.Sprintf("@softmem-bench-%d-%d", os.Getpid(), time.Now().UnixNano())
	if _, err := srv.Listen("unix", sock); err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve() // returns once Close stops the listener
	}()
	sys.onClose(func() {
		srv.Close()
		<-done
	})
	return sock, nil
}

// Antagonist schedule, in steps; the driver triggers one step per
// opsPerStep ops, so the schedule is a function of the op index alone.
const (
	opsPerStep = 100
	cycleSteps = 200 // steps per cycle
	allocSteps = 96  // steps 0..95 of a cycle allocate
	freeStep   = 120 // this step frees everything
)

// antagonist is the second soft-memory process of kv_squeeze: a blob SDS
// that grows in page-sized allocations and gives everything back once a
// cycle. It is a reclaim target too (oldest first), as any SMA is.
type antagonist struct {
	sys    *system
	ctx    *core.Context
	daemon *smd.Daemon
	chunk  int // pages allocated per allocating step

	mu   sync.Mutex // guards refs against Reclaim on the ipc goroutine
	refs []alloc.Ref

	due     chan int64 // step indexes to run, sent by the driver
	pending sync.WaitGroup
	done    chan struct{}

	record      bool
	failed      int64
	steps       int64   // timed steps
	reclaimStep []int32 // durations of timed steps that forced reclamation, ns
}

// Reclaim implements core.Reclaimer. It runs under the context's heap
// lock, on whichever goroutine serves the demand.
func (a *antagonist) Reclaim(tx *core.Tx, quota int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	freed := 0
	for len(a.refs) > 0 && freed < quota {
		if size, err := tx.SlotSize(a.refs[0]); err == nil && tx.Free(a.refs[0]) == nil {
			freed += size
		}
		a.refs = a.refs[1:]
	}
	return freed
}

func (a *antagonist) runStep(n int64) {
	var id uint64
	var startNs int64
	if rec := a.sys.taps.recorder(); rec != nil {
		id, startNs = rec.nextID.Add(1), rec.now()
		a.sys.stepID.Store(id)
	}
	before := a.daemon.Stats().PagesReclaimed
	t := time.Now()
	switch phase := n % cycleSteps; {
	case phase < allocSteps:
		for i := 0; i < a.chunk; i++ {
			ref, err := a.ctx.Alloc(pages.Size)
			if err != nil {
				a.failed++
				break
			}
			a.mu.Lock()
			a.refs = append(a.refs, ref)
			a.mu.Unlock()
		}
	case phase == freeStep:
		a.mu.Lock()
		refs := a.refs
		a.refs = nil
		a.mu.Unlock()
		for _, ref := range refs {
			// A ref the victim's demand reclaimed meanwhile is already gone.
			_ = a.ctx.Free(ref)
		}
	}
	dt := time.Since(t)
	if a.record {
		a.steps++
		if a.daemon.Stats().PagesReclaimed > before {
			a.reclaimStep = append(a.reclaimStep, int32(min(dt, 1<<31-1)))
		}
	}
	if id != 0 {
		a.sys.stepID.Store(0)
		a.sys.taps.rec.addControl(span{ID: id, Name: spanStep, StartNs: startNs, EndNs: startNs + int64(dt)})
	}
}

// loop runs the steps the driver announces, in order, until due is closed.
func (a *antagonist) loop() {
	defer close(a.done)
	for n := range a.due {
		a.runStep(n)
		a.pending.Done()
	}
}

// announce queues step n; drain returns once every queued step has run.
func (a *antagonist) announce(n int64) {
	a.pending.Add(1)
	a.due <- n
}

func (a *antagonist) drain() { a.pending.Wait() }

func setupSqueeze(c config, sys *system) (*env, error) {
	t := sys.taps
	partition := 16 << 20 / pages.Size / c.scale
	nPreload, nKeys, ringLen := 12_000/c.scale, 15_000/c.scale, (1<<19)/c.scale
	const valueSize = 1000

	sys.machine = pages.NewPool(partition)
	sys.daemon = smd.NewDaemon(smd.Config{TotalPages: partition})
	sock, err := serveDaemon(sys, sys.daemon)
	if err != nil {
		return nil, err
	}

	attach := func(name string, parent func() uint64) (*core.SMA, error) {
		sma := core.New(core.Config{Machine: sys.machine})
		cl, err := ipc.Dial("unix", sock, name, t.target(sma), ipc.WithLogf(quiet))
		if err != nil {
			return nil, err
		}
		sma.AttachDaemon(t.client(cl, parent))
		sys.smas = append(sys.smas, sma)
		sys.onClose(func() { _ = cl.Close() }) // the daemon is about to go away anyway
		sys.onClose(sma.Close)
		return sma, nil
	}
	victim, err := attach("victim", sys.parent.Load)
	if err != nil {
		return nil, err
	}
	sys.store = kvstore.New(victim, storeOptions(sys)...)
	sys.onClose(sys.store.Close)
	keys := keyNames(nKeys)
	if err := preload(sys.store, keys, nPreload, rand.New(rand.NewSource(c.seed<<8+0xff)), valueSize, valueSize); err != nil {
		return nil, err
	}
	addr, err := serve(sys)
	if err != nil {
		return nil, err
	}
	cl, err := dial(sys, addr)
	if err != nil {
		return nil, err
	}

	other, err := attach("antagonist", sys.stepID.Load)
	if err != nil {
		return nil, err
	}
	// The step queue holds a full cycle: the driver never waits for the
	// antagonist unless the antagonist falls a whole cycle behind.
	ant := &antagonist{sys: sys, daemon: sys.daemon, chunk: max(16/c.scale, 1), due: make(chan int64, cycleSteps), done: make(chan struct{})}
	ant.ctx = other.Register("antagonist/blob", 0, ant)
	go ant.loop()
	sys.onClose(func() {
		close(ant.due)
		<-ant.done
	})

	ring := zipfRing(rand.New(rand.NewSource(c.seed<<8)), ringLen, nKeys, 1.05, 0.9, valueSize, valueSize)
	d := newDriver(ring, c, 200e3, t.recorder())
	pipe := cl.Pipeline()
	var hit bool
	var cur op
	onGet := func(_ int, v []byte, ok bool, err error) {
		// A revoked entry reads as a miss; whatever does come back must be intact.
		hit = ok
		if err != nil || ok && !checkValue(v, uint64(cur.key)) {
			d.failed++
		}
	}
	onSet := func(_ int, _ []byte, _ bool, err error) {
		if err != nil {
			d.failed++
		}
	}
	roundTrip := func(fn func(int, []byte, bool, error)) {
		startNs := d.rttStart()
		if err := pipe.Exec(fn); err != nil {
			d.failed++
		}
		d.rttSpan(startNs)
	}
	set := func(o op) {
		pipe.Command("SET", keys[o.key], string(putValue(d.scratch, uint64(o.key), uint32(d.total), int(o.size))))
		roundTrip(onSet)
	}
	e := &env{
		sys:    sys,
		driver: d,
		loop:   loop{batch: 1, sampleEvery: 1, spanEvery: 16, align: opsPerStep * cycleSteps},
		warmup: int64(2 * opsPerStep * cycleSteps / c.scale),
		hash:   streamHash(ring),
		ant:    ant,
	}
	e.exec = func(ops []op) uint8 {
		if d.total%opsPerStep == 0 {
			ant.announce(d.total / opsPerStep)
		}
		cur = ops[0]
		sys.parent.Store(d.spanID)
		if cur.kind == opWrite {
			set(cur)
			return opWrite
		}
		d.reads++
		pipe.Command("GET", keys[cur.key])
		roundTrip(onGet)
		if hit {
			d.hits++
		} else {
			// Refill on miss, as a cache in front of a database would. The
			// refill is part of the read the client waited for.
			set(cur)
		}
		return opRead
	}
	e.warm()
	ant.record = true
	return e, nil
}
