package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"softmem/internal/alloc"
	"softmem/internal/core"
	"softmem/internal/epoch"
	"softmem/internal/ipc"
	"softmem/internal/kvstore"
	"softmem/internal/pages"
	"softmem/internal/sds"
	"softmem/internal/smd"
)

// The ladder replays one canonical mix against each layer's public API,
// bottom rung first, so that a layer's own cost is its rung minus the rung
// below. The mix is the same on every rung: 10 k keys, 256-byte values,
// keys drawn uniformly from the seed.
const (
	ladderKeys  = 10_000
	ladderValue = 256
	ladderChunk = 256 // ops between clock reads
)

// rung measures wall nanoseconds per op with g goroutines running the op
// closures mk builds (one per goroutine, so each may own scratch state)
// for about d. Each closure runs n ops starting at stream position i.
func rung(g int, d time.Duration, mk func(gi int) func(i, n int)) (float64, error) {
	fns := make([]func(i, n int), g)
	for gi := range fns {
		fns[gi] = mk(gi)
	}
	total := make([]int, g)
	errs := make([]error, g)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for gi := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer catch(&errs[gi])
			i := 0
			for ok := true; ok; ok = time.Now().Before(deadline) {
				fns[gi](i, ladderChunk)
				i += ladderChunk
			}
			total[gi] = i
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	ops := 0
	for _, n := range total {
		ops += n
	}
	return float64(wall.Nanoseconds()) / float64(ops), errors.Join(errs...)
}

// medianUS times fn n times and returns the median in microseconds.
func medianUS(n int, fn func()) float64 {
	ns := make([]int32, n)
	for i := range ns {
		t := time.Now()
		fn()
		ns[i] = int32(min(time.Since(t), 1<<31-1))
	}
	return quantileUS(sortedCopy(ns), 0.5)
}

// ladderError is what a rung panics with when the layer under it fails or
// returns a corrupt value; catch turns it back into an error, so a broken
// layer fails the run without crashing the benchmark.
type ladderError struct{ err error }

func must(err error) {
	if err != nil {
		panic(ladderError{err})
	}
}

func corrupt(what string) { panic(ladderError{errors.New(what)}) }

func catch(err *error) {
	switch r := recover().(type) {
	case nil:
	case ladderError:
		*err = fmt.Errorf("ladder: %w", r.err)
	default:
		panic(r)
	}
}

// ladder measures every rung at 1 and 2 goroutines and the self times
// between rungs. c.rung is the time spent per rung and goroutine count.
func ladder(m metrics, c config) (err error) {
	defer catch(&err)
	rng := rand.New(rand.NewSource(c.seed))
	stream := make([]int, 1<<16)
	for i := range stream {
		stream[i] = rng.Intn(ladderKeys)
	}
	at := func(gi, i int) int { return stream[(i+gi*7919)&(len(stream)-1)] }
	keys := keyNames(ladderKeys)
	value := func(k int) []byte { return putValue(make([]byte, maxValue), uint64(k), 0, ladderValue) }

	// One standalone SMA, table, store and server serve the rungs from
	// core upward; budget and daemon traffic have rungs of their own.
	pool := pages.NewPool(0)
	sma := core.New(core.Config{Machine: pool})
	defer sma.Close()
	table := sds.NewSoftHashTable[string](sma, "ladder/sds", sds.HashTableConfig[string]{LockFreeReads: true})
	store := kvstore.New(sma, kvstore.WithShards(2), kvstore.WithName("ladder/kv"))
	defer store.Close()
	for k := range ladderKeys {
		must(table.Put(keys[k], value(k)))
		must(store.Set(keys[k], value(k)))
	}
	sys := &system{store: store}
	defer sys.close()
	addr, err := serve(sys)
	must(err)

	// heapRefs fills one slot per key through put and returns the refs.
	heapRefs := func(put func([]byte) (alloc.Ref, error)) []alloc.Ref {
		refs := make([]alloc.Ref, ladderKeys)
		for k := range refs {
			ref, err := put(value(k))
			must(err)
			refs[k] = ref
		}
		return refs
	}

	// A Heap is single-threaded by contract: one per goroutine over the shared pool.
	newHeap := func() (*alloc.Heap, []alloc.Ref) {
		h := alloc.New(alloc.PoolSource{Pool: pool})
		return h, heapRefs(func(v []byte) (alloc.Ref, error) {
			ref, err := h.Alloc(len(v))
			if err == nil {
				err = h.WriteAt(ref, v, 0)
			}
			return ref, err
		})
	}

	type rungDef struct {
		name string
		unit string
		mk   func(gi int) func(i, n int)
	}
	rungs := []rungDef{
		{"pages.acquire_release_ns", "ns", func(int) func(i, n int) {
			return func(_, n int) {
				for range n {
					p, err := pool.AcquireOne()
					must(err)
					pool.Release(p)
				}
			}
		}},
		{"alloc.alloc_free_ns", "ns", func(gi int) func(i, n int) {
			h, refs := newHeap()
			val := value(0)
			return func(i, n int) {
				for j := range n {
					k := at(gi, i+j)
					must(h.Free(refs[k]))
					ref, err := h.Alloc(ladderValue)
					must(err)
					must(h.WriteAt(ref, val, 0))
					refs[k] = ref
				}
			}
		}},
		{"alloc.read_ns", "ns", func(gi int) func(i, n int) {
			h, refs := newHeap()
			return func(i, n int) {
				for j := range n {
					k := at(gi, i+j)
					b, err := h.Bytes(refs[k])
					if err != nil || !checkValue(b, uint64(k)) {
						corrupt("alloc read corrupt")
					}
				}
			}
		}},
		{"epoch.enter_exit_ns", "ns", func(gi int) func(i, n int) {
			dom := epoch.NewDomain() // the rung needs no SMA behind it
			return func(i, n int) {
				for j := range n {
					if slot, ok := dom.Enter(uint64(at(gi, i+j))); ok {
						dom.Exit(slot)
					}
				}
			}
		}},
		{"core.alloc_free_ns", "ns", func(gi int) func(i, n int) {
			ctx := sma.Register(fmt.Sprintf("ladder/core-af/%d/%d", gi, time.Now().UnixNano()), 0, nil)
			val := value(0)
			refs := heapRefs(ctx.AllocData)
			return func(i, n int) {
				for j := range n {
					k := at(gi, i+j)
					must(ctx.Free(refs[k]))
					ref, err := ctx.AllocData(val)
					must(err)
					refs[k] = ref
				}
			}
		}},
		{"core.read_ns", "ns", func(gi int) func(i, n int) {
			ctx := sma.Register(fmt.Sprintf("ladder/core-rd/%d/%d", gi, time.Now().UnixNano()), 0, nil)
			refs := heapRefs(ctx.AllocData)
			// Read into a scratch buffer, as the sds rung above copies into
			// one; ReadAll would add a Go allocation no upper rung makes.
			b := make([]byte, ladderValue)
			return func(i, n int) {
				for j := range n {
					k := at(gi, i+j)
					if err := ctx.Read(refs[k], b, 0); err != nil || !checkValue(b, uint64(k)) {
						corrupt("core read corrupt")
					}
				}
			}
		}},
		{"sds.put_ns", "ns", func(gi int) func(i, n int) {
			val := value(0)
			return func(i, n int) {
				for j := range n {
					k := at(gi, i+j)
					must(table.Put(keys[k], putValue(val, uint64(k), uint32(i), ladderValue)))
				}
			}
		}},
		{"sds.get_ns", "ns", func(gi int) func(i, n int) {
			dst := make([]byte, 0, maxValue)
			return func(i, n int) {
				for j := range n {
					k := at(gi, i+j)
					v, ok, err := table.GetAppend(dst[:0], keys[k])
					if err != nil || !ok || !checkValue(v, uint64(k)) {
						corrupt("sds get corrupt")
					}
				}
			}
		}},
		{"sds.get_lockfree_ns", "ns", func(gi int) func(i, n int) {
			dst := make([]byte, 0, maxValue)
			return func(i, n int) {
				for j := range n {
					k := at(gi, i+j)
					v, res := table.GetAppendLockFree(dst[:0], keys[k])
					if res != sds.LookupHit || !checkValue(v, uint64(k)) {
						corrupt("sds lock-free get missed")
					}
				}
			}
		}},
		{"kvstore.store.set_ns", "ns", func(gi int) func(i, n int) {
			val := value(0)
			return func(i, n int) {
				for j := range n {
					k := at(gi, i+j)
					must(store.Set(keys[k], putValue(val, uint64(k), uint32(i), ladderValue)))
				}
			}
		}},
		{"kvstore.store.get_ns", "ns", func(gi int) func(i, n int) {
			dst := make([]byte, 0, maxValue)
			return func(i, n int) {
				for j := range n {
					k := at(gi, i+j)
					v, ok, err := store.GetAppend(dst[:0], keys[k])
					if err != nil || !ok || !checkValue(v, uint64(k)) {
						corrupt("store get corrupt")
					}
				}
			}
		}},
		{"kvstore.engine.batch1_get_ns", "ns", func(gi int) func(i, n int) {
			b := store.NewBatch()
			return func(i, n int) {
				for j := range n {
					k := at(gi, i+j)
					b.Reset()
					b.Get(keys[k])
					must(b.Exec())
					if cmd := b.Cmd(0); cmd.Err != nil || !cmd.Ok || !checkValue(cmd.Val, uint64(k)) {
						corrupt("batch get corrupt")
					}
				}
			}
		}},
		{"kvstore.engine.batch16_get_ns", "ns", func(gi int) func(i, n int) {
			b := store.NewBatch()
			return func(i, n int) {
				for j := 0; j < n; j += pipelineDepth {
					b.Reset()
					for q := range pipelineDepth {
						b.Get(keys[at(gi, i+j+q)])
					}
					must(b.Exec())
					for q := range pipelineDepth {
						if cmd := b.Cmd(q); cmd.Err != nil || !cmd.Ok {
							corrupt("batch16 get failed")
						}
					}
				}
			}
		}},
		{"kvstore.engine.batch16_set_ns", "ns", func(gi int) func(i, n int) {
			b := store.NewBatch()
			vals := make([][]byte, pipelineDepth)
			for q := range vals {
				vals[q] = make([]byte, maxValue)
			}
			return func(i, n int) {
				for j := 0; j < n; j += pipelineDepth {
					b.Reset()
					for q := range pipelineDepth {
						k := at(gi, i+j+q)
						b.Set(keys[k], putValue(vals[q], uint64(k), uint32(i), ladderValue))
					}
					must(b.Exec())
					for q := range pipelineDepth {
						must(b.Cmd(q).Err)
					}
				}
			}
		}},
		// One call parses a SET and a GET; one call writes three replies.
		{"kvstore.resp.parse_ns", "ns", func(int) func(i, n int) {
			probe := kvstore.ParseProbe()
			return func(_, n int) {
				for range n {
					probe()
				}
			}
		}},
		{"kvstore.resp.reply_ns", "ns", func(int) func(i, n int) {
			probe := kvstore.ReplyProbe()
			return func(_, n int) {
				for range n {
					probe()
				}
			}
		}},
		{"kvstore.resp.rtt_d1_ns", "ns", func(gi int) func(i, n int) {
			cl, err := dial(sys, addr)
			must(err)
			return func(i, n int) {
				for j := range n {
					k := at(gi, i+j)
					v, ok, err := cl.Get(keys[k])
					if err != nil || !ok || !checkValue([]byte(v), uint64(k)) {
						corrupt("resp get corrupt")
					}
				}
			}
		}},
		{"kvstore.resp.rtt_d16_ns_per_op", "ns", func(gi int) func(i, n int) {
			cl, err := dial(sys, addr)
			must(err)
			pipe := cl.Pipeline()
			check := func(_ int, _ []byte, ok bool, err error) {
				if err != nil || !ok {
					corrupt("pipelined get failed")
				}
			}
			return func(i, n int) {
				for j := 0; j < n; j += pipelineDepth {
					for q := range pipelineDepth {
						pipe.Command("GET", keys[at(gi, i+j+q)])
					}
					must(pipe.Exec(check))
				}
			}
		}},
	}
	ns := map[string]float64{}
	for _, r := range rungs {
		for g := 1; g <= 2; g++ {
			name := fmt.Sprintf("%s.g%d", r.name, g)
			if ns[name], err = rung(g, c.rung, r.mk); err != nil {
				return err
			}
			m.set(name, ns[name], r.unit)
		}
	}
	for _, self := range [][3]string{
		{"core.self_alloc_free_ns", "core.alloc_free_ns", "alloc.alloc_free_ns"},
		{"sds.self_get_ns", "sds.get_ns", "core.read_ns"},
		{"sds.self_put_ns", "sds.put_ns", "core.alloc_free_ns"},
		{"kvstore.store.self_get_ns", "kvstore.store.get_ns", "sds.get_lockfree_ns"},
		{"kvstore.store.self_set_ns", "kvstore.store.set_ns", "sds.put_ns"},
		{"kvstore.engine.self_get_ns", "kvstore.engine.batch1_get_ns", "kvstore.store.get_ns"},
		{"kvstore.resp.self_d16_ns", "kvstore.resp.rtt_d16_ns_per_op", "kvstore.engine.batch16_get_ns"},
	} {
		for _, g := range []string{".g1", ".g2"} {
			m.set(self[0]+g, ns[self[1]+g]-ns[self[2]+g], "ns")
		}
	}

	// Exact Go-heap cost of the embedded path: a fixed count of the
	// canonical Get/Set mix on one goroutine, read off MemStats.
	const heapOps = 1 << 16
	val, dst := value(0), make([]byte, 0, maxValue)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range heapOps {
		k := at(0, i)
		if i&1 == 0 {
			_, _, err = store.GetAppend(dst[:0], keys[k])
		} else {
			err = store.Set(keys[k], putValue(val, uint64(k), uint32(i), ladderValue))
		}
		must(err)
	}
	runtime.ReadMemStats(&after)
	m.set("kvstore.store.go_allocs_per_op", float64(after.Mallocs-before.Mallocs)/heapOps, "1/op")
	m.set("kvstore.store.go_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/heapOps, "B/op")

	ladderDaemon(m, c)
	return nil
}

// ladderDaemon measures the arbitration rungs: a budget request and its
// release against a daemon with a free partition, first in process (smd
// alone) and then over the unix socket (smd plus ipc).
func ladderDaemon(m metrics, c config) {
	const chunk = 64
	calls := max(int(c.rung/(20*time.Microsecond)), 16)
	daemon := smd.NewDaemon(smd.Config{TotalPages: 1 << 16})
	proc := daemon.Register("ladder", nil)
	inproc := medianUS(calls, func() {
		if n, err := proc.RequestBudget(chunk, core.Usage{}); err != nil || n != chunk {
			corrupt("smd denied a request on a free partition")
		}
		must(proc.ReleaseBudget(chunk, core.Usage{}))
	})
	m.set("smd.request_release_us_p50", inproc, "us")

	sys := &system{}
	defer sys.close()
	sock, err := serveDaemon(sys, daemon)
	must(err)
	target := core.New(core.Config{Machine: pages.NewPool(0)})
	defer target.Close()
	cl, err := ipc.Dial("unix", sock, "ladder", target, ipc.WithLogf(quiet))
	must(err)
	defer cl.Close()
	m.set("ipc.report_usage_rtt_us_p50", medianUS(calls, func() { must(cl.ReportUsage(core.Usage{})) }), "us")
	remote := medianUS(calls, func() {
		if n, err := cl.RequestBudget(chunk, core.Usage{}); err != nil || n != chunk {
			corrupt("smd denied a request on a free partition")
		}
		must(cl.ReleaseBudget(chunk, core.Usage{}))
	})
	m.set("ipc.request_release_us_p50", remote, "us")
	m.set("ipc.self_request_us", remote-inproc, "us")
}
