// Parallel benchmarks for the concurrent SMA hot path: independent SDS
// heaps must scale with GOMAXPROCS now that each Context has its own
// lock and the budget ledger is atomic. Compare across -cpu values:
//
//	go test -bench='Parallel' -cpu 1,2,4,8 -benchmem
//
// BenchmarkParallelKVGetSet vs BenchmarkParallelKVGetSetSingleShard
// isolates the kvstore sharding win specifically.
package softmem

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"softmem/internal/core"
	"softmem/internal/kvstore"
	"softmem/internal/pages"
)

// BenchmarkParallelMultiSDSAllocFree: every worker churns alloc/free on
// its own SDS context. Before the per-Context locking redesign all
// workers serialized on one SMA mutex and this was flat in -cpu.
func BenchmarkParallelMultiSDSAllocFree(b *testing.B) {
	machine := pages.NewPool(0)
	sma := core.New(core.Config{Machine: machine})
	defer sma.Close()
	var widx atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := widx.Add(1)
		ctx := sma.Register(fmt.Sprintf("sds-%d", w), int(w), nil)
		const window = 32
		refs := make([]Ref, 0, window+1)
		for pb.Next() {
			ref, err := ctx.Alloc(1024)
			if err != nil {
				b.Error(err)
				return
			}
			refs = append(refs, ref)
			if len(refs) > window {
				if err := ctx.Free(refs[0]); err != nil {
					b.Error(err)
					return
				}
				refs = refs[1:]
			}
		}
	})
}

// BenchmarkParallelMultiSDSRead: read-mostly traffic against per-worker
// heaps — the SDS lookup fast path under concurrency.
func BenchmarkParallelMultiSDSRead(b *testing.B) {
	machine := pages.NewPool(0)
	sma := core.New(core.Config{Machine: machine})
	defer sma.Close()
	var widx atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := widx.Add(1)
		ctx := sma.Register(fmt.Sprintf("sds-%d", w), int(w), nil)
		const entries = 64
		refs := make([]Ref, entries)
		payload := make([]byte, 1024)
		for i := range refs {
			ref, err := ctx.AllocData(payload)
			if err != nil {
				b.Error(err)
				return
			}
			refs[i] = ref
		}
		buf := make([]byte, 1024)
		i := 0
		for pb.Next() {
			if err := ctx.Read(refs[i%entries], buf, 0); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

func benchParallelKV(b *testing.B, shards int) {
	machine := pages.NewPool(0)
	sma := core.New(core.Config{Machine: machine})
	defer sma.Close()
	store := kvstore.New(sma, kvstore.WithShards(shards))
	defer store.Close()
	const keys = 4096
	val := make([]byte, 512)
	for i := 0; i < keys; i++ {
		if err := store.Set(fmt.Sprintf("key-%d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	var widx atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		seed := int(widx.Add(1))
		i := seed * 7919
		for pb.Next() {
			key := fmt.Sprintf("key-%d", i%keys)
			if i%10 == 0 { // 10% writes, 90% reads: cache-shaped traffic
				if err := store.Set(key, val); err != nil {
					b.Error(err)
					return
				}
			} else {
				if _, _, err := store.Get(key); err != nil {
					b.Error(err)
					return
				}
			}
			i++
		}
	})
}

// BenchmarkParallelKVGetSet: GET/SET against a store sharded across
// GOMAXPROCS soft hash tables (the server's default).
func BenchmarkParallelKVGetSet(b *testing.B) {
	benchParallelKV(b, runtime.GOMAXPROCS(0))
}

// BenchmarkParallelKVGetSetSingleShard: the same traffic against one
// shard — the pre-sharding store layout, for comparison.
func BenchmarkParallelKVGetSetSingleShard(b *testing.B) {
	benchParallelKV(b, 1)
}
