package kvstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/pages"
	"softmem/internal/sds"
)

// TestStoreConcurrentSharded hammers a sharded store from many client
// goroutines while a background "daemon" issues reclamation demands and
// a sweeper collects TTLs — the server's real concurrency shape. Run
// with -race.
func TestStoreConcurrentSharded(t *testing.T) {
	machine := pages.NewPool(0)
	sma := core.New(core.Config{Machine: machine})
	st := New(sma, WithShards(8), WithPolicy(sds.EvictLRU))

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			sma.HandleDemand(1 + rng.Intn(6))
			time.Sleep(300 * time.Microsecond)
		}
	}()
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st.SweepExpired()
			_ = st.Stats()
			time.Sleep(time.Millisecond)
		}
	}()

	const (
		workers = 8
		ops     = 1200
		keys    = 512
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			val := make([]byte, 512)
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k-%d", rng.Intn(keys))
				switch rng.Intn(10) {
				case 0, 1, 2:
					if err := st.Set(key, val[:64+rng.Intn(448)]); err != nil {
						t.Errorf("set: %v", err)
						return
					}
				case 3, 4, 5, 6:
					if _, _, err := st.Get(key); err != nil {
						t.Errorf("get: %v", err)
						return
					}
				case 7:
					if _, err := st.Del(key); err != nil {
						t.Errorf("del: %v", err)
						return
					}
				case 8:
					if _, err := st.Incr("ctr-"+key, 1); err != nil {
						// A concurrent Set may have stored non-integer
						// bytes under a ctr key only if keyspaces
						// collide; they don't, so any error is real.
						t.Errorf("incr: %v", err)
						return
					}
				case 9:
					st.Expire(key, time.Duration(rng.Intn(5))*time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	bg.Wait()

	if err := sma.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after churn: %v", err)
	}
	stats := st.Stats()
	if stats.Shards != 8 {
		t.Fatalf("Shards = %d, want 8", stats.Shards)
	}
	if stats.Entries != st.Len() {
		t.Fatalf("Entries = %d, Len = %d", stats.Entries, st.Len())
	}
	st.Close()
	sma.Close()
	if machine.InUse() != 0 {
		t.Fatalf("pages leaked after close: %d", machine.InUse())
	}
}

// TestStoreShardRouting pins down the router: one shard behaves exactly
// like the unsharded store, and a sharded store still finds every key it
// stored, across all whole-store operations.
func TestStoreShardRouting(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		sma := core.New(core.Config{Machine: pages.NewPool(0)})
		st := New(sma, WithShards(shards))
		want := shards
		if want <= 1 {
			want = 1
		} else if want&(want-1) != 0 {
			want = 4 // 3 rounds up to the next power of two
		}
		if got := st.Stats().Shards; got != want {
			t.Fatalf("Shards(%d) = %d, want %d", shards, got, want)
		}
		const n = 200
		for i := 0; i < n; i++ {
			if err := st.Set(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if st.Len() != n {
			t.Fatalf("Len = %d, want %d", st.Len(), n)
		}
		for i := 0; i < n; i++ {
			v, ok, err := st.Get(fmt.Sprintf("key-%d", i))
			if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i) {
				t.Fatalf("get key-%d: %q %v %v", i, v, ok, err)
			}
		}
		ks, err := st.Keys("key-1?")
		if err != nil {
			t.Fatal(err)
		}
		if len(ks) != 10 {
			t.Fatalf("Keys matched %d, want 10", len(ks))
		}
		if err := st.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if st.Len() != 0 {
			t.Fatalf("Len after flush = %d", st.Len())
		}
		st.Close()
		sma.Close()
	}
}
