package kvstore

import (
	"fmt"
	"testing"

	"softmem/internal/core"
	"softmem/internal/pages"
	"softmem/internal/sds"
)

// orderStore is a store of n keys placed round-robin over its shards
// (key i on shard i % Shards), every shard seeing the same sequence of
// value sizes, so that every shard's heap has the same layout. It is
// the fixture for "what is lost does not depend on the shard count".
type orderStore struct {
	st      *Store
	sma     *core.SMA
	keys    []string
	revoked map[string]bool
}

func newOrderStore(t *testing.T, shards int, policy sds.EvictPolicy, n int, sizes []int) *orderStore {
	t.Helper()
	o := &orderStore{revoked: make(map[string]bool)}
	// A heap may keep free pages between demands, but every demand takes
	// them before it asks the store to revoke anything
	// (reclaimFromContext), so no demand revokes more than its pages need.
	o.sma = core.New(core.Config{Machine: pages.NewPool(0)})
	o.st = New(o.sma, WithShards(shards), WithPolicy(policy),
		WithOnReclaim(func(key string) { o.revoked[key] = true }))
	t.Cleanup(o.st.Close)
	for i := 0; i < n; i++ {
		key := ""
		for salt := 0; ; salt++ {
			if key = fmt.Sprintf("k%05d-%d", i, salt); o.st.shardIdx(key) == i%shards {
				break
			}
		}
		o.keys = append(o.keys, key)
		if err := o.st.Set(key, make([]byte, sizes[(i/shards)%len(sizes)])); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// lostPerShard counts the revoked keys by shard.
func (o *orderStore) lostPerShard() []int {
	lost := make([]int, len(o.st.shards))
	for i, key := range o.keys {
		if o.revoked[key] {
			lost[i%len(lost)]++
		}
	}
	return lost
}

// TestReclaimOrderIsStoreWide: a sharded store is N equal-priority
// contexts, and a demand must cost it its oldest entries, not one
// shard's. With 1000-B values (four to a page) a demand of k pages
// revokes exactly the 4k oldest keys at every shard count and under
// both policies — the page-wise victim rule costs no entry more than
// page arithmetic needs, and the tier deal takes the same ages from
// every shard, although two more equal-priority contexts (the store's
// empty hash and list tables) sit in the same tier.
func TestReclaimOrderIsStoreWide(t *testing.T) {
	const n = 960
	for _, policy := range []sds.EvictPolicy{sds.EvictOldest, sds.EvictLRU} {
		for _, shards := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%v/shards=%d", policy, shards), func(t *testing.T) {
				o := newOrderStore(t, shards, policy, n, []int{1000})
				want := 0
				for _, k := range []int{8, 16, 40} {
					if got := o.sma.HandleDemand(k); got != k {
						t.Fatalf("HandleDemand(%d) = %d", k, got)
					}
					want += 4 * k
					for i, key := range o.keys {
						if o.revoked[key] != (i < want) {
							t.Fatalf("after %d pages: key %d revoked = %v; want exactly the %d oldest keys revoked", want/4, i, o.revoked[key], want)
						}
						if o.st.Exists(key) == o.revoked[key] {
							t.Fatalf("key %d: Exists = %v but revoked = %v", i, o.st.Exists(key), o.revoked[key])
						}
					}
				}
				if got := o.st.Stats().Reclaimed; got != int64(want) {
					t.Fatalf("Stats.Reclaimed = %d, want %d", got, want)
				}
				// A demand the shard count does not divide costs every shard
				// one page or two.
				before := o.lostPerShard()
				if got := o.sma.HandleDemand(shards + 1); got != shards+1 {
					t.Fatalf("HandleDemand(%d) = %d", shards+1, got)
				}
				for i, lost := range o.lostPerShard() {
					if paid := lost - before[i]; paid != 4 && paid != 8 {
						t.Fatalf("a demand of %d pages cost shard %d %d entries, want 4 or 8", shards+1, i, paid)
					}
				}
				if err := o.sma.VerifyIntegrity(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestReclaimOrderMixedSizes: with values of several size classes a page
// of one class comes free before an older entry of another class is
// touched only if its own oldest tenant is older still, so the revoked
// set is no longer a plain prefix — but it is the same for every shard:
// an entry's fate depends on its age, never on the shard it hashed to.
func TestReclaimOrderMixedSizes(t *testing.T) {
	sizes := []int{1000, 100, 2000, 1000, 300, 5000, 1000, 40}
	for _, policy := range []sds.EvictPolicy{sds.EvictOldest, sds.EvictLRU} {
		for _, shards := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%v/shards=%d", policy, shards), func(t *testing.T) {
				o := newOrderStore(t, shards, policy, 1600, sizes)
				for _, k := range []int{8, 24} {
					if got := o.sma.HandleDemand(k); got < k {
						t.Fatalf("HandleDemand(%d) = %d", k, got)
					}
					if !o.revoked[o.keys[0]] || o.revoked[o.keys[len(o.keys)-1]] {
						t.Fatalf("oldest key revoked = %v, newest = %v", o.revoked[o.keys[0]], o.revoked[o.keys[len(o.keys)-1]])
					}
					for i, key := range o.keys {
						if first := o.keys[i-i%shards]; o.revoked[key] != o.revoked[first] {
							t.Fatalf("keys %d and %d are the same age on different shards, yet revoked = %v and %v", i, i-i%shards, o.revoked[key], o.revoked[first])
						}
					}
				}
				if err := o.sma.VerifyIntegrity(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestReclaimSparesWhatWasRead: under EvictLRU the store's lock-free GETs
// leave only sampled stamps, and reclaim reads them per page: the oldest
// keys, read since, keep their pages — and so do the unread keys that
// share those pages — while younger unread pages go.
func TestReclaimSparesWhatWasRead(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			o := newOrderStore(t, shards, sds.EvictLRU, 960, []int{1000})
			// One key on each shard's oldest page.
			for _, key := range o.keys[:shards] {
				if _, ok, err := o.st.Get(key); !ok || err != nil {
					t.Fatalf("Get(%s) = %v, %v", key, ok, err)
				}
			}
			if got := o.sma.HandleDemand(8); got != 8 {
				t.Fatalf("HandleDemand(8) = %d", got)
			}
			for i, key := range o.keys {
				// Ranks 0–3 are each shard's first page; the 8 pages come
				// from the next ones.
				want := i >= 4*shards && i < 4*shards+32
				if o.revoked[key] != want {
					t.Fatalf("key %d revoked = %v, want %v: the read keys' pages stay, the next-oldest 32 keys go", i, o.revoked[key], want)
				}
			}
		})
	}
}
