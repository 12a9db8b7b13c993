package core

import (
	"math/rand"
	"testing"

	"softmem/internal/alloc"
	"softmem/internal/pages"
)

// limboBatch is the heap's drain batch (internal/alloc), which
// TestDrainPolicy pins there.
const limboBatch = 32

// TestEpochRetireDefersAndDrains checks the deferred-free lifecycle
// through the Context layer. A Tx.Free lands in limbo and a lock
// hand-back below the batch leaves it there (no epoch advance, no
// reader-slot scan); limbo drains at exactly three points — the
// hand-back that finds a full batch or any retired span, the allocation
// that would otherwise lease a page, and a demand
// (TestEpochRetireDemandDrain) — and at none of them while a registered
// reader could still observe the bytes.
func TestEpochRetireDefersAndDrains(t *testing.T) {
	pool := pages.NewPool(0)
	s := New(Config{Machine: pool})
	ctx := s.Register("epoch-test", 0, nil)
	defer s.Close()
	ctx.EnableEpochRetire()
	dom := s.Epochs()

	mk := func(size int) alloc.Ref {
		t.Helper()
		ref, err := ctx.AllocData(make([]byte, size))
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	free := func(refs ...alloc.Ref) {
		t.Helper()
		for _, ref := range refs {
			if err := ctx.Do(func(tx *Tx) error { return tx.Free(ref) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	handBack := func() {
		t.Helper()
		if err := ctx.Do(func(*Tx) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	limbo := func() int { return ctx.HeapStats().LimboAllocs }

	// One page of 64-byte slots, all live, so nothing below needs a page
	// until the test says so.
	refs := make([]alloc.Ref, pages.Size/64)
	for i := range refs {
		refs[i] = mk(64)
	}

	// Below the batch: retired, dead to its ref, and left alone.
	epoch0 := dom.Current()
	free(refs[0])
	handBack()
	if st := ctx.HeapStats(); st.LiveAllocs != len(refs)-1 || st.LimboAllocs != 1 {
		t.Fatalf("one retirement should sit in limbo across hand-backs: %+v", st)
	}
	if ctx.Live(refs[0]) {
		t.Fatal("retired ref still validates")
	}
	if dom.Current() != epoch0 {
		t.Fatalf("hand-backs below the batch advanced the epoch %d -> %d", epoch0, dom.Current())
	}

	// The batch-th retirement ratchets — but a registered reader keeps
	// everything it could have observed.
	slot, ok := dom.Enter(1)
	if !ok {
		t.Fatal("Enter failed")
	}
	free(refs[1:limboBatch]...)
	if got := limbo(); got != limboBatch {
		t.Fatalf("limbo = %d with a reader registered, want the whole batch of %d", got, limboBatch)
	}
	dom.Exit(slot)
	handBack()
	if got := limbo(); got != 0 {
		t.Fatalf("limbo = %d after the reader left and a full batch was handed back", got)
	}

	// A retired span holds whole pages: the next hand-back drains it,
	// batch or no batch.
	span := mk(3 * pages.Size)
	held := ctx.HeapStats().PagesHeld
	free(span)
	if st := ctx.HeapStats(); st.LimboAllocs != 0 || st.PagesHeld != held-3 {
		t.Fatalf("retired span survived its hand-back: %+v (held %d before)", st, held)
	}

	// An allocation that would lease a page drains limbo first and takes
	// the slot waiting there.
	for i := range limboBatch {
		refs[i] = mk(64) // the page is full again
	}
	free(refs[0])
	held = ctx.HeapStats().PagesHeld
	mk(64)
	if st := ctx.HeapStats(); st.LimboAllocs != 0 || st.PagesHeld != held {
		t.Fatalf("allocation grew the heap past a drainable limbo: %+v (held %d before)", st, held)
	}
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochLimboBounded: with no reader registered, no sequence of
// operations leaves a whole batch in limbo once it has returned — the
// bound docs/OBSERVABILITY.md gives operators for
// softmem_sma_epoch_limbo_allocs at rest.
func TestEpochLimboBounded(t *testing.T) {
	pool := pages.NewPool(0)
	s := New(Config{Machine: pool})
	defer s.Close()
	var live []alloc.Ref
	take := func(rng *rand.Rand) alloc.Ref {
		i := rng.Intn(len(live))
		ref := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return ref
	}
	rng := rand.New(rand.NewSource(15))
	ctx := s.Register("epoch-bound", 0, reclaimerFunc(func(tx *Tx, quota int) int {
		freed := 0
		for len(live) > 0 && freed < quota {
			ref := take(rng)
			n, _ := tx.SlotSize(ref)
			if err := tx.Free(ref); err != nil {
				t.Errorf("reclaim free: %v", err)
				return freed
			}
			freed += n
		}
		return freed
	}))
	ctx.EnableEpochRetire()

	sizes := []int{16, 100, 1000, 4096, 6000}
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(100); {
		case r < 50 || len(live) == 0:
			ref, err := ctx.AllocData(make([]byte, sizes[rng.Intn(len(sizes))]))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, ref)
		case r < 80:
			if err := ctx.Free(take(rng)); err != nil {
				t.Fatal(err)
			}
		case r < 98:
			// Several retirements inside one locked section.
			err := ctx.Do(func(tx *Tx) error {
				for n := rng.Intn(3 * limboBatch); n > 0 && len(live) > 0; n-- {
					if err := tx.Free(take(rng)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		default:
			s.HandleDemand(1 + rng.Intn(4))
		}
		if st := ctx.HeapStats(); st.LimboAllocs >= limboBatch || st.LimboPages != 0 {
			t.Fatalf("op %d left limbo at %d retirements, %d span pages (batch %d)", op, st.LimboAllocs, st.LimboPages, limboBatch)
		}
	}
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochRetireDemandDrain checks that a reclamation demand drains
// limbo retirements itself (without waiting for application traffic) so
// the pages an epoch-aware SDS gives up actually reach the machine and
// count toward the demand — the invariant that stops the reclaim loop
// from over-evicting past its quota.
func TestEpochRetireDemandDrain(t *testing.T) {
	pool := pages.NewPool(0)
	s := New(Config{Machine: pool})
	defer s.Close()

	var ctx *Context
	refs := make([]alloc.Ref, 0, 32)
	rec := reclaimerFunc(func(tx *Tx, quota int) int {
		freed := 0
		for len(refs) > 0 && freed < quota {
			ref := refs[len(refs)-1]
			refs = refs[:len(refs)-1]
			n, _ := tx.SlotSize(ref)
			if err := tx.Free(ref); err != nil {
				t.Errorf("reclaim free: %v", err)
				return freed
			}
			freed += n
		}
		return freed
	})
	ctx = s.Register("epoch-demand", 0, rec)
	ctx.EnableEpochRetire()

	for i := 0; i < 32; i++ {
		ref, err := ctx.AllocData(make([]byte, 4096))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}

	released := s.HandleDemand(8)
	if released != 8 {
		t.Fatalf("HandleDemand(8) released %d; epoch limbo must drain inside the demand", released)
	}
	// The reclaimer must not have been driven past its quota: 8 pages
	// demanded, 4 KiB values, one page per value plus at most one round
	// of slack.
	if got := 32 - len(refs); got > 9 {
		t.Fatalf("reclaimer over-evicted: freed %d values for an 8-page demand", got)
	}
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// reclaimerFunc adapts a function to the Reclaimer interface for tests.
type reclaimerFunc func(tx *Tx, bytes int) int

func (f reclaimerFunc) Reclaim(tx *Tx, bytes int) int { return f(tx, bytes) }
