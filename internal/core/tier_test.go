package core

import (
	"fmt"
	"testing"

	"softmem/internal/alloc"
	"softmem/internal/pages"
)

// newTier registers n equal-priority stacks holding pagesEach page-sized
// allocations each.
func newTier(t *testing.T, s *SMA, name string, priority, n, pagesEach int) []*stackSDS {
	t.Helper()
	tier := make([]*stackSDS, n)
	for i := range tier {
		tier[i] = &stackSDS{}
		tier[i].ctx = s.Register(fmt.Sprintf("%s/%d", name, i), priority, tier[i])
		for range pagesEach {
			tier[i].push(t, pages.Size)
		}
	}
	return tier
}

// TestTierDealSharesTheDemand: N contexts of one priority are one victim.
// A demand of k pages costs each of them ⌈k/N⌉ or ⌊k/N⌋ pages, whatever
// their registration order, and the demand is met exactly.
func TestTierDealSharesTheDemand(t *testing.T) {
	const pagesEach = 40
	for _, n := range []int{1, 2, 3, 8} {
		for _, k := range []int{1, 2, 5, 16, 23} {
			s, _, _ := newSMA(0, 10000)
			tier := newTier(t, s, "shard", 0, n, pagesEach)
			if got := s.HandleDemand(k); got != k {
				t.Fatalf("n=%d: HandleDemand(%d) = %d", n, k, got)
			}
			lo, hi := k/n, (k+n-1)/n
			for i, sds := range tier {
				if lost := pagesEach - len(sds.refs); lost < lo || lost > hi {
					t.Errorf("n=%d k=%d: context %d lost %d pages, want %d..%d", n, k, i, lost, lo, hi)
				}
			}
			if err := s.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The context asked first rotates per demand, so the odd page of a run of
// small demands does not always come out of the same one.
func TestTierDealRotatesTheStart(t *testing.T) {
	s, _, _ := newSMA(0, 10000)
	tier := newTier(t, s, "shard", 0, 4, 10)
	for range 8 {
		if got := s.HandleDemand(1); got != 1 {
			t.Fatalf("HandleDemand(1) = %d", got)
		}
	}
	for i, sds := range tier {
		if lost := 10 - len(sds.refs); lost != 2 {
			t.Errorf("context %d lost %d pages to eight one-page demands over four contexts, want 2", i, lost)
		}
	}
}

// A context that runs dry leaves the deal and the others make up its
// share; a context with nothing at all is skipped.
func TestTierDealSkipsTheDry(t *testing.T) {
	s, _, _ := newSMA(0, 10000)
	tier := newTier(t, s, "shard", 0, 4, 20)
	empty := &stackSDS{}
	empty.ctx = s.Register("shard/empty", 0, empty)
	short := &stackSDS{}
	short.ctx = s.Register("shard/short", 0, short)
	short.push(t, pages.Size)
	short.push(t, pages.Size)

	// Six contexts, 30 pages: shares of 5. short has 2, empty none; the
	// 8 pages they owe are dealt over the four that are still giving.
	_, spans, _ := s.HandleDemandTraced(30, 0)
	if len(short.refs) != 0 {
		t.Errorf("short context kept %d allocations", len(short.refs))
	}
	for i, sds := range tier {
		if lost := 20 - len(sds.refs); lost != 7 {
			t.Errorf("context %d lost %d pages, want 7 (5 + 2 of the dry contexts' share)", i, lost)
		}
	}
	total := 0
	for _, sp := range spans {
		if sp.Kind != "sds" || sp.Name == "shard/empty" {
			t.Errorf("unexpected span %+v", sp)
		}
		if int64(sp.Pages) != sp.Allocs {
			t.Errorf("span %q: %d pages for %d page-sized allocations", sp.Name, sp.Pages, sp.Allocs)
		}
		total += sp.Pages
	}
	if total != 30 || len(spans) != 5 {
		t.Fatalf("%d spans carry %d pages, want 5 spans (one per giving context) and 30", len(spans), total)
	}
}

// A lower priority tier is drained to the ground before a higher one is
// touched, and what is left over is dealt across the higher tier.
func TestTierDealDrainsLowerTierFirst(t *testing.T) {
	s, _, _ := newSMA(0, 10000)
	high := newTier(t, s, "high", 5, 2, 10) // registered first, reclaimed last
	low := newTier(t, s, "low", 1, 2, 3)
	if got := s.HandleDemand(4); got != 4 {
		t.Fatalf("HandleDemand(4) = %d", got)
	}
	for i, sds := range high {
		if len(sds.refs) != 10 {
			t.Fatalf("high/%d touched while the low tier still held pages", i)
		}
	}
	if got := s.HandleDemand(6); got != 6 { // 2 left below, 4 from above
		t.Fatalf("HandleDemand(6) = %d", got)
	}
	for i, sds := range low {
		if len(sds.refs) != 0 {
			t.Errorf("low/%d kept %d allocations", i, len(sds.refs))
		}
	}
	for i, sds := range high {
		if lost := 10 - len(sds.refs); lost != 2 {
			t.Errorf("high/%d lost %d pages, want 2", i, lost)
		}
	}
}

// panicSDS frees one allocation and panics.
type panicSDS struct{ stackSDS }

func (p *panicSDS) Reclaim(tx *Tx, bytes int) int {
	p.stackSDS.Reclaim(tx, 1)
	panic("reclaim callback blew up")
}

// A reclaimer that panics costs the tier only its own share: it leaves
// the deal and the rest of the tier covers what it did not give. (The
// page it had emptied stays in its heap for the next demand to take.)
func TestTierDealContainsAPanic(t *testing.T) {
	s, _, _ := newSMA(0, 10000)
	tier := newTier(t, s, "shard", 0, 3, 20)
	bad := &panicSDS{}
	bad.ctx = s.Register("shard/bad", 0, bad)
	for range 20 {
		bad.push(t, pages.Size)
	}
	if got := s.HandleDemand(16); got != 16 {
		t.Fatalf("HandleDemand(16) = %d", got)
	}
	if got := s.Stats().ReclaimPanics; got != 1 {
		t.Fatalf("ReclaimPanics = %d, want 1 (asked once, then out of the deal)", got)
	}
	if lost := 20 - len(bad.refs); lost != 1 {
		t.Errorf("panicking context lost %d pages, want the 1 it freed", lost)
	}
	for i, sds := range tier {
		// 4 each in the first round, then the panicker's 4 over three.
		if lost := 20 - len(sds.refs); lost != 5 && lost != 6 {
			t.Errorf("context %d lost %d pages, want 5 or 6", i, lost)
		}
	}
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// A reclaimer is asked again while its frees have not yet emptied the
// pages asked for, and for no more than is still missing.
func TestReclaimAsksAgainForTheShortfall(t *testing.T) {
	s, _, _ := newSMA(0, 10000)
	// Four 1 KiB slots to a page, freed in an order that empties a page
	// only with every fourth free of a stride: 0, 4, 8, … then 1, 5, 9, …
	var refs []alloc.Ref
	var asks []int
	ctx := s.Register("strided", 0, reclaimerFunc(func(tx *Tx, quota int) int {
		asks = append(asks, quota)
		freed := 0
		for len(refs) > 0 && freed < quota {
			if tx.Free(refs[0]) == nil {
				freed += 1024
			}
			refs = refs[1:]
		}
		return freed
	}))
	var all []alloc.Ref
	for range 32 {
		ref, err := ctx.Alloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ref)
	}
	for stride := range 4 {
		for i := stride; i < len(all); i += 4 {
			refs = append(refs, all[i])
		}
	}
	if got := s.HandleDemand(2); got != 2 {
		t.Fatalf("HandleDemand(2) = %d", got)
	}
	if len(asks) < 2 {
		t.Fatalf("reclaimer asked %d times; its first answer freed no whole page", len(asks))
	}
	for i, q := range asks {
		if q%pages.Size != 0 || q > 2*pages.Size {
			t.Errorf("ask %d was for %d bytes, want whole pages and at most the 2 demanded", i, q)
		}
	}
}

// A reclaimer that reports progress without freeing anything must not
// hold the demand: a round that freed nothing is the last.
func TestReclaimStopsWhenNothingIsFreed(t *testing.T) {
	s, _, _ := newSMA(0, 10000)
	calls := 0
	ctx := s.Register("liar", 0, reclaimerFunc(func(*Tx, int) int {
		calls++
		return pages.Size
	}))
	if _, err := ctx.Alloc(pages.Size); err != nil {
		t.Fatal(err)
	}
	if got := s.HandleDemand(3); got != 0 {
		t.Fatalf("HandleDemand(3) = %d from a reclaimer that frees nothing", got)
	}
	if calls != 1 {
		t.Fatalf("reclaimer called %d times, want 1", calls)
	}
}

// While a reader holds the epoch, retired pages stay in limbo past the
// demand's deadline. They are already paid for in revoked data, so the
// SDS is not asked for them a second time; they come out once the
// reader has gone.
func TestReclaimDoesNotAskTwiceForPagesInLimbo(t *testing.T) {
	s := New(Config{Machine: pages.NewPool(0)})
	defer s.Close()
	var refs []alloc.Ref
	calls := 0
	ctx := s.Register("epoch", 0, reclaimerFunc(func(tx *Tx, quota int) int {
		calls++
		freed := 0
		for len(refs) > 0 && freed < quota {
			if tx.Free(refs[0]) == nil {
				freed += pages.Size
			}
			refs = refs[1:]
		}
		return freed
	}))
	ctx.EnableEpochRetire()
	for range 16 {
		ref, err := ctx.Alloc(pages.Size)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	slot, ok := s.Epochs().Enter(0)
	if !ok {
		t.Fatal("no reader slot")
	}
	if got := s.HandleDemand(4); got != 0 {
		t.Fatalf("HandleDemand(4) = %d with a reader parked in the epoch", got)
	}
	if calls != 1 || len(refs) != 12 {
		t.Fatalf("reclaimer called %d times and left %d of 16 allocations; want one call for 4 pages", calls, len(refs))
	}
	s.Epochs().Exit(slot)
	if got := s.HandleDemand(4); got != 4 || len(refs) != 12 {
		t.Fatalf("after the reader left: released %d, %d allocations left; want the 4 limbo pages and no new victim", got, len(refs))
	}
}

// NoteVictims reaches the context's span, merged over the calls of one
// demand.
func TestDemandSpanCarriesVictimAges(t *testing.T) {
	s, _, _ := newSMA(0, 10000)
	var refs []alloc.Ref
	next := uint64(1)
	ctx := s.Register("aged", 0, reclaimerFunc(func(tx *Tx, quota int) int {
		// One page per call, so a 3-page demand takes three calls.
		if len(refs) == 0 || tx.Free(refs[0]) != nil {
			return 0
		}
		refs = refs[1:]
		tx.NoteVictims(VictimAges{OldestVictim: next, NewestVictim: next, OldestSurvivor: next + 1})
		next++
		return pages.Size
	}))
	for range 5 {
		ref, err := ctx.Alloc(pages.Size)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	_, spans, _ := s.HandleDemandTraced(3, 0)
	if len(spans) != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	want := VictimAges{OldestVictim: 1, NewestVictim: 3, OldestSurvivor: 4}
	if sp := spans[0]; sp.VictimAges != want || sp.Pages != 3 || sp.Allocs != 3 {
		t.Fatalf("span = %+v, want %+v over 3 pages and 3 allocations", sp, want)
	}
}
