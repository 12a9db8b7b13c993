package smd

import (
	"testing"

	"softmem/internal/core"
	"softmem/internal/metrics"
	"softmem/internal/pages"
)

// tracedFake is a fakeTarget that implements TracedTarget, recording the
// reclaim ID it was handed and returning canned spans.
type tracedFake struct {
	fakeTarget
	reclaimIDs []uint64
	spans      []core.DemandSpan
	usage      *core.Usage
}

func (f *tracedFake) HandleDemandTraced(pages int, reclaimID uint64) (int, []core.DemandSpan, *core.Usage) {
	f.reclaimIDs = append(f.reclaimIDs, reclaimID)
	return f.fakeTarget.HandleDemand(pages), f.spans, f.usage
}

func TestTraceRecordsReclaimCycle(t *testing.T) {
	var events []Event
	d := NewDaemon(Config{
		TotalPages:    100,
		ReclaimFactor: 1.0,
		OnEvent:       func(ev Event) { events = append(events, ev) },
	})
	victim := &tracedFake{
		fakeTarget: fakeTarget{avail: 80},
		spans: []core.DemandSpan{
			{Kind: "sds", Name: "store", Pages: 30, Allocs: 42},
			{Kind: "spill_demote", Count: 42, Bytes: 1 << 16},
		},
		usage: &core.Usage{UsedPages: 50, SpilledBytes: 1 << 16},
	}
	pv := d.Register("victim", victim)
	if g, _ := pv.RequestBudget(80, usage(80, 0)); g != 80 {
		t.Fatal("setup failed")
	}
	needy := d.Register("needy", nil)
	if g, err := needy.RequestBudget(50, usage(0, 0)); err != nil || g != 50 {
		t.Fatalf("granted = %d, err %v", g, err)
	}

	traces := d.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	tr := traces[0]
	if tr.ID == 0 {
		t.Fatal("trace has no reclaim ID")
	}
	if tr.Requester != needy.ID() || tr.ReqName != "needy" {
		t.Fatalf("requester = %d(%s)", tr.Requester, tr.ReqName)
	}
	if tr.Pages != 50 || tr.Need != 30 {
		t.Fatalf("pages/need = %d/%d, want 50/30", tr.Pages, tr.Need)
	}
	if tr.Outcome != "granted" {
		t.Fatalf("outcome = %q", tr.Outcome)
	}
	if tr.DurNs < 0 {
		t.Fatalf("DurNs = %d", tr.DurNs)
	}
	if len(tr.Hops) != 1 {
		t.Fatalf("hops = %+v, want one demand hop", tr.Hops)
	}
	hop := tr.Hops[0]
	if hop.Kind != "demand" || hop.Proc != pv.ID() || hop.Asked != 30 || hop.Released != 30 {
		t.Fatalf("hop = %+v", hop)
	}
	if len(hop.Spans) != 2 || hop.Spans[0].Kind != "sds" || hop.Spans[1].Kind != "spill_demote" {
		t.Fatalf("spans did not ride back: %+v", hop.Spans)
	}

	// The victim saw the same cycle ID the trace carries.
	if len(victim.reclaimIDs) != 1 || victim.reclaimIDs[0] != tr.ID {
		t.Fatalf("victim saw reclaim IDs %v, trace ID %d", victim.reclaimIDs, tr.ID)
	}
	// The demand response's usage self-report replaced the daemon's
	// decrement estimate, spill footprint included.
	for _, p := range d.Snapshot() {
		if p.ID == pv.ID() {
			if p.Usage.UsedPages != 50 || p.Usage.SpilledBytes != 1<<16 {
				t.Fatalf("ledger did not adopt demand usage: %+v", p.Usage)
			}
		}
	}
	// The cycle's audit events are stamped with it too.
	stamped := 0
	for _, ev := range events {
		if ev.ReclaimID == tr.ID {
			stamped++
		}
	}
	if stamped < 2 { // at least the demand and the grant
		t.Fatalf("only %d events carry reclaim ID %d: %+v", stamped, tr.ID, events)
	}

	// TraceByID round-trips; unknown IDs miss.
	if got, ok := d.TraceByID(tr.ID); !ok || got.ID != tr.ID {
		t.Fatalf("TraceByID(%d) = %+v, %v", tr.ID, got, ok)
	}
	if _, ok := d.TraceByID(tr.ID + 999); ok {
		t.Fatal("TraceByID found a trace that never ran")
	}
}

func TestTraceFastPathRecordsNothing(t *testing.T) {
	d := NewDaemon(Config{TotalPages: 100})
	p := d.Register("a", nil)
	if g, _ := p.RequestBudget(40, usage(0, 0)); g != 40 {
		t.Fatal("grant failed")
	}
	if traces := d.Traces(); len(traces) != 0 {
		t.Fatalf("free-memory grant produced traces: %+v", traces)
	}
}

func TestTraceUntracedTargetFallsBack(t *testing.T) {
	d := NewDaemon(Config{TotalPages: 100, ReclaimFactor: 1.0})
	victim := &fakeTarget{avail: 80} // plain Target, no TracedTarget
	pv := d.Register("victim", victim)
	pv.RequestBudget(80, usage(80, 0))
	needy := d.Register("needy", nil)
	if g, err := needy.RequestBudget(50, usage(0, 0)); err != nil || g != 50 {
		t.Fatalf("granted = %d, err %v", g, err)
	}
	traces := d.Traces()
	if len(traces) != 1 || len(traces[0].Hops) != 1 {
		t.Fatalf("traces = %+v", traces)
	}
	if hop := traces[0].Hops[0]; hop.Released != 30 || len(hop.Spans) != 0 {
		t.Fatalf("fallback hop = %+v", hop)
	}
}

func TestTraceRingWrapsKeepingNewest(t *testing.T) {
	d := NewDaemon(Config{TotalPages: 10, ReclaimFactor: 1.0})
	victim := &tracedFake{fakeTarget: fakeTarget{avail: 1000}}
	pv := d.Register("victim", victim)
	needy := d.Register("needy", nil)
	for i := 0; i < traceLogCap+1; i++ {
		victim.avail = 1000
		if g, _ := pv.RequestBudget(10, usage(10, 0)); g == 0 {
			t.Fatal("victim refill failed")
		}
		if g, err := needy.RequestBudget(5, usage(0, 0)); err != nil || g != 5 {
			t.Fatalf("cycle %d: granted = %d, err %v", i, g, err)
		}
		if err := needy.ReleaseBudget(5, usage(0, 0)); err != nil {
			t.Fatal(err)
		}
		for _, pi := range d.Snapshot() {
			if pi.Name == "victim" && pi.BudgetPages > 0 {
				if err := pv.ReleaseBudget(pi.BudgetPages, usage(0, 0)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	traces := d.Traces()
	if len(traces) != traceLogCap {
		t.Fatalf("ring holds %d traces, want %d", len(traces), traceLogCap)
	}
	for i := 1; i < len(traces); i++ {
		if traces[i-1].ID >= traces[i].ID {
			t.Fatalf("traces out of order: %d, %d", traces[i-1].ID, traces[i].ID)
		}
	}
	if got := d.tracesDropped.Load(); got != 1 {
		t.Fatalf("tracesDropped = %d, want 1 (the oldest of %d cycles)", got, traceLogCap+1)
	}
}

// TestTraceEndToEndWithSMA drives a real reclamation through core.SMA and
// asserts the daemon's trace carries the process-side spans: the full
// SMD -> SMA -> SDS cycle of the acceptance criteria.
func TestTraceEndToEndWithSMA(t *testing.T) {
	const totalPages = 256
	machine := pages.NewPool(totalPages)
	d := NewDaemon(Config{TotalPages: totalPages, ReclaimFactor: 1.0})
	reg := metrics.NewRegistry()
	d.RegisterMetrics(reg)

	smaA := core.New(core.Config{Machine: machine})
	sdsA := &e2eSDS{}
	sdsA.ctx = smaA.Register("store", 0, sdsA)
	smaA.AttachDaemon(d.Register("A", smaA))
	for i := 0; i < totalPages; i++ {
		if err := sdsA.push(4096); err != nil {
			t.Fatalf("A fill: %v", err)
		}
	}

	smaB := core.New(core.Config{Machine: machine})
	sdsB := &e2eSDS{}
	sdsB.ctx = smaB.Register("batch", 0, sdsB)
	smaB.AttachDaemon(d.Register("B", smaB))
	for i := 0; i < totalPages/2; i++ {
		if err := sdsB.push(4096); err != nil {
			t.Fatalf("B alloc %d: %v", i, err)
		}
	}

	traces := d.Traces()
	if len(traces) == 0 {
		t.Fatal("no reclaim cycles traced")
	}
	sawSpan := false
	for _, tr := range traces {
		if tr.Outcome != "granted" {
			continue
		}
		for _, hop := range tr.Hops {
			if hop.Kind != "demand" {
				continue
			}
			for _, sp := range hop.Spans {
				if (sp.Kind == "sds" || sp.Kind == "freepool") && sp.Pages > 0 {
					sawSpan = true
				}
			}
		}
	}
	if !sawSpan {
		t.Fatalf("no demand hop carried a page-releasing span: %+v", traces)
	}

	// The registered reclaim-cycle histogram observed the cycles.
	hist := reg.Histogram("softmem_smd_reclaim_cycle_ns", "")
	if hist.Count() == 0 {
		t.Fatal("reclaim cycle histogram empty after traced cycles")
	}
}
