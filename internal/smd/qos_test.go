package smd

import (
	"testing"
	"time"

	"softmem/internal/core"
)

// fakeClock is a deterministic Config.Clock: each call returns the
// current time, and Advance moves it.
type fakeClock struct{ t time.Time }

func (f *fakeClock) Now() time.Time          { return f.t }
func (f *fakeClock) Advance(d time.Duration) { f.t = f.t.Add(d) }

func stallUsage(usedPages int, stallNs int64) core.Usage {
	return core.Usage{UsedPages: usedPages, StallNs: stallNs}
}

func TestStallEWMATracksReportsDeterministically(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	d := NewDaemon(Config{TotalPages: 1000, Clock: clk.Now})
	p := d.Register("kv", nil)
	d.SetTenant(p, TenantSpec{Tenant: "frontend", Class: 2, SLOMs: 10})

	// First report baselines; no EWMA movement.
	if err := p.ReportUsage(stallUsage(10, 0)); err != nil {
		t.Fatal(err)
	}
	// One second of wall time, 100ms of stall -> rate 0.1, EWMA 0.05.
	clk.Advance(time.Second)
	if err := p.ReportUsage(stallUsage(10, int64(100*time.Millisecond))); err != nil {
		t.Fatal(err)
	}
	qs := d.QoSSnapshot()
	if len(qs) != 1 {
		t.Fatalf("snapshot len = %d", len(qs))
	}
	if got, want := qs[0].StallRatio, 0.05; got != want {
		t.Fatalf("StallRatio = %v, want %v", got, want)
	}
	// pressure = (1+2) * 0.05 * (100/10) = 1.5
	if got, want := qs[0].Pressure, 1.5; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("Pressure = %v, want %v", got, want)
	}
	// Counter regression (process restart) rebaselines to zero instead
	// of producing a negative rate.
	clk.Advance(time.Second)
	if err := p.ReportUsage(stallUsage(10, 0)); err != nil {
		t.Fatal(err)
	}
	if got := d.QoSSnapshot()[0].StallRatio; got != 0 {
		t.Fatalf("StallRatio after counter regression = %v, want 0", got)
	}
}

// TestQoSVictimOrderPrefersLeastStalled is the tentpole's core behavior:
// with tenants registered, a reclaim cycle demands from the tenant
// stalling least relative to its SLO, not from whoever is biggest.
func TestQoSVictimOrderPrefersLeastStalled(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	d := NewDaemon(Config{TotalPages: 100, ReclaimFactor: 1.0, Clock: clk.Now})

	// The antagonist is SMALLER than the frontend: legacy weight order
	// would pick the frontend (more used pages) first. QoS must invert
	// that, because the frontend is stalling against a tight SLO while
	// the antagonist feels nothing.
	frontend := &fakeTarget{avail: 60}
	pf := d.Register("frontend", frontend)
	d.SetTenant(pf, TenantSpec{Tenant: "frontend", Class: 2, SLOMs: 10})
	if g, _ := pf.RequestBudget(60, stallUsage(60, 0)); g != 60 {
		t.Fatal("setup failed")
	}
	antagonist := &fakeTarget{avail: 30}
	pa := d.Register("antagonist", antagonist)
	d.SetTenant(pa, TenantSpec{Tenant: "batch", Class: 0, SLOMs: 1000})
	if g, _ := pa.RequestBudget(30, stallUsage(30, 0)); g != 30 {
		t.Fatal("setup failed")
	}

	// Frontend reports heavy stall over one second; antagonist none.
	clk.Advance(time.Second)
	if err := pf.ReportUsage(stallUsage(60, int64(500*time.Millisecond))); err != nil {
		t.Fatal(err)
	}
	if err := pa.ReportUsage(stallUsage(30, 0)); err != nil {
		t.Fatal(err)
	}

	// free = 10; needy asks 30 -> need 20 demanded in QoS order.
	needy := d.Register("needy", nil)
	granted, err := needy.RequestBudget(30, stallUsage(0, 0))
	if err != nil || granted != 30 {
		t.Fatalf("granted = %d, err %v", granted, err)
	}
	if len(antagonist.demands) == 0 {
		t.Fatal("antagonist (least pressured) got no demand")
	}
	if len(frontend.demands) != 0 {
		t.Fatalf("frontend (stalling, class 2, tight SLO) was demanded: %v", frontend.demands)
	}
	// The cumulative per-proc counters back the experiment evidence.
	for _, q := range d.QoSSnapshot() {
		switch q.Name {
		case "antagonist":
			if q.ReleasedPages != 20 {
				t.Fatalf("antagonist ReleasedPages = %d, want 20", q.ReleasedPages)
			}
		case "frontend":
			if q.ReleasedPages != 0 {
				t.Fatalf("frontend ReleasedPages = %d, want 0", q.ReleasedPages)
			}
		}
	}
}

// TestQoSColdStartOrdersByClassAndSLO: before any stall accumulates
// every pressure is 0, and ordering must fall back to the static
// (1+class) × (ref/slo) rank — the best-effort tenant is reclaimed
// first even though the frontend is bigger (legacy weight order would
// pick the frontend).
func TestQoSColdStartOrdersByClassAndSLO(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	d := NewDaemon(Config{TotalPages: 100, ReclaimFactor: 1.0, Clock: clk.Now})

	frontend := &fakeTarget{avail: 60}
	pf := d.Register("frontend", frontend)
	d.SetTenant(pf, TenantSpec{Tenant: "frontend", Class: 2, SLOMs: 10})
	if g, _ := pf.RequestBudget(60, stallUsage(60, 0)); g != 60 {
		t.Fatal("setup failed")
	}
	antagonist := &fakeTarget{avail: 30}
	pa := d.Register("antagonist", antagonist)
	d.SetTenant(pa, TenantSpec{Tenant: "batch", Class: 0, SLOMs: 1000})
	if g, _ := pa.RequestBudget(30, stallUsage(30, 0)); g != 30 {
		t.Fatal("setup failed")
	}

	// No stall reports at all: both pressures are exactly 0.
	needy := d.Register("needy", nil)
	if g, err := needy.RequestBudget(30, stallUsage(0, 0)); err != nil || g != 30 {
		t.Fatalf("granted = %d, err %v", g, err)
	}
	if len(antagonist.demands) == 0 {
		t.Fatal("cold start must demand from the loose-SLO class-0 tenant")
	}
	if len(frontend.demands) != 0 {
		t.Fatalf("cold start demanded from the class-2 tight-SLO tenant: %v", frontend.demands)
	}
	// The rendered victim order must match: the snapshot's first row is
	// the process a reclaim cycle would demand from first.
	qs := d.QoSSnapshot()
	if len(qs) < 2 || qs[0].Name != "antagonist" {
		t.Fatalf("QoSSnapshot order = %+v, want antagonist first", qs)
	}
}

// TestQoSStarvationFloor: QoS ordering concentrates demands on one
// victim, so each demand must leave it 1/8 of its footprint.
func TestQoSStarvationFloor(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	d := NewDaemon(Config{TotalPages: 100, ReclaimFactor: 1.0, TargetCap: 1, Clock: clk.Now})

	victim := &fakeTarget{avail: 80}
	pv := d.Register("victim", victim)
	d.SetTenant(pv, TenantSpec{Tenant: "batch", Class: 0})
	if g, _ := pv.RequestBudget(80, stallUsage(80, 0)); g != 80 {
		t.Fatal("setup failed")
	}

	// free = 20; needy asks 100 -> need 80 = victim's whole footprint.
	// The floor caps the demand at 80 - 80/8 = 70, so the request is
	// denied rather than the victim drained to zero.
	needy := d.Register("needy", nil)
	granted, err := needy.RequestBudget(100, stallUsage(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if granted != 0 {
		t.Fatalf("granted = %d, want 0 (starvation floor must deny)", granted)
	}
	if len(victim.demands) != 1 || victim.demands[0] != 70 {
		t.Fatalf("victim demands = %v, want [70]", victim.demands)
	}
	for _, q := range d.QoSSnapshot() {
		if q.Name == "victim" && q.UsedPages < 10 {
			t.Fatalf("victim left with %d pages, floor is 10", q.UsedPages)
		}
	}
}

// TestLegacyOrderWithoutTenants pins the compatibility contract: until
// SetTenant is called, victim selection is the legacy descending-weight
// order even when stall reports are flowing.
func TestLegacyOrderWithoutTenants(t *testing.T) {
	d := NewDaemon(Config{TotalPages: 100, ReclaimFactor: 1.0, TargetCap: 1})
	big := &fakeTarget{avail: 60}
	pb := d.Register("big", big)
	if g, _ := pb.RequestBudget(60, stallUsage(60, int64(time.Hour))); g != 60 {
		t.Fatal("setup failed")
	}
	small := &fakeTarget{avail: 30}
	ps := d.Register("small", small)
	if g, _ := ps.RequestBudget(30, stallUsage(30, 0)); g != 30 {
		t.Fatal("setup failed")
	}
	needy := d.Register("needy", nil)
	if g, _ := needy.RequestBudget(20, stallUsage(0, 0)); g != 20 {
		t.Fatal("grant failed")
	}
	if len(big.demands) == 0 {
		t.Fatal("legacy order must demand from the biggest process")
	}
	if len(small.demands) != 0 {
		t.Fatalf("legacy order demanded from the smaller process: %v", small.demands)
	}
	// No floor either: a full-footprint demand stays possible.
	needy2 := d.Register("needy2", nil)
	if g, _ := needy2.RequestBudget(70, stallUsage(0, 0)); g != 70 {
		t.Fatal("legacy full-footprint reclaim failed")
	}
}

// TestQoSSnapshotListsLegacyOrder: /qos lists the order a reclaim cycle
// uses. With no tenant registered that is descending weight, so the
// bigger process is listed first even while it is the one stalling.
func TestQoSSnapshotListsLegacyOrder(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	d := NewDaemon(Config{TotalPages: 1000, Clock: clk.Now})
	big, small := d.Register("big", nil), d.Register("small", nil)
	for _, stall := range []int64{0, int64(100 * time.Millisecond)} {
		if err := big.ReportUsage(stallUsage(60, stall)); err != nil {
			t.Fatal(err)
		}
		if err := small.ReportUsage(stallUsage(30, 0)); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	qs := d.QoSSnapshot()
	if len(qs) != 2 || qs[0].Name != "big" || qs[0].StallRatio == 0 {
		t.Fatalf("QoSSnapshot = %+v, want the stalling bigger process first", qs)
	}
}

// TestSetTenantClampsClass pins the class clamp.
func TestSetTenantClampsClass(t *testing.T) {
	d := NewDaemon(Config{TotalPages: 10})
	p := d.Register("a", nil)
	d.SetTenant(p, TenantSpec{Tenant: "t", Class: 9})
	if got := d.QoSSnapshot()[0].Class; got != 2 {
		t.Fatalf("Class = %d, want clamp to 2", got)
	}
	d.SetTenant(p, TenantSpec{Tenant: "t", Class: -3})
	if got := d.QoSSnapshot()[0].Class; got != 0 {
		t.Fatalf("Class = %d, want clamp to 0", got)
	}
}
