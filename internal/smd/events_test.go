package smd

import (
	"testing"

	"softmem/internal/core"
)

func TestEventRingRecordsDecisions(t *testing.T) {
	d := NewDaemon(Config{TotalPages: 100, ReclaimFactor: 1.0})
	victim := &fakeTarget{avail: 80}
	pv := d.Register("victim", victim)
	if g, _ := pv.RequestBudget(80, usage(80, 0)); g != 80 {
		t.Fatal("setup grant failed")
	}
	needy := d.Register("needy", nil)
	if g, _ := needy.RequestBudget(50, usage(0, 0)); g != 50 {
		t.Fatal("demand grant failed")
	}

	evs := d.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	kinds := map[EventKind]int{}
	for i, ev := range evs {
		kinds[ev.Kind]++
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d, want consecutive from 1", i, ev.Seq)
		}
		if ev.KindName != ev.Kind.String() {
			t.Fatalf("KindName %q != Kind %v", ev.KindName, ev.Kind)
		}
	}
	if kinds[EventGrant] < 2 {
		t.Fatalf("want >= 2 grants, got %d (%v)", kinds[EventGrant], kinds)
	}
	if kinds[EventDemand] == 0 {
		t.Fatalf("demand path left no event: %v", kinds)
	}
}

func TestEventRingWrapsKeepingNewest(t *testing.T) {
	d := NewDaemon(Config{TotalPages: 1 << 20})
	p := d.Register("a", nil)
	const n = eventLogCap + 6
	for i := 0; i < n; i++ {
		if g, _ := p.RequestBudget(1, usage(i, 0)); g != 1 {
			t.Fatalf("grant %d failed", i)
		}
	}
	evs := d.Events()
	if len(evs) != eventLogCap {
		t.Fatalf("ring returned %d events, capacity %d", len(evs), eventLogCap)
	}
	for i, ev := range evs {
		if want := uint64(n - eventLogCap + 1 + i); ev.Seq != want {
			t.Fatalf("event %d has Seq %d, want %d (newest %d of %d)", i, ev.Seq, want, eventLogCap, n)
		}
	}
}

func TestEventsAndStatsCarrySpilledBytes(t *testing.T) {
	d := NewDaemon(Config{TotalPages: 100})
	a := d.Register("a", nil)
	b := d.Register("b", nil)
	a.RequestBudget(10, core.Usage{SpilledBytes: 1 << 20})
	b.RequestBudget(10, core.Usage{SpilledBytes: 1 << 10})

	if got := d.Stats().SpilledBytes; got != 1<<20+1<<10 {
		t.Fatalf("Stats.SpilledBytes = %d, want %d", got, 1<<20+1<<10)
	}
	evs := d.Events()
	last := evs[len(evs)-1]
	if last.Name != "b" || last.SpilledBytes != 1<<10 {
		t.Fatalf("last event = %+v, want b's grant stamped with 1024 spilled bytes", last)
	}
}
