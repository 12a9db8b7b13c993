package sds

import (
	"fmt"
	"sync"
	"testing"

	"softmem/internal/faultinject"
	"softmem/internal/spill"
)

func newTestSink(t *testing.T, ns string) *spill.Sink {
	t.Helper()
	st, err := spill.Open(spill.Config{Dir: t.TempDir(), CompactInterval: -1})
	if err != nil {
		t.Fatalf("spill.Open: %v", err)
	}
	t.Cleanup(st.Close)
	return st.Sink(ns)
}

func TestSpillTablePutGetDelete(t *testing.T) {
	tb := NewSoftSpillTable(newSMA(), "t", newTestSink(t, "t"), HashTableConfig[string]{})
	if err := tb.Put("a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := tb.Get("a"); err != nil || !ok || string(v) != "alpha" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if existed, err := tb.Delete("a"); err != nil || !existed {
		t.Fatalf("Delete = %v, %v", existed, err)
	}
	if _, ok, _ := tb.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
}

func TestSpillTableDemoteAndPromote(t *testing.T) {
	sma := newSMA()
	tb := NewSoftSpillTable(sma, "t", newTestSink(t, "t"), HashTableConfig[string]{})

	val := make([]byte, 3000)
	for i := range val {
		val[i] = byte(i)
	}
	const n = 16
	for i := 0; i < n; i++ {
		if err := tb.Put(fmt.Sprintf("k%02d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if released := sma.HandleDemand(4); released == 0 {
		t.Fatal("demand released nothing")
	}
	spilled := tb.Spilled()
	if spilled == 0 {
		t.Fatal("no entries demoted")
	}
	// Every key — demoted or not — must still answer with its value.
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%02d", i)
		v, ok, err := tb.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get %s = %v, %v", k, ok, err)
		}
		if string(v) != string(val) {
			t.Fatalf("Get %s returned wrong bytes", k)
		}
	}
	if got := tb.Promotions(); got != int64(spilled) {
		t.Fatalf("Promotions = %d, want %d (one per demoted key)", got, spilled)
	}
	if tb.Spilled() != 0 {
		t.Fatalf("%d entries still demoted after full read-back", tb.Spilled())
	}
}

func TestSpillTablePutInvalidatesDemoted(t *testing.T) {
	sink := newTestSink(t, "t")
	tb := NewSoftSpillTable(newSMA(), "t", sink, HashTableConfig[string]{})

	// Simulate a demoted copy, then overwrite hot: the stale record must
	// not be served nor resurrect after a delete of the hot entry.
	sink.Demote("k", []byte("stale"))
	if err := tb.Put("k", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := tb.Get("k"); !ok || string(v) != "fresh" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, err := tb.SoftHashTable.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tb.Get("k"); ok {
		t.Fatal("stale spill record resurrected overwritten key")
	}
}

// TestSpillTablePromotionRace races a Get that promotes a key living
// only on disk against a Put or a Delete of that key, 20,000 times each:
// once both have returned, Get reads the Put's value, or misses after
// the Delete. A promotion that put the old disk value back would lose
// the write or resurrect the deleted key.
func TestSpillTablePromotionRace(t *testing.T) {
	const pairs = 20000
	for _, op := range []string{"put", "delete"} {
		t.Run(op, func(t *testing.T) {
			sink := newTestSink(t, "t")
			tb := NewSoftSpillTable(newSMA(), "t", sink, HashTableConfig[string]{})
			wrong := 0
			for i := 0; i < pairs; i++ {
				key := fmt.Sprintf("k%05d", i)
				sink.Demote(key, []byte("old"))
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); tb.Get(key) }()
				go func() {
					defer wg.Done()
					var err error
					if op == "put" {
						err = tb.Put(key, []byte("new"))
					} else {
						_, err = tb.Delete(key)
					}
					if err != nil {
						t.Error(err)
					}
				}()
				wg.Wait()
				v, ok, _ := tb.Get(key)
				if op == "put" && (!ok || string(v) != "new") || op == "delete" && ok {
					wrong++
				}
			}
			if wrong > 0 {
				t.Fatalf("%d of %d Get/%s pairs ended wrong", wrong, pairs, op)
			}
		})
	}
}

// TestSpillTableDemoteFault arms the one demotion fault point: a
// revoked entry whose demotion fails reads as a miss and is absent from
// the sink, while the user's reclaim hook still runs.
func TestSpillTableDemoteFault(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	sma := newSMA()
	sink := newTestSink(t, "t")
	var revoked []string
	tb := NewSoftSpillTable(sma, "t", sink, HashTableConfig[string]{
		OnReclaim: func(k string, _ []byte) { revoked = append(revoked, k) },
	})
	for i := 0; i < 8; i++ {
		if err := tb.Put(fmt.Sprintf("k%d", i), make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := faultinject.Arm("sds.spill.demote:always:error"); err != nil {
		t.Fatal(err)
	}
	if sma.HandleDemand(2) == 0 || len(revoked) == 0 {
		t.Fatal("demand revoked nothing")
	}
	for _, k := range revoked {
		if sink.Contains(k) {
			t.Fatalf("%s reached the sink through a failed demotion", k)
		}
		if _, ok, _ := tb.Get(k); ok {
			t.Fatalf("%s read as a hit after a failed demotion", k)
		}
	}
}

func TestSpillTableContains(t *testing.T) {
	sink := newTestSink(t, "t")
	tb := NewSoftSpillTable(newSMA(), "t", sink, HashTableConfig[string]{})
	tb.Put("hot", []byte("x"))
	sink.Demote("cold", []byte("y"))
	if !tb.Contains("hot") || !tb.Contains("cold") {
		t.Fatal("Contains missed a tier")
	}
	if tb.Contains("absent") {
		t.Fatal("Contains invented a key")
	}
	// Contains must not promote.
	if tb.Promotions() != 0 {
		t.Fatal("Contains promoted")
	}
}

func TestSpillTableUserReclaimStillRuns(t *testing.T) {
	sma := newSMA()
	var seen []string
	tb := NewSoftSpillTable(sma, "t", newTestSink(t, "t"), HashTableConfig[string]{
		OnReclaim: func(k string, _ []byte) { seen = append(seen, k) },
	})
	val := make([]byte, 4096)
	for i := 0; i < 8; i++ {
		tb.Put(fmt.Sprintf("k%d", i), val)
	}
	if sma.HandleDemand(2) == 0 {
		t.Fatal("demand released nothing")
	}
	if len(seen) == 0 {
		t.Fatal("user OnReclaim not invoked")
	}
	for _, k := range seen {
		if _, ok, _ := tb.Get(k); !ok {
			t.Fatalf("key %s seen by user callback but not demoted", k)
		}
	}
}
