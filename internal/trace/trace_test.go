package trace

import (
	"testing"
	"testing/quick"
	"time"
)

func TestZipfKeysDeterministic(t *testing.T) {
	a := NewZipfKeys(42, 1000, 1.2)
	b := NewZipfKeys(42, 1000, 1.2)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestZipfKeysInRange(t *testing.T) {
	g := NewZipfKeys(1, 100, 1.1)
	for i := 0; i < 10000; i++ {
		if k := g.Next(); k >= 100 {
			t.Fatalf("key %d out of range [0,100)", k)
		}
	}
}

func TestZipfKeysSkewed(t *testing.T) {
	g := NewZipfKeys(7, 10000, 1.3)
	counts := map[uint64]int{}
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[g.Next()]++
	}
	// Key 0 must be far more popular than the median key under Zipf.
	if counts[0] < draws/100 {
		t.Fatalf("key 0 drawn %d times out of %d; distribution not skewed", counts[0], draws)
	}
}

func TestZipfKeysZeroKeyspacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero keyspace")
		}
	}()
	NewZipfKeys(1, 0, 1.1)
}

func TestUniformKeysInRangeAndDeterministic(t *testing.T) {
	a := NewUniformKeys(5, 64)
	b := NewUniformKeys(5, 64)
	for i := 0; i < 1000; i++ {
		ka, kb := a.Next(), b.Next()
		if ka != kb {
			t.Fatal("same seed produced different streams")
		}
		if ka >= 64 {
			t.Fatalf("key %d out of range", ka)
		}
	}
}

func TestSequentialKeysWrap(t *testing.T) {
	g := NewSequentialKeys(3)
	want := []uint64{0, 1, 2, 0, 1}
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Fatalf("draw %d = %d, want %d", i, got, w)
		}
	}
}

func TestKeyFixedWidth(t *testing.T) {
	if len(Key(0)) != len(Key(999999999)) {
		t.Fatal("Key() is not fixed width")
	}
}

func TestDiurnalBounds(t *testing.T) {
	period := 24 * time.Hour
	f := func(sec uint32) bool {
		v := Diurnal(time.Duration(sec)*time.Second, period, 0.2, 1.0)
		return v >= 0.2-1e-9 && v <= 1.0+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiurnalPeakAndTrough(t *testing.T) {
	period := 24 * time.Hour
	peak := Diurnal(0, period, 0.2, 1.0)
	trough := Diurnal(period/2, period, 0.2, 1.0)
	if peak < 0.999 {
		t.Fatalf("peak = %v, want ~1.0", peak)
	}
	if trough > 0.201 {
		t.Fatalf("trough = %v, want ~0.2", trough)
	}
}
