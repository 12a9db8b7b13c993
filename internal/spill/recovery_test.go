package spill

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// reopen closes st and opens a fresh Store over the same directory.
func reopen(t *testing.T, st *Store, cfg Config) *Store {
	t.Helper()
	cfg.Dir = st.cfg.Dir
	st.Close()
	if cfg.CompactInterval == 0 {
		cfg.CompactInterval = -1
	}
	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(st2.Close)
	return st2
}

func TestRecoverRoundTrip(t *testing.T) {
	st := newStore(t, Config{SegmentBytes: 2048})
	want := map[string]string{}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%02d", i)
		v := fmt.Sprintf("value-%02d-%s", i, bytes.Repeat([]byte("p"), 64))
		if err := st.Put("ns", k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// Overwrites and drops must survive restart too.
	if err := st.Put("ns", "k00", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	want["k00"] = "fresh"
	st.Drop("ns", "k01")
	delete(want, "k01")
	if p, _ := st.Take("ns", "k02"); p == nil {
		t.Fatal("Take failed")
	}
	delete(want, "k02")

	st2 := reopen(t, st, Config{SegmentBytes: 2048})
	if got := st2.Len("ns"); got != len(want) {
		t.Fatalf("recovered %d records, want %d", got, len(want))
	}
	for k, v := range want {
		got, ok, err := st2.Get("ns", k)
		if err != nil || !ok || string(got) != v {
			t.Fatalf("recovered %s = %q, %v, %v; want %q", k, got, ok, err, v)
		}
	}
	// Dropped and promoted keys must not resurrect.
	for _, k := range []string{"k01", "k02"} {
		if _, ok, _ := st2.Get("ns", k); ok {
			t.Fatalf("%s resurrected after restart", k)
		}
	}
}

func TestRecoverHalfWrittenRecord(t *testing.T) {
	st := newStore(t, Config{})
	for i := 0; i < 5; i++ {
		if err := st.Put("ns", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash mid-append: tack half a record onto the active
	// segment, bypassing the store.
	st.mu.Lock()
	path := st.active.path
	st.mu.Unlock()
	st.Close()

	cleanSize := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}()
	full, err := appendRecord(nil, record{Namespace: "ns", Key: "torn", Value: bytes.Repeat([]byte("t"), 128)}, -1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := Open(Config{Dir: filepath.Dir(path), CompactInterval: -1})
	if err != nil {
		t.Fatalf("recovery failed on torn tail: %v", err)
	}
	defer st2.Close()
	// All complete records survive; the torn one is gone.
	for i := 0; i < 5; i++ {
		v, ok, err := st2.Get("ns", fmt.Sprintf("k%d", i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d after torn-tail recovery: %q, %v, %v", i, v, ok, err)
		}
	}
	if _, ok, _ := st2.Get("ns", "torn"); ok {
		t.Fatal("half-written record recovered as live")
	}
	// The torn tail was truncated away on disk.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != cleanSize {
		t.Fatalf("torn tail not truncated: segment is %d bytes, want %d", fi.Size(), cleanSize)
	}
	// New writes after recovery go to a fresh segment and persist.
	if err := st2.Put("ns", "after", []byte("crash")); err != nil {
		t.Fatal(err)
	}
	st3 := reopen(t, st2, Config{})
	if v, ok, _ := st3.Get("ns", "after"); !ok || string(v) != "crash" {
		t.Fatalf("post-recovery write lost: %q, %v", v, ok)
	}
}

func TestRecoverCorruptMiddleRecord(t *testing.T) {
	st := newStore(t, Config{CompressMin: -1})
	for i := 0; i < 3; i++ {
		if err := st.Put("ns", fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte('a' + i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	st.mu.Lock()
	path := st.active.path
	st.mu.Unlock()
	st.Close()

	// Flip a byte inside the second record's value region.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := segHeaderSize
	n0, err := recordEnd(data[off:])
	if err != nil {
		t.Fatal(err)
	}
	data[off+n0+recordHeaderSize+8] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Config{Dir: filepath.Dir(path), CompactInterval: -1})
	if err != nil {
		t.Fatalf("recovery failed on corrupt record: %v", err)
	}
	defer st2.Close()
	// Record 0 (before the corruption) survives; records 1 and 2 are
	// behind the corruption point and are dropped with the tail.
	if v, ok, _ := st2.Get("ns", "k0"); !ok || !bytes.Equal(v, bytes.Repeat([]byte{'a'}, 64)) {
		t.Fatalf("k0 lost: %q, %v", v, ok)
	}
	for _, k := range []string{"k1", "k2"} {
		if _, ok, _ := st2.Get("ns", k); ok {
			t.Fatalf("%s survived past a corrupt record", k)
		}
	}
}

// countSegs counts the segment files currently in dir.
func countSegs(t *testing.T, dir string) int {
	t.Helper()
	ids, err := listSegmentIDs(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ids)
}

// TestCompactPreservesTombstonesAcrossRestart pins the crash-durability
// of deletions: compacting a segment that holds a tombstone must not
// discard it while an older surviving segment still holds the shadowed
// record — otherwise recovery re-indexes the old record and the deleted
// key resurrects.
func TestCompactPreservesTombstonesAcrossRestart(t *testing.T) {
	// Geometry (CompressMin -1 keeps record sizes exact): value records
	// are 16+1+1+80 = 98 bytes, tombstones 18, and SegmentBytes 210 fits
	// two value records per segment.
	cfg := Config{SegmentBytes: 210, CompactRatio: 0.9, CompressMin: -1}
	st := newStore(t, cfg)
	val := func(c byte) []byte { return bytes.Repeat([]byte{c}, 80) }
	for _, k := range []string{"a", "b"} { // both land in segment 0
		if err := st.Put("t", k, val(k[0])); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put("t", "c", val('c')); err != nil { // rotates; segment 1
		t.Fatal(err)
	}
	// Both tombstones land in segment 1, leaving it with zero live
	// records — an immediate compaction victim. Segment 0 keeps "b" live
	// and stays below CompactRatio, so "a"'s record survives on disk and
	// only the tombstone keeps it dead.
	st.Drop("t", "c")
	st.Drop("t", "a")
	if err := st.Put("t", "d", val('d')); err != nil { // rotates; seals segment 1
		t.Fatal(err)
	}
	if n := st.Compact(); n != 1 {
		t.Fatalf("Compact() = %d segments, want 1 (the tombstone segment)", n)
	}

	st2 := reopen(t, st, cfg)
	for k, want := range map[string]bool{"a": false, "b": true, "c": false, "d": true} {
		_, ok, err := st2.Get("t", k)
		if err != nil {
			t.Fatalf("Get %s: %v", k, err)
		}
		if ok != want {
			t.Fatalf("after compact+restart, %s found=%v, want %v", k, ok, want)
		}
	}

	// Convergence: once every older segment is gone, preserved tombstones
	// are dropped instead of migrating forever, and the log drains to
	// just the active segment.
	st2.Drop("t", "b")
	st2.Drop("t", "d")
	st2.Compact()
	st3 := reopen(t, st2, cfg)
	st3.Compact()
	for _, k := range []string{"a", "b", "c", "d"} {
		if _, ok, _ := st3.Get("t", k); ok {
			t.Fatalf("%s resurrected after drain", k)
		}
	}
	if n := countSegs(t, st3.cfg.Dir); n != 1 {
		t.Fatalf("log did not drain: %d segment files, want 1 (active)", n)
	}
}

// TestReopenReclaimsEmptySegments: every Open rotates a fresh active
// segment; the previous run's never-written one must be deleted at
// recovery, not accumulate one file (and file descriptor) per restart.
func TestReopenReclaimsEmptySegments(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		st, err := Open(Config{Dir: dir, CompactInterval: -1})
		if err != nil {
			t.Fatalf("Open #%d: %v", i+1, err)
		}
		st.Close()
		if n := countSegs(t, dir); n != 1 {
			t.Fatalf("after open/close #%d: %d segment files, want 1", i+1, n)
		}
	}
}

func TestRecoverEmptyDirAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignore me"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(Config{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatalf("Open over foreign files: %v", err)
	}
	defer st.Close()
	if err := st.Put("ns", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatal("foreign file disturbed")
	}
}
