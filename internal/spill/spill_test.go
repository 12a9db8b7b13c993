package spill

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

func newStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.CompactInterval == 0 {
		cfg.CompactInterval = -1 // deterministic: tests drive Compact()
	}
	st, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestRecordRoundTrip(t *testing.T) {
	cases := []record{
		{Namespace: "ns", Key: "k", Value: []byte("v")},
		{Namespace: "", Key: "", Value: nil},
		{Namespace: "a", Key: "key", Value: bytes.Repeat([]byte("compressible "), 100)},
		{Namespace: "n", Key: "t", Tombstone: true},
		{Namespace: "bin", Key: string([]byte{0, 1, 255}), Value: []byte{0, 255, 0}},
	}
	for i, want := range cases {
		for _, compressMin := range []int{-1, 0, 1 << 20} {
			buf, err := appendRecord(nil, want, compressMin)
			if err != nil {
				t.Fatalf("case %d: encode: %v", i, err)
			}
			got, n, err := decodeRecord(buf)
			if err != nil {
				t.Fatalf("case %d: decode: %v", i, err)
			}
			if n != len(buf) {
				t.Fatalf("case %d: consumed %d of %d bytes", i, n, len(buf))
			}
			if got.Namespace != want.Namespace || got.Key != want.Key ||
				got.Tombstone != want.Tombstone || !bytes.Equal(got.Value, want.Value) {
				t.Fatalf("case %d (min %d): round trip %+v != %+v", i, compressMin, got, want)
			}
		}
	}
}

func TestRecordCompresses(t *testing.T) {
	v := bytes.Repeat([]byte("aaaaaaaaaa"), 200)
	compressed, err := appendRecord(nil, record{Namespace: "n", Key: "k", Value: v}, 64)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := appendRecord(nil, record{Namespace: "n", Key: "k", Value: v}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(compressed) >= len(raw) {
		t.Fatalf("compressed record %d bytes, raw %d", len(compressed), len(raw))
	}
}

func TestRecordCorruptionDetected(t *testing.T) {
	buf, err := appendRecord(nil, record{Namespace: "n", Key: "k", Value: []byte("value bytes")}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x40
		if _, _, err := decodeRecord(mut); err == nil {
			t.Fatalf("flipped byte %d went undetected", i)
		}
	}
	// A truncated record is partial, not corrupt.
	if _, _, err := decodeRecord(buf[:len(buf)-1]); err != ErrPartial {
		t.Fatalf("truncated record: err = %v, want ErrPartial", err)
	}
}

func TestStorePutGetDrop(t *testing.T) {
	st := newStore(t, Config{})
	if err := st.Put("ns", "k", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := st.Get("ns", "k")
	if err != nil || !ok || string(v) != "hello" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := st.Get("other", "k"); ok {
		t.Fatal("namespaces leaked")
	}
	// Overwrite supersedes.
	if err := st.Put("ns", "k", []byte("world")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := st.Get("ns", "k"); string(v) != "world" {
		t.Fatalf("overwrite: got %q", v)
	}
	if !st.Drop("ns", "k") || st.Drop("ns", "k") {
		t.Fatal("Drop reporting wrong")
	}
	if _, ok, _ := st.Get("ns", "k"); ok {
		t.Fatal("dropped key still readable")
	}
	snap := st.Stats()
	if snap.Demotions != 2 || snap.Hits != 2 || snap.Misses != 2 {
		t.Fatalf("stats: %+v", snap)
	}
}

func TestStoreTake(t *testing.T) {
	st := newStore(t, Config{})
	if err := st.Put("ns", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	p, busy := st.Take("ns", "k")
	if p == nil || busy != nil || string(p.Value) != "v" {
		t.Fatalf("Take = %v, %v", p, busy)
	}
	q, busy := st.Take("ns", "k")
	if q != nil {
		t.Fatal("second Take succeeded")
	}
	if busy == nil {
		t.Fatal("second Take did not report the promotion in flight")
	}
	select {
	case <-busy:
		t.Fatal("a promotion in flight reported itself ended")
	default:
	}
	p.Done()
	<-busy
	if q, busy := st.Take("ns", "k"); q != nil || busy != nil {
		t.Fatalf("Take after Done = %v, %v; want a miss", q, busy)
	}
	if st.Stats().Promotions != 1 {
		t.Fatalf("promotions = %d", st.Stats().Promotions)
	}
}

// TestDropSupersedesPromotion walks the tier-crossing rule: a key in
// transit still counts as present, a Drop or DropAll of it supersedes
// the promotion, and Abort writes the value back only when nothing did.
func TestDropSupersedesPromotion(t *testing.T) {
	st := newStore(t, Config{})
	take := func(key string) *Promotion {
		t.Helper()
		if err := st.Put("ns", key, []byte("v-"+key)); err != nil {
			t.Fatal(err)
		}
		p, _ := st.Take("ns", key)
		if p == nil {
			t.Fatalf("Take %s missed", key)
		}
		return p
	}

	p := take("a")
	if !st.Contains("ns", "a") || p.Superseded() {
		t.Fatal("a key in transit must count as present and start unsuperseded")
	}
	_, busy := st.Take("ns", "a")
	if !st.Drop("ns", "a") || !p.Superseded() || st.Contains("ns", "a") {
		t.Fatal("Drop of a key in transit must report it and supersede the promotion")
	}
	select {
	case <-busy:
	default:
		t.Fatal("a superseding Drop left the promotion's waiters blocked")
	}
	p.Abort()
	if st.Contains("ns", "a") {
		t.Fatal("Abort of a superseded promotion wrote the value back")
	}

	// A Take after the Drop is a new promotion, not the superseded one.
	p = take("a")
	if p.Superseded() {
		t.Fatal("a fresh Take inherited an old Drop")
	}
	p.Abort()
	if v, ok, _ := st.Get("ns", "a"); !ok || string(v) != "v-a" {
		t.Fatalf("Abort did not write the value back: %q, %v", v, ok)
	}

	p, q := take("b"), take("c")
	if err := st.Put("other", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	st.DropAll("ns")
	if !p.Superseded() || !q.Superseded() || st.Len("ns") != 0 {
		t.Fatal("DropAll must drop the namespace and supersede its promotions")
	}
	p.Done()
	q.Done()
	if !st.Contains("other", "b") {
		t.Fatal("DropAll reached another namespace")
	}
}

func TestStoreRotationAndCompaction(t *testing.T) {
	st := newStore(t, Config{SegmentBytes: 2048, CompactRatio: 0.3, CompressMin: -1})
	val := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 40; i++ {
		if err := st.Put("ns", fmt.Sprintf("k%02d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	st.mu.Lock()
	segsBefore := len(st.order)
	st.mu.Unlock()
	if segsBefore < 3 {
		t.Fatalf("expected rotation, have %d segments", segsBefore)
	}
	// Drop most keys: sealed segments go mostly stale.
	for i := 0; i < 36; i++ {
		st.Drop("ns", fmt.Sprintf("k%02d", i))
	}
	if n := st.Compact(); n == 0 {
		t.Fatal("compaction found no victims")
	}
	// Survivors still readable after their records moved.
	for i := 36; i < 40; i++ {
		v, ok, err := st.Get("ns", fmt.Sprintf("k%02d", i))
		if err != nil || !ok || !bytes.Equal(v, val) {
			t.Fatalf("k%02d after compaction: %v %v", i, ok, err)
		}
	}
	if st.Stats().Compactions == 0 {
		t.Fatal("compaction counter not bumped")
	}
	if st.BytesOnDisk() <= 0 {
		t.Fatal("BytesOnDisk not positive")
	}
}

func TestStoreBudgetEviction(t *testing.T) {
	// Budget of ~8 KiB with 2 KiB segments: old segments must be evicted
	// oldest-first as new data arrives.
	st := newStore(t, Config{SegmentBytes: 2048, BudgetBytes: 8192, LowWatermark: 0.75, CompressMin: -1})
	val := bytes.Repeat([]byte{0xAB}, 512)
	for i := 0; i < 64; i++ {
		if err := st.Put("ns", fmt.Sprintf("k%03d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if st.BytesOnDisk() > 8192+2048 {
		t.Fatalf("disk budget not enforced: %d bytes", st.BytesOnDisk())
	}
	snap := st.Stats()
	if snap.EvictedSegments == 0 || snap.EvictedRecords == 0 {
		t.Fatalf("no eviction recorded: %+v", snap)
	}
	// Newest keys survive; oldest were evicted.
	if _, ok, _ := st.Get("ns", "k063"); !ok {
		t.Fatal("newest key evicted")
	}
	if _, ok, _ := st.Get("ns", "k000"); ok {
		t.Fatal("oldest key survived a full budget sweep")
	}
}

// TestDropEnforcesDiskBudget: tombstones appended by delete-heavy
// bursts count against the budget too — Drop must trigger watermark
// eviction, not wait for the next Put.
func TestDropEnforcesDiskBudget(t *testing.T) {
	// One 396-byte record per 400-byte segment; 146-byte tombstones. Six
	// puts total ~2.4 KB (under budget); six drops push past 3000 and
	// must evict.
	st := newStore(t, Config{BudgetBytes: 3000, SegmentBytes: 400, LowWatermark: 0.9, CompressMin: -1})
	longKey := func(i int) string {
		return fmt.Sprintf("key-%03d-%s", i, bytes.Repeat([]byte("k"), 120))
	}
	val := bytes.Repeat([]byte("v"), 250)
	for i := 0; i < 6; i++ {
		if err := st.Put("ns", longKey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.BytesOnDisk(); got > 3000 {
		t.Fatalf("puts alone exceeded budget: %d bytes", got)
	}
	for i := 0; i < 6; i++ {
		st.Drop("ns", longKey(i))
	}
	if got := st.BytesOnDisk(); got > 3000 {
		t.Fatalf("disk budget not enforced on Drop: %d bytes > 3000", got)
	}
	if st.Stats().EvictedSegments == 0 {
		t.Fatal("drops crossed the budget but nothing was evicted")
	}
}

func TestSinkAdapters(t *testing.T) {
	st := newStore(t, Config{})
	sink := st.Sink("sds")
	sink.Demote("a", []byte("va"))
	sink.Demote("7", []byte("v7"))
	if !sink.Contains("a") || sink.Len() != 2 {
		t.Fatalf("sink state wrong: contains=%v len=%d", sink.Contains("a"), sink.Len())
	}
	if p, _ := sink.Promote("a"); p == nil || string(p.Value) != "va" {
		t.Fatalf("Promote = %v", p)
	}
	if p, _ := sink.Promote("7"); p == nil || string(p.Value) != "v7" {
		t.Fatalf("Promote of an index = %v", p)
	}
	if sink.Len() != 0 {
		t.Fatalf("len after promotion = %d", sink.Len())
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	st := newStore(t, Config{SegmentBytes: 4096})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ns := fmt.Sprintf("ns%d", g%2)
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%50)
				switch i % 4 {
				case 0, 1:
					if err := st.Put(ns, key, []byte(key)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 2:
					if v, ok, _ := st.Get(ns, key); ok && string(v) != key {
						t.Errorf("Get %s = %q", key, v)
						return
					}
				case 3:
					if p, _ := st.Take(ns, key); p != nil {
						p.Done()
						if string(p.Value) != key {
							t.Errorf("Take %s = %q", key, p.Value)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st.Compact()
}

func TestStoreClosedErrors(t *testing.T) {
	st := newStore(t, Config{})
	st.Close()
	if err := st.Put("ns", "k", []byte("v")); err != ErrStoreClosed {
		t.Fatalf("Put after close: %v", err)
	}
	if _, _, err := st.Get("ns", "k"); err != ErrStoreClosed {
		t.Fatalf("Get after close: %v", err)
	}
	st.Close() // idempotent
}

func TestSegmentNameRoundTrip(t *testing.T) {
	id, ok := parseSegName(segName(42))
	if !ok || id != 42 {
		t.Fatalf("parseSegName(segName(42)) = %d, %v", id, ok)
	}
	if _, ok := parseSegName("other.seg"); ok {
		t.Fatal("parsed foreign file name")
	}
	if _, ok := parseSegName(filepath.Join("spill-x.seg")); ok {
		t.Fatal("parsed malformed id")
	}
}
