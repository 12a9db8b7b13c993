package kvstore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/faultinject"
	"softmem/internal/pages"
	"softmem/internal/spill"
)

func newSpillStore(t *testing.T, opts ...Option) (*Store, *core.SMA, *spill.Store) {
	t.Helper()
	sp, err := spill.Open(spill.Config{Dir: t.TempDir(), CompactInterval: -1})
	if err != nil {
		t.Fatalf("spill.Open: %v", err)
	}
	t.Cleanup(sp.Close)
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	sma.SetSpillReporter(sp.BytesOnDisk)
	st := New(sma, append(opts, WithSpill(sp))...)
	t.Cleanup(st.Close)
	return st, sma, sp
}

// TestSpillDemotionRecovery is the spill tier's end-to-end acceptance
// test: fill the store, reclaim deterministically via HandleDemand so a
// known set of keys is demoted, then GET every key and require >= 90%
// of the demoted ones back via transparent promotion.
func TestSpillDemotionRecovery(t *testing.T) {
	var demoted []string
	st, sma, sp := newSpillStore(t, WithOnReclaim(func(k string) { demoted = append(demoted, k) }))

	const keys = 64
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%03d-%s", i, string(make([]byte, 900)))) }
	for i := 0; i < keys; i++ {
		if err := st.Set(fmt.Sprintf("k%03d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if released := sma.HandleDemand(8); released == 0 {
		t.Fatal("demand released nothing")
	}
	if len(demoted) == 0 {
		t.Fatal("no keys were reclaimed")
	}
	if sp.Stats().Demotions < int64(len(demoted)) {
		t.Fatalf("demotions %d < reclaimed %d", sp.Stats().Demotions, len(demoted))
	}

	recovered := 0
	for _, k := range demoted {
		var i int
		fmt.Sscanf(k, "k%03d", &i)
		v, ok, err := st.Get(k)
		if err != nil {
			t.Fatalf("Get %s: %v", k, err)
		}
		if ok && string(v) == string(val(i)) {
			recovered++
		}
	}
	if recovered < (len(demoted)*9+9)/10 {
		t.Fatalf("recovered %d of %d demoted keys, want >= 90%%", recovered, len(demoted))
	}
	stats := st.Stats()
	if stats.Promotions < int64(recovered) {
		t.Fatalf("Promotions = %d, recovered %d", stats.Promotions, recovered)
	}
	// Promoted values are hot again: a second read hits without touching
	// the spill tier further.
	before := sp.Stats().Promotions
	for _, k := range demoted {
		st.Get(k)
	}
	if got := sp.Stats().Promotions; got != before {
		t.Fatalf("second reads promoted again (%d -> %d)", before, got)
	}
	// Undemoted keys never left the hot tier.
	seen := map[string]bool{}
	for _, k := range demoted {
		seen[k] = true
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%03d", i)
		if seen[k] {
			continue
		}
		if v, ok, _ := st.Get(k); !ok || string(v) != string(val(i)) {
			t.Fatalf("untouched key %s lost", k)
		}
	}
}

// TestSpillDisabledDropSemantics pins the default behavior: without a
// spill store, reclaimed entries are dropped exactly as before — every
// demoted key misses and nothing is written anywhere.
func TestSpillDisabledDropSemantics(t *testing.T) {
	var reclaimed []string
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithOnReclaim(func(k string) { reclaimed = append(reclaimed, k) }))
	defer st.Close()

	val := make([]byte, 1024)
	for i := 0; i < 32; i++ {
		if err := st.Set(fmt.Sprintf("k%03d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if released := sma.HandleDemand(4); released == 0 {
		t.Fatal("demand released nothing")
	}
	if len(reclaimed) == 0 {
		t.Fatal("no keys reclaimed")
	}
	for _, k := range reclaimed {
		if _, ok, _ := st.Get(k); ok {
			t.Fatalf("reclaimed key %s found with spill disabled", k)
		}
		if st.Exists(k) {
			t.Fatalf("reclaimed key %s Exists with spill disabled", k)
		}
	}
	stats := st.Stats()
	if stats.Promotions != 0 || stats.SpilledEntries != 0 || stats.Spill != nil {
		t.Fatalf("spill stats leaked into disabled store: %+v", stats)
	}
}

// TestSpillWriteInvalidatesDemoted: a fresh SET and a DEL must both
// supersede a demoted copy.
func TestSpillWriteInvalidatesDemoted(t *testing.T) {
	st, _, sp := newSpillStore(t)
	if err := st.Set("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	// Demote directly through the sink namespace the store uses.
	if err := st.Set("other", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	sink := sp.Sink("kvstore")
	sink.Demote("k", []byte("old")) // as if reclaimed
	if _, err := st.shard("k").ht.Delete("k"); err != nil {
		t.Fatal(err)
	}

	// Overwrite: GET must see the new value, not the spilled one.
	if err := st.Set("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := st.Get("k"); !ok || string(v) != "new" {
		t.Fatalf("Get after overwrite = %q, %v", v, ok)
	}

	// Delete: GET must miss even though a record was once spilled.
	sink.Demote("k", []byte("stale"))
	if existed, _ := st.Del("k"); !existed {
		t.Fatal("Del reported missing")
	}
	if _, ok, _ := st.Get("k"); ok {
		t.Fatal("deleted key resurrected from spill")
	}
	if st.Exists("k") {
		t.Fatal("deleted key Exists via spill")
	}
}

// TestSpillPromotionDeleteRollback walks the promotion of a key that
// lives only on disk step by step: Take, then a write or deletion of the
// key, then the put-back step exactly as sds.PromoteOwned runs it, then
// a GET. Whatever wrote in between is newer than the promotion, so the
// GET reads it and never the promoted value.
func TestSpillPromotionDeleteRollback(t *testing.T) {
	now := time.Unix(1000, 0)
	st, _, sp := newSpillStore(t, WithClock(func() time.Time { return now }))
	sink := sp.Sink("kvstore")
	for _, tc := range []struct {
		name  string
		write func(key string) error
		want  string // "" for a miss
	}{
		{"SET", func(key string) error { return st.Set(key, []byte("new")) }, "new"},
		{"DEL", func(key string) error { _, err := st.Del(key); return err }, ""},
		{"FLUSHALL", func(string) error { return st.FlushAll() }, ""},
		{"expiry sweep", func(string) error {
			now = now.Add(time.Minute)
			st.SweepExpired()
			return nil
		}, ""},
	} {
		key := "k-" + tc.name
		sh := st.shard(key)
		// Set with a deadline, then demote: the key lives only on disk,
		// keeping its TTL as a revoked entry does.
		if err := st.Set(key, []byte("old")); err != nil || !st.Expire(key, 30*time.Second) {
			t.Fatalf("%s: Set/Expire: %v", tc.name, err)
		}
		sink.Demote(key, []byte("old"))
		if _, err := sh.ht.Delete(key); err != nil {
			t.Fatal(err)
		}

		p, ok := sink.Promote(key)
		if !ok {
			t.Fatalf("%s: Promote missed a spilled key", tc.name)
		}
		if !st.Exists(key) {
			t.Fatalf("%s: a key in transit must still exist", tc.name)
		}
		if err := tc.write(key); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		o := sh.ht.Context().Own()
		if err := o.Acquire(); err != nil {
			t.Fatal(err)
		}
		sh.ht.PutBackOwned(o, key, p)
		o.Release()

		v, ok, err := st.Get(key)
		if err != nil || string(v) != tc.want || ok != (tc.want != "") {
			t.Fatalf("%s during a promotion: GET = %q, %v, %v; want %q", tc.name, v, ok, err, tc.want)
		}
	}
}

// TestSpillPromotionSetRace races a GET that promotes a key living
// only on disk against a SET of that key, 20,000 times: once both have
// returned, the key reads as the SET's value. A promotion that put the
// old disk value back over the SET would lose an acknowledged write.
func TestSpillPromotionSetRace(t *testing.T) {
	st, _, sp := newSpillStore(t)
	sink := sp.Sink("kvstore")
	const pairs = 20000
	lost := 0
	for i := 0; i < pairs; i++ {
		key := fmt.Sprintf("k%05d", i)
		sink.Demote(key, []byte("old"))
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); st.Get(key) }()
		go func() {
			defer wg.Done()
			if err := st.Set(key, []byte("new")); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if v, ok, _ := st.Get(key); !ok || string(v) != "new" {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d SETs racing a promotion were lost", lost, pairs)
	}
}

// TestSpillDemoteFault arms the one demotion fault point: a revoked
// entry whose demotion fails is gone — a miss, absent from the spill
// tier, and without the deadline a promotion would otherwise need.
func TestSpillDemoteFault(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	var revoked []string
	st, sma, sp := newSpillStore(t, WithOnReclaim(func(k string) { revoked = append(revoked, k) }))
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("k%02d", i)
		if err := st.Set(k, make([]byte, 2048)); err != nil || !st.Expire(k, time.Hour) {
			t.Fatalf("Set/Expire %s: %v", k, err)
		}
	}
	if err := faultinject.Arm("sds.spill.demote:always:error"); err != nil {
		t.Fatal(err)
	}
	if sma.HandleDemand(2) == 0 || len(revoked) == 0 {
		t.Fatal("demand revoked nothing")
	}
	sink := sp.Sink("kvstore")
	for _, k := range revoked {
		if sink.Contains(k) {
			t.Fatalf("%s reached the spill tier through a failed demotion", k)
		}
		if _, hasTTL := st.shard(k).ttl.remaining(k); hasTTL {
			t.Fatalf("%s kept its deadline after a failed demotion", k)
		}
		if _, ok, _ := st.Get(k); ok {
			t.Fatalf("%s read as a hit after a failed demotion", k)
		}
	}
	if n := sp.Stats().Demotions; n != 0 {
		t.Fatalf("%d demotions with the fault point armed", n)
	}
}

// TestSpillPromotionDeleteRace hammers concurrent GET/DEL over keys
// that live only in the spill tier; whatever the interleaving, a key
// must never survive its deletion.
func TestSpillPromotionDeleteRace(t *testing.T) {
	st, _, sp := newSpillStore(t)
	sink := sp.Sink("kvstore")
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%03d", i)
		sink.Demote(key, []byte("demoted"))
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); st.Get(key) }()
		go func() { defer wg.Done(); st.Del(key) }()
		wg.Wait()
		if _, ok, _ := st.Get(key); ok {
			t.Fatalf("iteration %d: key %q resurrected after Del", i, key)
		}
	}
}

// TestSpillTTLSurvivesDemotion: a TTL set before demotion still expires
// the key — promotion cannot resurrect an expired entry.
func TestSpillTTLSurvivesDemotion(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	var demoted []string
	st, sma, _ := newSpillStore(t, WithClock(clock), WithOnReclaim(func(k string) { demoted = append(demoted, k) }))

	val := make([]byte, 2048)
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("k%02d", i)
		if err := st.Set(k, val); err != nil {
			t.Fatal(err)
		}
		if !st.Expire(k, 30*time.Second) {
			t.Fatalf("Expire %s failed", k)
		}
	}
	if sma.HandleDemand(2) == 0 {
		t.Fatal("demand released nothing")
	}
	if len(demoted) == 0 {
		t.Fatal("nothing demoted")
	}
	k := demoted[0]
	// Before expiry the demoted key still answers (promotion) and keeps
	// its TTL.
	if _, exists, hasTTL := st.TTL(k); !exists || !hasTTL {
		t.Fatalf("TTL lost across demotion: exists=%v hasTTL=%v", exists, hasTTL)
	}
	// After the deadline the key is gone — spill record included.
	now = now.Add(31 * time.Second)
	if _, ok, _ := st.Get(k); ok {
		t.Fatalf("expired key %s served from spill", k)
	}
	if st.Exists(k) {
		t.Fatalf("expired key %s still Exists", k)
	}
}

// TestPerShardStatsAggregate pins the satellite requirement: with
// Shards > 1, store-global totals equal the sum over PerShard.
func TestPerShardStatsAggregate(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithShards(4))
	defer st.Close()

	val := make([]byte, 512)
	for i := 0; i < 100; i++ {
		if err := st.Set(fmt.Sprintf("key-%03d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if sma.HandleDemand(3) == 0 {
		t.Fatal("demand released nothing")
	}
	stats := st.Stats()
	if stats.Shards != 4 || len(stats.PerShard) != 4 {
		t.Fatalf("shards = %d, PerShard len %d", stats.Shards, len(stats.PerShard))
	}
	entries, reclaimed, liveBytes := 0, int64(0), int64(0)
	spread := 0
	for _, sh := range stats.PerShard {
		entries += sh.Entries
		reclaimed += sh.Reclaimed
		liveBytes += sh.Heap.LiveBytes
		if sh.Entries > 0 {
			spread++
		}
	}
	if entries != stats.Entries {
		t.Fatalf("PerShard entries sum %d != Entries %d", entries, stats.Entries)
	}
	if reclaimed != stats.Reclaimed {
		t.Fatalf("PerShard reclaimed sum %d != Reclaimed %d", reclaimed, stats.Reclaimed)
	}
	if liveBytes > stats.Soft.LiveBytes {
		t.Fatalf("PerShard live bytes %d exceed aggregate %d", liveBytes, stats.Soft.LiveBytes)
	}
	if spread < 2 {
		t.Fatalf("keys landed in %d shards; routing broken", spread)
	}
}

// TestSpillDemoteSpanOnTracedDemand asserts the store's reclaim callback
// tags demotions onto the active demand trace: a traced demand returns a
// "spill_demote" span with the demoted record count and payload bytes.
func TestSpillDemoteSpanOnTracedDemand(t *testing.T) {
	st, sma, _ := newSpillStore(t)
	const keys = 64
	for i := 0; i < keys; i++ {
		if err := st.Set(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("value-%03d-%s", i, string(make([]byte, 900))))); err != nil {
			t.Fatal(err)
		}
	}
	released, spans, usage := sma.HandleDemandTraced(8, 123)
	if usage == nil || usage.SpilledBytes == 0 {
		t.Fatalf("traced demand returned no post-demand spill usage: %+v", usage)
	}
	if released == 0 {
		t.Fatal("demand released nothing")
	}
	var demote *core.DemandSpan
	for i := range spans {
		if spans[i].Kind == "spill_demote" {
			demote = &spans[i]
		}
	}
	if demote == nil {
		t.Fatalf("no spill_demote span in %+v", spans)
	}
	if demote.Count == 0 || demote.Bytes == 0 {
		t.Fatalf("empty spill_demote span: %+v", demote)
	}
	if int64(st.Stats().Reclaimed) < int64(demote.Count) {
		t.Fatalf("span counts %d demotions, store reclaimed %d", demote.Count, st.Stats().Reclaimed)
	}
	// Outside a demand, notes are dropped, not leaked into the next trace.
	if err := st.Set("fresh", []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, spans, _ = sma.HandleDemandTraced(0, 124)
	for _, sp := range spans {
		if sp.Kind == "spill_demote" && sp.Count > int(st.Stats().Reclaimed) {
			t.Fatalf("stale note leaked into next trace: %+v", sp)
		}
	}
}
