package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"softmem/internal/core"
	"softmem/internal/pages"
	"softmem/internal/sds"
)

func newStore(t *testing.T, machinePages int) (*Store, *core.SMA) {
	t.Helper()
	sma := core.New(core.Config{Machine: pages.NewPool(machinePages)})
	st := New(sma)
	t.Cleanup(st.Close)
	return st, sma
}

func TestStoreSetGetDel(t *testing.T) {
	st, _ := newStore(t, 0)
	if err := st.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := st.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if !st.Exists("k") || st.Exists("nope") {
		t.Fatal("Exists wrong")
	}
	removed, err := st.Del("k")
	if err != nil || !removed {
		t.Fatalf("Del = %v, %v", removed, err)
	}
	if _, ok, _ := st.Get("k"); ok {
		t.Fatal("key survives delete")
	}
	stats := st.Stats()
	if stats.Sets != 1 || stats.Gets != 2 || stats.Hits != 1 || stats.Misses != 1 || stats.Dels != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestStoreFlushAll(t *testing.T) {
	st, _ := newStore(t, 0)
	for i := 0; i < 20; i++ {
		st.Set(string(rune('a'+i)), []byte{byte(i)})
	}
	if err := st.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Fatalf("Len = %d after FlushAll", st.Len())
	}
}

// TestFlushAllClearsDeadlines: a flushed key's deadline goes with it. It
// used to stay in the shard's TTL table and expire whatever was stored
// under that key next.
func TestFlushAllClearsDeadlines(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		now := time.Unix(5000, 0)
		sma := core.New(core.Config{Machine: pages.NewPool(0)})
		st := New(sma, WithShards(shards), WithClock(func() time.Time { return now }))
		defer st.Close()
		if err := st.Set("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if !st.Expire("k", time.Second) {
			t.Fatal("Expire refused")
		}
		if err := st.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if err := st.Set("k", []byte("v2")); err != nil {
			t.Fatal(err)
		}
		if _, exists, hasTTL := st.TTL("k"); !exists || hasTTL {
			t.Fatalf("shards=%d: TTL after FLUSHALL and SET: exists %v, hasTTL %v; want a key with no deadline", shards, exists, hasTTL)
		}
		now = now.Add(2 * time.Second)
		if v, ok, err := st.Get("k"); err != nil || !ok || string(v) != "v2" {
			t.Fatalf("shards=%d: Get past the flushed deadline = %q, %v, %v; want v2", shards, v, ok, err)
		}
	}
}

func TestStoreReclaimReturnsNotFound(t *testing.T) {
	st, sma := newStore(t, 0)
	var evicted []string
	st2 := New(sma, WithName("second"), WithOnReclaim(func(k string) { evicted = append(evicted, k) }))
	defer st2.Close()
	_ = st
	val := make([]byte, 4096)
	for i := 0; i < 8; i++ {
		if err := st2.Set(string(rune('a'+i)), val); err != nil {
			t.Fatal(err)
		}
	}
	released := sma.HandleDemand(2)
	if released != 2 {
		t.Fatalf("released %d", released)
	}
	if len(evicted) != 2 {
		t.Fatalf("evicted %d entries, want 2", len(evicted))
	}
	for _, k := range evicted {
		if _, ok, _ := st2.Get(k); ok {
			t.Fatalf("reclaimed key %q still found", k)
		}
	}
	if st2.Stats().Reclaimed != 2 {
		t.Fatalf("Reclaimed stat = %d", st2.Stats().Reclaimed)
	}
	// Traditional accounting shrank with the evicted keys.
	if got := sma.TraditionalBytes(); got != int64(6*(1+keyOverheadBytes)) {
		t.Fatalf("traditional = %d", got)
	}
}

func TestStoreExhaustionSurfaces(t *testing.T) {
	st, _ := newStore(t, 2) // 8 KiB machine
	val := make([]byte, 4096)
	if err := st.Set("a", val); err != nil {
		t.Fatal(err)
	}
	if err := st.Set("b", val); err != nil {
		t.Fatal(err)
	}
	if err := st.Set("c", val); err == nil {
		t.Fatal("Set beyond machine capacity succeeded without daemon")
	}
}

func startKV(t *testing.T) (*Server, string, *Store, *core.SMA) {
	t.Helper()
	st, sma := newStore(t, 0)
	srv := NewServer(st, func(string, ...any) {})
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(srv.Close)
	return srv, addr.String(), st, sma
}

func TestServerClientRoundtrip(t *testing.T) {
	_, addr, _, _ := startKV(t)
	cli, err := DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if v, _, err := cli.Do("PING"); err != nil || string(v) != "PONG" {
		t.Fatalf("PING = %q, %v", v, err)
	}
	if err := cli.Set("greeting", "hello world"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cli.Get("greeting")
	if err != nil || !ok || v != "hello world" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := cli.Get("absent"); ok {
		t.Fatal("absent key found")
	}
	n, err := cli.DBSize()
	if err != nil || n != 1 {
		t.Fatalf("DBSize = %d, %v", n, err)
	}
	removed, err := cli.Del("greeting", "absent")
	if err != nil || removed != 1 {
		t.Fatalf("Del = %d, %v", removed, err)
	}
	info, _, err := cli.Do("INFO")
	if err != nil || !strings.Contains(string(info), "entries:0") {
		t.Fatalf("INFO = %q, %v", info, err)
	}
	if _, _, err := cli.Do("FLUSHALL"); err != nil {
		t.Fatal(err)
	}
}

func TestServerBinarySafeValues(t *testing.T) {
	_, addr, _, _ := startKV(t)
	cli, err := DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	value := "line1\r\nline2\x00binary\xff"
	if err := cli.Set("bin", value); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cli.Get("bin")
	if err != nil || !ok || v != value {
		t.Fatalf("binary roundtrip = %q, %v, %v", v, ok, err)
	}
}

func TestServerInlineCommands(t *testing.T) {
	_, addr, _, _ := startKV(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	r := bufio.NewReader(nc)
	if _, err := nc.Write([]byte("SET inline works\r\n")); err != nil {
		t.Fatal(err)
	}
	line, _ := r.ReadString('\n')
	if !strings.HasPrefix(line, "+OK") {
		t.Fatalf("inline SET reply = %q", line)
	}
	nc.Write([]byte("GET inline\r\n"))
	line, _ = r.ReadString('\n')
	if !strings.HasPrefix(line, "$5") {
		t.Fatalf("inline GET header = %q", line)
	}
	line, _ = r.ReadString('\n')
	if strings.TrimRight(line, "\r\n") != "works" {
		t.Fatalf("inline GET body = %q", line)
	}
}

func TestServerErrorsAndUnknown(t *testing.T) {
	_, addr, _, _ := startKV(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	r := bufio.NewReader(nc)
	nc.Write([]byte("SET onlykey\r\n"))
	line, _ := r.ReadString('\n')
	if !strings.HasPrefix(line, "-ERR wrong number") {
		t.Fatalf("arity error reply = %q", line)
	}
	nc.Write([]byte("NOSUCHCMD\r\n"))
	line, _ = r.ReadString('\n')
	if !strings.HasPrefix(line, "-ERR unknown command") {
		t.Fatalf("unknown command reply = %q", line)
	}
}

func TestServerReclamationVisibleToClients(t *testing.T) {
	// The paper's Figure 2 client view: after the daemon reclaims from
	// the store, reclaimed keys answer "not found" over the wire.
	_, addr, st, sma := startKV(t)
	cli, err := DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	val := strings.Repeat("x", 2048)
	for i := 0; i < 10; i++ {
		if err := cli.Set(string(rune('a'+i)), val); err != nil {
			t.Fatal(err)
		}
	}
	released := sma.HandleDemand(3)
	if released != 3 {
		t.Fatalf("released %d pages", released)
	}
	// Six oldest entries (a..f) are gone; the rest survive.
	for i := 0; i < 6; i++ {
		if _, ok, _ := cli.Get(string(rune('a' + i))); ok {
			t.Fatalf("key %c survived reclamation", 'a'+i)
		}
	}
	for i := 6; i < 10; i++ {
		v, ok, _ := cli.Get(string(rune('a' + i)))
		if !ok || v != val {
			t.Fatalf("key %c lost or corrupted", 'a'+i)
		}
	}
	if st.Stats().Reclaimed != 6 {
		t.Fatalf("Reclaimed = %d", st.Stats().Reclaimed)
	}
}

func TestCleanupWorkRuns(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithCleanupWork(1000))
	defer st.Close()
	st.Set("k", make([]byte, 4096))
	if released := sma.HandleDemand(1); released != 1 {
		t.Fatalf("released %d", released)
	}
	if st.Stats().Reclaimed != 1 {
		t.Fatal("cleanup path did not run")
	}
}

func TestStoreLRUPolicy(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithPolicy(sds.EvictLRU))
	defer st.Close()
	val := make([]byte, 4096)
	st.Set("old", val)
	st.Set("new", val)
	st.Get("old") // refresh old's recency
	if released := sma.HandleDemand(1); released != 1 {
		t.Fatal("no page released")
	}
	if _, ok, _ := st.Get("old"); !ok {
		t.Fatal("recently-used key evicted under LRU")
	}
	if _, ok, _ := st.Get("new"); ok {
		t.Fatal("LRU key survived")
	}
}

func TestStoreIncrAppendStrLen(t *testing.T) {
	st, _ := newStore(t, 0)
	n, err := st.Incr("counter", 5)
	if err != nil || n != 5 {
		t.Fatalf("Incr = %d, %v", n, err)
	}
	n, err = st.Incr("counter", -2)
	if err != nil || n != 3 {
		t.Fatalf("Incr = %d, %v", n, err)
	}
	st.Set("text", []byte("not a number"))
	if _, err := st.Incr("text", 1); err == nil {
		t.Fatal("Incr on non-integer did not error")
	}
	ln, err := st.Append("log", []byte("hello"))
	if err != nil || ln != 5 {
		t.Fatalf("Append = %d, %v", ln, err)
	}
	ln, err = st.Append("log", []byte(" world"))
	if err != nil || ln != 11 {
		t.Fatalf("Append = %d, %v", ln, err)
	}
	if got := st.StrLen("log"); got != 11 {
		t.Fatalf("StrLen = %d", got)
	}
	if got := st.StrLen("absent"); got != 0 {
		t.Fatalf("StrLen(absent) = %d", got)
	}
}

func TestServerExtendedCommands(t *testing.T) {
	_, addr, _, _ := startKV(t)
	cli, err := DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	do := func(want string, args ...string) {
		t.Helper()
		if v, _, err := cli.Do(args...); err != nil || string(v) != want {
			t.Fatalf("%v = %q, %v; want %q", args, v, err, want)
		}
	}

	do("OK", "MSET", "a", "1", "b", "2", "c", "3")
	// MGET's array reply, byte for byte: a nil bulk string for the miss.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write([]byte("MGET a missing c\r\n"))
	want := "*3\r\n$1\r\n1\r\n$-1\r\n$1\r\n3\r\n"
	got := make([]byte, len(want))
	if _, err := io.ReadFull(bufio.NewReader(nc), got); err != nil || string(got) != want {
		t.Fatalf("MGET replied %q, %v; want %q", got, err, want)
	}

	do("10", "INCRBY", "hits", "10")
	do("7", "INCRBY", "hits", "-3")
	do("3", "APPEND", "a", "23")
	if v, _, _ := cli.Get("a"); v != "123" {
		t.Fatalf("value after append = %q", v)
	}
	do("3", "STRLEN", "a")
	// Arity errors.
	for _, args := range [][]string{{"MSET", "odd"}, {"MGET"}} {
		if _, _, err := cli.Do(args...); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

func TestRunLoadAgainstServer(t *testing.T) {
	_, addr, st, sma := startKV(t)
	res, err := RunLoad(LoadGenConfig{
		Addr: addr, Conns: 2, Requests: 4000,
		ReadFraction: 0.8, Keys: 500, ValueBytes: 128, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gets == 0 || res.Sets == 0 {
		t.Fatalf("ops: gets=%d sets=%d", res.Gets, res.Sets)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput recorded")
	}
	// With refill-on-miss, the hit rate must climb well above zero over
	// a small Zipf keyspace.
	if res.HitRate() < 0.3 {
		t.Fatalf("hit rate %.2f implausibly low", res.HitRate())
	}
	if res.GetLatency.Count() == 0 || res.SetLatency.Count() == 0 {
		t.Fatal("latency histograms empty")
	}
	if st.Len() == 0 {
		t.Fatal("store empty after load")
	}
	_ = sma
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "throughput") {
		t.Fatalf("Fprint = %q", sb.String())
	}
}

func TestRunLoadSurvivesReclamation(t *testing.T) {
	// Reclamation during load: clients see misses, never errors.
	_, addr, _, sma := startKV(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			sma.HandleDemand(4)
			time.Sleep(time.Millisecond)
		}
	}()
	res, err := RunLoad(LoadGenConfig{
		Addr: addr, Conns: 2, Requests: 6000,
		ReadFraction: 0.7, Keys: 300, ValueBytes: 1024, Seed: 9,
	})
	<-done
	if err != nil {
		t.Fatalf("load failed under reclamation: %v", err)
	}
	if res.Misses == 0 {
		t.Fatal("no misses despite concurrent reclamation")
	}
}

func TestRunLoadBadAddr(t *testing.T) {
	if _, err := RunLoad(LoadGenConfig{Addr: "127.0.0.1:1", Requests: 10}); err == nil {
		t.Fatal("load against dead server succeeded")
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithClock(clock))
	defer st.Close()

	st.Set("k", []byte("v"))
	if !st.Expire("k", 10*time.Second) {
		t.Fatal("Expire on existing key returned false")
	}
	if st.Expire("absent", time.Second) {
		t.Fatal("Expire on absent key returned true")
	}
	d, exists, hasTTL := st.TTL("k")
	if !exists || !hasTTL || d != 10*time.Second {
		t.Fatalf("TTL = %v, %v, %v", d, exists, hasTTL)
	}
	// Advance past the deadline: the key lazily expires on access.
	now = now.Add(11 * time.Second)
	if _, ok, _ := st.Get("k"); ok {
		t.Fatal("expired key still readable")
	}
	if st.Exists("k") {
		t.Fatal("expired key still exists")
	}
	if st.Expired() != 1 {
		t.Fatalf("Expired = %d", st.Expired())
	}
	// Soft memory was returned: the entry is gone from the table.
	if st.Len() != 0 {
		t.Fatalf("Len = %d", st.Len())
	}
}

func TestTTLPersist(t *testing.T) {
	now := time.Unix(1000, 0)
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithClock(func() time.Time { return now }))
	defer st.Close()
	st.Set("k", []byte("v"))
	st.Expire("k", 5*time.Second)
	if !st.Persist("k") {
		t.Fatal("Persist returned false")
	}
	now = now.Add(time.Hour)
	if _, ok, _ := st.Get("k"); !ok {
		t.Fatal("persisted key expired")
	}
	if st.Persist("k") {
		t.Fatal("second Persist returned true (no TTL left)")
	}
	if st.Persist("absent") {
		t.Fatal("Persist on absent key returned true")
	}
	_, _, hasTTL := st.TTL("k")
	if hasTTL {
		t.Fatal("TTL survives Persist")
	}
}

func TestTTLSweep(t *testing.T) {
	now := time.Unix(1000, 0)
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithClock(func() time.Time { return now }))
	defer st.Close()
	for i := 0; i < 10; i++ {
		key := string(rune('a' + i))
		st.Set(key, []byte("v"))
		if i < 6 {
			st.Expire(key, time.Duration(i+1)*time.Second)
		}
	}
	now = now.Add(4 * time.Second) // TTLs 1..4s are due
	if n := st.SweepExpired(); n != 4 {
		t.Fatalf("SweepExpired = %d, want 4", n)
	}
	if st.Len() != 6 {
		t.Fatalf("Len = %d after sweep", st.Len())
	}
}

func TestTTLClearedOnDeleteAndReclaim(t *testing.T) {
	now := time.Unix(1000, 0)
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithClock(func() time.Time { return now }))
	defer st.Close()
	st.Set("k", make([]byte, 4096))
	st.Expire("k", time.Second)
	st.Del("k")
	// Re-create: the old TTL must not linger.
	st.Set("k", []byte("v"))
	now = now.Add(time.Hour)
	if _, ok, _ := st.Get("k"); !ok {
		t.Fatal("stale TTL from deleted key expired the new value")
	}
	// Reclamation clears TTLs too.
	st.Set("big", make([]byte, 4096))
	st.Expire("big", time.Second)
	sma.HandleDemand(2) // "k" and "big" each have a page to themselves
	st.Set("big", []byte("fresh"))
	now = now.Add(time.Hour)
	if _, ok, _ := st.Get("big"); !ok {
		t.Fatal("stale TTL from reclaimed key expired the new value")
	}
}

// TestSetDiscardsTTL: a successful SET discards the key's deadline, so
// an acknowledged write is not collected by the TTL of the value it
// replaced — lapsed but never read or swept, or still running.
func TestSetDiscardsTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma, WithClock(func() time.Time { return now }))
	defer st.Close()
	st.Set("k", []byte("v1"))
	st.Expire("k", time.Second)
	now = now.Add(2 * time.Second)
	st.Set("k", []byte("v2"))
	if v, ok, _ := st.Get("k"); !ok || string(v) != "v2" {
		t.Fatalf("GET after SET over a lapsed TTL = %q, %v; the acknowledged write is lost", v, ok)
	}
	st.Set("j", []byte("v1"))
	st.Expire("j", 10*time.Second)
	st.Set("j", []byte("v2"))
	if d, exists, hasTTL := st.TTL("j"); !exists || hasTTL {
		t.Fatalf("TTL after SET = %v, exists %v, hasTTL %v; want no deadline", d, exists, hasTTL)
	}
	// INCR and APPEND modify the value in place and keep its deadline.
	st.Set("n", []byte("1"))
	st.Expire("n", 10*time.Second)
	st.Incr("n", 1)
	st.Append("n", []byte("0"))
	if d, _, hasTTL := st.TTL("n"); !hasTTL || d != 10*time.Second {
		t.Fatalf("TTL after INCR/APPEND = %v, hasTTL %v; want the 10s deadline kept", d, hasTTL)
	}
	if n := st.SweepExpired(); n != 0 || st.Expired() != 0 {
		t.Fatalf("sweep collected %d keys, Expired = %d; nothing is due", n, st.Expired())
	}
}

func TestServerTTLCommands(t *testing.T) {
	_, addr, _, _ := startKV(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	r := bufio.NewReader(nc)
	send := func(line, wantPrefix string) {
		t.Helper()
		nc.Write([]byte(line + "\r\n"))
		got, _ := r.ReadString('\n')
		if !strings.HasPrefix(got, wantPrefix) {
			t.Fatalf("%q replied %q, want prefix %q", line, got, wantPrefix)
		}
	}
	send("SET k v", "+OK")
	send("EXPIRE k 100", ":1")
	send("TTL k", ":100")
	send("PERSIST k", ":1")
	send("TTL k", ":-1")
	send("TTL missing", ":-2")
	send("EXPIRE missing 5", ":0")
	send("EXPIRE k notanumber", "-ERR")
}

func TestKeysGlob(t *testing.T) {
	st, _ := newStore(t, 0)
	for _, k := range []string{"user:1", "user:2", "sess:9", "user:10"} {
		st.Set(k, []byte("x"))
	}
	keys, err := st.Keys("user:*")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != "user:1" || keys[1] != "user:10" || keys[2] != "user:2" {
		t.Fatalf("Keys = %v", keys)
	}
	keys, _ = st.Keys("*")
	if len(keys) != 4 {
		t.Fatalf("Keys(*) = %v", keys)
	}
	keys, _ = st.Keys("sess:?")
	if len(keys) != 1 || keys[0] != "sess:9" {
		t.Fatalf("Keys(sess:?) = %v", keys)
	}
	if _, err := st.Keys("[bad"); err == nil {
		t.Fatal("bad pattern accepted")
	}
}

func TestServerKeysCommand(t *testing.T) {
	_, addr, _, _ := startKV(t)
	cli, err := DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, _, err := cli.Do("MSET", "a:1", "x", "a:2", "y", "b:1", "z"); err != nil {
		t.Fatal(err)
	}
	// KEYS replies with an array; read its header off a raw conn.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	r := bufio.NewReader(nc)
	nc.Write([]byte("KEYS a:*\r\n"))
	hdr, _ := r.ReadString('\n')
	if !strings.HasPrefix(hdr, "*2") {
		t.Fatalf("KEYS header = %q", hdr)
	}
}

func TestHashFieldOps(t *testing.T) {
	st, _ := newStore(t, 0)
	created, err := st.HSet("user:1", "name", []byte("ada"))
	if err != nil || !created {
		t.Fatalf("HSet = %v, %v", created, err)
	}
	created, _ = st.HSet("user:1", "name", []byte("ada lovelace"))
	if created {
		t.Fatal("replace reported as creation")
	}
	st.HSet("user:1", "role", []byte("admin"))
	st.HSet("user:2", "name", []byte("bob"))

	v, ok, err := st.HGet("user:1", "name")
	if err != nil || !ok || string(v) != "ada lovelace" {
		t.Fatalf("HGet = %q, %v, %v", v, ok, err)
	}
	if !st.HExists("user:1", "role") || st.HExists("user:1", "nope") {
		t.Fatal("HExists wrong")
	}
	if st.HLen("user:1") != 2 || st.HLen("user:2") != 1 || st.HLen("absent") != 0 {
		t.Fatalf("HLen = %d/%d/%d", st.HLen("user:1"), st.HLen("user:2"), st.HLen("absent"))
	}
	all, err := st.HGetAll("user:1")
	if err != nil || len(all) != 2 || string(all["role"]) != "admin" {
		t.Fatalf("HGetAll = %v, %v", all, err)
	}
	n, err := st.HDel("user:1", "name", "missing")
	if err != nil || n != 1 {
		t.Fatalf("HDel = %d, %v", n, err)
	}
	if st.HLen("user:1") != 1 {
		t.Fatalf("HLen after HDel = %d", st.HLen("user:1"))
	}
	// Hashes and plain keys do not collide.
	st.Set("user:2", []byte("a-string"))
	v2, ok, _ := st.Get("user:2")
	if !ok || string(v2) != "a-string" {
		t.Fatal("string key clobbered by hash")
	}
	if _, ok, _ := st.HGet("user:2", "name"); !ok {
		t.Fatal("hash field clobbered by string key")
	}
}

func TestHashReclamationCleansFieldIndex(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma)
	defer st.Close()
	val := make([]byte, 4096)
	for i := 0; i < 8; i++ {
		if _, err := st.HSet("obj", fmt.Sprintf("f%d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	released := sma.HandleDemand(4)
	if released != 4 {
		t.Fatalf("released %d", released)
	}
	// The field index shrank with the reclaimed values (callback path).
	if st.HLen("obj") != 4 {
		t.Fatalf("HLen = %d after reclaiming half, want 4", st.HLen("obj"))
	}
	all, err := st.HGetAll("obj")
	if err != nil || len(all) != 4 {
		t.Fatalf("HGetAll = %d fields, %v", len(all), err)
	}
	if st.Stats().Reclaimed != 4 {
		t.Fatalf("Reclaimed = %d", st.Stats().Reclaimed)
	}
}

func TestServerHashCommands(t *testing.T) {
	_, addr, _, _ := startKV(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	r := bufio.NewReader(nc)
	send := func(line, wantPrefix string) {
		t.Helper()
		nc.Write([]byte(line + "\r\n"))
		got, _ := r.ReadString('\n')
		if !strings.HasPrefix(got, wantPrefix) {
			t.Fatalf("%q replied %q, want prefix %q", line, got, wantPrefix)
		}
	}
	send("HSET h f1 v1", ":1")
	send("HSET h f1 v1b", ":0")
	send("HSET h f2 v2", ":1")
	send("HLEN h", ":2")
	send("HEXISTS h f1", ":1")
	send("HEXISTS h nope", ":0")
	send("HGET h f1", "$3")
	r.ReadString('\n') // consume body
	send("HDEL h f1", ":1")
	send("HLEN h", ":1")
	// HGETALL: array of 2 (field + value).
	nc.Write([]byte("HGETALL h\r\n"))
	hdr, _ := r.ReadString('\n')
	if !strings.HasPrefix(hdr, "*2") {
		t.Fatalf("HGETALL header = %q", hdr)
	}
	for i := 0; i < 4; i++ { // drain $len + body for field and value
		r.ReadString('\n')
	}
	send("HGET h missing", "$-1")
	send("HSET h onlytwo", "-ERR")
}

func TestListOps(t *testing.T) {
	st, _ := newStore(t, 0)
	n, err := st.RPush("q", []byte("b"), []byte("c"))
	if err != nil || n != 2 {
		t.Fatalf("RPush = %d, %v", n, err)
	}
	n, err = st.LPush("q", []byte("a"))
	if err != nil || n != 3 {
		t.Fatalf("LPush = %d, %v", n, err)
	}
	if st.LLen("q") != 3 {
		t.Fatalf("LLen = %d", st.LLen("q"))
	}
	vals, err := st.LRange("q", 0, -1)
	if err != nil || len(vals) != 3 {
		t.Fatalf("LRange = %d vals, %v", len(vals), err)
	}
	want := []string{"a", "b", "c"}
	for i, v := range vals {
		if string(v) != want[i] {
			t.Fatalf("LRange[%d] = %q, want %q", i, v, want[i])
		}
	}
	// Negative indexing.
	vals, _ = st.LRange("q", -2, -1)
	if len(vals) != 2 || string(vals[0]) != "b" {
		t.Fatalf("LRange(-2,-1) = %v", vals)
	}
	v, ok, err := st.LPop("q")
	if err != nil || !ok || string(v) != "a" {
		t.Fatalf("LPop = %q, %v, %v", v, ok, err)
	}
	v, ok, _ = st.RPop("q")
	if !ok || string(v) != "c" {
		t.Fatalf("RPop = %q, %v", v, ok)
	}
	if st.LLen("q") != 1 {
		t.Fatalf("LLen = %d", st.LLen("q"))
	}
	if _, ok, _ := st.LPop("empty"); ok {
		t.Fatal("LPop on missing key returned ok")
	}
	if vals, _ := st.LRange("empty", 0, -1); vals != nil {
		t.Fatalf("LRange empty = %v", vals)
	}
}

func TestListReclaimDropsOldestInsertions(t *testing.T) {
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	st := New(sma)
	defer st.Close()
	val := make([]byte, 4096)
	for i := 0; i < 8; i++ {
		val[0] = byte(i)
		if _, err := st.RPush("log", val); err != nil {
			t.Fatal(err)
		}
	}
	released := sma.HandleDemand(4)
	if released != 4 {
		t.Fatalf("released %d", released)
	}
	// The four oldest insertions are gone; the index healed.
	if st.LLen("log") != 4 {
		t.Fatalf("LLen = %d after reclaim, want 4", st.LLen("log"))
	}
	vals, err := st.LRange("log", 0, -1)
	if err != nil || len(vals) != 4 {
		t.Fatalf("LRange = %d, %v", len(vals), err)
	}
	if vals[0][0] != 4 {
		t.Fatalf("survivor head = %d, want 4", vals[0][0])
	}
	// Pops skip nothing and return survivors in order.
	v, ok, _ := st.LPop("log")
	if !ok || v[0] != 4 {
		t.Fatalf("LPop = %v, %v", v, ok)
	}
}

func TestServerListCommands(t *testing.T) {
	_, addr, _, _ := startKV(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	r := bufio.NewReader(nc)
	send := func(line, wantPrefix string) string {
		t.Helper()
		nc.Write([]byte(line + "\r\n"))
		got, _ := r.ReadString('\n')
		if !strings.HasPrefix(got, wantPrefix) {
			t.Fatalf("%q replied %q, want prefix %q", line, got, wantPrefix)
		}
		return got
	}
	send("RPUSH mylist one two", ":2")
	send("LPUSH mylist zero", ":3")
	send("LLEN mylist", ":3")
	nc.Write([]byte("LRANGE mylist 0 -1\r\n"))
	hdr, _ := r.ReadString('\n')
	if !strings.HasPrefix(hdr, "*3") {
		t.Fatalf("LRANGE header = %q", hdr)
	}
	for i := 0; i < 6; i++ {
		r.ReadString('\n')
	}
	send("LPOP mylist", "$4") // "zero"
	r.ReadString('\n')
	send("RPOP mylist", "$3") // "two"
	r.ReadString('\n')
	send("LPOP nosuch", "$-1")
	send("LRANGE mylist notanum 2", "-ERR")
}

// Values larger than one soft page are stored in multi-page spans;
// the GET path must assemble them instead of failing with the
// allocator's "use ReadAt/WriteAt" error (regression: SET accepted
// such values but every read of them errored).
func TestStoreMultiPageValue(t *testing.T) {
	st, _ := newStore(t, 0)
	want := make([]byte, 3*pages.Size+5)
	for i := range want {
		want[i] = byte(i * 13)
	}
	if err := st.Set("big", want); err != nil {
		t.Fatal(err)
	}
	v, ok, err := st.Get("big")
	if err != nil || !ok || !bytes.Equal(v, want) {
		t.Fatalf("Get big = ok=%v err=%v len=%d want %d", ok, err, len(v), len(want))
	}
	var scratch []byte
	v, ok, err = st.GetAppend(scratch, "big")
	if err != nil || !ok || !bytes.Equal(v, want) {
		t.Fatalf("GetAppend big = ok=%v err=%v len=%d", ok, err, len(v))
	}
}
