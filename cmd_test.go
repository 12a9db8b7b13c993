package softmem

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"softmem/internal/kvstore"
	"softmem/internal/metrics"
	"softmem/internal/smd"
	"softmem/internal/spill"
)

// TestBinariesSmoke runs each experiment binary at reduced scale and
// checks its output carries the expected artifacts. This keeps the
// README's commands honest.
func TestBinariesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips process-spawning smoke tests")
	}
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{
			name: "softbench-fig2",
			args: []string{"run", "./cmd/softbench", "-experiment", "fig2"},
			want: []string{"Figure 2", "reclamation finishes", "paper: 3.75s"},
		},
		{
			name: "softbench-stress",
			args: []string{"run", "./cmd/softbench", "-experiment", "stress", "-allocs", "20000", "-extra", "8000"},
			want: []string{"ample budget", "budget grown via SMD", "reclaim under pressure"},
		},
		{
			name: "softbench-restart",
			args: []string{"run", "./cmd/softbench", "-experiment", "restart"},
			want: []string{"reclaim vs. kill", "advantage"},
		},
		{
			name: "softbench-ablate-heap",
			args: []string{"run", "./cmd/softbench", "-experiment", "ablate-heap"},
			want: []string{"per-SDS heaps", "shared heap, arbitrary", "page per allocation"},
		},
		{
			name: "softbench-ablate-policy",
			args: []string{"run", "./cmd/softbench", "-experiment", "ablate-policy"},
			want: []string{"proportional", "footprint", "softshare"},
		},
		{
			name: "softbench-mlcache",
			args: []string{"run", "./cmd/softbench", "-experiment", "mlcache"},
			want: []string{"E9", "pages reclaimed after this epoch"},
		},
		{
			name: "softbench-swap",
			args: []string{"run", "./cmd/softbench", "-experiment", "swap"},
			want: []string{"E10", "drop", "swap"},
		},
		{
			name: "softbench-cluster",
			args: []string{"run", "./cmd/softbench", "-experiment", "cluster"},
			want: []string{"E6", "baseline", "soft", "evictions", "incentive"},
		},
		{
			name: "softbench-latency",
			args: []string{"run", "./cmd/softbench", "-experiment", "latency"},
			want: []string{"E11", "per-page", "per-entry"},
		},
		{
			name: "softml",
			args: []string{"run", "./cmd/softml", "-epochs", "2", "-samples", "200"},
			want: []string{"epoch=1", "epoch=2", "hitrate"},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", tc.args...)
			cmd.Env = os.Environ()
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%v: %v\n%s", tc.args, err, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(string(out), w) {
					t.Errorf("output missing %q:\n%s", w, out)
				}
			}
		})
	}
}

// TestKVBenchSmoke drives kvbench, the RESP load generator, at a
// standalone softkv and at its own in-process server.
func TestKVBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips process-spawning smoke tests")
	}
	benchBin := binary(t, "kvbench")
	addrs := startServing(t, binary(t, "softkv"), "softkv: serving RESP on", 1, func(a []string) []string {
		return []string{"-listen", a[0]}
	})
	out, err := exec.Command(benchBin,
		"-addr", addrs[0], "-requests", "5000", "-conns", "2", "-keys", "500").CombinedOutput()
	if err != nil {
		t.Fatalf("kvbench: %v\n%s", err, out)
	}
	for _, want := range []string{"throughput", "hitrate", "GET p50", "SET p50"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("kvbench output missing %q:\n%s", want, out)
		}
	}

	// The in-process mode at two depths with writes: one result line per
	// depth.
	out, err = exec.Command(benchBin,
		"-inproc", "-requests", "5000", "-conns", "2", "-pipeline", "1,16", "-read", "0.5").CombinedOutput()
	if err != nil {
		t.Fatalf("kvbench -inproc: %v\n%s", err, out)
	}
	for _, depth := range []string{"pipeline=1 ", "pipeline=16 "} {
		n := 0
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, depth) && strings.Contains(line, "throughput") {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("kvbench -inproc printed %d %q result lines, want 1:\n%s", n, depth, out)
		}
	}

	// kvbench reports nothing but what it prints: the report flags are
	// gone, not ignored.
	if out, err := exec.Command(benchBin, "-json", "x").CombinedOutput(); err == nil {
		t.Fatalf("kvbench -json x succeeded:\n%s", out)
	}
}

// smdctl runs one smdctl invocation and returns what it printed.
func smdctl(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command(binary(t, "smdctl"), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("smdctl %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// strictJSON decodes body into the payload type its server declares. An
// unknown key fails: the exported type must describe everything the
// endpoint serves.
func strictJSON[T any](t *testing.T, body string) T {
	t.Helper()
	var v T
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("decode %T: %v\n%.400s", v, err, body)
	}
	return v
}

// httpGet fetches one status endpoint.
func httpGet(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s%s: %s, %v", addr, path, resp.Status, err)
	}
	return string(body)
}

// wantAll fails unless out contains every one of wants.
func wantAll(t *testing.T, what, out string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Fatalf("%s output missing %q:\n%s", what, w, out)
		}
	}
}

// eventually polls cond for up to 15 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); !cond(); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSMDCtlSmoke drives every smdctl view against live processes: a
// daemon squeezing one softkv for another, and a softkv with a slow
// request. Each view must render a field that only appears if the
// payload decoded into the type its server declares, and each -json
// output (the endpoint's bytes) must decode strictly into that type.
func TestSMDCtlSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips process-spawning smoke tests")
	}
	kvBin := binary(t, "softkv")
	smdAddrs := startServing(t, binary(t, "smd"), "smd: arbitrating", 2, func(a []string) []string {
		return []string{"-listen", a[0], "-mib", "8", "-stats", "0", "-http", a[1]}
	})
	smdHTTP := smdAddrs[1]
	victim := startServing(t, kvBin, "softkv: status at", 2, func(a []string) []string {
		return []string{"-listen", a[0], "-smd", smdAddrs[0], "-name", "victim", "-http", a[1],
			"-shards", "1", "-spill-dir", t.TempDir(), "-tenant", "frontend", "-tenant-class", "2"}
	})
	aggressor := startServing(t, kvBin, "softkv: serving RESP on", 1, func(a []string) []string {
		return []string{"-listen", a[0], "-smd", smdAddrs[0], "-name", "aggressor"}
	})

	// Fill the victim with 4 of the machine's 8 MiB, then push the
	// aggressor until the daemon has demanded pages back from the victim.
	// A SET the daemon denies is an error reply, not a failure here.
	fill := func(addr, value string, from, to int) {
		cli, err := kvstore.DialClient("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		pl := cli.Pipeline()
		for i := from; i < to; i++ {
			pl.Command("SET", fmt.Sprintf("k%06d", i), value)
			// Replies are read after the whole batch is written: keep
			// a batch's replies within the socket buffers.
			if pl.Len() == 4096 || i == to-1 {
				if err := pl.Exec(nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	value := strings.Repeat("v", 1000)
	fill(victim[0], value, 0, 4096)
	demanded := func(tl smd.TraceLog) (id uint64) {
		for _, tr := range tl.Traces {
			for _, h := range tr.Hops {
				if h.Kind == "demand" && h.Name == "victim" && h.Released > 0 {
					return tr.ID
				}
			}
		}
		return 0
	}
	var traceID uint64
	for n := 0; traceID == 0; n += 512 {
		if n > 16384 {
			t.Fatal("the aggressor never forced a demand on the victim")
		}
		fill(aggressor[0], value, n, n+512)
		traceID = demanded(strictJSON[smd.TraceLog](t, smdctl(t, "-http", smdHTTP, "-json", "traces")))
	}

	wantAll(t, "status", smdctl(t, "-http", smdHTTP), "soft memory:", "requests:", "victim", "aggressor")
	st := strictJSON[smd.Status](t, smdctl(t, "-http", smdHTTP, "-json"))
	if len(st.Procs) != 2 || st.Stats.PagesReclaimed == 0 || st.Stats.TotalPages != 2048 {
		t.Fatalf("status payload = %+v", st)
	}
	wantAll(t, "events", smdctl(t, "-http", smdHTTP, "events"), "demand", "grant", "victim")
	if el := strictJSON[smd.EventLog](t, smdctl(t, "-http", smdHTTP, "-json", "events")); len(el.Events) == 0 || el.Events[0].Seq == 0 {
		t.Fatalf("events payload = %+v", el)
	}
	wantAll(t, "traces", smdctl(t, "-http", smdHTTP, "traces"), "requester", "(aggressor)", "granted")
	wantAll(t, "trace", smdctl(t, "-http", smdHTTP, "trace", fmt.Sprint(traceID)),
		fmt.Sprintf("reclaim cycle %d:", traceID), "demand to proc", "(victim)", "sds kvstore", "allocs revoked")
	wantAll(t, "qos", smdctl(t, "-http", smdHTTP, "qos"), "victim order", "frontend", "aggressor")
	if qt := strictJSON[smd.QoSTable](t, smdctl(t, "-http", smdHTTP, "-json", "qos")); len(qt.QoS) != 2 {
		t.Fatalf("qos payload = %+v", qt)
	}
	// top renders the latest history snapshot, sampled once a second: the
	// process rows come from the labels of the per-process series.
	var top string
	eventually(t, "top to list both processes", func() bool {
		top = smdctl(t, "-http", smdHTTP, "-iterations", "1", "top")
		return strings.Contains(top, "victim") && strings.Contains(top, "aggressor")
	})
	wantAll(t, "top", top, "procs 2", "latency p50/p99: request")
	if hist := strictJSON[metrics.HistoryDump](t, httpGet(t, smdHTTP, "/metrics/history")); len(hist.Snapshots) == 0 {
		t.Fatal("empty history")
	}
	// A softkv hosts an SMA: its top carries the epoch line the daemon's
	// lacks, and its own /statusz and /spill payloads decode too.
	wantAll(t, "softkv top", smdctl(t, "-http", victim[1], "-iterations", "1", "top"), "epoch: global")
	if ks := strictJSON[kvstore.Status](t, httpGet(t, victim[1], "/statusz")); ks.SMA.DemandsServed == 0 || len(ks.Contexts) == 0 || ks.Store.Sets == 0 {
		t.Fatalf("softkv statusz payload = %+v", ks)
	}
	if sp := strictJSON[spill.Status](t, httpGet(t, victim[1], "/spill")); sp.Stats.Demotions == 0 || sp.BytesOnDisk == 0 {
		t.Fatalf("spill payload = %+v (the victim's revoked entries are demoted)", sp)
	}

	// slowlog: a softkv logging requests over 1 ms, and a FLUSHALL of a
	// keyspace grown until emptying it takes that long.
	slow := startServing(t, kvBin, "softkv: status at", 2, func(a []string) []string {
		return []string{"-listen", a[0], "-http", a[1], "-slowlog-ms", "1"}
	})
	cli, err := kvstore.DialClient("tcp", slow[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var entries []kvstore.SlowEntry
	for keys := 20000; len(entries) == 0; keys *= 2 {
		if keys > 640000 {
			t.Fatal("no request crossed the 1 ms threshold")
		}
		fill(slow[0], "x", 0, keys)
		if _, _, err := cli.Do("FLUSHALL"); err != nil {
			t.Fatal(err)
		}
		entries = strictJSON[[]kvstore.SlowEntry](t, smdctl(t, "-http", slow[1], "-json", "slowlog"))
	}
	wantAll(t, "slowlog", smdctl(t, "-http", slow[1], "slowlog"),
		"dominant", kvstore.SlowColumns[0], entries[0].Cmd, entries[0].Dominant())
}
