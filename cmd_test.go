package softmem

import (
	"os"
	"os/exec"
	"strings"
	"testing"
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
			name: "clustersim",
			args: []string{"run", "./cmd/clustersim", "-jobs", "120", "-horizon", "1h"},
			want: []string{"baseline", "soft", "evictions"},
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

// TestSMDCtlSmoke boots the daemon with its status endpoint and reads it
// back through smdctl.
func TestSMDCtlSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips process-spawning smoke tests")
	}
	ctlBin := binary(t, "smdctl")
	addrs := startServing(t, binary(t, "smd"), "smd: arbitrating", 2, func(a []string) []string {
		return []string{"-listen", a[0], "-mib", "8", "-stats", "0", "-http", a[1]}
	})
	httpAddr := addrs[1]
	out, err := exec.Command(ctlBin, "-http", httpAddr).CombinedOutput()
	if err != nil {
		t.Fatalf("smdctl: %v\n%s", err, out)
	}
	for _, want := range []string{"soft memory:", "free", "requests:"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("smdctl output missing %q:\n%s", want, out)
		}
	}
	// Raw JSON mode decodes.
	out, err = exec.Command(ctlBin, "-http", httpAddr, "-json").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "\"stats\"") {
		t.Fatalf("smdctl -json: %v\n%s", err, out)
	}
}
