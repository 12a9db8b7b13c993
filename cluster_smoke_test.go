package softmem

import (
	"fmt"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"softmem/internal/clusterkv"
	"softmem/internal/kvstore"
)

// clusterProcs boots a real n-process softkv cluster: node 0 bootstraps,
// the rest join through its peer address. Returns the RESP addresses and
// the running commands (callers own shutdown beyond the cleanup kill).
func clusterProcs(t *testing.T, kvBin string, n int, extraArgs func(i int) []string) ([]string, []*exec.Cmd) {
	t.Helper()
	resp := make([]string, n)
	peer := make([]string, n)
	for i := 0; i < n; i++ {
		resp[i], peer[i] = freeAddr(t), freeAddr(t)
	}
	procs := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		args := []string{
			"-listen", resp[i],
			"-cluster-peer", peer[i],
			"-cluster-mib", "8",
			"-cluster-heartbeat-ms", "50",
			"-smd-jitter-seed", fmt.Sprint(i + 1),
		}
		if i > 0 {
			args = append(args, "-cluster-seeds", peer[0])
		}
		if extraArgs != nil {
			args = append(args, extraArgs(i)...)
		}
		procs[i] = startProc(t, kvBin, args...)
		// Later nodes join through node 0, so each must be accepting
		// before the next starts.
		waitTCP(t, resp[i])
	}
	return resp, procs
}

// waitKnownNodes polls CLUSTER INFO until the node reports want members.
func waitKnownNodes(t *testing.T, addr string, want int, timeout time.Duration) {
	t.Helper()
	needle := fmt.Sprintf("cluster_known_nodes:%d", want)
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		cli, err := kvstore.DialClient("tcp", addr)
		if err == nil {
			info, _, err := cli.Do("CLUSTER", "INFO")
			cli.Close()
			if err == nil && strings.Contains(string(info), needle) {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never reported %s", addr, needle)
}

// TestClusterSmoke3Proc is the nightly cluster smoke: three real softkv
// processes form a ring, a cluster client writes keys that span all
// three owners, MGET reads them back across slots, and every node shuts
// down cleanly on SIGTERM.
func TestClusterSmoke3Proc(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips process-spawning smoke tests")
	}
	resp, procs := clusterProcs(t, binary(t, "softkv"), 3, nil)
	for _, a := range resp {
		waitKnownNodes(t, a, 3, 15*time.Second)
	}

	cli, err := clusterkv.NewClient(resp...)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const nKeys = 90
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("smoke-%d", i)
		if err := cli.Set(keys[i], fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("Set %s: %v", keys[i], err)
		}
	}
	vals, err := cli.MGet(keys...)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if !v.OK || v.S != fmt.Sprintf("v%d", i) {
			t.Fatalf("MGET[%d] = %+v", i, v)
		}
	}

	// With 90 keys and three ~equal owners, each node must hold a share:
	// DBSIZE counts only locally stored entries (replicas included).
	for _, a := range resp {
		c, err := kvstore.DialClient("tcp", a)
		if err != nil {
			t.Fatal(err)
		}
		sz, err := c.DBSize()
		c.Close()
		if err != nil || sz == 0 {
			t.Fatalf("node %s DBSIZE = %d, %v", a, sz, err)
		}
	}

	// Clean shutdown: SIGTERM, exit status 0.
	for i, p := range procs {
		if err := p.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("signal node %d: %v", i, err)
		}
	}
	for i, p := range procs {
		done := make(chan error, 1)
		go func() { done <- p.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("node %d exit: %v", i, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("node %d did not exit on SIGTERM", i)
		}
	}
}
