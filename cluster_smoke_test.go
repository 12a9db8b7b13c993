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
	"softmem/internal/smd"
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
// three owners and reads each back with GET, and every node shuts down
// cleanly on SIGTERM.
func TestClusterSmoke3Proc(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips process-spawning smoke tests")
	}
	status := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	resp, procs := clusterProcs(t, binary(t, "softkv"), 3, func(i int) []string {
		return []string{"-http", status[i]}
	})
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
	for i, k := range keys {
		v, ok, err := cli.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("GET %s = %q, %v", k, v, ok)
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

	// The operator's views of the ring: `smdctl cluster` on one node names
	// its peers, and `top -cluster` reaches every node through the status
	// addresses gossip spread.
	wantAll(t, "cluster", smdctl(t, "-http", status[0], "cluster"),
		"node "+resp[0], "3 nodes", resp[1], resp[2], "federation:")
	cs := strictJSON[clusterkv.Status](t, smdctl(t, "-http", status[0], "-json", "cluster"))
	if cs.Self != resp[0] || len(cs.Peers) != 2 || len(cs.Nodes) != 3 || cs.ReplSent == 0 {
		t.Fatalf("cluster payload = %+v", cs)
	}
	var top string
	eventually(t, "top -cluster to reach every node", func() bool {
		top = smdctl(t, "-http", status[0], "-iterations", "1", "top", "-cluster")
		return !strings.Contains(top, "unreachable")
	})
	wantAll(t, "top -cluster", top, "3 nodes", resp[0], resp[1], resp[2])
	// The embedded daemon serves its endpoints beside the node's own
	// /statusz, its ledger at /smd.
	if st := strictJSON[smd.Status](t, httpGet(t, status[1], "/smd")); len(st.Procs) != 1 || st.Stats.TotalPages != 2048 {
		t.Fatalf("embedded daemon's /smd = %+v", st)
	}
	strictJSON[smd.QoSTable](t, httpGet(t, status[1], "/qos"))
	strictJSON[smd.EventLog](t, httpGet(t, status[1], "/events"))
	strictJSON[smd.TraceLog](t, httpGet(t, status[1], "/traces"))
	if ks := strictJSON[kvstore.Status](t, httpGet(t, status[1], "/statusz")); ks.Store.Sets == 0 {
		t.Fatalf("node's /statusz = %+v", ks)
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
