//go:build chaos

package softmem

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"softmem/internal/clusterkv"
	"softmem/internal/faultinject"
)

// TestChaosClusterNodeKill is the cluster chaos case (run it with
// `make chaos-cluster`, which repeats it for determinism): three real
// softkv processes form a ring, a cluster client loads keys in
// eventual-ack mode, and one node is killed mid-load by the armed
// clusterkv.node.crash point — the process exits between heartbeats,
// exactly like a machine failure. The invariants:
//
//  1. the survivors heal the ring (known_nodes drops to 2),
//  2. redirects converge — a fresh client works against the healed map,
//  3. no eventual-mode write that was acked (WAIT > 0) is lost, even
//     those whose owner was the killed node: the slot's replica was
//     promoted and holds every acked value.
func TestChaosClusterNodeKill(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("SOFTMEM_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SOFTMEM_CHAOS_SEED: %v", err)
		}
		seed = v
	}
	// The victim dies on a seeded heartbeat (50ms period): between 1 and
	// 2.5 seconds into the load, while writes are in flight.
	crashTick := 20 + int(seed%31)
	t.Logf("seed=%d: victim crashes on heartbeat %d", seed, crashTick)

	victimIdx := 2
	resp, procs := clusterProcs(t, binary(t, "softkv"), 3, func(i int) []string {
		if i != victimIdx {
			return nil
		}
		return []string{"-faults", fmt.Sprintf("clusterkv.node.crash:on=%d:crash", crashTick)}
	})
	for _, a := range resp {
		waitKnownNodes(t, a, 3, 15*time.Second)
	}

	// Load in eventual-ack mode until well past the crash. Writes that
	// fail or don't ack during the death window are expected (fire-and-
	// forget semantics); what's recorded is only what WAIT acked.
	cli, err := clusterkv.NewClient(resp...)
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[string]string)
	victimDead := make(chan error, 1)
	go func() { victimDead <- procs[victimIdx].Wait() }()
	deadline := time.Now().Add(45 * time.Second)
	diedAt := -1
	for i := 0; ; i++ {
		if diedAt < 0 {
			select {
			case err := <-victimDead:
				ee, ok := err.(*exec.ExitError)
				if !ok || ee.ExitCode() != faultinject.CrashExitCode {
					t.Fatalf("victim exit = %v, want crash code %d", err, faultinject.CrashExitCode)
				}
				diedAt = i
				t.Logf("victim down after %d writes, %d acked", i, len(acked))
			default:
			}
		} else if i >= diedAt+100 {
			break // kept loading well past the death
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never crashed (fault point did not fire?)")
		}
		k, v := fmt.Sprintf("chaos-%d", i), fmt.Sprintf("val-%d", i)
		if err := cli.SetSync(k, v, 500*time.Millisecond); err == nil {
			acked[k] = v
		}
	}
	cli.Close()
	if len(acked) == 0 {
		t.Fatal("no writes acked; the scenario exercised nothing")
	}

	// Invariant 1: the survivors heal the ring.
	survivors := []string{resp[0], resp[1]}
	for _, a := range survivors {
		waitKnownNodes(t, a, 2, 20*time.Second)
	}

	// Invariant 2: redirects converge for a fresh client with no cached
	// map — every routed command settles within the hop limit.
	fresh, err := clusterkv.NewClient(survivors...)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for j := 0; j < 50; j++ {
		k := fmt.Sprintf("post-heal-%d", j)
		if err := fresh.Set(k, "x"); err != nil {
			t.Fatalf("post-heal Set %s: %v", k, err)
		}
	}

	// Invariant 3: every acked eventual-mode write survived the kill.
	lost := 0
	for k, want := range acked {
		v, ok, err := fresh.Get(k)
		if err != nil {
			t.Fatalf("Get %s: %v", k, err)
		}
		if !ok || v != want {
			lost++
			t.Errorf("acked write lost: %s = %q, %v (want %q)", k, v, ok, want)
		}
	}
	t.Logf("verified %d acked writes, %d lost", len(acked), lost)
}
