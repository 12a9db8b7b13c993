package softmem

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"softmem/internal/kvstore"
)

// TestMultiProcessReclamation is the paper's Figure 2 scenario with REAL
// operating-system processes: one smd daemon and two softkv servers,
// each its own binary, talking over TCP. Filling the second store beyond
// the machine's soft memory must reclaim entries from the first — across
// process boundaries — without killing anything.
func TestMultiProcessReclamation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips process-spawning integration test")
	}
	smdBin, kvBin := binary(t, "smd"), binary(t, "softkv")
	smdAddr, kv1Addr, kv2Addr := freeAddr(t), freeAddr(t), freeAddr(t)

	// 8 MiB soft memory machine.
	startProc(t, smdBin, "-listen", smdAddr, "-mib", "8", "-stats", "0", "-factor", "1.25")
	waitTCP(t, smdAddr)
	startProc(t, kvBin, "-listen", kv1Addr, "-smd", smdAddr, "-name", "victim")
	waitTCP(t, kv1Addr)
	startProc(t, kvBin, "-listen", kv2Addr, "-smd", smdAddr, "-name", "aggressor")
	waitTCP(t, kv2Addr)

	cli1, err := kvstore.DialClient("tcp", kv1Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli1.Close()
	cli2, err := kvstore.DialClient("tcp", kv2Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()

	// Fill store 1 with ~6 MiB (6144 × 1 KiB values).
	value := strings.Repeat("v", 1024)
	const entries = 6144
	for i := 0; i < entries; i++ {
		if err := cli1.Set(fmt.Sprintf("k%05d", i), value); err != nil {
			t.Fatalf("fill store1 at %d: %v", i, err)
		}
	}
	if n, _ := cli1.DBSize(); n != entries {
		t.Fatalf("store1 holds %d entries, want %d", n, entries)
	}

	// Fill store 2 with ~6 MiB: exceeds the 8 MiB machine, so the daemon
	// must reclaim from store 1 across process boundaries.
	for i := 0; i < entries; i++ {
		if err := cli2.Set(fmt.Sprintf("k%05d", i), value); err != nil {
			t.Fatalf("fill store2 at %d: %v", i, err)
		}
	}
	if n, _ := cli2.DBSize(); n != entries {
		t.Fatalf("store2 holds %d entries, want %d", n, entries)
	}

	// Store 1 must have shrunk, its oldest entries now "not found".
	n1, err := cli1.DBSize()
	if err != nil {
		t.Fatal(err)
	}
	if n1 >= entries {
		t.Fatalf("store1 still holds %d entries; no cross-process reclamation happened", n1)
	}
	if _, ok, err := cli1.Get("k00000"); err != nil || ok {
		t.Fatalf("oldest entry survived reclamation (ok=%v err=%v)", ok, err)
	}
	// Newest entries survive and are intact.
	v, ok, err := cli1.Get(fmt.Sprintf("k%05d", entries-1))
	if err != nil || !ok || v != value {
		t.Fatalf("newest entry lost or corrupt (ok=%v err=%v)", ok, err)
	}
	info, _, err := cli1.Do("INFO")
	if err != nil || !strings.Contains(string(info), "reclaimed:") {
		t.Fatalf("INFO = %q, %v", info, err)
	}
	for _, line := range strings.Split(string(info), "\r\n") {
		if strings.HasPrefix(line, "reclaimed:") && line == "reclaimed:0" {
			t.Fatal("store1 INFO reports zero reclaimed entries")
		}
	}
	t.Logf("store1 shrank %d -> %d entries under cross-process pressure", entries, n1)
}

// TestDaemonRestartRecovery kills the daemon process and restarts it:
// the KV server must reconnect, resync its budget, and cross-process
// reclamation must work against the daemon's second incarnation.
func TestDaemonRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips process-spawning integration test")
	}
	smdBin, kvBin := binary(t, "smd"), binary(t, "softkv")
	smdAddr, kv1Addr, kv2Addr := freeAddr(t), freeAddr(t), freeAddr(t)

	smd1 := startProc(t, smdBin, "-listen", smdAddr, "-mib", "8", "-stats", "0")
	waitTCP(t, smdAddr)
	startProc(t, kvBin, "-listen", kv1Addr, "-smd", smdAddr, "-name", "victim")
	waitTCP(t, kv1Addr)

	cli1, err := kvstore.DialClient("tcp", kv1Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli1.Close()
	value := strings.Repeat("v", 1024)
	const entries = 5120 // 5 MiB
	for i := 0; i < entries; i++ {
		if err := cli1.Set(fmt.Sprintf("k%05d", i), value); err != nil {
			t.Fatalf("fill at %d: %v", i, err)
		}
	}

	// The daemon dies and a fresh incarnation takes over the address.
	_ = smd1.Process.Kill()
	_, _ = smd1.Process.Wait()
	startProc(t, smdBin, "-listen", smdAddr, "-mib", "8", "-stats", "0")
	waitTCP(t, smdAddr)

	// The store still serves reads throughout.
	if v, ok, err := cli1.Get("k00000"); err != nil || !ok || v != value {
		t.Fatalf("store unavailable during daemon restart: %v %v", ok, err)
	}

	// Give the resilient client a moment to reconnect and resync, then
	// apply pressure through a second process: reclamation must cross
	// the NEW daemon.
	startProc(t, kvBin, "-listen", kv2Addr, "-smd", smdAddr, "-name", "aggressor")
	waitTCP(t, kv2Addr)
	cli2, err := kvstore.DialClient("tcp", kv2Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()

	deadline := time.Now().Add(15 * time.Second)
	filled := 0
	for filled < entries && time.Now().Before(deadline) {
		if err := cli2.Set(fmt.Sprintf("p%05d", filled), value); err != nil {
			// The victim may still be resyncing; retry briefly.
			time.Sleep(50 * time.Millisecond)
			continue
		}
		filled++
	}
	if filled < entries {
		t.Fatalf("aggressor only stored %d of %d entries after daemon restart", filled, entries)
	}
	n1, err := cli1.DBSize()
	if err != nil {
		t.Fatal(err)
	}
	if n1 >= entries {
		t.Fatalf("victim still holds %d entries; reclamation did not cross the restarted daemon", n1)
	}
	t.Logf("after daemon restart: victim shrank %d -> %d entries", entries, n1)
}
