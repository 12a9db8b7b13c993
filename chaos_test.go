//go:build chaos

package softmem

import (
	"os"
	"strconv"
	"testing"

	"softmem/internal/experiments"
)

// TestChaosKillMidReclaim is the crash-recovery chaos suite (run it with
// `make chaos`, which repeats it for determinism): real smd and softkv
// processes, the daemon killed by an armed fault point between demand
// completion and grant, a torn spill write planted mid-reclaim, and a
// kill -9 of the KV server itself. The experiment harness asserts the
// invariants; this test just wires binaries and reports violations.
func TestChaosKillMidReclaim(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("SOFTMEM_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SOFTMEM_CHAOS_SEED: %v", err)
		}
		seed = v
	}

	res, err := experiments.Chaos(experiments.ChaosConfig{
		SMDBin:    binary(t, "smd"),
		SoftKVBin: binary(t, "softkv"),
		WorkDir:   t.TempDir(),
		Seed:      seed,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	res.Fprint(os.Stderr)
	for _, f := range res.Failures {
		t.Errorf("invariant violated: %s", f)
	}
}
