package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"softmem/internal/faultinject"
	"softmem/internal/kvstore"
	"softmem/internal/metrics"
	"softmem/internal/smd"
)

// ChaosConfig parameterizes the crash-recovery chaos run: real smd and
// softkv processes, a daemon killed deterministically between a
// reclamation demand completing and the triggering grant, a torn spill
// write planted mid-reclaim, and a kill -9 of the KV server on top.
// Everything is seeded, so a given config replays the same schedule.
type ChaosConfig struct {
	// SMDBin and SoftKVBin are paths to prebuilt daemon and KV binaries
	// (the chaos test builds them once per run). Required.
	SMDBin    string
	SoftKVBin string
	// WorkDir is scratch space for the victim's spill tier. Required.
	WorkDir string
	// Seed drives the value generator and both clients' reconnect
	// jitter. Default 1.
	Seed int64
	// Entries preloaded into the victim (1 KiB values). Default 3072.
	Entries int
	// MachineMiB is the daemon's soft memory partition. Default 8.
	MachineMiB int
	// Logf receives harness progress and subprocess output (nil = quiet).
	Logf func(string, ...any)
}

func (c *ChaosConfig) setDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Entries <= 0 {
		c.Entries = 3072
	}
	if c.MachineMiB <= 0 {
		c.MachineMiB = 8
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// The chaos schedule.
const (
	// chaosCrashAfterDemands arms smd.demand.post:on=N:crash — the daemon
	// exits right after the Nth reclamation demand completes, before the
	// triggering request is granted.
	chaosCrashAfterDemands = 1
	// chaosTornAppendAt arms spill.append:on=N:short in the victim — the
	// Nth demotion is acknowledged but half-written.
	chaosTornAppendAt = 40
	// chaosDeleteKeys is how many preloaded keys are DELeted while the
	// daemon is down; none may resurrect afterwards.
	chaosDeleteKeys = 32
	// chaosBackoffMs / chaosBackoffMaxMs bound the clients' reconnect
	// schedule (jittered doubling).
	chaosBackoffMs    = 50
	chaosBackoffMaxMs = 300
	// chaosMaxResyncRounds is the invariant bound: both processes must be
	// re-registered with the restarted daemon within this many
	// maximum-length backoff rounds.
	chaosMaxResyncRounds = 5
)

// ChaosResult reports what the run observed. Failures lists every
// violated invariant; an empty list is a clean pass.
type ChaosResult struct {
	DaemonExitCode     int           // must equal faultinject.CrashExitCode
	ReadsDuringOutage  int           // GETs served while the daemon was down
	DeletedKeys        int           // keys removed while the daemon was down
	ResyncElapsed      time.Duration // daemon restart → both procs re-registered
	ResyncRounds       int           // ResyncElapsed in max-backoff rounds
	TracesAfterRestart int           // completed reclaim traces on the new daemon
	DemandsServed      int64         // victim's demand count before its kill
	ResurrectedKeys    int           // deleted keys that came back (must be 0)
	SpillCorruptCount  float64       // corrupt-records metric after victim restart
	Failures           []string
}

// Fprint renders the run.
func (r ChaosResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "E12 — chaos: kill -9 mid-reclaim + torn spill write\n\n")
	fmt.Fprintf(w, "  daemon exit code (crash point):    %d\n", r.DaemonExitCode)
	fmt.Fprintf(w, "  reads served during outage:        %d\n", r.ReadsDuringOutage)
	fmt.Fprintf(w, "  keys deleted during outage:        %d\n", r.DeletedKeys)
	fmt.Fprintf(w, "  budget resync after restart:       %v (%d backoff rounds)\n",
		r.ResyncElapsed.Round(time.Millisecond), r.ResyncRounds)
	fmt.Fprintf(w, "  reclaim traces on new daemon:      %d\n", r.TracesAfterRestart)
	fmt.Fprintf(w, "  victim demands served pre-kill:    %d\n", r.DemandsServed)
	fmt.Fprintf(w, "  deleted keys resurrected:          %d\n", r.ResurrectedKeys)
	fmt.Fprintf(w, "  spill corrupt records reported:    %.0f\n", r.SpillCorruptCount)
	if len(r.Failures) == 0 {
		fmt.Fprintf(w, "\n  all invariants held\n")
		return
	}
	fmt.Fprintf(w, "\n  INVARIANT VIOLATIONS:\n")
	for _, f := range r.Failures {
		fmt.Fprintf(w, "    - %s\n", f)
	}
}

// logWriter forwards subprocess output lines to a Logf.
type logWriter struct {
	tag  string
	logf func(string, ...any)
}

func (w logWriter) Write(p []byte) (int, error) {
	for _, line := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
		w.logf("%s: %s", w.tag, line)
	}
	return len(p), nil
}

// proc is one live subprocess plus its exit notification.
type proc struct {
	cmd    *exec.Cmd
	exited chan int // buffered; receives the exit code once
}

func startProc(bin, tag string, logf func(string, ...any), args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logWriter{tag, logf}
	cmd.Stderr = logWriter{tag, logf}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("chaos: start %s: %w", tag, err)
	}
	p := &proc{cmd: cmd, exited: make(chan int, 1)}
	go func() {
		err := cmd.Wait()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			code = -1
		}
		p.exited <- code
	}()
	return p, nil
}

// kill SIGKILLs the process and reaps it.
func (p *proc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	select {
	case code := <-p.exited:
		p.exited <- code
	case <-time.After(5 * time.Second):
	}
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func waitTCPAddr(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("chaos: nothing listening on %s after %v", addr, timeout)
}

func fetchJSON(url string, out any) error {
	cli := http.Client{Timeout: 2 * time.Second}
	resp, err := cli.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// fetchMetric reads one counter/gauge from a Prometheus text endpoint,
// summing across label sets.
func fetchMetric(url, name string) (float64, bool, error) {
	cli := http.Client{Timeout: 2 * time.Second}
	resp, err := cli.Get(url)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	series, err := metrics.ParseText(resp.Body)
	if err != nil {
		return 0, false, err
	}
	total, found := 0.0, false
	for _, s := range series {
		if s.Name == name {
			total += s.Value
			found = true
		}
	}
	return total, found, nil
}

// chaosValue builds a deterministic ~1 KiB hex value: compressible only
// ~2:1, so spill records stay large enough to cross segment boundaries
// on the schedule the scenario needs.
func chaosValue(rng *rand.Rand) string {
	const hexdig = "0123456789abcdef"
	b := make([]byte, 1024)
	for i := range b {
		b[i] = hexdig[rng.Intn(16)]
	}
	return string(b)
}

// Chaos runs the crash-recovery scenario end to end and checks the
// invariants the paper's graceful-degradation story rests on:
//
//  1. the daemon dies (deterministically, via an armed fault point)
//     between a reclamation demand completing and the requester's grant;
//  2. the KV server keeps serving reads throughout the outage
//     (degraded — the ErrReconnecting path);
//  3. after a fresh daemon takes the address, budgets resync within a
//     bounded number of backoff rounds;
//  4. keys deleted during the outage never resurrect — not after the
//     daemon restart, and not after the KV server itself is kill -9ed
//     and recovers its spill tier (which contains a planted torn write
//     that recovery must truncate and report via metrics);
//  5. the new daemon's reclaim cycles trace end to end.
func Chaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg.setDefaults()
	var res ChaosResult
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	if cfg.SMDBin == "" || cfg.SoftKVBin == "" || cfg.WorkDir == "" {
		return res, fmt.Errorf("chaos: SMDBin, SoftKVBin and WorkDir are required")
	}

	smdAddr, err := freePort()
	if err != nil {
		return res, err
	}
	smdHTTP, err := freePort()
	if err != nil {
		return res, err
	}
	victimAddr, err := freePort()
	if err != nil {
		return res, err
	}
	victimHTTP, err := freePort()
	if err != nil {
		return res, err
	}
	aggAddr, err := freePort()
	if err != nil {
		return res, err
	}
	spillDir := filepath.Join(cfg.WorkDir, "victim-spill")

	// Phase 0: the armed fleet. The daemon will crash right after demand
	// CrashAfterDemands completes; the victim's TornAppendAt-th demotion
	// will be half-written. Small spill segments confine the torn tail to
	// one segment, as a real mid-write crash would.
	cfg.Logf("chaos: phase 0: starting armed fleet (seed=%d)", cfg.Seed)
	smd1, err := startProc(cfg.SMDBin, "smd1", cfg.Logf,
		"-listen", smdAddr, "-mib", strconv.Itoa(cfg.MachineMiB), "-stats", "0",
		"-faults", fmt.Sprintf("smd.demand.post:on=%d:crash", chaosCrashAfterDemands))
	if err != nil {
		return res, err
	}
	defer smd1.kill()
	if err := waitTCPAddr(smdAddr, 10*time.Second); err != nil {
		return res, err
	}
	victimArgs := func(faults string) []string {
		args := []string{
			"-listen", victimAddr, "-smd", smdAddr, "-name", "victim",
			"-http", victimHTTP, "-spill-dir", spillDir, "-spill-segment-kib", "64",
			"-smd-backoff-ms", strconv.Itoa(chaosBackoffMs),
			"-smd-backoff-max-ms", strconv.Itoa(chaosBackoffMaxMs),
			"-smd-jitter-seed", strconv.FormatInt(cfg.Seed, 10),
			"-sweep", "0",
		}
		if faults != "" {
			args = append(args, "-faults", faults)
		}
		return args
	}
	victim, err := startProc(cfg.SoftKVBin, "victim", cfg.Logf,
		victimArgs(fmt.Sprintf("spill.append:on=%d:short", chaosTornAppendAt))...)
	if err != nil {
		return res, err
	}
	defer victim.kill()
	agg, err := startProc(cfg.SoftKVBin, "agg", cfg.Logf,
		"-listen", aggAddr, "-smd", smdAddr, "-name", "aggressor",
		"-smd-backoff-ms", strconv.Itoa(chaosBackoffMs),
		"-smd-backoff-max-ms", strconv.Itoa(chaosBackoffMaxMs),
		"-smd-jitter-seed", strconv.FormatInt(cfg.Seed+1, 10),
		"-sweep", "0")
	if err != nil {
		return res, err
	}
	defer agg.kill()
	if err := waitTCPAddr(victimAddr, 10*time.Second); err != nil {
		return res, err
	}
	if err := waitTCPAddr(aggAddr, 10*time.Second); err != nil {
		return res, err
	}

	vcli, err := kvstore.DialClient("tcp", victimAddr)
	if err != nil {
		return res, err
	}
	defer vcli.Close()
	acli, err := kvstore.DialClient("tcp", aggAddr)
	if err != nil {
		return res, err
	}
	defer acli.Close()

	// Phase 1: preload the victim.
	cfg.Logf("chaos: phase 1: preloading victim with %d entries", cfg.Entries)
	rng := rand.New(rand.NewSource(cfg.Seed))
	value := chaosValue(rng)
	for i := 0; i < cfg.Entries; i++ {
		if err := vcli.Set(fmt.Sprintf("k%05d", i), value); err != nil {
			return res, fmt.Errorf("chaos: preload at %d: %w", i, err)
		}
	}

	// Phase 2: aggressor pressure until the armed crash point fires. The
	// first reclamation demand against the victim also plants the torn
	// spill write (demotions are spill appends).
	cfg.Logf("chaos: phase 2: applying pressure until the daemon crashes")
	maxSets := cfg.Entries * 4
	crashed := false
	for i := 0; i < maxSets && !crashed; i++ {
		select {
		case code := <-smd1.exited:
			smd1.exited <- code
			res.DaemonExitCode = code
			crashed = true
		default:
			if err := acli.Set(fmt.Sprintf("p%05d", i), value); err != nil {
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
	if !crashed {
		// The Set loop may outrun the daemon's demand round-trip; give the
		// exit a moment to land.
		select {
		case code := <-smd1.exited:
			smd1.exited <- code
			res.DaemonExitCode = code
			crashed = true
		case <-time.After(5 * time.Second):
		}
	}
	if !crashed {
		fail("daemon never hit the armed crash point after %d sets", maxSets)
		return res, nil
	}
	if res.DaemonExitCode != faultinject.CrashExitCode {
		fail("daemon exit code = %d, want %d (the armed crash)", res.DaemonExitCode, faultinject.CrashExitCode)
	}

	// Phase 3: the outage. Invariant: the victim keeps serving reads.
	cfg.Logf("chaos: phase 3: daemon down; checking the victim serves")
	newest := fmt.Sprintf("k%05d", cfg.Entries-1)
	for i := 0; i < 20; i++ {
		v, ok, err := vcli.Get(newest)
		if err != nil {
			fail("read %d during outage failed: %v", i, err)
			break
		}
		if ok && v != value {
			fail("read during outage returned corrupt data")
			break
		}
		if ok {
			res.ReadsDuringOutage++
		}
		time.Sleep(10 * time.Millisecond)
	}
	if res.ReadsDuringOutage == 0 {
		fail("victim served zero reads while the daemon was down")
	}

	// Deletions during the outage: these keys must never come back. The
	// oldest keys are the ones reclamation demoted to disk, so their
	// tombstones — not just their memory slots — carry the invariant.
	deleted := make([]string, 0, chaosDeleteKeys)
	for i := 0; i < chaosDeleteKeys; i++ {
		key := fmt.Sprintf("k%05d", i)
		if _, err := vcli.Del(key); err != nil {
			fail("DEL %s during outage: %v", key, err)
			continue
		}
		deleted = append(deleted, key)
	}
	res.DeletedKeys = len(deleted)

	// Phase 4: a fresh daemon takes the address; both processes must
	// re-register and resync within the bounded backoff budget.
	cfg.Logf("chaos: phase 4: restarting the daemon")
	smd2, err := startProc(cfg.SMDBin, "smd2", cfg.Logf,
		"-listen", smdAddr, "-mib", strconv.Itoa(cfg.MachineMiB), "-stats", "0",
		"-http", smdHTTP)
	if err != nil {
		return res, err
	}
	defer smd2.kill()
	if err := waitTCPAddr(smdAddr, 10*time.Second); err != nil {
		return res, err
	}
	t0 := time.Now()
	resyncBudget := chaosMaxResyncRounds * chaosBackoffMaxMs * time.Millisecond
	var smdStatus smd.Status
	for {
		if err := fetchJSON("http://"+smdHTTP+"/statusz", &smdStatus); err == nil && smdStatus.Stats.Procs >= 2 {
			break
		}
		if time.Since(t0) > resyncBudget+2*time.Second {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	res.ResyncElapsed = time.Since(t0)
	res.ResyncRounds = int(res.ResyncElapsed/(chaosBackoffMaxMs*time.Millisecond)) + 1
	if smdStatus.Stats.Procs < 2 {
		fail("only %d process(es) re-registered within the resync budget", smdStatus.Stats.Procs)
	} else if res.ResyncRounds > chaosMaxResyncRounds {
		fail("resync took %v (%d rounds), budget %d rounds", res.ResyncElapsed, res.ResyncRounds, chaosMaxResyncRounds)
	}

	// Phase 5: pressure against the new incarnation until it completes a
	// traced reclaim cycle of its own.
	cfg.Logf("chaos: phase 5: reclaim across the restarted daemon")
	var traces smd.TraceLog
	for i := 0; i < cfg.Entries*2; i++ {
		if err := acli.Set(fmt.Sprintf("q%05d", i), value); err != nil {
			time.Sleep(10 * time.Millisecond)
		}
		if i%64 == 0 {
			if err := fetchJSON("http://"+smdHTTP+"/traces", &traces); err == nil && len(traces.Traces) > 0 {
				break
			}
		}
	}
	_ = fetchJSON("http://"+smdHTTP+"/traces", &traces)
	res.TracesAfterRestart = len(traces.Traces)
	if res.TracesAfterRestart == 0 {
		fail("restarted daemon completed no traced reclaim cycles under pressure")
	}
	for _, tr := range traces.Traces {
		if tr.Outcome == "" || tr.DurNs < 0 {
			fail("trace %d inconsistent after restart: outcome=%q dur=%d", tr.ID, tr.Outcome, tr.DurNs)
		}
	}
	var victimStatus kvstore.Status
	if err := fetchJSON("http://"+victimHTTP+"/statusz", &victimStatus); err == nil {
		res.DemandsServed = victimStatus.SMA.DemandsServed
	}
	if res.DemandsServed == 0 {
		fail("victim reports zero demands served across both daemon incarnations")
	}

	// No resurrection after the daemon restart.
	for _, key := range deleted {
		if _, ok, err := vcli.Get(key); err == nil && ok {
			res.ResurrectedKeys++
		}
	}

	// Phase 6: kill -9 the victim itself and restart it over the same
	// spill directory. Recovery must truncate the planted torn write,
	// report it via metrics, keep serving, and still not resurrect
	// deleted keys (their tombstones are on disk).
	cfg.Logf("chaos: phase 6: kill -9 the victim; recover its spill tier")
	victim.kill()
	vcli.Close()
	victim2, err := startProc(cfg.SoftKVBin, "victim2", cfg.Logf, victimArgs("")...)
	if err != nil {
		return res, err
	}
	defer victim2.kill()
	if err := waitTCPAddr(victimAddr, 10*time.Second); err != nil {
		return res, err
	}
	vcli2, err := kvstore.DialClient("tcp", victimAddr)
	if err != nil {
		return res, err
	}
	defer vcli2.Close()

	corrupt, found, err := fetchMetric("http://"+victimHTTP+"/metrics", "softmem_spill_corrupt_records_total")
	if err != nil || !found {
		fail("corrupt-records metric unavailable after victim restart (err=%v)", err)
	}
	res.SpillCorruptCount = corrupt
	if corrupt < 1 {
		fail("torn spill write not reported: corrupt_records_total = %.0f, want >= 1", corrupt)
	}
	for _, key := range deleted {
		if _, ok, err := vcli2.Get(key); err == nil && ok {
			res.ResurrectedKeys++
		}
	}
	if res.ResurrectedKeys > 0 {
		fail("%d deleted key(s) resurrected", res.ResurrectedKeys)
	}
	// And the recovered victim still serves both tiers: fresh writes and
	// reads that may fault in from the recovered spill log.
	if err := vcli2.Set("post-recovery", value); err != nil {
		fail("recovered victim rejects writes: %v", err)
	}
	if v, ok, err := vcli2.Get("post-recovery"); err != nil || !ok || v != value {
		fail("recovered victim lost a fresh write (ok=%v err=%v)", ok, err)
	}
	return res, nil
}
