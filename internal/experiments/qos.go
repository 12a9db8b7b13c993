package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"softmem/internal/core"
	"softmem/internal/kvstore"
	"softmem/internal/pages"
	"softmem/internal/smd"
)

// QoSConfig parameterizes E14, the stall-aware multi-tenant QoS
// experiment: two kvstore tenants behind one daemon partition — a
// latency-critical frontend serving a Zipf read mix and a best-effort
// antagonist hammering a hot-key storm — plus a budget-flood process
// generating reclaim cycles. The experiment runs the same load twice,
// once with legacy weight-ordered victim selection and once with tenant
// specs registered, and reports where reclamation landed in each mode.
type QoSConfig struct {
	// Seed drives the load generators' key streams.
	Seed int64
}

// The E14 load.
const (
	// qosPartitionMiB is the daemon's soft memory partition.
	qosPartitionMiB = 16
	// qosRequests is each tenant load's request count.
	qosRequests = 20000
	// qosKeys is the frontend keyspace; the preload fills it.
	qosKeys = 8192
	// qosValueBytes is the stored value size.
	qosValueBytes = 1024
	// qosFloodPages is the budget-flood request size.
	qosFloodPages = 256
)

func (c *QoSConfig) setDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// QoSTenantRow is one tenant's outcome in one mode.
type QoSTenantRow struct {
	Mode   string // "legacy" or "qos"
	Name   string
	Tenant string
	Class  int
	SLOMs  int
	// StallRatio is the tenant store's cumulative reclamation-stall time
	// over the mode's wall time (can exceed 1 with concurrent shards).
	StallRatio float64
	// DemandedPages / ReleasedPages: the tenant's lifetime as a
	// reclamation source in this mode — where the pressure landed.
	DemandedPages int64
	ReleasedPages int64
	UsedPages     int
	// GetP99 is the tenant load's GET p99; Throughput its ops/sec.
	GetP99     time.Duration
	Throughput float64
}

// QoSResult is the E14 outcome: per-tenant rows for both modes, the
// reclaim-cycle counts, and the invariant violations (empty = the QoS
// policy did its job). The chaos suite reruns the experiment under
// seeds and fails on any Failures entry.
type QoSResult struct {
	Rows          []QoSTenantRow
	ReclaimEvents map[string]int64
	Failures      []string
}

// Fprint renders E14.
func (r QoSResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "E14 — stall-aware multi-tenant QoS (frontend class 2 slo 10ms vs antagonist class 0 slo 1000ms)\n\n")
	fmt.Fprintf(w, "%-8s %-12s %5s %7s %10s %10s %10s %8s %10s %12s\n",
		"mode", "tenant", "class", "slo_ms", "demanded", "released", "used", "stall", "get_p99", "ops/s")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %-12s %5d %7d %10d %10d %10d %7.2f %10s %12.0f\n",
			row.Mode, row.Tenant, row.Class, row.SLOMs,
			row.DemandedPages, row.ReleasedPages, row.UsedPages, row.StallRatio,
			row.GetP99.Round(time.Microsecond), row.Throughput)
	}
	fmt.Fprintf(w, "\nreclaim cycles: legacy=%d qos=%d\n", r.ReclaimEvents["legacy"], r.ReclaimEvents["qos"])
	if len(r.Failures) == 0 {
		fmt.Fprintf(w, "invariants: all held (QoS shifted reclamation onto the low-SLO tenant; no tenant starved)\n")
		return
	}
	fmt.Fprintf(w, "FAILURES:\n")
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  - %s\n", f)
	}
}

// qosTenant is one tenant's in-process serving stack.
type qosTenant struct {
	name  string
	spec  smd.TenantSpec
	sma   *core.SMA
	store *kvstore.Store
	srv   *kvstore.Server
	addr  string
	load  kvstore.LoadGenConfig
}

// RunQoS runs E14: the same two-tenant contention twice, legacy victim
// ordering then QoS ordering, and checks that registering tenant specs
// moves reclamation off the stalling high-SLO tenant and onto the
// best-effort antagonist without starving it.
func RunQoS(cfg QoSConfig) QoSResult {
	cfg.setDefaults()
	res := QoSResult{ReclaimEvents: make(map[string]int64)}
	for _, mode := range []string{"legacy", "qos"} {
		runQoSMode(&res, mode, cfg)
	}
	// The policy verdict compares where reclamation landed in QoS mode.
	var frontend, antagonist QoSTenantRow
	for _, row := range res.Rows {
		if row.Mode != "qos" {
			continue
		}
		switch row.Tenant {
		case "frontend":
			frontend = row
		case "antagonist":
			antagonist = row
		}
	}
	if res.ReclaimEvents["qos"] == 0 {
		res.Failures = append(res.Failures, "qos mode generated no reclaim cycles (no pressure, nothing tested)")
	}
	if antagonist.ReleasedPages == 0 {
		res.Failures = append(res.Failures, "antagonist released nothing under QoS ordering")
	}
	if frontend.ReleasedPages > antagonist.ReleasedPages {
		res.Failures = append(res.Failures, fmt.Sprintf(
			"QoS failed to shift reclamation onto the low-SLO tenant: frontend released %d pages, antagonist %d",
			frontend.ReleasedPages, antagonist.ReleasedPages))
	}
	if frontend.UsedPages == 0 || antagonist.UsedPages == 0 {
		res.Failures = append(res.Failures, fmt.Sprintf(
			"a tenant was starved to zero pages (frontend=%d antagonist=%d); the floor must retain 1/8",
			frontend.UsedPages, antagonist.UsedPages))
	}
	return res
}

// runQoSMode runs one pass: build the machine, preload, race the two
// tenant loads against the budget flood, then snapshot the daemon's
// per-proc reclamation ledger.
func runQoSMode(res *QoSResult, mode string, cfg QoSConfig) {
	daemon := smd.NewDaemon(smd.Config{TotalPages: qosPartitionMiB << 20 / pages.Size})

	tenants := []*qosTenant{
		{
			name: "frontend",
			spec: smd.TenantSpec{Tenant: "frontend", Class: 2, SLOMs: 10},
			load: kvstore.LoadGenConfig{
				Conns: 4, Requests: qosRequests, ReadFraction: 0.95,
				Keys: qosKeys, ValueBytes: qosValueBytes, Pipeline: 8,
				Seed: cfg.Seed,
			},
		},
		{
			name: "antagonist",
			spec: smd.TenantSpec{Tenant: "antagonist", Class: 0, SLOMs: 1000},
			load: kvstore.LoadGenConfig{
				Conns: 4, Requests: qosRequests, ReadFraction: 0.2,
				Keys: qosKeys * 4, ValueBytes: qosValueBytes, Pipeline: 8,
				HotKeys: 64, HotFraction: 0.8,
				Seed: cfg.Seed + 100,
			},
		},
	}
	for _, tn := range tenants {
		tn.sma = core.New(core.Config{Machine: pages.NewPool(0)})
		tn.store = kvstore.New(tn.sma, kvstore.WithShards(4))
		tn.sma.SetStallReporter(tn.store.StallNanos)
		proc := daemon.Register(tn.name, tn.sma)
		if mode == "qos" {
			daemon.SetTenant(proc, tn.spec)
		}
		tn.sma.AttachDaemon(proc)
		tn.srv = kvstore.NewServer(tn.store, func(string, ...any) {})
		addr, err := tn.srv.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(fmt.Sprintf("qos: listen: %v", err))
		}
		go func(s *kvstore.Server) { _ = s.Serve() }(tn.srv)
		tn.addr = addr.String()
		tn.load.Addr = tn.addr
	}

	// Preload both working sets. The frontend's footprint dominates —
	// under legacy weight ordering it is the preferred victim, which is
	// exactly the behavior QoS must fix — while the antagonist carries
	// half as much, enough to absorb the flood's reclaim cycles when the
	// QoS ordering redirects them onto it.
	value := make([]byte, qosValueBytes)
	for i := uint64(0); i < qosKeys; i++ {
		if err := tenants[0].store.Set(fmt.Sprintf("key-%016x", i), value); err != nil {
			break // partition full: preload stops, load traffic takes over
		}
	}
	for i := uint64(0); i < qosKeys/2; i++ {
		if err := tenants[1].store.Set(fmt.Sprintf("akey-%016x", i), value); err != nil {
			break
		}
	}

	// The budget flood is the third-party requester whose reclaim cycles
	// exercise victim selection over BOTH tenants (a tenant's own request
	// can only victimize the other — self-reclaim is off). It represents
	// a batch job continuously asking the machine for soft memory.
	flood := daemon.Register("flood", nil)
	stop := make(chan struct{})
	var floodWG sync.WaitGroup
	floodWG.Add(1)
	go func() {
		defer floodWG.Done()
		held := 0
		for {
			select {
			case <-stop:
				if held > 0 {
					_ = flood.ReleaseBudget(held, core.Usage{})
				}
				return
			default:
			}
			granted, err := flood.RequestBudget(qosFloodPages, core.Usage{UsedPages: held})
			if err == nil {
				held += granted
			}
			if held >= (qosPartitionMiB<<20/pages.Size)/2 {
				_ = flood.ReleaseBudget(held, core.Usage{})
				held = 0
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Race the tenant loads.
	results := make([]kvstore.LoadGenResult, len(tenants))
	start := time.Now()
	var wg sync.WaitGroup
	for i, tn := range tenants {
		wg.Add(1)
		go func(i int, tn *qosTenant) {
			defer wg.Done()
			r, err := kvstore.RunLoad(tn.load)
			if err != nil {
				panic(fmt.Sprintf("qos: load %s: %v", tn.name, err))
			}
			results[i] = r
		}(i, tn)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	floodWG.Wait()

	res.ReclaimEvents[mode] = daemon.Stats().ReclaimEvents
	snap := daemon.QoSSnapshot()
	for i, tn := range tenants {
		row := QoSTenantRow{
			Mode: mode, Name: tn.name, Tenant: tn.spec.Tenant,
			Class: tn.spec.Class, SLOMs: tn.spec.SLOMs,
			StallRatio: float64(tn.store.StallNanos()) / float64(elapsed.Nanoseconds()),
			GetP99:     time.Duration(results[i].GetLatency.Quantile(0.99)),
			Throughput: results[i].Throughput,
		}
		for _, q := range snap {
			if q.Name == tn.name {
				row.DemandedPages = q.DemandedPages
				row.ReleasedPages = q.ReleasedPages
				row.UsedPages = q.UsedPages
			}
		}
		res.Rows = append(res.Rows, row)
		tn.srv.Close()
		tn.store.Close()
	}
}
