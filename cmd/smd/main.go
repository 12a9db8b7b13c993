// Command smd runs the Soft Memory Daemon: the machine-wide arbiter of
// soft memory budgets (§3.3). Processes connect over TCP or a Unix
// socket, request budget, and receive reclamation demands.
//
// Usage:
//
//	smd -listen 127.0.0.1:7070 -mib 20
//	smd -network unix -listen /tmp/smd.sock -mib 256 -targets 3 -factor 1.25
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"softmem/internal/faultinject"
	"softmem/internal/ipc"
	"softmem/internal/metrics"
	"softmem/internal/pages"
	"softmem/internal/smd"
	"softmem/internal/statusz"
)

func main() {
	var (
		network  = flag.String("network", "tcp", "listen network: tcp or unix")
		listen   = flag.String("listen", "127.0.0.1:7070", "listen address")
		mib      = flag.Int("mib", 20, "machine soft memory partition in MiB (paper: 20)")
		targets  = flag.Int("targets", 3, "max processes disturbed per request")
		factor   = flag.Float64("factor", 1.25, "over-reclamation factor")
		policy   = flag.String("policy", "proportional", "weight policy: proportional, footprint, softshare")
		self     = flag.Bool("self-reclaim", false, "allow a requester to reclaim from itself")
		statsSec = flag.Int("stats", 10, "seconds between stats lines (0 = quiet)")
		httpAddr = flag.String("http", "", "serve JSON status at this address (empty = off)")
		audit    = flag.Bool("audit", false, "log every grant/denial/demand decision")
		pprofOn  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -http listener")
		faults   = flag.String("faults", "", "fault-injection spec (chaos testing; also read from $"+faultinject.EnvVar+")")
	)
	flag.Parse()

	if err := faultinject.ArmFromEnv(); err != nil {
		log.Fatalf("smd: %s: %v", faultinject.EnvVar, err)
	}
	if *faults != "" {
		if err := faultinject.Arm(*faults); err != nil {
			log.Fatalf("smd: -faults: %v", err)
		}
	}
	if faultinject.Enabled() {
		faultinject.SetLogf(log.Printf)
		log.Printf("smd: FAULT INJECTION ARMED: %d point(s)", len(faultinject.Snapshot()))
	}

	var pol smd.WeightPolicy
	switch *policy {
	case "proportional":
		pol = smd.ProportionalWeight{}
	case "footprint":
		pol = smd.FootprintWeight{}
	case "softshare":
		pol = smd.SoftShareWeight{}
	default:
		log.Fatalf("smd: unknown policy %q", *policy)
	}

	cfg := smd.Config{
		TotalPages:       *mib << 20 / pages.Size,
		TargetCap:        *targets,
		ReclaimFactor:    *factor,
		Policy:           pol,
		AllowSelfReclaim: *self,
	}
	if *audit {
		cfg.OnEvent = func(ev smd.Event) {
			log.Printf("smd: audit %s proc=%d(%s) pages=%d released=%d trigger=%d",
				ev.Kind, ev.Proc, ev.Name, ev.Pages, ev.Released, ev.Trigger)
		}
	}
	daemon := smd.NewDaemon(cfg)
	if *httpAddr != "" {
		reg := metrics.NewRegistry()
		daemon.RegisterMetrics(reg)
		raw := map[string]http.Handler{"metrics": reg.Handler()}
		if *pprofOn {
			for path, h := range statusz.PprofHandlers() {
				raw[path] = h
			}
		}
		hist := reg.StartHistory(time.Second, 120)
		defer hist.Close()
		endpoints := daemon.Endpoints()
		endpoints["metrics/history"] = func() any { return hist.Dump() }
		stSrv, stAddr, err := statusz.ServeHandlers(*httpAddr, endpoints, raw)
		if err != nil {
			log.Fatalf("smd: %v", err)
		}
		defer stSrv.Close()
		log.Printf("smd: status at http://%s/statusz, audit log at /events, reclaim traces at /traces, tenant QoS at /qos, metrics at /metrics", stAddr)
	}
	srv := ipc.NewServer(daemon, log.Printf)
	addr, err := srv.Listen(*network, *listen)
	if err != nil {
		log.Fatalf("smd: %v", err)
	}
	log.Printf("smd: arbitrating %d MiB (%d pages) of soft memory on %s", *mib, daemon.TotalPages(), addr)

	if *statsSec > 0 {
		go func() {
			for range time.Tick(time.Duration(*statsSec) * time.Second) {
				st := daemon.Stats()
				log.Printf("smd: procs=%d budgeted=%d free=%d requests=%d denied=%d reclaimed=%d",
					st.Procs, st.BudgetPages, st.FreePages, st.Requests, st.Denied, st.PagesReclaimed)
				for _, p := range daemon.Snapshot() {
					log.Printf("smd:   %-16s budget=%-6d used=%-6d trad=%-10d spilled=%-10d weight=%.1f",
						p.Name, p.BudgetPages, p.Usage.UsedPages, p.Usage.TraditionalBytes, p.Usage.SpilledBytes, p.Weight)
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "smd: shutting down")
		srv.Close()
	}()
	if err := srv.Serve(); err != nil {
		log.Fatalf("smd: %v", err)
	}
}
