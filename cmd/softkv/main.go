// Command softkv runs the Redis-like key-value store with its cache in
// soft memory (the paper's §5 prototype integration). It optionally
// connects to a Soft Memory Daemon, making its memory revocable under
// machine-wide pressure.
//
// Usage:
//
//	softkv -listen 127.0.0.1:6380 -smd 127.0.0.1:7070 -name redis-like
//	softkv -listen 127.0.0.1:6380                      # standalone
//	softkv -listen 127.0.0.1:6380 -spill-dir /var/tmp/softkv-spill
//
// With -spill-dir set, entries revoked under memory pressure are demoted
// to compressed disk records instead of dropped, and a GET miss faults
// the value back into soft memory transparently.
//
// Cluster mode shards the keyspace across nodes by consistent hashing
// (-MOVED redirects), replicates writes to the ring successor, and
// federates soft memory budget between the nodes' embedded daemons:
//
//	softkv -listen :6380 -cluster-peer :16380 -cluster-mib 20
//	softkv -listen :6381 -cluster-peer :16381 -cluster-mib 20 -cluster-seeds 127.0.0.1:16380
//	softkv -listen :6382 -cluster-peer :16382 -cluster-mib 20 -cluster-seeds 127.0.0.1:16380
//
// Speak to it with the RESP subset: SET/GET/DEL/EXISTS/DBSIZE/INFO/PING,
// plus CLUSTER INFO/NODES/SLOT and WAIT in cluster mode.
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"softmem/internal/clusterkv"
	"softmem/internal/core"
	"softmem/internal/faultinject"
	"softmem/internal/ipc"
	"softmem/internal/kvstore"
	"softmem/internal/metrics"
	"softmem/internal/pages"
	"softmem/internal/sds"
	"softmem/internal/smd"
	"softmem/internal/spill"
	"softmem/internal/statusz"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:6380", "RESP listen address")
		smdAddr    = flag.String("smd", "", "soft memory daemon address (empty = standalone)")
		smdNetwork = flag.String("smd-network", "tcp", "daemon network: tcp or unix")
		name       = flag.String("name", "softkv", "process name registered with the daemon")
		localMiB   = flag.Int("local-mib", 0, "standalone local soft cap in MiB (0 = unlimited)")
		lru        = flag.Bool("lru", false, "evict least-recently-used entries under reclamation (default: oldest)")
		shards     = flag.Int("shards", runtime.GOMAXPROCS(0), "string-table shards (per-shard heap locks; 1 = store-global eviction order)")
		cleanup    = flag.Int("cleanup-work", 0, "synthetic per-entry cleanup iterations on reclamation")
		httpAddr   = flag.String("http", "", "serve JSON status at this address (empty = off)")
		sweepSec   = flag.Int("sweep", 10, "seconds between TTL expiry sweeps (0 = lazy only)")
		spillDir   = flag.String("spill-dir", "", "spill tier directory: demote reclaimed entries to compressed disk records (empty = drop, the default semantics)")
		spillMiB   = flag.Int("spill-budget", 256, "spill tier disk budget in MiB (oldest segments evicted beyond it)")
		spillSeg   = flag.Int("spill-segment-kib", 0, "spill segment rotation threshold in KiB (0 = default 4 MiB; small values confine torn tails in chaos runs)")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -http listener, with cmd/shard profiler labels on owner execution")
		slowlogMs  = flag.Int("slowlog-ms", 10, "slow-request log threshold in ms (0 = default 10ms)")
		slowlogLen = flag.Int("slowlog-size", 128, "slow-request log ring capacity")
		historyMs  = flag.Int("history-ms", 1000, "metrics history sampling period in ms (with -http)")
		historyLen = flag.Int("history-size", 120, "metrics history ring capacity")
		faults     = flag.String("faults", "", "fault-injection spec (chaos testing; also read from $"+faultinject.EnvVar+")")
		backoffMs  = flag.Int("smd-backoff-ms", 100, "initial daemon reconnect backoff in ms (doubles with jitter up to -smd-backoff-max-ms)")
		backoffMax = flag.Int("smd-backoff-max-ms", 5000, "maximum daemon reconnect backoff in ms")
		jitterSeed = flag.Int64("smd-jitter-seed", 0, "reconnect jitter seed (0 = seeded from the clock; fix it for deterministic chaos runs)")

		clusterPeer      = flag.String("cluster-peer", "", "inter-node listen address; non-empty enables cluster mode")
		clusterSeeds     = flag.String("cluster-seeds", "", "comma-separated peer addresses of existing members to join through")
		clusterAdvertise = flag.String("cluster-advertise", "", "RESP address advertised in the ring (default: the bound -listen address)")
		clusterHeartbeat = flag.Int("cluster-heartbeat-ms", 250, "cluster gossip period in ms")
		clusterMiB       = flag.Int("cluster-mib", 0, "embed a per-node soft memory daemon with this partition in MiB, federating budget across the cluster (conflicts with -smd)")

		tenant      = flag.String("tenant", "", "QoS tenant name registered with the daemon (empty = legacy weight-ordered reclamation)")
		tenantClass = flag.Int("tenant-class", 1, "QoS priority class: 0 best-effort, 1 standard, 2 latency-critical")
		sloMs       = flag.Int("slo-ms", 0, "latency SLO in milliseconds for QoS pressure scoring (0 = daemon reference SLO)")
	)
	flag.Parse()

	if *clusterPeer == "" && (*clusterSeeds != "" || *clusterMiB > 0) {
		log.Fatalf("softkv: -cluster-seeds and -cluster-mib require -cluster-peer")
	}
	if *clusterMiB > 0 && *smdAddr != "" {
		log.Fatalf("softkv: -cluster-mib embeds a per-node daemon and conflicts with -smd; pick one")
	}

	if err := faultinject.ArmFromEnv(); err != nil {
		log.Fatalf("softkv: %s: %v", faultinject.EnvVar, err)
	}
	if *faults != "" {
		if err := faultinject.Arm(*faults); err != nil {
			log.Fatalf("softkv: -faults: %v", err)
		}
	}
	if faultinject.Enabled() {
		faultinject.SetLogf(log.Printf)
		log.Printf("softkv: FAULT INJECTION ARMED: %d point(s)", len(faultinject.Snapshot()))
	}

	pool := pages.NewPool(*localMiB << 20 / pages.Size)
	sma := core.New(core.Config{Machine: pool})

	// The metrics registry only exists when something will serve it;
	// without it every hot path keeps its uninstrumented fast path.
	var reg *metrics.Registry
	if *httpAddr != "" {
		reg = metrics.NewRegistry()
		sma.RegisterMetrics(reg)
	}

	policy := sds.EvictOldest
	if *lru {
		policy = sds.EvictLRU
	}

	var spillStore *spill.Store
	if *spillDir != "" {
		var err error
		spillStore, err = spill.Open(spill.Config{
			Dir:          *spillDir,
			BudgetBytes:  int64(*spillMiB) << 20,
			SegmentBytes: int64(*spillSeg) << 10,
		})
		if err != nil {
			log.Fatalf("softkv: spill: %v", err)
		}
		defer spillStore.Close()
		// Report the spill footprint to the daemon with every budget
		// interaction, so SMD sees demotion pressure machine-wide.
		sma.SetSpillReporter(spillStore.BytesOnDisk)
		if reg != nil {
			spillStore.RegisterMetrics(reg)
		}
		log.Printf("softkv: spill tier at %s (budget %d MiB, %d records recovered)",
			*spillDir, *spillMiB, spillStore.Stats().LiveRecords)
	}

	if *pprofOn {
		kvstore.EnableProfilerLabels()
	}
	store := kvstore.New(sma,
		kvstore.WithPolicy(policy),
		kvstore.WithShards(*shards),
		kvstore.WithCleanupWork(*cleanup),
		kvstore.WithOnReclaim(func(string) {}),
		kvstore.WithSpill(spillStore),
		kvstore.WithSlowLog(time.Duration(*slowlogMs)*time.Millisecond, *slowlogLen),
	)
	if reg != nil {
		store.RegisterMetrics(reg)
	}
	// Ship the store's reclamation-stall total (contended yields + spill
	// promotions) with every daemon self-report: the signal behind
	// stall-aware QoS victim selection.
	sma.SetStallReporter(store.StallNanos)

	var daemon *smd.Daemon
	switch {
	case *clusterMiB > 0:
		// Cluster mode embeds this machine's daemon in-process: the SMA's
		// budget is arbitrated locally and the cluster node federates the
		// partition with its peers (borrowing and ceding pages).
		daemon = smd.NewDaemon(smd.Config{TotalPages: *clusterMiB << 20 / pages.Size})
		proc := daemon.Register(*name, sma)
		if *tenant != "" {
			daemon.SetTenant(proc, smd.TenantSpec{Tenant: *tenant, Class: *tenantClass, SLOMs: *sloMs})
		}
		sma.AttachDaemon(proc)
		if reg != nil {
			daemon.RegisterMetrics(reg)
		}
		log.Printf("softkv: embedded soft memory daemon arbitrating %d MiB", *clusterMiB)
	case *smdAddr != "":
		// The resilient client survives daemon restarts: it re-registers
		// and resyncs the budget ledger automatically.
		cli, err := ipc.DialResilient(*smdNetwork, *smdAddr, *name, sma,
			ipc.WithDialTimeout(5*time.Second),
			ipc.WithBackoff(time.Duration(*backoffMs)*time.Millisecond, time.Duration(*backoffMax)*time.Millisecond),
			ipc.WithJitterSeed(*jitterSeed),
			ipc.WithTenant(*tenant, *tenantClass, *sloMs))
		if err != nil {
			log.Fatalf("softkv: daemon: %v", err)
		}
		sma.AttachDaemon(cli)
		if reg != nil {
			cli.RegisterMetrics(reg)
		}
		log.Printf("softkv: registered with daemon at %s as %q", *smdAddr, *name)
	default:
		log.Printf("softkv: standalone (no daemon); soft memory bounded only by -local-mib")
	}

	// Log every squeeze — the explicit pressure signal the paper
	// contrasts with transparent swapping.
	sma.OnPressure(func(ev core.PressureEvent) {
		log.Printf("softkv: pressure: released %d/%d pages (%d entries revoked), %d pages held",
			ev.ReleasedPages, ev.DemandedPages, ev.AllocsReclaimed, ev.UsedPages)
	})

	// The RESP listener binds before the status server so cluster mode
	// knows the advertised address, and so /cluster can serve the node.
	srv := kvstore.NewServer(store, log.Printf)
	if reg != nil {
		srv.RegisterMetrics(reg)
	}
	addr, err := srv.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("softkv: %v", err)
	}
	log.Printf("softkv: serving RESP on %s", addr)

	var node *clusterkv.Node
	if *clusterPeer != "" {
		advertise := *clusterAdvertise
		if advertise == "" {
			advertise = addr.String()
		}
		var seeds []string
		for _, s := range strings.Split(*clusterSeeds, ",") {
			if s = strings.TrimSpace(s); s != "" {
				seeds = append(seeds, s)
			}
		}
		var err error
		node, err = clusterkv.Start(clusterkv.Config{
			Addr:       advertise,
			PeerAddr:   *clusterPeer,
			Store:      store,
			Server:     srv,
			Daemon:     daemon,
			Seeds:      seeds,
			Heartbeat:  time.Duration(*clusterHeartbeat) * time.Millisecond,
			JitterSeed: *jitterSeed,
			Logf:       log.Printf,
		})
		if err != nil {
			log.Fatalf("softkv: cluster: %v", err)
		}
		defer node.Close()
		if reg != nil {
			node.RegisterMetrics(reg)
		}
		log.Printf("softkv: cluster node %s gossiping on %s (%d seeds)", advertise, node.PeerAddr(), len(seeds))
	}

	if *httpAddr != "" {
		endpoints := map[string]func() any{
			"statusz": func() any {
				return kvstore.Status{Contexts: sma.Contexts(), SMA: sma.Stats(), Store: store.Stats()}
			},
			"slowlog": func() any { return store.SlowLog() },
		}
		hist := reg.StartHistory(time.Duration(*historyMs)*time.Millisecond, *historyLen)
		defer hist.Close()
		endpoints["metrics/history"] = func() any { return hist.Dump() }
		if node != nil {
			endpoints["cluster"] = func() any { return node.Status() }
		}
		if daemon != nil {
			// The embedded daemon's endpoints, its ledger at /smd: /statusz
			// is this process's own.
			for path, fn := range daemon.Endpoints() {
				if path == "statusz" {
					path = "smd"
				}
				endpoints[path] = fn
			}
		}
		if spillStore != nil {
			endpoints["spill"] = func() any {
				return spill.Status{BytesOnDisk: spillStore.BytesOnDisk(), Stats: spillStore.Stats()}
			}
		}
		raw := map[string]http.Handler{"metrics": reg.Handler()}
		if *pprofOn {
			for path, h := range statusz.PprofHandlers() {
				raw[path] = h
			}
		}
		stSrv, stAddr, err := statusz.ServeHandlers(*httpAddr, endpoints, raw)
		if err != nil {
			log.Fatalf("softkv: %v", err)
		}
		defer stSrv.Close()
		if node != nil {
			// Advertise the bound status listener in gossip so cluster
			// tooling can fan out from any node.
			node.SetStatusAddr(stAddr.String())
		}
		log.Printf("softkv: status at http://%s/statusz, metrics at /metrics", stAddr)
	}

	if *sweepSec > 0 {
		go func() {
			for range time.Tick(time.Duration(*sweepSec) * time.Second) {
				if n := store.SweepExpired(); n > 0 {
					log.Printf("softkv: expired %d entries", n)
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("softkv: shutting down")
		if node != nil {
			node.Close()
		}
		srv.Close()
		os.Exit(0)
	}()
	if err := srv.Serve(); err != nil {
		log.Fatalf("softkv: %v", err)
	}
}
