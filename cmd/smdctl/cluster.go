package main

import (
	"fmt"
	"io"
	"time"

	"softmem/internal/clusterkv"
	"softmem/internal/kvstore"
	"softmem/internal/metrics"
)

// printCluster renders a node's ring membership, replication counters,
// and the federated soft-budget view.
func printCluster(w io.Writer, body []byte, _ []string) error {
	st, err := decode[clusterkv.Status](body)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "node %s (peer %s): ring v%d, %d nodes, %d slots owned\n",
		st.Self, st.PeerAddr, st.RingVersion, len(st.Nodes), st.SlotsOwned)
	fmt.Fprintf(w, "gossip: %d rounds, %d failures   redirects: %d MOVED\n",
		st.GossipRounds, st.GossipFailures, st.Moved)
	fmt.Fprintf(w, "replication: %d sent, %d acked, %d dropped, %d applied here\n",
		st.ReplSent, st.ReplAcked, st.ReplDropped, st.ReplApplied)
	fmt.Fprintf(w, "federation: %d pages ceded, %d received; local partition %d pages (%d free, %d slack)\n\n",
		st.FedCededPages, st.FedReceivedPages,
		st.Pressure.TotalPages, st.Pressure.FreePages, st.Pressure.SlackPages)
	fmt.Fprintf(w, "%-22s %-22s %-6s %8s %8s %8s %8s\n",
		"addr", "peer", "role", "misses", "total", "free", "slack")
	fmt.Fprintf(w, "%-22s %-22s %-6s %8s %8d %8d %8d\n",
		st.Self, st.PeerAddr, "self", "-",
		st.Pressure.TotalPages, st.Pressure.FreePages, st.Pressure.SlackPages)
	for _, p := range st.Peers {
		fmt.Fprintf(w, "%-22s %-22s %-6s %8d %8d %8d %8d\n",
			p.Addr, p.Peer, "peer", p.Misses,
			p.Pressure.TotalPages, p.Pressure.FreePages, p.Pressure.SlackPages)
	}
	return nil
}

// clusterNodeRow is one node's aggregated view in the cluster-wide top.
type clusterNodeRow struct {
	addr       string
	statusAddr string
	err        error

	opsPerSec      float64 // gets+sets+dels rate
	reclaimPerSec  float64
	movedPerSec    float64
	fedCeded       float64
	fedReceived    float64
	freePages      float64
	totalPages     float64
	epochLag       float64 // slowest lock-free reader's trail behind the global epoch
	deferredPerSec float64 // pages entering epoch limbo per second
	worst          *kvstore.SlowEntry
}

// collectClusterRows discovers the ring via one node's /cluster view and
// gathers every member's history + slowlog through the status addresses
// gossip spread. Nodes that advertise no status listener, or fail to
// answer, render as rows with an error instead of aborting the view.
func collectClusterRows(seedAddr string, timeout time.Duration) ([]clusterNodeRow, error) {
	st, err := fetchInto[clusterkv.Status](seedAddr, "/cluster", timeout)
	if err != nil {
		return nil, err
	}
	rows := []clusterNodeRow{{addr: st.Self, statusAddr: st.StatusAddr}}
	if rows[0].statusAddr == "" {
		// The seed answered on this status listener even if it never
		// advertised one.
		rows[0].statusAddr = seedAddr
	}
	for _, p := range st.Peers {
		rows = append(rows, clusterNodeRow{addr: p.Addr, statusAddr: p.StatusAddr})
	}
	for i := range rows {
		r := &rows[i]
		if r.statusAddr == "" {
			r.err = fmt.Errorf("no status address gossiped")
			continue
		}
		hist, err := fetchInto[metrics.HistoryDump](r.statusAddr, "/metrics/history", timeout)
		if err != nil {
			r.err = err
			continue
		}
		view, prev, elapsed := topViews(hist)
		rate := func(name string) float64 {
			if prev == nil {
				return 0
			}
			return counterRate(view.get(name), prev.get(name), elapsed)
		}
		r.opsPerSec = rate("softmem_kv_gets_total") + rate("softmem_kv_sets_total") + rate("softmem_kv_dels_total")
		r.reclaimPerSec = rate("softmem_kv_reclaimed_total")
		r.movedPerSec = rate("softmem_cluster_moved_total")
		r.fedCeded = view.get("softmem_cluster_fed_ceded_pages_total")
		r.fedReceived = view.get("softmem_cluster_fed_received_pages_total")
		r.freePages = view.get("softmem_smd_free_pages")
		r.totalPages = view.get("softmem_smd_total_pages")
		r.epochLag = view.get("softmem_sma_epoch_lag")
		r.deferredPerSec = rate("softmem_sma_epoch_deferred_pages_total")
		// A node without a readable slowlog still has its rates to show.
		entries, _ := fetchInto[[]kvstore.SlowEntry](r.statusAddr, "/slowlog", timeout)
		for j := range entries {
			if r.worst == nil || entries[j].TotalNs > r.worst.TotalNs {
				r.worst = &entries[j]
			}
		}
	}
	return rows, nil
}

// topCluster draws the cluster-wide view: one row per ring member with
// ops rates, reclaim pressure, federation flows, and the node's worst
// slow request.
func topCluster(w io.Writer, addr string, timeout time.Duration) error {
	rows, err := collectClusterRows(addr, timeout)
	if err != nil {
		return err
	}
	fmt.Fprint(w, clearScreen)
	fmt.Fprintf(w, "cluster via %s — %d nodes — %s\n\n", addr, len(rows), time.Now().Format("15:04:05"))
	fmt.Fprintf(w, "%-22s %10s %10s %10s %8s %8s %9s %9s %6s %9s  %s\n",
		"node", "ops/s", "reclaim/s", "moved/s", "ceded", "recvd", "free", "total", "elag", "defer/s", "worst slow request")
	for _, r := range rows {
		if r.err != nil {
			fmt.Fprintf(w, "%-22s  unreachable: %v\n", r.addr, r.err)
			continue
		}
		worst := "-"
		if r.worst != nil {
			worst = fmt.Sprintf("%s %s (%s, %s)", r.worst.Cmd, r.worst.Key, fmtDur(r.worst.TotalNs), r.worst.Dominant())
		}
		fmt.Fprintf(w, "%-22s %10.1f %10.1f %10.1f %8.0f %8.0f %9.0f %9.0f %6.0f %9.1f  %s\n",
			r.addr, r.opsPerSec, r.reclaimPerSec, r.movedPerSec,
			r.fedCeded, r.fedReceived, r.freePages, r.totalPages,
			r.epochLag, r.deferredPerSec, worst)
	}
	return nil
}
