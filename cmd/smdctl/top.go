package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"softmem/internal/metrics"
)

// snapshot is one history snapshot's series, keyed by metrics.SeriesKey.
type snapshot map[string]float64

// get returns a series' value (0 when absent); labels are name, value
// pairs.
func (s snapshot) get(name string, labels ...string) float64 {
	ls := make([]metrics.Label, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		ls = append(ls, metrics.Label{Name: labels[i], Value: labels[i+1]})
	}
	return s[metrics.SeriesKey(name, ls...)]
}

// has reports whether the snapshot carries an unlabeled series by this
// name — used to gate sections that only apply to some process kinds
// (e.g. the SMA epoch line, absent from the daemon's own registry).
func (s snapshot) has(name string) bool {
	_, ok := s[name]
	return ok
}

// counterRate converts a counter delta into a per-second rate. A
// negative delta means the serving process restarted (counters reset to
// zero) between the two snapshots; it clamps to zero instead of
// rendering a nonsense negative rate.
func counterRate(cur, prev float64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	d := cur - prev
	if d < 0 {
		d = 0
	}
	return d / elapsed.Seconds()
}

// topViews turns a history dump into the render inputs: the latest
// snapshot, the one before it (nil when the history holds only one
// sample yet), and the wall-clock distance between them. One fetch per
// refresh — the server's own snapshot ring supplies the rate window, so
// top never has to poll twice.
func topViews(hist metrics.HistoryDump) (view, prev snapshot, elapsed time.Duration) {
	n := len(hist.Snapshots)
	if n == 0 {
		return snapshot{}, nil, 0
	}
	last := hist.Snapshots[n-1]
	if n >= 2 {
		before := hist.Snapshots[n-2]
		prev = before.Values
		elapsed = time.Duration(last.UnixNs - before.UnixNs)
	}
	return last.Values, prev, elapsed
}

// runTop redraws a live view from /metrics/history — the target's own,
// or with cluster set one row per ring member — every interval. iters >
// 0 bounds the refresh count (mainly for scripting).
func runTop(addr string, cluster bool, timeout, interval time.Duration, iters int) error {
	draw := topOne
	if cluster {
		draw = topCluster
	}
	for i := 0; ; i++ {
		if err := draw(os.Stdout, addr, timeout); err != nil {
			return err
		}
		if iters > 0 && i+1 >= iters {
			return nil
		}
		time.Sleep(interval)
	}
}

const clearScreen = "\x1b[2J\x1b[H" // clear, home cursor

func topOne(w io.Writer, addr string, timeout time.Duration) error {
	hist, err := fetchInto[metrics.HistoryDump](addr, "/metrics/history", timeout)
	if err != nil {
		return err
	}
	view, prev, elapsed := topViews(hist)
	fmt.Fprint(w, clearScreen)
	return renderTop(w, addr, time.Now(), view, prev, elapsed)
}

// renderTop draws ledger gauges, counter rates over the last snapshot
// interval, latency quantiles, and the per-process table.
func renderTop(w io.Writer, addr string, now time.Time, view, prev snapshot, elapsed time.Duration) error {
	fmt.Fprintf(w, "smd %s — %s\n\n", addr, now.Format("15:04:05"))
	fmt.Fprintf(w, "budget %.0f pages   free %.0f   procs %.0f   spilled %.0f B\n\n",
		view.get("softmem_smd_budget_pages"),
		view.get("softmem_smd_free_pages"),
		view.get("softmem_smd_procs"),
		view.get("softmem_smd_spilled_bytes"))

	rate := func(name string) string {
		cur := view.get(name)
		if prev == nil || elapsed <= 0 {
			return fmt.Sprintf("%8.0f", cur)
		}
		return fmt.Sprintf("%8.1f/s", counterRate(cur, prev.get(name), elapsed))
	}
	fmt.Fprintf(w, "requests %s   granted %s   denied %s   cycles %s\n",
		rate("softmem_smd_requests_total"), rate("softmem_smd_granted_total"),
		rate("softmem_smd_denied_total"), rate("softmem_smd_reclaim_cycles_total"))
	fmt.Fprintf(w, "pages: slack %s   demanded %s   reclaimed %s\n\n",
		rate("softmem_smd_slack_pages_total"), rate("softmem_smd_demanded_pages_total"),
		rate("softmem_smd_reclaimed_pages_total"))

	// Epoch line: only processes hosting an SMA (kv nodes pointed at by
	// their status address) export these; the daemon's registry doesn't.
	// The lag gauge and the deferred-pages rate share the history's rate
	// window with the counters above.
	if view.has("softmem_sma_epoch_global") {
		fmt.Fprintf(w, "epoch: global %.0f   lag %.0f   limbo %.0f allocs   deferred pages %s\n\n",
			view.get("softmem_sma_epoch_global"),
			view.get("softmem_sma_epoch_lag"),
			view.get("softmem_sma_epoch_limbo_allocs"),
			rate("softmem_sma_epoch_deferred_pages_total"))
	}

	q := func(name, quantile string) string {
		v := view.get(name, "quantile", quantile)
		if view.get(name+"_count") == 0 {
			return "-"
		}
		return fmtDur(int64(v))
	}
	fmt.Fprintf(w, "latency p50/p99: request %s/%s   demand rtt %s/%s   reclaim cycle %s/%s\n\n",
		q("softmem_smd_request_ns", "0.5"), q("softmem_smd_request_ns", "0.99"),
		q("softmem_smd_demand_rtt_ns", "0.5"), q("softmem_smd_demand_rtt_ns", "0.99"),
		q("softmem_smd_reclaim_cycle_ns", "0.5"), q("softmem_smd_reclaim_cycle_ns", "0.99"))

	// Per-process table, driven by the labeled per-proc gauges.
	type procRow struct {
		id   int
		name string
	}
	var rows []procRow
	for key := range view {
		name, labels, err := metrics.SplitKey(key)
		if err != nil {
			return err
		}
		if name != "softmem_smd_proc_budget_pages" {
			continue
		}
		var r procRow
		for _, l := range labels {
			switch l.Name {
			case "proc":
				if r.id, err = strconv.Atoi(l.Value); err != nil {
					return fmt.Errorf("%s: %w", key, err)
				}
			case "name":
				r.name = l.Value
			}
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	fmt.Fprintf(w, "%-6s %-20s %10s %10s %8s %12s\n", "proc", "name", "budget", "used", "weight", "spilled")
	for _, r := range rows {
		p := strconv.Itoa(r.id)
		fmt.Fprintf(w, "%-6d %-20s %10.0f %10.0f %8.1f %12.0f\n",
			r.id, r.name,
			view.get("softmem_smd_proc_budget_pages", "proc", p, "name", r.name),
			view.get("softmem_smd_proc_used_pages", "proc", p, "name", r.name),
			view.get("softmem_smd_proc_weight", "proc", p, "name", r.name),
			view.get("softmem_smd_proc_spilled_bytes", "proc", p, "name", r.name))
	}
	return nil
}
