package main

import (
	"fmt"
	"io"
	"strconv"

	"softmem/internal/core"
	"softmem/internal/smd"
)

// The daemon's own views: its ledger, audit log, QoS table and reclaim
// traces, each the payload smd.Daemon.Endpoints serves.

func printStatus(w io.Writer, body []byte, _ []string) error {
	st, err := decode[smd.Status](body)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "soft memory: %d pages budgeted, %d free (%d procs)\n",
		st.Stats.BudgetPages, st.Stats.FreePages, st.Stats.Procs)
	fmt.Fprintf(w, "requests: %d granted, %d denied, %d needed reclamation\n",
		st.Stats.Granted, st.Stats.Denied, st.Stats.ReclaimEvents)
	fmt.Fprintf(w, "reclaimed: %d pages demanded, %d released, %d slack harvested\n",
		st.Stats.DemandedPages, st.Stats.PagesReclaimed, st.Stats.SlackPages)
	fmt.Fprintf(w, "spilled: %d bytes of reclaimed soft data on disk machine-wide\n\n",
		st.Stats.SpilledBytes)
	fmt.Fprintf(w, "%-6s %-20s %10s %10s %14s %10s %10s\n", "proc", "name", "budget", "used", "traditional", "spilled", "weight")
	for _, p := range st.Procs {
		fmt.Fprintf(w, "%-6d %-20s %10d %10d %14d %10d %10.1f\n",
			p.ID, p.Name, p.BudgetPages, p.Usage.UsedPages, p.Usage.TraditionalBytes, p.Usage.SpilledBytes, p.Weight)
	}
	return nil
}

func printEvents(w io.Writer, body []byte, _ []string) error {
	el, err := decode[smd.EventLog](body)
	if err != nil {
		return err
	}
	if len(el.Events) == 0 {
		fmt.Fprintln(w, "no events recorded")
		return nil
	}
	printOverwritten(w, el.Dropped)
	fmt.Fprintf(w, "%-8s %-8s %-6s %-20s %8s %10s %8s %12s\n",
		"seq", "kind", "proc", "name", "pages", "released", "trigger", "spilled")
	for _, ev := range el.Events {
		fmt.Fprintf(w, "%-8d %-8s %-6d %-20s %8d %10d %8d %12d\n",
			ev.Seq, ev.KindName, ev.Proc, ev.Name, ev.Pages, ev.Released, ev.Trigger, ev.SpilledBytes)
	}
	return nil
}

// printQoS renders the tenant QoS table: processes in victim order
// (ascending pressure — the first row is who the next reclaim cycle
// targets first), with each tenant's class, SLO, smoothed stall ratio,
// and lifetime reclamation-source totals.
func printQoS(w io.Writer, body []byte, _ []string) error {
	qt, err := decode[smd.QoSTable](body)
	if err != nil {
		return err
	}
	if len(qt.QoS) == 0 {
		fmt.Fprintln(w, "no processes registered")
		return nil
	}
	fmt.Fprintf(w, "%d procs in victim order (top is reclaimed first)\n", len(qt.QoS))
	fmt.Fprintf(w, "%-6s %-16s %-16s %5s %7s %11s %10s %10s %10s %10s %10s %10s\n",
		"proc", "name", "tenant", "class", "slo_ms", "stall", "pressure", "budget", "used", "demanded", "released", "slack")
	for _, q := range qt.QoS {
		tenant := q.Tenant
		if tenant == "" {
			tenant = "-"
		}
		fmt.Fprintf(w, "%-6d %-16s %-16s %5d %7d %10.2f%% %10.3f %10d %10d %10d %10d %10d\n",
			q.ID, q.Name, tenant, q.Class, q.SLOMs, q.StallRatio*100, q.Pressure,
			q.BudgetPages, q.UsedPages, q.DemandedPages, q.ReleasedPages, q.SlackPages)
	}
	return nil
}

// printTraces renders one line per recorded reclaim cycle, or, given a
// cycle ID, that cycle hop by hop.
func printTraces(w io.Writer, body []byte, args []string) error {
	tl, err := decode[smd.TraceLog](body)
	if err != nil {
		return err
	}
	if len(args) > 0 {
		id, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad trace id %q", args[0])
		}
		for _, tr := range tl.Traces {
			if tr.ID == id {
				printTrace(w, tr)
				return nil
			}
		}
		if tl.Dropped > 0 {
			return fmt.Errorf("trace %d not found (%s)", id, overwritten(tl.Dropped))
		}
		return fmt.Errorf("trace %d not found (ring holds the most recent cycles only)", id)
	}
	if len(tl.Traces) == 0 {
		fmt.Fprintln(w, "no reclaim cycles recorded (every request was satisfied from free memory)")
		return nil
	}
	printOverwritten(w, tl.Dropped)
	fmt.Fprintf(w, "%-6s %-20s %8s %8s %9s %-8s %5s  %s\n",
		"id", "requester", "pages", "need", "dur", "outcome", "hops", "start")
	for _, tr := range tl.Traces {
		fmt.Fprintf(w, "%-6d %-20s %8d %8d %9s %-8s %5d  %s\n",
			tr.ID, fmt.Sprintf("%d(%s)", tr.Requester, tr.ReqName), tr.Pages, tr.Need,
			fmtDur(tr.DurNs), tr.Outcome, len(tr.Hops), tr.Start.Format("15:04:05.000"))
	}
	return nil
}

// overwritten says how far back a daemon ring view reaches.
func overwritten(n int64) string { return fmt.Sprintf("%d older entries overwritten", n) }

// printOverwritten prints overwritten(n) above a ring's table, when the
// ring has overwritten anything.
func printOverwritten(w io.Writer, n int64) {
	if n > 0 {
		fmt.Fprintln(w, overwritten(n))
	}
}

// printTrace renders one reclaim cycle hop by hop, including the
// process-side spans that rode back over IPC.
func printTrace(w io.Writer, tr smd.Trace) {
	fmt.Fprintf(w, "reclaim cycle %d: proc %d(%s) asked %d pages, %d short, %s in %s\n",
		tr.ID, tr.Requester, tr.ReqName, tr.Pages, tr.Need, tr.Outcome, fmtDur(tr.DurNs))
	for i, h := range tr.Hops {
		switch h.Kind {
		case "slack":
			fmt.Fprintf(w, "  hop %d: slack harvest from proc %d(%s): %d pages\n",
				i+1, h.Proc, h.Name, h.Released)
		default:
			fmt.Fprintf(w, "  hop %d: demand to proc %d(%s): asked %d, released %d in %s\n",
				i+1, h.Proc, h.Name, h.Asked, h.Released, fmtDur(h.DurNs))
		}
		for _, sp := range h.Spans {
			switch sp.Kind {
			case "freepool":
				fmt.Fprintf(w, "        freepool: %d pages in %s\n", sp.Pages, fmtDur(sp.DurNs))
			case "sds":
				for _, line := range sdsSpanLines(sp) {
					fmt.Fprintf(w, "        %s\n", line)
				}
			default:
				fmt.Fprintf(w, "        %s: %d records, %d bytes\n", sp.Kind, sp.Count, sp.Bytes)
			}
		}
	}
}

// sdsSpanLines renders one SDS's share of a demand: what it cost in
// entries per page and, for an SDS that reports its victims' ages, how
// old they were. Victims are whole pages, so some are younger than the
// oldest survivor; the span is flagged when they reach further past it
// than one page holds, which means values of very different ages share
// pages, or old pages are vetoed: a tenant read since the last demand
// (LRU) or allocated by a SET that has not installed it yet. A reader
// parked in the epoch moves no ages; it keeps revoked pages in limbo.
func sdsSpanLines(sp core.DemandSpan) []string {
	line := fmt.Sprintf("sds %s: %d pages, %d allocs revoked", sp.Name, sp.Pages, sp.Allocs)
	perPage := int64(0)
	if sp.Pages > 0 {
		perPage = (sp.Allocs + int64(sp.Pages) - 1) / int64(sp.Pages)
		line += fmt.Sprintf(" (%.1f/page)", float64(sp.Allocs)/float64(sp.Pages))
	}
	lines := []string{line + " in " + fmtDur(sp.DurNs)}
	if sp.OldestVictim == 0 {
		return lines
	}
	ages := fmt.Sprintf("  victims aged %d..%d", sp.OldestVictim, sp.NewestVictim)
	if sp.OldestSurvivor == 0 {
		return append(lines, ages+", nothing left behind")
	}
	ages += fmt.Sprintf(", oldest survivor %d", sp.OldestSurvivor)
	if past := int64(sp.NewestVictim) - int64(sp.OldestSurvivor); past > perPage {
		ages += fmt.Sprintf("  <- newest victim is %d entries younger than the oldest survivor, a page holds %d", past, perPage)
	}
	return append(lines, ages)
}
