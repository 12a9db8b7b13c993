package main

import (
	"fmt"
	"io"
	"time"

	"softmem/internal/kvstore"
)

// printSlowlog renders a kv node's slow-request log, newest first, with
// the per-phase latency breakdown each entry carries: one column per
// phase kvstore.SlowEntry lists.
func printSlowlog(w io.Writer, body []byte, _ []string) error {
	entries, err := decode[[]kvstore.SlowEntry](body)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Fprintln(w, "slow-request log empty (nothing crossed the threshold)")
		return nil
	}
	fmt.Fprintf(w, "%-8s %-12s %-8s %-24s %9s", "seq", "when", "cmd", "key", "total")
	for _, column := range kvstore.SlowColumns {
		fmt.Fprintf(w, " %9s", column)
	}
	fmt.Fprintf(w, "  %s\n", "dominant")
	for _, e := range entries {
		key := e.Key
		if len(key) > 24 {
			key = key[:21] + "..."
		}
		fmt.Fprintf(w, "%-8d %-12s %-8s %-24s %9s",
			e.Seq, time.Unix(0, e.UnixNs).Format("15:04:05.000"), e.Cmd, key, fmtDur(e.TotalNs))
		for _, ns := range e.PhaseNs() {
			fmt.Fprintf(w, " %9s", fmtDur(ns))
		}
		fmt.Fprintf(w, "  %s\n", e.Dominant())
	}
	return nil
}
