// Command smdctl is the operator's view of a running Soft Memory
// Daemon: it fetches the daemon's JSON status endpoints and renders the
// machine's soft memory ledger.
//
// Usage:
//
//	smd -http 127.0.0.1:7071 ...     # daemon exposes status
//	smdctl -http 127.0.0.1:7071              # status table (default)
//	smdctl -http 127.0.0.1:7071 -json        # raw status JSON
//	smdctl -http 127.0.0.1:7071 events       # audit event log
//	smdctl -http 127.0.0.1:7071 -json events # raw event JSON
//	smdctl -http 127.0.0.1:7071 top          # live ledger + rates from /metrics/history
//	smdctl -http 127.0.0.1:7071 trace        # recent reclaim cycles
//	smdctl -http 127.0.0.1:7071 trace 7      # one cycle, hop by hop
//	smdctl -http 127.0.0.1:8081 cluster      # a cluster node's ring + federation view
//	smdctl -http 127.0.0.1:8081 slowlog      # a kv node's slow-request log, phase by phase
//	smdctl -http 127.0.0.1:8081 top -cluster # cluster-wide per-node rates + slowlog offenders
//	smdctl -http 127.0.0.1:7071 qos          # tenant QoS table: stall ratios, pressure, victim order
//
// Every view decodes the payload type of the package that serves it
// (smd, clusterkv, kvstore, metrics); docs/OBSERVABILITY.md lists which
// endpoint carries which type. top reads /metrics/history — the server's
// own rolling snapshot ring — so rates come from one fetch per refresh
// instead of two /metrics polls, and survive collector restarts
// (negative counter deltas clamp to zero).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"
)

// views maps each one-shot subcommand to the endpoint it reads and the
// renderer of that endpoint's payload; args are the words after the
// subcommand.
var views = map[string]struct {
	path   string
	render func(w io.Writer, body []byte, args []string) error
}{
	"status":  {"/statusz", printStatus},
	"events":  {"/events", printEvents},
	"traces":  {"/traces", printTraces},
	"trace":   {"/traces", printTraces},
	"qos":     {"/qos", printQoS},
	"slowlog": {"/slowlog", printSlowlog},
	"cluster": {"/cluster", printCluster},
}

func main() {
	var (
		httpAddr = flag.String("http", "127.0.0.1:7071", "daemon status address")
		raw      = flag.Bool("json", false, "print the raw JSON instead of the table")
		timeout  = flag.Duration("timeout", 5*time.Second, "request timeout")
		interval = flag.Duration("interval", 2*time.Second, "top refresh interval")
		iters    = flag.Int("iterations", 0, "top iterations before exiting (0 = until interrupted)")
		cluster  = flag.Bool("cluster", false, "top: aggregate every node of the cluster the target belongs to")
	)
	flag.Parse()

	cmd, args := "status", flag.Args()
	if len(args) > 0 {
		cmd, args = args[0], args[1:]
	}
	if cmd == "top" {
		// `top --cluster` after the subcommand also works: the flag
		// package stops parsing at the first non-flag argument.
		if len(args) > 0 && strings.TrimLeft(args[0], "-") == "cluster" {
			*cluster = true
		}
		if err := runTop(*httpAddr, *cluster, *timeout, *interval, *iters); err != nil {
			log.Fatalf("smdctl: top: %v", err)
		}
		return
	}
	v, ok := views[cmd]
	if !ok {
		log.Fatalf("smdctl: unknown command %q (want status, events, trace, top, slowlog, cluster, or qos)", cmd)
	}
	body, err := fetch(*httpAddr, v.path, *timeout)
	if err != nil {
		log.Fatalf("smdctl: %v", err)
	}
	if *raw {
		os.Stdout.Write(body)
		return
	}
	if err := v.render(os.Stdout, body, args); err != nil {
		log.Fatalf("smdctl: %v", err)
	}
}

// fetch retrieves one endpoint's body.
func fetch(addr, path string, timeout time.Duration) ([]byte, error) {
	cli := &http.Client{Timeout: timeout}
	resp, err := cli.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s%s: %s", addr, path, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read %s%s: %w", addr, path, err)
	}
	return body, nil
}

// decode parses an endpoint's body into the type its server declares.
func decode[T any](body []byte) (T, error) {
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("decode %T: %w", v, err)
	}
	return v, nil
}

// fetchInto is fetch plus decode, for the views that read several
// endpoints.
func fetchInto[T any](addr, path string, timeout time.Duration) (v T, err error) {
	body, err := fetch(addr, path, timeout)
	if err != nil {
		return v, err
	}
	return decode[T](body)
}

// fmtDur renders nanoseconds human-first.
func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
