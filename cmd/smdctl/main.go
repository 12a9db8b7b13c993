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
// top reads /metrics/history — the server's own rolling snapshot ring —
// so rates come from one fetch per refresh instead of two /metrics
// polls, and survive collector restarts (negative counter deltas clamp
// to zero).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// status mirrors the daemon's statusz payload.
type status struct {
	Stats struct {
		Requests       int64 `json:"Requests"`
		Granted        int64 `json:"Granted"`
		Denied         int64 `json:"Denied"`
		ReclaimEvents  int64 `json:"ReclaimEvents"`
		SlackPages     int64 `json:"SlackPages"`
		DemandedPages  int64 `json:"DemandedPages"`
		PagesReclaimed int64 `json:"PagesReclaimed"`
		BudgetPages    int   `json:"BudgetPages"`
		FreePages      int   `json:"FreePages"`
		Procs          int   `json:"Procs"`
		SpilledBytes   int64 `json:"SpilledBytes"`
	} `json:"stats"`
	Procs []struct {
		ID          int    `json:"ID"`
		Name        string `json:"Name"`
		BudgetPages int    `json:"BudgetPages"`
		Usage       struct {
			UsedPages        int   `json:"UsedPages"`
			TraditionalBytes int64 `json:"TraditionalBytes"`
			SpilledBytes     int64 `json:"SpilledBytes"`
		} `json:"Usage"`
		Weight float64 `json:"Weight"`
	} `json:"procs"`
}

// eventLog mirrors the daemon's /events payload.
type eventLog struct {
	Events []struct {
		Seq          uint64 `json:"Seq"`
		KindName     string `json:"KindName"`
		Proc         int    `json:"Proc"`
		Name         string `json:"Name"`
		Pages        int    `json:"Pages"`
		Released     int    `json:"Released"`
		Trigger      int    `json:"Trigger"`
		SpilledBytes int64  `json:"SpilledBytes"`
	} `json:"events"`
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

	cmd := "status"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
	}
	// `top --cluster` after the subcommand also works: the flag package
	// stops parsing at the first non-flag argument.
	if cmd == "top" && flag.NArg() > 1 {
		switch strings.TrimLeft(flag.Arg(1), "-") {
		case "cluster":
			*cluster = true
		}
	}
	switch cmd {
	case "status":
		body := fetch(*httpAddr, "/statusz", *timeout)
		if *raw {
			os.Stdout.Write(body)
			return
		}
		printStatus(body)
	case "events":
		body := fetch(*httpAddr, "/events", *timeout)
		if *raw {
			os.Stdout.Write(body)
			return
		}
		printEvents(body)
	case "traces", "trace":
		body := fetch(*httpAddr, "/traces", *timeout)
		if *raw {
			os.Stdout.Write(body)
			return
		}
		if flag.NArg() > 1 {
			id, err := strconv.ParseUint(flag.Arg(1), 10, 64)
			if err != nil {
				log.Fatalf("smdctl: bad trace id %q", flag.Arg(1))
			}
			printTrace(body, id)
		} else {
			printTraceList(body)
		}
	case "top":
		if *cluster {
			runTopCluster(*httpAddr, *timeout, *interval, *iters)
			return
		}
		runTop(*httpAddr, *timeout, *interval, *iters)
	case "slowlog":
		body := fetch(*httpAddr, "/slowlog", *timeout)
		if *raw {
			os.Stdout.Write(body)
			return
		}
		printSlowlog(body)
	case "cluster":
		body := fetch(*httpAddr, "/cluster", *timeout)
		if *raw {
			os.Stdout.Write(body)
			return
		}
		printCluster(body)
	case "qos":
		body := fetch(*httpAddr, "/qos", *timeout)
		if *raw {
			os.Stdout.Write(body)
			return
		}
		out, err := renderQoS(body)
		if err != nil {
			log.Fatalf("smdctl: decode qos: %v", err)
		}
		fmt.Print(out)
	default:
		log.Fatalf("smdctl: unknown command %q (want status, events, trace, top, slowlog, cluster, or qos)", cmd)
	}
}

// fetch retrieves one JSON endpoint from the daemon.
func fetch(addr, path string, timeout time.Duration) []byte {
	body, err := tryFetch(addr, path, timeout)
	if err != nil {
		log.Fatalf("smdctl: %v", err)
	}
	return body
}

// tryFetch is fetch without the fatal exit, for fan-out paths where one
// unreachable node should not kill the whole view.
func tryFetch(addr, path string, timeout time.Duration) ([]byte, error) {
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

func printStatus(body []byte) {
	var st status
	if err := json.Unmarshal(body, &st); err != nil {
		log.Fatalf("smdctl: decode: %v", err)
	}
	fmt.Printf("soft memory: %d pages budgeted, %d free (%d procs)\n",
		st.Stats.BudgetPages, st.Stats.FreePages, st.Stats.Procs)
	fmt.Printf("requests: %d granted, %d denied, %d needed reclamation\n",
		st.Stats.Granted, st.Stats.Denied, st.Stats.ReclaimEvents)
	fmt.Printf("reclaimed: %d pages demanded, %d released, %d slack harvested\n",
		st.Stats.DemandedPages, st.Stats.PagesReclaimed, st.Stats.SlackPages)
	fmt.Printf("spilled: %d bytes of reclaimed soft data on disk machine-wide\n\n",
		st.Stats.SpilledBytes)
	fmt.Printf("%-6s %-20s %10s %10s %14s %10s %10s\n", "proc", "name", "budget", "used", "traditional", "spilled", "weight")
	for _, p := range st.Procs {
		fmt.Printf("%-6d %-20s %10d %10d %14d %10d %10.1f\n",
			p.ID, p.Name, p.BudgetPages, p.Usage.UsedPages, p.Usage.TraditionalBytes, p.Usage.SpilledBytes, p.Weight)
	}
}

// qosView mirrors the daemon's /qos payload (smd.QoSInfo).
type qosView struct {
	QoS []struct {
		ID            int     `json:"id"`
		Name          string  `json:"name"`
		Tenant        string  `json:"tenant"`
		Class         int     `json:"class"`
		SLOMs         int     `json:"slo_ms"`
		StallRatio    float64 `json:"stall_ratio"`
		Pressure      float64 `json:"pressure"`
		BudgetPages   int     `json:"budget_pages"`
		UsedPages     int     `json:"used_pages"`
		DemandedPages int64   `json:"demanded_pages"`
		ReleasedPages int64   `json:"released_pages"`
		SlackPages    int64   `json:"slack_pages"`
	} `json:"qos"`
}

// renderQoS renders the tenant QoS table: processes in victim order
// (ascending pressure — the first row is who the next reclaim cycle
// targets first), with each tenant's class, SLO, smoothed stall ratio,
// and lifetime reclamation-source totals.
func renderQoS(body []byte) (string, error) {
	var qv qosView
	if err := json.Unmarshal(body, &qv); err != nil {
		return "", err
	}
	if len(qv.QoS) == 0 {
		return "no processes registered\n", nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d procs in victim order (top is reclaimed first)\n", len(qv.QoS))
	fmt.Fprintf(&b, "%-6s %-16s %-16s %5s %7s %11s %10s %10s %10s %10s %10s %10s\n",
		"proc", "name", "tenant", "class", "slo_ms", "stall", "pressure", "budget", "used", "demanded", "released", "slack")
	for _, q := range qv.QoS {
		tenant := q.Tenant
		if tenant == "" {
			tenant = "-"
		}
		fmt.Fprintf(&b, "%-6d %-16s %-16s %5d %7d %10.2f%% %10.3f %10d %10d %10d %10d %10d\n",
			q.ID, q.Name, tenant, q.Class, q.SLOMs, q.StallRatio*100, q.Pressure,
			q.BudgetPages, q.UsedPages, q.DemandedPages, q.ReleasedPages, q.SlackPages)
	}
	return b.String(), nil
}

func printEvents(body []byte) {
	var el eventLog
	if err := json.Unmarshal(body, &el); err != nil {
		log.Fatalf("smdctl: decode: %v", err)
	}
	if len(el.Events) == 0 {
		fmt.Println("no events recorded (ring empty or disabled)")
		return
	}
	fmt.Printf("%-8s %-8s %-6s %-20s %8s %10s %8s %12s\n",
		"seq", "kind", "proc", "name", "pages", "released", "trigger", "spilled")
	for _, ev := range el.Events {
		fmt.Printf("%-8d %-8s %-6d %-20s %8d %10d %8d %12d\n",
			ev.Seq, ev.KindName, ev.Proc, ev.Name, ev.Pages, ev.Released, ev.Trigger, ev.SpilledBytes)
	}
}

// traceLog mirrors the daemon's /traces payload (smd.Trace).
type traceLog struct {
	Traces []struct {
		ID        uint64    `json:"id"`
		Requester int       `json:"requester"`
		ReqName   string    `json:"req_name"`
		Pages     int       `json:"pages"`
		Need      int       `json:"need"`
		Start     time.Time `json:"start"`
		DurNs     int64     `json:"dur_ns"`
		Outcome   string    `json:"outcome"`
		Hops      []struct {
			Kind     string      `json:"kind"`
			Proc     int         `json:"proc"`
			Name     string      `json:"name"`
			Asked    int         `json:"asked"`
			Released int         `json:"released"`
			DurNs    int64       `json:"dur_ns"`
			Spans    []traceSpan `json:"spans"`
		} `json:"hops"`
	} `json:"traces"`
}

// traceSpan mirrors core.DemandSpan, the process-side step of a demand.
type traceSpan struct {
	Kind           string `json:"kind"`
	Name           string `json:"name"`
	Pages          int    `json:"pages"`
	Allocs         int64  `json:"allocs"`
	Count          int    `json:"count"`
	Bytes          int64  `json:"bytes"`
	DurNs          int64  `json:"dur_ns"`
	OldestVictim   uint64 `json:"oldest_victim"`
	NewestVictim   uint64 `json:"newest_victim"`
	OldestSurvivor uint64 `json:"oldest_survivor"`
}

// sdsSpanLines renders one SDS's share of a demand: what it cost in
// entries per page and, for an SDS that reports its victims' ages, how
// old they were. Victims are whole pages, so some are younger than the
// oldest survivor; the span is flagged when they reach further past it
// than one page holds, which means values of very different ages share
// pages (or old pages are being vetoed by pins).
func sdsSpanLines(sp traceSpan) []string {
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

func decodeTraces(body []byte) traceLog {
	var tl traceLog
	if err := json.Unmarshal(body, &tl); err != nil {
		log.Fatalf("smdctl: decode traces: %v", err)
	}
	return tl
}

// printTraceList renders one line per recorded reclaim cycle.
func printTraceList(body []byte) {
	tl := decodeTraces(body)
	if len(tl.Traces) == 0 {
		fmt.Println("no reclaim cycles recorded (every request was satisfied from free memory)")
		return
	}
	fmt.Printf("%-6s %-20s %8s %8s %9s %-8s %5s  %s\n",
		"id", "requester", "pages", "need", "dur", "outcome", "hops", "start")
	for _, tr := range tl.Traces {
		fmt.Printf("%-6d %-20s %8d %8d %9s %-8s %5d  %s\n",
			tr.ID, fmt.Sprintf("%d(%s)", tr.Requester, tr.ReqName), tr.Pages, tr.Need,
			fmtDur(tr.DurNs), tr.Outcome, len(tr.Hops), tr.Start.Format("15:04:05.000"))
	}
}

// printTrace renders one reclaim cycle hop by hop, including the
// process-side spans that rode back over IPC.
func printTrace(body []byte, id uint64) {
	tl := decodeTraces(body)
	for _, tr := range tl.Traces {
		if tr.ID != id {
			continue
		}
		fmt.Printf("reclaim cycle %d: proc %d(%s) asked %d pages, %d short, %s in %s\n",
			tr.ID, tr.Requester, tr.ReqName, tr.Pages, tr.Need, tr.Outcome, fmtDur(tr.DurNs))
		for i, h := range tr.Hops {
			switch h.Kind {
			case "slack":
				fmt.Printf("  hop %d: slack harvest from proc %d(%s): %d pages\n",
					i+1, h.Proc, h.Name, h.Released)
			default:
				fmt.Printf("  hop %d: demand to proc %d(%s): asked %d, released %d in %s\n",
					i+1, h.Proc, h.Name, h.Asked, h.Released, fmtDur(h.DurNs))
			}
			for _, sp := range h.Spans {
				switch sp.Kind {
				case "freepool":
					fmt.Printf("        freepool: %d pages in %s\n", sp.Pages, fmtDur(sp.DurNs))
				case "sds":
					for _, line := range sdsSpanLines(sp) {
						fmt.Printf("        %s\n", line)
					}
				default:
					fmt.Printf("        %s: %d records, %d bytes\n", sp.Kind, sp.Count, sp.Bytes)
				}
			}
		}
		return
	}
	log.Fatalf("smdctl: trace %d not found (ring holds the most recent cycles only)", id)
}

// clusterStatus mirrors a cluster node's /cluster payload
// (clusterkv.Status).
type clusterStatus struct {
	Self        string `json:"Self"`
	PeerAddr    string `json:"PeerAddr"`
	StatusAddr  string `json:"StatusAddr"`
	RingVersion uint64 `json:"RingVersion"`
	Nodes       []struct {
		Addr string `json:"Addr"`
		Peer string `json:"Peer"`
	} `json:"Nodes"`
	SlotsOwned int `json:"SlotsOwned"`
	Peers      []struct {
		Addr       string       `json:"Addr"`
		Peer       string       `json:"Peer"`
		StatusAddr string       `json:"StatusAddr"`
		Misses     int          `json:"Misses"`
		Pressure   peerPressure `json:"Pressure"`
	} `json:"Peers"`

	GossipRounds   int64 `json:"GossipRounds"`
	GossipFailures int64 `json:"GossipFailures"`
	Moved          int64 `json:"Moved"`
	ReplSent       int64 `json:"ReplSent"`
	ReplAcked      int64 `json:"ReplAcked"`
	ReplDropped    int64 `json:"ReplDropped"`
	ReplApplied    int64 `json:"ReplApplied"`

	FedCededPages    int64        `json:"FedCededPages"`
	FedReceivedPages int64        `json:"FedReceivedPages"`
	Pressure         peerPressure `json:"Pressure"`
}

type peerPressure struct {
	TotalPages int `json:"TotalPages"`
	FreePages  int `json:"FreePages"`
	SlackPages int `json:"SlackPages"`
}

// printCluster renders a node's ring membership, replication counters,
// and the federated soft-budget view.
func printCluster(body []byte) {
	var st clusterStatus
	if err := json.Unmarshal(body, &st); err != nil {
		log.Fatalf("smdctl: decode cluster: %v", err)
	}
	fmt.Printf("node %s (peer %s): ring v%d, %d nodes, %d slots owned\n",
		st.Self, st.PeerAddr, st.RingVersion, len(st.Nodes), st.SlotsOwned)
	fmt.Printf("gossip: %d rounds, %d failures   redirects: %d MOVED\n",
		st.GossipRounds, st.GossipFailures, st.Moved)
	fmt.Printf("replication: %d sent, %d acked, %d dropped, %d applied here\n",
		st.ReplSent, st.ReplAcked, st.ReplDropped, st.ReplApplied)
	fmt.Printf("federation: %d pages ceded, %d received; local partition %d pages (%d free, %d slack)\n\n",
		st.FedCededPages, st.FedReceivedPages,
		st.Pressure.TotalPages, st.Pressure.FreePages, st.Pressure.SlackPages)
	fmt.Printf("%-22s %-22s %-6s %8s %8s %8s %8s\n",
		"addr", "peer", "role", "misses", "total", "free", "slack")
	fmt.Printf("%-22s %-22s %-6s %8s %8d %8d %8d\n",
		st.Self, st.PeerAddr, "self", "-",
		st.Pressure.TotalPages, st.Pressure.FreePages, st.Pressure.SlackPages)
	for _, p := range st.Peers {
		fmt.Printf("%-22s %-22s %-6s %8d %8d %8d %8d\n",
			p.Addr, p.Peer, "peer", p.Misses,
			p.Pressure.TotalPages, p.Pressure.FreePages, p.Pressure.SlackPages)
	}
}

// fmtDur renders nanoseconds human-first.
func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// promSample is one parsed line of Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses the subset of the Prometheus text format the daemon
// emits: `name value` and `name{k="v",...} value` lines, comments
// skipped. Malformed lines are ignored rather than fatal, so a partial
// scrape still renders.
func parseProm(body []byte) []promSample {
	var out []promSample
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var s promSample
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				continue
			}
			s.name = line[:i]
			s.labels = parsePromLabels(line[i+1 : j])
			rest = strings.TrimSpace(line[j+1:])
		} else {
			k := strings.IndexByte(line, ' ')
			if k < 0 {
				continue
			}
			s.name = line[:k]
			rest = strings.TrimSpace(line[k+1:])
		}
		v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err != nil {
			continue
		}
		s.value = v
		out = append(out, s)
	}
	return out
}

// parsePromLabels parses `k="v",k2="v2"`, undoing the exposition's
// escaping of backslash, quote, and newline.
func parsePromLabels(s string) map[string]string {
	labels := make(map[string]string)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return labels
		}
		name := s[:eq]
		rest := s[eq+2:]
		var b strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		labels[name] = b.String()
		s = rest[i+1:]
		s = strings.TrimPrefix(s, ",")
	}
	return labels
}

// promView indexes a scrape for rendering.
type promView struct {
	byKey map[string]float64 // name + sorted labels -> value
}

func newPromView(samples []promSample) *promView {
	v := &promView{byKey: make(map[string]float64, len(samples))}
	for _, s := range samples {
		v.byKey[sampleKey(s.name, s.labels)] = s.value
	}
	return v
}

func sampleKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		b.WriteByte('|')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

func (v *promView) get(name string, labels ...string) float64 {
	m := make(map[string]string, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		m[labels[i]] = labels[i+1]
	}
	return v.byKey[sampleKey(name, m)]
}

// has reports whether the scrape carries an unlabeled series by this
// name — used to gate sections that only apply to some process kinds
// (e.g. the SMA epoch line, absent from the daemon's own registry).
func (v *promView) has(name string) bool {
	_, ok := v.byKey[name]
	return ok
}

// historyDump mirrors a server's /metrics/history payload
// (metrics.HistoryDump): periodic snapshots of every series, keyed like
// the Prometheus exposition.
type historyDump struct {
	IntervalNs int64 `json:"interval_ns"`
	Snapshots  []struct {
		UnixNs int64              `json:"unix_ns"`
		Values map[string]float64 `json:"values"`
	} `json:"snapshots"`
}

// samplesFromValues converts one history snapshot's series map back into
// parsed samples, splitting `name{k="v",...}` keys into name + labels.
func samplesFromValues(values map[string]float64) []promSample {
	out := make([]promSample, 0, len(values))
	for k, v := range values {
		s := promSample{name: k, value: v}
		if i := strings.IndexByte(k, '{'); i >= 0 && strings.HasSuffix(k, "}") {
			s.name = k[:i]
			s.labels = parsePromLabels(k[i+1 : len(k)-1])
		}
		out = append(out, s)
	}
	return out
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
// snapshot's samples and view, the previous snapshot's view (nil when
// the history holds only one sample yet), and the wall-clock distance
// between them. One fetch per refresh — the server's own snapshot ring
// supplies the rate window, so top never has to poll twice.
func topViews(hist historyDump) (samples []promSample, view, prev *promView, elapsed time.Duration) {
	n := len(hist.Snapshots)
	if n == 0 {
		return nil, newPromView(nil), nil, 0
	}
	last := hist.Snapshots[n-1]
	samples = samplesFromValues(last.Values)
	view = newPromView(samples)
	if n >= 2 {
		before := hist.Snapshots[n-2]
		prev = newPromView(samplesFromValues(before.Values))
		elapsed = time.Duration(last.UnixNs - before.UnixNs)
	}
	return samples, view, prev, elapsed
}

// runTop redraws a live view from /metrics/history: ledger gauges,
// counter rates over the last snapshot interval, latency quantiles, and
// the per-process table. iters > 0 bounds the refresh count (mainly for
// scripting).
func runTop(addr string, timeout, interval time.Duration, iters int) {
	for i := 0; ; i++ {
		var hist historyDump
		if err := json.Unmarshal(fetch(addr, "/metrics/history", timeout), &hist); err != nil {
			log.Fatalf("smdctl: decode history: %v", err)
		}
		samples, view, prev, elapsed := topViews(hist)
		fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		renderTop(addr, time.Now(), samples, view, prev, elapsed)
		if iters > 0 && i+1 >= iters {
			return
		}
		time.Sleep(interval)
	}
}

func renderTop(addr string, now time.Time, samples []promSample, view, prev *promView, elapsed time.Duration) {
	fmt.Printf("smd %s — %s\n\n", addr, now.Format("15:04:05"))
	fmt.Printf("budget %.0f pages   free %.0f   procs %.0f   spilled %.0f B\n\n",
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
	fmt.Printf("requests %s   granted %s   denied %s   cycles %s\n",
		rate("softmem_smd_requests_total"), rate("softmem_smd_granted_total"),
		rate("softmem_smd_denied_total"), rate("softmem_smd_reclaim_cycles_total"))
	fmt.Printf("pages: slack %s   demanded %s   reclaimed %s\n\n",
		rate("softmem_smd_slack_pages_total"), rate("softmem_smd_demanded_pages_total"),
		rate("softmem_smd_reclaimed_pages_total"))

	// Epoch line: only processes hosting an SMA (kv nodes pointed at by
	// their status address) export these; the daemon's registry doesn't.
	// The lag gauge and the deferred-pages rate share the history's rate
	// window with the counters above.
	if view.has("softmem_sma_epoch_global") {
		fmt.Printf("epoch: global %.0f   lag %.0f   limbo %.0f allocs   deferred pages %s\n\n",
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
	fmt.Printf("latency p50/p99: request %s/%s   demand rtt %s/%s   reclaim cycle %s/%s\n\n",
		q("softmem_smd_request_ns", "0.5"), q("softmem_smd_request_ns", "0.99"),
		q("softmem_smd_demand_rtt_ns", "0.5"), q("softmem_smd_demand_rtt_ns", "0.99"),
		q("softmem_smd_reclaim_cycle_ns", "0.5"), q("softmem_smd_reclaim_cycle_ns", "0.99"))

	// Per-process table, driven by the labeled per-proc gauges.
	type procRow struct {
		id   int
		name string
	}
	seen := map[int]procRow{}
	for _, s := range samples {
		if s.name != "softmem_smd_proc_budget_pages" {
			continue
		}
		id, err := strconv.Atoi(s.labels["proc"])
		if err != nil {
			continue
		}
		seen[id] = procRow{id: id, name: s.labels["name"]}
	}
	rows := make([]procRow, 0, len(seen))
	for _, r := range seen {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	fmt.Printf("%-6s %-20s %10s %10s %8s %12s\n", "proc", "name", "budget", "used", "weight", "spilled")
	for _, r := range rows {
		p := strconv.Itoa(r.id)
		fmt.Printf("%-6d %-20s %10.0f %10.0f %8.1f %12.0f\n",
			r.id, r.name,
			view.get("softmem_smd_proc_budget_pages", "proc", p, "name", r.name),
			view.get("softmem_smd_proc_used_pages", "proc", p, "name", r.name),
			view.get("softmem_smd_proc_weight", "proc", p, "name", r.name),
			view.get("softmem_smd_proc_spilled_bytes", "proc", p, "name", r.name))
	}
}

// slowEntry mirrors one kv slow-request log record
// (kvstore.SlowEntry).
type slowEntry struct {
	Seq            uint64 `json:"seq"`
	UnixNs         int64  `json:"unix_ns"`
	Cmd            string `json:"cmd"`
	Key            string `json:"key"`
	TotalNs        int64  `json:"total_ns"`
	QueueNs        int64  `json:"queue_ns"`
	LockWaitNs     int64  `json:"lock_wait_ns"`
	YieldStallNs   int64  `json:"yield_stall_ns"`
	SpillPromoteNs int64  `json:"spill_promote_ns"`
	ExecNs         int64  `json:"exec_ns"`
}

// dominantPhase names the slow request's largest recorded phase — the
// first place to look when triaging it.
func dominantPhase(e slowEntry) string {
	best, name := e.ExecNs, "exec"
	for _, p := range []struct {
		ns   int64
		name string
	}{
		{e.QueueNs, "queue"},
		{e.LockWaitNs, "lock_wait"},
		{e.YieldStallNs, "yield_stall"},
		{e.SpillPromoteNs, "spill_promote"},
	} {
		if p.ns > best {
			best, name = p.ns, p.name
		}
	}
	return name
}

// printSlowlog renders a kv node's slow-request log, newest first, with
// the per-phase latency breakdown each entry carries.
func printSlowlog(body []byte) {
	var entries []slowEntry
	if err := json.Unmarshal(body, &entries); err != nil {
		log.Fatalf("smdctl: decode slowlog: %v", err)
	}
	if len(entries) == 0 {
		fmt.Println("slow-request log empty (nothing crossed the threshold)")
		return
	}
	fmt.Printf("%-8s %-12s %-8s %-24s %9s %9s %9s %9s %9s %9s  %s\n",
		"seq", "when", "cmd", "key", "total", "queue", "lockwait", "stall", "promote", "exec", "dominant")
	for _, e := range entries {
		key := e.Key
		if len(key) > 24 {
			key = key[:21] + "..."
		}
		fmt.Printf("%-8d %-12s %-8s %-24s %9s %9s %9s %9s %9s %9s  %s\n",
			e.Seq, time.Unix(0, e.UnixNs).Format("15:04:05.000"), e.Cmd, key,
			fmtDur(e.TotalNs), fmtDur(e.QueueNs), fmtDur(e.LockWaitNs),
			fmtDur(e.YieldStallNs), fmtDur(e.SpillPromoteNs), fmtDur(e.ExecNs),
			dominantPhase(e))
	}
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
	worst          *slowEntry
}

// collectClusterRows discovers the ring via one node's /cluster view and
// gathers every member's history + slowlog through the status addresses
// gossip spread. Nodes that advertise no status listener, or fail to
// answer, render as rows with an error instead of aborting the view.
func collectClusterRows(seedAddr string, timeout time.Duration) ([]clusterNodeRow, error) {
	body, err := tryFetch(seedAddr, "/cluster", timeout)
	if err != nil {
		return nil, err
	}
	var st clusterStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("decode cluster: %w", err)
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
		hb, err := tryFetch(r.statusAddr, "/metrics/history", timeout)
		if err != nil {
			r.err = err
			continue
		}
		var hist historyDump
		if err := json.Unmarshal(hb, &hist); err != nil {
			r.err = err
			continue
		}
		_, view, prev, elapsed := topViews(hist)
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
		if sb, err := tryFetch(r.statusAddr, "/slowlog", timeout); err == nil {
			var entries []slowEntry
			if json.Unmarshal(sb, &entries) == nil {
				for j := range entries {
					if r.worst == nil || entries[j].TotalNs > r.worst.TotalNs {
						r.worst = &entries[j]
					}
				}
			}
		}
	}
	return rows, nil
}

// runTopCluster redraws a cluster-wide live view: one row per ring
// member with ops rates, reclaim pressure, federation flows, and the
// node's worst slow request.
func runTopCluster(addr string, timeout, interval time.Duration, iters int) {
	for i := 0; ; i++ {
		rows, err := collectClusterRows(addr, timeout)
		if err != nil {
			log.Fatalf("smdctl: cluster top: %v", err)
		}
		fmt.Print("\x1b[2J\x1b[H")
		fmt.Printf("cluster via %s — %d nodes — %s\n\n", addr, len(rows), time.Now().Format("15:04:05"))
		fmt.Printf("%-22s %10s %10s %10s %8s %8s %9s %9s %6s %9s  %s\n",
			"node", "ops/s", "reclaim/s", "moved/s", "ceded", "recvd", "free", "total", "elag", "defer/s", "worst slow request")
		for _, r := range rows {
			if r.err != nil {
				fmt.Printf("%-22s  unreachable: %v\n", r.addr, r.err)
				continue
			}
			worst := "-"
			if r.worst != nil {
				worst = fmt.Sprintf("%s %s (%s, %s)", r.worst.Cmd, r.worst.Key, fmtDur(r.worst.TotalNs), dominantPhase(*r.worst))
			}
			fmt.Printf("%-22s %10.1f %10.1f %10.1f %8.0f %8.0f %9.0f %9.0f %6.0f %9.1f  %s\n",
				r.addr, r.opsPerSec, r.reclaimPerSec, r.movedPerSec,
				r.fedCeded, r.fedReceived, r.freePages, r.totalPages,
				r.epochLag, r.deferredPerSec, worst)
		}
		if iters > 0 && i+1 >= iters {
			return
		}
		time.Sleep(interval)
	}
}
