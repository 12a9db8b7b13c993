package smd

import (
	"strconv"
	"time"

	"softmem/internal/core"
	"softmem/internal/metrics"
)

// TracedTarget is the optional extension of Target that carries the
// daemon's reclaim-cycle ID with each demand and returns the process's
// per-hop spans plus a fresh usage self-report (nil = unknown). *core.SMA
// and the socket server's connection wrapper both implement it; the
// daemon falls back to plain HandleDemand for targets that do not.
type TracedTarget interface {
	HandleDemandTraced(pages int, reclaimID uint64) (released int, spans []core.DemandSpan, usage *core.Usage)
}

// TraceHop is one step of a reclaim cycle as the daemon saw it: a slack
// harvest (budget taken without disturbing the process) or a reclamation
// demand with the process-side spans that came back over IPC.
type TraceHop struct {
	// Kind is "slack" or "demand".
	Kind string `json:"kind"`
	// Proc and Name identify the process the pages came from.
	Proc ProcID `json:"proc"`
	Name string `json:"name"`
	// Asked is the pages demanded ("demand" hops only).
	Asked int `json:"asked,omitempty"`
	// Released is the pages actually obtained from the process.
	Released int `json:"released"`
	// DurNs is the demand round-trip duration ("demand" hops only).
	DurNs int64 `json:"dur_ns,omitempty"`
	// Spans are the process-side steps of the demand: free-pool draw,
	// per-SDS reclaims, spill demotions.
	Spans []core.DemandSpan `json:"spans,omitempty"`
}

// Trace is one complete reclaim cycle: a budget request that could not be
// satisfied from free memory, the slack harvests and demands issued to
// relieve it, and the outcome. Served by the daemon's /traces endpoint
// and rendered by `smdctl trace`.
type Trace struct {
	// ID is the reclaim-cycle identifier stamped on every event, demand,
	// and process-side span of the cycle.
	ID uint64 `json:"id"`
	// Requester is the process whose budget request triggered the cycle.
	Requester ProcID `json:"requester"`
	ReqName   string `json:"req_name"`
	// Pages is the requested budget; Need is the shortfall after free
	// memory (the part the cycle had to find).
	Pages int `json:"pages"`
	Need  int `json:"need"`
	// Start is when the cycle began; DurNs its total duration.
	Start time.Time `json:"start"`
	DurNs int64     `json:"dur_ns"`
	// Outcome is "granted" or "denied".
	Outcome string `json:"outcome"`
	// Hops are the cycle's steps in issue order.
	Hops []TraceHop `json:"hops,omitempty"`
}

// recordTraceLocked appends a completed cycle to the trace ring. Caller
// holds d.mu.
func (d *Daemon) recordTraceLocked(tr Trace) {
	if d.traceLen == len(d.traces) {
		d.tracesDropped.Add(1)
	}
	d.traces[d.tracePos] = tr
	d.tracePos = (d.tracePos + 1) % len(d.traces)
	if d.traceLen < len(d.traces) {
		d.traceLen++
	}
}

// Traces returns the reclaim-cycle ring's contents, oldest first. The
// ring holds the last traceLogCap cycles; nil when it is empty.
func (d *Daemon) Traces() []Trace {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.traceLen == 0 {
		return nil
	}
	out := make([]Trace, 0, d.traceLen)
	start := d.tracePos - d.traceLen
	if start < 0 {
		start += len(d.traces)
	}
	for i := 0; i < d.traceLen; i++ {
		out = append(out, d.traces[(start+i)%len(d.traces)])
	}
	return out
}

// TraceByID returns the reclaim cycle with the given ID, if it is still
// in the ring.
func (d *Daemon) TraceByID(id uint64) (Trace, bool) {
	for _, tr := range d.Traces() {
		if tr.ID == id {
			return tr, true
		}
	}
	return Trace{}, false
}

// smdMetrics holds the daemon's latency histograms; nil (no
// RegisterMetrics call) keeps arbitration free of timing calls.
type smdMetrics struct {
	request   *metrics.Histogram
	demandRTT *metrics.Histogram
	cycle     *metrics.Histogram
}

// RegisterMetrics registers the daemon's instruments into r and switches
// on arbitration latency observation. Call once, before serving.
func (d *Daemon) RegisterMetrics(r *metrics.Registry) {
	m := &smdMetrics{
		request:   r.Histogram("softmem_smd_request_ns", "budget request arbitration latency in ns"),
		demandRTT: r.Histogram("softmem_smd_demand_rtt_ns", "reclamation demand round-trip latency in ns"),
		cycle:     r.Histogram("softmem_smd_reclaim_cycle_ns", "full reclaim cycle latency in ns, slack harvest through grant or deny"),
	}
	stat := func(f func(Stats) int64) func() int64 {
		return func() int64 { return f(d.Stats()) }
	}
	r.CounterFunc("softmem_smd_requests_total", "budget requests received", stat(func(s Stats) int64 { return s.Requests }))
	r.CounterFunc("softmem_smd_granted_total", "budget requests approved", stat(func(s Stats) int64 { return s.Granted }))
	r.CounterFunc("softmem_smd_denied_total", "budget requests denied", stat(func(s Stats) int64 { return s.Denied }))
	r.CounterFunc("softmem_smd_reclaim_cycles_total", "requests that required reclamation", stat(func(s Stats) int64 { return s.ReclaimEvents }))
	r.CounterFunc("softmem_smd_slack_pages_total", "budget slack harvested without disturbance", stat(func(s Stats) int64 { return s.SlackPages }))
	r.CounterFunc("softmem_smd_demanded_pages_total", "pages demanded from processes", stat(func(s Stats) int64 { return s.DemandedPages }))
	r.CounterFunc("softmem_smd_reclaimed_pages_total", "pages actually released by processes", stat(func(s Stats) int64 { return s.PagesReclaimed }))
	r.GaugeFunc("softmem_smd_budget_pages", "sum of budgets currently granted", func() float64 { return float64(d.Stats().BudgetPages) })
	r.GaugeFunc("softmem_smd_free_pages", "unallocated soft pages", func() float64 { return float64(d.Stats().FreePages) })
	r.GaugeFunc("softmem_smd_procs", "registered processes", func() float64 { return float64(d.Stats().Procs) })
	r.GaugeFunc("softmem_smd_spilled_bytes", "sum of self-reported spill-tier footprints", func() float64 { return float64(d.Stats().SpilledBytes) })
	r.GaugeFunc("softmem_smd_total_pages", "current partition size, federation-adjusted", func() float64 { return float64(d.Stats().TotalPages) })

	perProc := func(name, help string, value func(ProcInfo) float64) {
		r.CollectFunc(name, help, metrics.KindGauge, func() []metrics.Sample {
			procs := d.Snapshot()
			out := make([]metrics.Sample, 0, len(procs))
			for _, p := range procs {
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{
						{Name: "proc", Value: strconv.Itoa(int(p.ID))},
						{Name: "name", Value: p.Name},
					},
					Value: value(p),
				})
			}
			return out
		})
	}
	perProc("softmem_smd_proc_budget_pages", "per-process granted budget", func(p ProcInfo) float64 { return float64(p.BudgetPages) })
	perProc("softmem_smd_proc_used_pages", "per-process self-reported soft usage", func(p ProcInfo) float64 { return float64(p.Usage.UsedPages) })
	perProc("softmem_smd_proc_weight", "per-process reclamation weight", func(p ProcInfo) float64 { return p.Weight })
	perProc("softmem_smd_proc_spilled_bytes", "per-process spill-tier footprint", func(p ProcInfo) float64 { return float64(p.Usage.SpilledBytes) })

	d.met.Store(m)
}
