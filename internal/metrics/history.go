package metrics

import (
	"sync"
	"time"
)

// HistorySnapshot is one periodic capture of every registered series,
// keyed exactly like the Prometheus exposition (`name` or
// `name{label="value",...}`, labels sorted; histogram-backed families
// contribute their quantile, _sum, and _count series).
type HistorySnapshot struct {
	UnixNs int64              `json:"unix_ns"`
	Values map[string]float64 `json:"values"`
}

// HistoryDump is the JSON payload served at /metrics/history: the
// sampling interval plus the retained snapshots, oldest first. One fetch
// gives a consumer everything it needs to compute rates — the last two
// snapshots bracket a known time window — without scraping twice.
type HistoryDump struct {
	IntervalNs int64             `json:"interval_ns"`
	Snapshots  []HistorySnapshot `json:"snapshots"`
}

// History samples a registry into a fixed ring of snapshots on a
// background goroutine: a rolling in-memory time series over every
// registered instrument. `smdctl top` reads it to render rates from a
// single fetch.
type History struct {
	reg      *Registry
	interval time.Duration

	mu   sync.Mutex
	ring []HistorySnapshot
	pos  int
	n    int

	stop chan struct{}
	done chan struct{}
}

// StartHistory begins sampling r every interval into a ring of size
// snapshots (defaults: 1s, 120 — two minutes of history). The first
// snapshot is taken synchronously so the history is never empty. Close
// the returned handle to stop the sampler.
func (r *Registry) StartHistory(interval time.Duration, size int) *History {
	if interval <= 0 {
		interval = time.Second
	}
	if size <= 0 {
		size = 120
	}
	h := &History{
		reg:      r,
		interval: interval,
		ring:     make([]HistorySnapshot, size),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	h.sample(time.Now())
	go h.run()
	return h
}

func (h *History) run() {
	defer close(h.done)
	t := time.NewTicker(h.interval)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			h.sample(now)
		case <-h.stop:
			return
		}
	}
}

// Close stops the sampler and waits for it to exit.
func (h *History) Close() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	<-h.done
}

func (h *History) sample(now time.Time) {
	values := h.reg.snapshotValues()
	h.mu.Lock()
	h.ring[h.pos] = HistorySnapshot{UnixNs: now.UnixNano(), Values: values}
	h.pos = (h.pos + 1) % len(h.ring)
	if h.n < len(h.ring) {
		h.n++
	}
	h.mu.Unlock()
}

// Dump returns the retained snapshots, oldest first.
func (h *History) Dump() HistoryDump {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HistorySnapshot, 0, h.n)
	start := h.pos - h.n
	if start < 0 {
		start += len(h.ring)
	}
	for i := 0; i < h.n; i++ {
		out = append(out, h.ring[(start+i)%len(h.ring)])
	}
	return HistoryDump{IntervalNs: h.interval.Nanoseconds(), Snapshots: out}
}

// snapshotValues flattens the registry's current state into values
// keyed by SeriesKey, so history keys and scraped series names always
// agree.
func (r *Registry) snapshotValues() map[string]float64 {
	fams := r.snapshot()
	out := make(map[string]float64, 4*len(fams))
	key := func(name string, labels []Label, extra ...Label) string {
		return SeriesKey(name, append(labels[:len(labels):len(labels)], extra...)...)
	}
	for _, f := range fams {
		if f.collect != nil {
			for _, s := range f.collect() {
				out[key(f.name, s.Labels)] = s.Value
			}
			continue
		}
		for _, in := range f.insts {
			switch {
			case in.fn != nil:
				out[key(f.name, in.labels)] = in.fn()
			case in.hist != nil:
				for _, q := range summaryQuantiles {
					out[key(f.name, in.labels, Label{Name: "quantile", Value: formatValue(q)})] = in.hist.Quantile(q)
				}
				out[key(f.name+"_sum", in.labels)] = in.hist.Sum()
				out[key(f.name+"_count", in.labels)] = float64(in.hist.Count())
			}
		}
	}
	return out
}
