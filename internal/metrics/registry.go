package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind classifies a metric family for exposition purposes.
type Kind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value that can go up and down.
	KindGauge
	// KindSummary is a latency distribution exposed as quantiles plus
	// _sum and _count series (backed by Histogram).
	KindSummary
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindSummary:
		return "summary"
	}
	return "untyped"
}

// Label is one name=value pair attached to a metric.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposed series: a label set and its current value.
// CollectFunc callbacks return these for families whose label sets are
// only known at collection time (e.g. per-registered-process gauges).
type Sample struct {
	Labels []Label
	Value  float64
}

// summaryQuantiles are the quantiles exposed for each histogram-backed
// (summary) instrument, alongside _sum and _count.
var summaryQuantiles = []float64{0.5, 0.9, 0.99}

// RegistryHistogramGrowth is the per-bucket growth factor for histograms
// created through Registry.Histogram: ≤10% relative error on quantiles
// with a ~2 KiB bucket array per instrument.
const RegistryHistogramGrowth = 1.15

// Registry is a named collection of metrics with Prometheus text-format
// exposition. Instruments are registered once (typically at process
// startup) and then updated lock-free on hot paths; collection walks the
// registry under a mutex, which only serializes scrapes.
//
// Registering the same (name, labels) pair twice returns the existing
// instrument; registering the same name with a different kind panics, as
// does an invalid metric or label name. Metric names must match
// [a-zA-Z_:][a-zA-Z0-9_:]* and label names [a-zA-Z_][a-zA-Z0-9_]*.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

type family struct {
	name string
	help string
	kind Kind

	insts map[string]*instrument // keyed by canonical label string
	order []string               // registration order of instrument keys
	// collect, if non-nil, produces this family's samples dynamically
	// (CollectFunc); insts is empty in that case.
	collect func() []Sample
}

type instrument struct {
	labels []Label
	hist   *Histogram
	fn     func() float64 // CounterFunc/GaugeFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.ContainsRune(s, ':') {
		return false
	}
	return validMetricName(s)
}

// labelKey returns the canonical identity of a label set.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	for _, l := range sorted {
		b.WriteString(l.Name)
		b.WriteByte('\x00')
		b.WriteString(l.Value)
		b.WriteByte('\x00')
	}
	return b.String()
}

// getFamily finds or creates a family, enforcing name validity and kind
// consistency. Caller holds r.mu.
func (r *Registry) getFamily(name, help string, kind Kind) *family {
	if !validMetricName(name) {
		panic("metrics: invalid metric name " + strconv.Quote(name))
	}
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, insts: map[string]*instrument{}}
		r.fams[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s already registered as %s, not %s", name, f.kind, kind))
	}
	return f
}

// getInstrument finds or creates an instrument within f. Caller holds
// r.mu. Returns the instrument and whether it already existed.
func (f *family) getInstrument(labels []Label) (*instrument, bool) {
	for _, l := range labels {
		if !validLabelName(l.Name) {
			panic("metrics: invalid label name " + strconv.Quote(l.Name))
		}
	}
	key := labelKey(labels)
	if in, ok := f.insts[key]; ok {
		return in, true
	}
	in := &instrument{labels: append([]Label(nil), labels...)}
	f.insts[key] = in
	f.order = append(f.order, key)
	return in, false
}

// Histogram registers (or retrieves) a latency histogram, exposed in
// Prometheus form as a summary with quantile series plus _sum and _count.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindSummary)
	in, existed := f.getInstrument(labels)
	if !existed {
		in.hist = NewHistogram(RegistryHistogramGrowth)
	}
	return in.hist
}

// CounterFunc registers a counter whose value is read from fn at
// collection time (for bridging pre-existing atomic counters).
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindCounter)
	in, existed := f.getInstrument(labels)
	if existed {
		panic("metrics: duplicate registration of " + name)
	}
	in.fn = func() float64 { return float64(fn()) }
}

// GaugeFunc registers a gauge whose value is read from fn at collection
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindGauge)
	in, existed := f.getInstrument(labels)
	if existed {
		panic("metrics: duplicate registration of " + name)
	}
	in.fn = fn
}

// CollectFunc registers a family whose full sample set (labels included)
// is produced by fn at collection time — for metrics whose label sets
// change at runtime, such as per-process gauges keyed by registration.
func (r *Registry) CollectFunc(name, help string, kind Kind, fn func() []Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.fams[name]; ok {
		panic("metrics: duplicate registration of " + name)
	}
	f := r.getFamily(name, help, kind)
	f.collect = fn
}

// escapeLabelValue escapes a label value per the Prometheus text format.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a help string per the Prometheus text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func writeLabels(b *strings.Builder, labels []Label, extra ...Label) {
	all := make([]Label, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	if len(all) == 0 {
		return
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSeries(b *strings.Builder, name string, labels []Label, v float64, extra ...Label) {
	b.WriteString(name)
	writeLabels(b, labels, extra...)
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

// famSnapshot is one family's exposition state captured under the
// registry mutex, so runtime registrations (e.g. a first-seen label
// value minting an instrument mid-scrape) cannot race the walk. The
// instruments themselves are updated atomically, so reading their
// values outside the lock is safe.
type famSnapshot struct {
	name    string
	help    string
	kind    Kind
	collect func() []Sample
	insts   []*instrument
}

// snapshot captures every family's exposition state under the mutex,
// sorted by name — the shared walk behind WritePrometheus and the
// history sampler.
func (r *Registry) snapshot() []famSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]famSnapshot, len(names))
	for i, name := range names {
		f := r.fams[name]
		s := famSnapshot{name: f.name, help: f.help, kind: f.kind, collect: f.collect}
		s.insts = make([]*instrument, len(f.order))
		for j, key := range f.order {
			s.insts[j] = f.insts[key]
		}
		fams[i] = s
	}
	return fams
}

// WritePrometheus writes every registered family in the Prometheus text
// exposition format (version 0.0.4), families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	fams := r.snapshot()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(f.name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(f.help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		if f.collect != nil {
			for _, s := range f.collect() {
				writeSeries(&b, f.name, s.Labels, s.Value)
			}
			continue
		}
		for _, in := range f.insts {
			switch {
			case in.fn != nil:
				writeSeries(&b, f.name, in.labels, in.fn())
			case in.hist != nil:
				for _, q := range summaryQuantiles {
					writeSeries(&b, f.name, in.labels, in.hist.Quantile(q),
						Label{Name: "quantile", Value: formatValue(q)})
				}
				writeSeries(&b, f.name+"_sum", in.labels, in.hist.Sum())
				writeSeries(&b, f.name+"_count", in.labels, float64(in.hist.Count()))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format, suitable for mounting at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		if req.Method == http.MethodHead {
			return
		}
		_ = r.WritePrometheus(w)
	})
}
