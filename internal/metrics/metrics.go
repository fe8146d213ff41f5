// Package metrics is the dependency-free observability substrate for the
// live SWEB nodes: counters, gauges, and fixed-bucket latency histograms
// with Prometheus-style text exposition. The simulator measures through
// internal/stats over bounded runs; the live cluster instead accumulates
// into a Registry that every node serves over /sweb/metrics, and
// internal/live scrapes and merges the expositions cluster-wide. All value
// cells are atomics and the registry is a mutex-guarded name → family map,
// so the package is safe under the race detector with many handler
// goroutines writing while an exposition scrape reads.
package metrics

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attach dimensions to a metric instance ({"phase": "parse"}).
type Labels map[string]string

// signature renders labels canonically (sorted keys, escaped values),
// without the surrounding braces. Metrics with equal signatures are the
// same instance.
func signature(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// atomicFloat is a float64 cell updatable without locks (CAS on the bits).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) set(v float64)  { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.add(1) }

// Add adds v (must be >= 0 for the exposition to stay meaningful).
func (c *Counter) Add(v float64) { c.v.add(v) }

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v.value() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.set(v) }

// Add shifts the value by v (negative to decrease).
func (g *Gauge) Add(v float64) { g.v.add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.value() }

// DefBuckets spans 100µs to 10s — the live request latency range between a
// parsed-from-cache hit and a retried remote fetch.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Exemplar is the most recent traced observation retained by a histogram
// bucket: enough to pivot from an aggregated latency cell to the concrete
// request (by trace id, resolvable against the flight recorder) that
// landed in it.
type Exemplar struct {
	TraceID  string
	Value    float64
	TSMicros int64 // observation time, unix microseconds
}

// Histogram counts observations into fixed buckets (cumulative "le" cells
// on exposition, like Prometheus client histograms). Each bucket also
// retains the exemplar of its most recent traced observation.
type Histogram struct {
	bounds    []float64       // strictly increasing upper bounds, +Inf implied
	counts    []atomic.Uint64 // len(bounds)+1; the last cell is the +Inf bucket
	exemplars []atomic.Pointer[Exemplar]
	sum       atomicFloat
	count     atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{
		bounds:    append([]float64(nil), bounds...),
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v ("le" semantics)
	h.counts[i].Add(1)
	h.sum.add(v)
	h.count.Add(1)
}

// ObserveExemplar records one value and, when the observation carries a
// trace id, stamps the bucket it lands in with that exemplar. The stamp is
// one atomic pointer store, so untraced fast paths pay nothing beyond the
// empty-string check.
func (h *Histogram) ObserveExemplar(v float64, traceID string, tsMicros int64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.add(v)
	h.count.Add(1)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v, TSMicros: tsMicros})
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.value() }

// metric is anything a family can hold and expose. Only histogram bucket
// lines carry a non-nil exemplar.
type metric interface {
	exposeInto(fam *family, sig string, add func(name, sig string, v float64, ex *Exemplar))
}

func (c *Counter) exposeInto(fam *family, sig string, add func(string, string, float64, *Exemplar)) {
	add(fam.name, sig, c.Value(), nil)
}

func (g *Gauge) exposeInto(fam *family, sig string, add func(string, string, float64, *Exemplar)) {
	add(fam.name, sig, g.Value(), nil)
}

// funcMetric evaluates a callback at exposition time (live gauges over
// existing atomics, e.g. inflight connections).
type funcMetric struct{ fn func() float64 }

func (f *funcMetric) exposeInto(fam *family, sig string, add func(string, string, float64, *Exemplar)) {
	add(fam.name, sig, f.fn(), nil)
}

func (h *Histogram) exposeInto(fam *family, sig string, add func(string, string, float64, *Exemplar)) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		add(fam.name+"_bucket", withLE(sig, formatValue(b)), float64(cum), h.exemplars[i].Load())
	}
	cum += h.counts[len(h.bounds)].Load()
	add(fam.name+"_bucket", withLE(sig, "+Inf"), float64(cum), h.exemplars[len(h.bounds)].Load())
	add(fam.name+"_sum", sig, h.Sum(), nil)
	add(fam.name+"_count", sig, float64(cum), nil)
}

func withLE(sig, le string) string {
	cell := `le="` + le + `"`
	if sig == "" {
		return cell
	}
	return sig + "," + cell
}

type family struct {
	name, help, typ string
	mu              sync.Mutex
	metrics         map[string]metric
	order           []string
	// collect, when set, emits every series of the family at exposition
	// time, keyed by the values of label; the family then holds no
	// metrics of its own.
	collect func(emit func(value string, v float64))
	label   string
}

func (f *family) get(sig string, mk func() metric) metric {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.collect != nil {
		panic("metrics: " + f.name + " is served by a collector; it takes no other series")
	}
	m := f.metrics[sig]
	if m == nil {
		m = mk()
		f.metrics[sig] = m
		f.order = append(f.order, sig)
	}
	return m
}

// Registry holds metric families by name. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, metrics: make(map[string]metric)}
		r.families[name] = f
	} else if f.typ != typ {
		panic("metrics: " + name + " already registered as " + f.typ + ", requested " + typ)
	}
	return f
}

// Counter returns the counter name{labels}, creating it on first use.
// Repeated calls with equal name and labels return the same instance.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	f := r.family(name, help, "counter")
	return f.get(signature(labels), func() metric { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge name{labels}, creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	f := r.family(name, help, "gauge")
	return f.get(signature(labels), func() metric { return new(Gauge) }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is fn() at exposition time. The
// function must be safe to call from the scraping goroutine.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	f := r.family(name, help, "gauge")
	f.get(signature(labels), func() metric { return &funcMetric{fn: fn} })
}

// CounterFunc registers a counter read from fn() at exposition time (a
// view over an existing atomic).
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	f := r.family(name, help, "counter")
	f.get(signature(labels), func() metric { return &funcMetric{fn: fn} })
}

// Collector registers the counter or gauge family name (typ "counter" or
// "gauge") as one callback's: at exposition time fn calls emit once per
// series, with that series' value of label, and only those series appear,
// sorted by label like any other family's. A family whose callback emits
// nothing is left out of the exposition. The family holds nothing else:
// registering a collector on a family that has series, or any series on a
// collector's family, panics, so no series can appear twice. fn runs on the
// scraping goroutine and must not call back into the registry.
func (r *Registry) Collector(name, help, typ, label string, fn func(emit func(value string, v float64))) {
	if typ != "counter" && typ != "gauge" {
		panic("metrics: collector " + name + " of type " + typ + ", want counter or gauge")
	}
	f := r.family(name, help, typ)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.collect != nil || len(f.metrics) > 0 {
		panic("metrics: collector " + name + " registered on a family that already has series")
	}
	f.collect, f.label = fn, label
}

// collected runs a collector keyed by label and returns its series'
// signatures and values, sorted by signature.
func collected(collect func(emit func(string, float64)), label string) (sigs []string, vals []float64) {
	type series struct {
		sig string
		v   float64
	}
	var ss []series
	collect(func(value string, v float64) {
		ss = append(ss, series{label + `="` + escapeLabel(value) + `"`, v})
	})
	sort.Slice(ss, func(i, j int) bool { return ss[i].sig < ss[j].sig })
	for _, s := range ss {
		sigs, vals = append(sigs, s.sig), append(vals, s.v)
	}
	return sigs, vals
}

// Histogram returns the histogram name{labels} with the given bucket upper
// bounds (nil for DefBuckets). Buckets are fixed by the first call.
func (r *Registry) Histogram(name, help string, labels Labels, buckets []float64) *Histogram {
	f := r.family(name, help, "histogram")
	return f.get(signature(labels), func() metric { return newHistogram(buckets) }).(*Histogram)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ContentType is the Prometheus text exposition media type a /sweb/metrics
// response must declare.
const ContentType = "text/plain; version=0.0.4"

// WriteText renders the registry in the Prometheus text exposition format:
// families sorted by name, instances sorted by label signature, every line
// newline-terminated — byte-identical output for equal registry contents,
// whatever the registration order. Histogram bucket lines carrying an
// exemplar get the OpenMetrics-style suffix
// ` # {trace_id="..."} <value> <unix-micros>`, still one physical line
// (the trace id is escaped like any label value).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	var err error
	emit := func(name, sig string, v float64, ex *Exemplar) {
		if err != nil {
			return
		}
		line := name
		if sig != "" {
			line += "{" + sig + "}"
		}
		line += " " + formatValue(v)
		if ex != nil {
			line += ` # {trace_id="` + escapeLabel(ex.TraceID) + `"} ` +
				formatValue(ex.Value) + " " + strconv.FormatInt(ex.TSMicros, 10)
		}
		_, err = bw.WriteString(line + "\n")
	}
	for _, f := range fams {
		f.mu.Lock()
		collect, label := f.collect, f.label
		sigs := append([]string(nil), f.order...)
		sort.Strings(sigs)
		ms := make([]metric, len(sigs))
		for i, sig := range sigs {
			ms[i] = f.metrics[sig]
		}
		f.mu.Unlock()
		var vals []float64
		if collect != nil {
			if sigs, vals = collected(collect, label); len(sigs) == 0 {
				continue
			}
		}
		if err == nil && f.help != "" {
			_, err = bw.WriteString("# HELP " + f.name + " " + f.help + "\n")
		}
		if err == nil {
			_, err = bw.WriteString("# TYPE " + f.name + " " + f.typ + "\n")
		}
		for i, m := range ms {
			m.exposeInto(f, sigs[i], emit)
		}
		for i, v := range vals {
			emit(f.name, sigs[i], v, nil)
		}
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}
