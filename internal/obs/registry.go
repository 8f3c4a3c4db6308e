// Package obs is the dependency-free observability subsystem behind the
// serving layer: a Prometheus-text metrics registry with atomic hot
// paths, structured logging setup (log/slog), the span-event record of
// job-lifecycle post-mortems, HTTP middleware that measures and logs
// every request, and a Go runtime stats collector.
//
// The package observes computation, it never participates in it: nothing
// here touches the random streams, so attaching any of it cannot change
// a simulated byte (the determinism contract of DESIGN.md §7). Metric
// writes are single atomic operations; scraping is the only place locks
// and allocation happen.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metric families and renders them in the
// Prometheus text exposition format. Construct with NewRegistry; all
// methods are safe for concurrent use. Family names must be unique —
// registering a name twice panics, because that is a wiring bug, not a
// runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	scrape   []func() // pre-scrape hooks (e.g. refresh runtime stats)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric family: a help string, a type, and its
// series (one per label-value combination; the empty label set is the
// single series of an unlabelled metric).
type family struct {
	name, help, typ string
	labels          []string

	mu     sync.Mutex
	series map[string]metric // key: rendered label pairs ("" for none)
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// metric is anything a family can hold a series of.
type metric interface {
	// write renders the series' sample lines. name is the family name,
	// labelPairs the rendered label set ("" for none).
	write(w io.Writer, name, labelPairs string)
}

func (r *Registry) register(name, help, typ string, labels []string) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	f := &family{name: name, help: help, typ: typ, labels: labels,
		series: make(map[string]metric)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("obs: duplicate metric family " + name)
	}
	r.families[name] = f
	return f
}

// getOrCreate returns the series for key, constructing it with mk on
// first use.
func (f *family) getOrCreate(key string, mk func() metric) metric {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[key]
	if !ok {
		m = mk()
		f.series[key] = m
	}
	return m
}

// labelPairs renders a label set as `{k1="v1",k2="v2"}`, escaping values
// per the exposition format. Keys come from the family's declared label
// names, in declaration order, so the rendering is canonical.
func labelPairs(names, values []string) string {
	if len(names) != len(values) {
		panic(fmt.Sprintf("obs: %d label values for %d label names", len(values), len(names)))
	}
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// formatValue renders a sample value the way Prometheus expects:
// shortest round-trip float, with integral values printed bare.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// --- Counter ---

// Counter is a monotonically increasing float-free counter. The zero
// value is unusable; obtain one from Registry.Counter or CounterVec.With.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name, lp string) {
	fmt.Fprintf(w, "%s%s %d\n", name, lp, c.v.Load())
}

// Counter registers an unlabelled counter family and returns its single
// series.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, nil)
	c := &Counter{}
	f.series[""] = c
	return c
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, typeCounter, labels)}
}

// With returns the series for the given label values (created on first
// use). Series are cached; the call is cheap after the first.
func (cv *CounterVec) With(values ...string) *Counter {
	key := labelPairs(cv.f.labels, values)
	return cv.f.getOrCreate(key, func() metric { return &Counter{} }).(*Counter)
}

// CounterFunc registers a counter family whose value is read from fn at
// scrape time — the adapter shape for counters owned elsewhere (e.g. the
// graph cache's hit/miss totals).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeCounter, nil)
	f.series[""] = funcMetric(fn)
}

// --- Gauge ---

// Gauge is a value that can go up and down, stored as float bits.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d (CAS loop; contention-tolerant).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc and Dec adjust by ±1.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, name, lp string) {
	fmt.Fprintf(w, "%s%s %s\n", name, lp, formatValue(g.Value()))
}

// Gauge registers an unlabelled gauge family and returns its series.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, nil)
	g := &Gauge{}
	f.series[""] = g
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeGauge, nil)
	f.series[""] = funcMetric(fn)
}

// funcMetric adapts a read callback into a series.
type funcMetric func() float64

func (fn funcMetric) write(w io.Writer, name, lp string) {
	fmt.Fprintf(w, "%s%s %s\n", name, lp, formatValue(fn()))
}

// --- Histogram ---

// Histogram counts observations into cumulative buckets, Prometheus
// style: one _bucket series per upper bound (plus +Inf), a _sum and a
// _count. Observe is lock-free — one atomic add per bucket walk plus a
// CAS for the float sum.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds, +Inf implicit
	counts []atomic.Uint64
	sum    Gauge // CAS float accumulator
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

func (h *Histogram) write(w io.Writer, name, lp string) {
	// Re-render the label set with le appended (inside the braces).
	open := func(le string) string {
		pair := `le="` + le + `"`
		if lp == "" {
			return "{" + pair + "}"
		}
		return lp[:len(lp)-1] + "," + pair + "}"
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, open(formatValue(b)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, open("+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, lp, formatValue(h.sum.Value()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, lp, h.count.Load())
}

// DefBuckets are the default latency buckets in seconds, spanning
// sub-millisecond scrapes to minute-scale jobs.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram registers an unlabelled histogram family (nil bounds =
// DefBuckets) and returns its series.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.register(name, help, typeHistogram, nil)
	h := newHistogram(bounds)
	f.series[""] = h
	return h
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// HistogramVec registers a labelled histogram family (nil bounds =
// DefBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{r.register(name, help, typeHistogram, labels), bounds}
}

// With returns the series for the given label values.
func (hv *HistogramVec) With(values ...string) *Histogram {
	key := labelPairs(hv.f.labels, values)
	return hv.f.getOrCreate(key, func() metric { return newHistogram(hv.bounds) }).(*Histogram)
}

// --- Scraping ---

// OnScrape registers a hook run (in registration order) at the start of
// every WritePrometheus, before any family renders — the place to
// refresh cached snapshots like runtime memory stats.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scrape = append(r.scrape, fn)
}

// Families returns the registered family names, sorted.
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WritePrometheus renders every family in the text exposition format,
// families sorted by name and series sorted by label set, so the output
// layout is deterministic (values, of course, are live).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	hooks := append([]func(){}, r.scrape...)
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		series := make([]metric, len(keys))
		for i, k := range keys {
			series[i] = f.series[k]
		}
		f.mu.Unlock()
		for i, k := range keys {
			series[i].write(w, f.name, k)
		}
	}
}

// Handler serves the registry at GET, Prometheus content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
