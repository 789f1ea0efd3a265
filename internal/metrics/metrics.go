// Package metrics is a dependency-free Prometheus-text-format metrics
// registry: counters, pull-style gauges, and fixed-bucket histograms, with
// optional label dimensions, rendered by Render in the exposition format
// scrapers consume (https://prometheus.io/docs/instrumenting/exposition_formats/).
//
// The package exists because the container builds without network access,
// so the canonical client_golang cannot be vendored; the subset here is
// exactly what scand's GET /metrics needs. Two styles coexist:
//
//   - Push-style instruments (Counter, Histogram) are updated on the hot
//     path with atomics — no locks on Inc/Observe — and belong where the
//     event happens (a request served, a shard finished).
//   - Pull-style gauges (GaugeFunc, CounterFunc) evaluate a callback at
//     scrape time and belong where the truth already lives (queue depth,
//     registry occupancy, fleet roster) — no second counter to drift.
//
// Metric and label names are not validated; callers own their conformance.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of metric families and renders them in registration
// order (stable scrapes diff cleanly). All methods are safe for concurrent
// use.
type Registry struct {
	mu       sync.Mutex
	families []family
	names    map[string]bool
}

// family is one named metric with all its labeled children.
type family interface {
	write(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) add(name string, f family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	r.names[name] = true
	r.families = append(r.families, f)
}

// Render writes every registered family in the Prometheus text format.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	fams := append([]family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		f.write(w)
	}
}

// ---------------------------------------------------------------------------
// Labels
// ---------------------------------------------------------------------------

// labelSep joins label values into child keys; \xff cannot appear in valid
// UTF-8 label values produced by this codebase.
const labelSep = "\xff"

// renderLabels formats {k="v",...} for a sample line ("" when unlabeled).
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, values[i])
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float the way Prometheus expects (integers without
// a mantissa, +Inf spelled out).
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

// Counter is a monotonically increasing value. The zero Counter is unusable;
// obtain one from CounterVec.With.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; negative deltas corrupt the monotonic
// contract and are dropped).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// vec is a family of push-style metrics with zero or more label
// dimensions, one child per distinct label values.
type vec[M any] struct {
	name, help string
	labels     []string
	mu         sync.Mutex
	children   map[string]*child[M]
}

type child[M any] struct {
	values []string
	metric M
}

// with returns the child for the given label values, making it with mk on
// first use. The arity must match the registered label names.
func (v *vec[M]) with(values []string, mk func() M) M {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = &child[M]{values: append([]string(nil), values...), metric: mk()}
		v.children[key] = c
	}
	return c.metric
}

// sorted returns the children ordered by label values, for rendering.
func (v *vec[M]) sorted() []*child[M] {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*child[M], len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	return children
}

// CounterVec is a counter family with zero or more label dimensions.
type CounterVec struct{ vec[*Counter] }

// Counter registers a counter family. With no label names it is a single
// counter addressed as v.With().
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	v := &CounterVec{vec[*Counter]{name: name, help: help, labels: labelNames,
		children: make(map[string]*child[*Counter])}}
	r.add(name, v)
	return v
}

// With returns the child counter for the given label values, creating it on
// first use. The arity must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	return v.with(values, func() *Counter { return &Counter{} })
}

func (v *CounterVec) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", v.name, v.help, v.name)
	for _, c := range v.sorted() {
		fmt.Fprintf(w, "%s%s %s\n", v.name, renderLabels(v.labels, c.values), formatValue(float64(c.metric.Value())))
	}
}

// ---------------------------------------------------------------------------
// Pull-style families (gauges and derived counters)
// ---------------------------------------------------------------------------

// Sample is one labeled value produced by a pull callback at scrape time.
type Sample struct {
	// Values are the label values, matching the family's label names.
	Values []string
	Value  float64
}

type funcFamily struct {
	name, help, typ string
	labels          []string
	fn              func() []Sample
}

func (f *funcFamily) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
	samples := f.fn()
	sort.Slice(samples, func(i, j int) bool {
		return strings.Join(samples[i].Values, labelSep) < strings.Join(samples[j].Values, labelSep)
	})
	for _, s := range samples {
		fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(f.labels, s.Values), formatValue(s.Value))
	}
}

// GaugeFunc registers a gauge family whose samples are produced by fn at
// scrape time — the callback must be safe for concurrent use and cheap
// enough to run per scrape.
func (r *Registry) GaugeFunc(name, help string, labelNames []string, fn func() []Sample) {
	r.add(name, &funcFamily{name: name, help: help, typ: "gauge", labels: labelNames, fn: fn})
}

// CounterFunc registers a counter family rendered from fn at scrape time —
// for monotonic counts whose source of truth already lives elsewhere
// (knowledge-base cache hits, fleet dispatch totals). fn must never report
// a value that goes backwards.
func (r *Registry) CounterFunc(name, help string, labelNames []string, fn func() []Sample) {
	r.add(name, &funcFamily{name: name, help: help, typ: "counter", labels: labelNames, fn: fn})
}

// Value0 wraps a single unlabeled value as a Sample slice — the common case
// for GaugeFunc/CounterFunc callbacks.
func Value0(v float64) []Sample { return []Sample{{Value: v}} }

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

// Histogram accumulates observations into fixed cumulative buckets.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64
	sum    atomicFloat
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sum.add(v)
}

// Count reports the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// atomicFloat is a CAS-looped float64 accumulator.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct {
	vec[*Histogram]
	bounds []float64
}

// DefaultLatencyBuckets spans 1ms..60s — sized for serving latencies where
// shard transforms sit in the milliseconds and whole jobs in the seconds.
var DefaultLatencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram registers a histogram family with the given ascending upper
// bounds (nil uses DefaultLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s buckets not ascending", name))
		}
	}
	v := &HistogramVec{vec: vec[*Histogram]{name: name, help: help, labels: labelNames,
		children: make(map[string]*child[*Histogram])}, bounds: bounds}
	r.add(name, v)
	return v
}

// With returns the child histogram for the given label values, creating it
// on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.with(values, func() *Histogram {
		return &Histogram{bounds: v.bounds, counts: make([]atomic.Int64, len(v.bounds))}
	})
}

func (v *HistogramVec) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", v.name, v.help, v.name)
	leName := append(append([]string(nil), v.labels...), "le")
	for _, c := range v.sorted() {
		h := c.metric
		cum := int64(0)
		for i, b := range v.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", v.name,
				renderLabels(leName, append(append([]string(nil), c.values...), formatValue(b))), cum)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", v.name,
			renderLabels(leName, append(append([]string(nil), c.values...), "+Inf")), h.count.Load())
		fmt.Fprintf(w, "%s_sum%s %s\n", v.name, renderLabels(v.labels, c.values), formatValue(h.sum.load()))
		fmt.Fprintf(w, "%s_count%s %d\n", v.name, renderLabels(v.labels, c.values), h.count.Load())
	}
}
