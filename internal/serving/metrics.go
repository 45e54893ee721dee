// Package serving provides the production plumbing for the FeMux online
// serving path (Fig 13): a dependency-free Prometheus-text metrics
// registry, HTTP instrumentation and structured request-logging
// middleware, and a graceful-shutdown server runner. The paper's policy
// service lives or dies by per-request latency and observable cold-start
// accounting; this package makes the hot path measurable without pulling
// any module outside the standard library.
package serving

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultLatencyBuckets covers the paper's serving-latency range: 7 ms
// mean / 25 ms p99 forecasting latency sit in the middle of the ladder.
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use; counter and
// histogram updates are lock-free on the hot path (atomic CAS on float
// bits), so instrumenting the serving loop costs nanoseconds, not mutexes.
type Registry struct {
	mu        sync.RWMutex
	families  []*family
	byName    map[string]*family
	scrapeFns []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

type family struct {
	name       string
	help       string
	kind       string // "counter", "gauge", or "histogram"
	labelNames []string
	buckets    []float64 // histograms only; must be sorted ascending

	mu       sync.RWMutex
	children map[string]*child
	order    []string
	fn       func() float64 // value callback (single-child gauges/counters)

	// maxChildren, when > 0, caps the number of distinct label sets; the
	// excess folds into one overflow child whose label values all render
	// as "_other". Family sums stay exact — only attribution is lost.
	maxChildren int
	overflow    *child
}

type child struct {
	labelPairs string // pre-rendered {a="b",c="d"} or ""

	// counter/gauge value as float64 bits.
	valBits atomic.Uint64

	// hist is set in histogram children only: a per-app counter family
	// holds one child per app, so its children carry no histogram state.
	hist *histState
}

// histState is a histogram child's per-bucket counts (last slot is +Inf),
// sum and count.
type histState struct {
	buckets []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func addFloatBits(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byName[f.name]; ok {
		// Same name re-registered: return the existing family so wiring
		// code can be idempotent (e.g. reload paths).
		return existing
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
	return f
}

// OnScrape registers fn to run at the start of every scrape, before
// rendering. Used to refresh snapshot-style gauges (runtime stats, live
// app counts) without polling.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.scrapeFns = append(r.scrapeFns, fn)
	r.mu.Unlock()
}

// labelKey joins label values into a child map key. \xff cannot appear in
// valid UTF-8 label values produced by this codebase.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// overflowKey is the children-map key of the cardinality-overflow child.
// It cannot collide with a real label set: \xff never appears in valid
// UTF-8 label values, so no joined key is the bare separator pair.
const overflowKey = "\xff\xff"

func renderLabelPairs(names, values []string) string {
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

func (f *family) child(labelValues []string) *child {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("serving: metric %s expects %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := labelKey(labelValues)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c != nil {
		return c
	}
	if f.maxChildren > 0 && len(f.children) >= f.maxChildren {
		// At the cardinality cap: fold this label set into the overflow
		// child instead of allocating per-value state. A million-app
		// fleet would otherwise hold a child (map entry, key, rendered
		// labels, value) per app ever seen — per-app serving state is
		// tiered and bounded, so the metrics must be too.
		if f.overflow == nil {
			other := make([]string, len(f.labelNames))
			for i := range other {
				other[i] = "_other"
			}
			f.overflow = f.newChild(other)
			f.children[overflowKey] = f.overflow
			f.order = append(f.order, overflowKey)
		}
		return f.overflow
	}
	c = f.newChild(labelValues)
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

func (f *family) newChild(labelValues []string) *child {
	c := &child{labelPairs: renderLabelPairs(f.labelNames, labelValues)}
	if f.kind == "histogram" {
		c.hist = &histState{buckets: make([]atomic.Uint64, len(f.buckets)+1)}
	}
	return c
}

// reset drops all children (used when a labeled gauge's label set is
// replaced wholesale, e.g. model metadata after a hot reload).
func (f *family) reset() {
	f.mu.Lock()
	f.children = map[string]*child{}
	f.order = nil
	f.overflow = nil
	f.mu.Unlock()
}

// limitCardinality sets the family's distinct-label-set cap.
func (f *family) limitCardinality(n int) {
	f.mu.Lock()
	f.maxChildren = n
	f.mu.Unlock()
}

// Counter is a monotonically increasing metric family.
type Counter struct{ fam *family }

// NewCounter registers a counter family with the given label names.
func (r *Registry) NewCounter(name, help string, labelNames ...string) *Counter {
	f := r.register(&family{
		name: name, help: help, kind: "counter",
		labelNames: labelNames, children: map[string]*child{},
	})
	if len(f.labelNames) == 0 {
		f.child(nil) // unlabeled families render 0 before the first Inc
	}
	return &Counter{fam: f}
}

// Inc adds one to the child identified by labelValues.
func (c *Counter) Inc(labelValues ...string) { c.With(labelValues...).Add(1) }

// Add adds delta (must be >= 0) to the child identified by labelValues.
func (c *Counter) Add(delta float64, labelValues ...string) { c.With(labelValues...).Add(delta) }

// With resolves labelValues once and returns a handle on that child, for
// callers that update the same label set many times: a handle's Inc skips
// the key join and map lookup Counter.Inc pays per call. The child is the
// one Inc(labelValues...) would have used at this moment — created now if
// new, the "_other" child if the family is at its LimitCardinality cap —
// so resolving early versus late changes nothing a scrape can see except
// when the child's first line appears.
func (c *Counter) With(labelValues ...string) CounterChild {
	return CounterChild{c.fam.child(labelValues)}
}

// CounterChild is one label set of a Counter. The zero value is not
// usable; handles are comparable, so a caller that resolves lazily can
// test for it.
type CounterChild struct{ c *child }

// Inc adds one.
func (h CounterChild) Inc() { h.Add(1) }

// Add adds delta (must be >= 0).
func (h CounterChild) Add(delta float64) {
	if delta < 0 {
		panic("serving: counter decrease")
	}
	addFloatBits(&h.c.valBits, delta)
}

// Value reads the current value of one child (testing and self-checks).
func (c *Counter) Value(labelValues ...string) float64 {
	return math.Float64frombits(c.fam.child(labelValues).valBits.Load())
}

// LimitCardinality caps the number of distinct label sets this counter
// tracks; increments beyond the cap fold into a single child labeled
// "_other", keeping Sum exact while bounding memory on per-app families.
// Returns the counter for call chaining at registration sites.
func (c *Counter) LimitCardinality(n int) *Counter {
	c.fam.limitCardinality(n)
	return c
}

// Sum returns the sum across all children (testing and self-checks).
func (c *Counter) Sum() float64 {
	c.fam.mu.RLock()
	defer c.fam.mu.RUnlock()
	var s float64
	for _, ch := range c.fam.children {
		s += math.Float64frombits(ch.valBits.Load())
	}
	return s
}

// Gauge is a metric family whose value can move both ways.
type Gauge struct{ fam *family }

// NewGauge registers a gauge family with the given label names.
func (r *Registry) NewGauge(name, help string, labelNames ...string) *Gauge {
	f := r.register(&family{
		name: name, help: help, kind: "gauge",
		labelNames: labelNames, children: map[string]*child{},
	})
	if len(f.labelNames) == 0 {
		f.child(nil)
	}
	return &Gauge{fam: f}
}

// Set stores v in the child identified by labelValues.
func (g *Gauge) Set(v float64, labelValues ...string) {
	g.fam.child(labelValues).valBits.Store(math.Float64bits(v))
}

// Add adds delta to the child identified by labelValues.
func (g *Gauge) Add(delta float64, labelValues ...string) {
	addFloatBits(&g.fam.child(labelValues).valBits, delta)
}

// Value reads the current value of one child.
func (g *Gauge) Value(labelValues ...string) float64 {
	return math.Float64frombits(g.fam.child(labelValues).valBits.Load())
}

// Reset drops every child, so the next Set defines a fresh label set.
func (g *Gauge) Reset() { g.fam.reset() }

// NewGaugeFunc registers an unlabeled gauge whose value is read from fn at
// scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&family{
		name: name, help: help, kind: "gauge",
		children: map[string]*child{}, fn: fn,
	})
}

// NewCounterFunc registers an unlabeled counter whose cumulative value is
// read from fn at scrape time (e.g. total GC cycles).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(&family{
		name: name, help: help, kind: "counter",
		children: map[string]*child{}, fn: fn,
	})
}

// Histogram is a metric family of cumulative-bucket latency histograms.
type Histogram struct{ fam *family }

// NewHistogram registers a histogram family. buckets must be sorted
// ascending; the implicit +Inf bucket is added automatically.
func (r *Registry) NewHistogram(name, help string, buckets []float64, labelNames ...string) *Histogram {
	if len(buckets) == 0 {
		buckets = DefaultLatencyBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic("serving: histogram buckets not sorted")
	}
	return &Histogram{fam: r.register(&family{
		name: name, help: help, kind: "histogram",
		labelNames: labelNames, buckets: buckets,
		children: map[string]*child{},
	})}
}

// Observe records one value.
func (h *Histogram) Observe(v float64, labelValues ...string) { h.With(labelValues...).Observe(v) }

// With resolves labelValues once and returns a handle on that child; see
// Counter.With.
func (h *Histogram) With(labelValues ...string) HistogramChild {
	return HistogramChild{h.fam.child(labelValues), h.fam.buckets}
}

// HistogramChild is one label set of a Histogram.
type HistogramChild struct {
	c       *child
	buckets []float64
}

// Observe records one value.
func (h HistogramChild) Observe(v float64) {
	// Find the first bucket with upper bound >= v; +Inf is the last slot.
	idx := sort.SearchFloat64s(h.buckets, v)
	hs := h.c.hist
	hs.buckets[idx].Add(1)
	addFloatBits(&hs.sumBits, v)
	hs.count.Add(1)
}

// Count returns the total number of observations for one child.
func (h *Histogram) Count(labelValues ...string) uint64 {
	return h.fam.child(labelValues).hist.count.Load()
}

// Handler returns an http.Handler rendering the registry in Prometheus
// text exposition format (version 0.0.4).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.mu.RLock()
		fns := append([]func(){}, r.scrapeFns...)
		fams := append([]*family{}, r.families...)
		r.mu.RUnlock()
		for _, fn := range fns {
			fn()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		for _, f := range fams {
			f.render(&b)
		}
		fmt.Fprint(w, b.String())
	})
}

func (f *family) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	if f.fn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatValue(f.fn()))
		return
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, key := range f.order {
		c := f.children[key]
		switch f.kind {
		case "histogram":
			hs, cum := c.hist, uint64(0)
			for i, ub := range f.buckets {
				cum += hs.buckets[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, leLabel(c.labelPairs, formatValue(ub)), cum)
			}
			cum += hs.buckets[len(f.buckets)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, leLabel(c.labelPairs, "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, c.labelPairs, formatValue(math.Float64frombits(hs.sumBits.Load())))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, c.labelPairs, hs.count.Load())
		default:
			fmt.Fprintf(b, "%s%s %s\n", f.name, c.labelPairs, formatValue(math.Float64frombits(c.valBits.Load())))
		}
	}
}

// leLabel splices le="bound" into an existing (possibly empty) label set.
func leLabel(pairs, bound string) string {
	if pairs == "" {
		return `{le="` + bound + `"}`
	}
	return pairs[:len(pairs)-1] + `,le="` + bound + `"}`
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// RegisterGoMetrics adds Go runtime gauges (goroutines, heap, GC) that
// refresh once per scrape via a single ReadMemStats snapshot.
func (r *Registry) RegisterGoMetrics() {
	goroutines := r.NewGauge("go_goroutines", "Number of live goroutines.")
	heapAlloc := r.NewGauge("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.")
	heapSys := r.NewGauge("go_memstats_heap_sys_bytes", "Bytes of heap memory obtained from the OS.")
	totalAlloc := r.NewGauge("go_memstats_alloc_bytes_total", "Cumulative bytes allocated for heap objects.")
	gcCycles := r.NewGauge("go_gc_cycles_total", "Completed GC cycles.")
	gcPause := r.NewGauge("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.")
	r.OnScrape(func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(float64(runtime.NumGoroutine()))
		heapAlloc.Set(float64(ms.HeapAlloc))
		heapSys.Set(float64(ms.HeapSys))
		totalAlloc.Set(float64(ms.TotalAlloc))
		gcCycles.Set(float64(ms.NumGC))
		gcPause.Set(float64(ms.PauseTotalNs) / 1e9)
	})
}
