package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic int64 counter. The zero value is ready to use, so
// it embeds directly as a struct field — the pre-resolved instrument
// handle pattern: call sites hold the field, never a registry lookup.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a settable int64 instrument rendered with Prometheus type
// gauge. Methods are nil-receiver safe so an unwired Metrics struct (zero
// value, no registry) costs one compare per call.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// NewGauge builds a named gauge.
func NewGauge(name, help string) *Gauge { return &Gauge{name: name, help: help} }

// Set stores the value; nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the value by d; nil-safe.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Load returns the current value (0 for nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// WritePrometheus renders the gauge.
func (g *Gauge) WritePrometheus(w io.Writer) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
		g.name, g.help, g.name, g.name, g.v.Load())
	return err
}

// GaugeFunc is a gauge whose value is computed at scrape time — runtime
// statistics (goroutines, heap bytes) register as these.
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

// NewGaugeFunc builds a scrape-time gauge.
func NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	return &GaugeFunc{name: name, help: help, fn: fn}
}

// WritePrometheus renders the gauge with a fresh evaluation.
func (g *GaugeFunc) WritePrometheus(w io.Writer) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
		g.name, g.help, g.name, g.name, formatFloat(g.fn()))
	return err
}

// CounterFunc is a counter whose value is read at scrape time: a Counter
// embedded by value in a struct registers as one through its Load method,
// and so do statistics kept elsewhere (the result cache's hit counts).
type CounterFunc struct {
	name, help string
	fn         func() int64
}

// NewCounterFunc builds a scrape-time counter.
func NewCounterFunc(name, help string, fn func() int64) *CounterFunc {
	return &CounterFunc{name: name, help: help, fn: fn}
}

// WritePrometheus renders the counter with a fresh read.
func (c *CounterFunc) WritePrometheus(w io.Writer) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
		c.name, c.help, c.name, c.name, c.fn())
	return err
}

// Histogram is a fixed-bucket histogram behind lock-free atomics: one
// atomic bucket counter per upper bound plus an atomic float64-bits sum.
// Observe is wait-free; rendering cumulates the buckets into the
// Prometheus le-labelled exposition. Methods are nil-receiver safe.
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	sum        atomic.Uint64  // math.Float64bits of the running sum
	count      atomic.Int64
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds (the implicit +Inf bucket is appended).
func NewHistogram(name, help string, bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{name: name, help: help, bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value; nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// WritePrometheus renders the histogram in exposition format.
func (h *Histogram) WritePrometheus(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name); err != nil {
		return err
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(b), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", h.name, formatFloat(h.Sum()), h.name, h.count.Load())
	return err
}

// LatencyBuckets returns the default latency bounds in seconds, 500 µs to
// 10 s — sized for serving-tier p50/p99 over simulated inferences.
func LatencyBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// SizeBuckets returns power-of-two count bounds (1..64) for batch-size
// style distributions.
func SizeBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64}
}

// LabeledCounter is a counter family over one label dimension (e.g. HTTP
// status). Unknown label values materialize on first Add; rendering is in
// sorted label order for stable scrapes. Methods are nil-receiver safe.
type LabeledCounter struct {
	name, help, label string
	mu                sync.Mutex
	m                 map[string]*Counter
}

// NewLabeledCounter builds a counter family keyed by one label.
func NewLabeledCounter(name, help, label string) *LabeledCounter {
	return &LabeledCounter{name: name, help: help, label: label, m: make(map[string]*Counter)}
}

// Add increments the counter for the given label value; nil-safe.
func (c *LabeledCounter) Add(labelValue string, d int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	ctr, ok := c.m[labelValue]
	if !ok {
		ctr = &Counter{}
		c.m[labelValue] = ctr
	}
	c.mu.Unlock()
	ctr.Add(d)
}

// Load returns the counter for one label value (0 for nil or unseen).
func (c *LabeledCounter) Load(labelValue string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	ctr := c.m[labelValue]
	c.mu.Unlock()
	if ctr == nil {
		return 0
	}
	return ctr.Load()
}

// WritePrometheus renders every materialized label value in sorted order.
func (c *LabeledCounter) WritePrometheus(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name); err != nil {
		return err
	}
	c.mu.Lock()
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	vals := make(map[string]int64, len(c.m))
	for k, ctr := range c.m {
		vals[k] = ctr.Load()
	}
	c.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", c.name, c.label, k, vals[k]); err != nil {
			return err
		}
	}
	return nil
}

// Instrument is anything the registry can render into the Prometheus text
// exposition.
type Instrument interface {
	WritePrometheus(w io.Writer) error
}

// Registry is an ordered collection of instruments: registration order is
// render order, so a scrape's layout is deterministic. Instruments are
// registered once at construction and then used through their concrete
// handles — the registry only exists for the exposition pass.
type Registry struct {
	mu    sync.Mutex
	insts []Instrument
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends instruments in render order; nil-safe on both sides.
func (r *Registry) Register(insts ...Instrument) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, in := range insts {
		if in != nil {
			r.insts = append(r.insts, in)
		}
	}
	r.mu.Unlock()
}

// WritePrometheus renders every registered instrument in order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	insts := append([]Instrument(nil), r.insts...)
	r.mu.Unlock()
	for _, in := range insts {
		if err := in.WritePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
