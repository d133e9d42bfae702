// Package telemetry is the observability layer of the MicroSampler
// pipeline: a zero-dependency metrics registry (counters, gauges and
// fixed-bucket histograms, goroutine-safe and allocation-free on the hot
// path) plus structured span tracing for the Verify pipeline stages.
//
// The registry renders as aligned text for terminals and as JSON for
// machine consumers. Every future performance PR reports against
// these surfaces (the paper's Table VI stage breakdown generalised to
// per-run distributions and simulator event counters).
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can move in either direction.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetMax raises the gauge to v if v is greater than the current value
// (high-water-mark semantics).
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets hold counts of
// observations less than or equal to each upper bound; observations
// above the last bound land in an implicit +Inf bucket. Observe is
// lock-free and allocation-free.
type Histogram struct {
	bounds []float64 // sorted upper bounds
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	min    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{
		bounds: bs,
		counts: make([]atomic.Uint64, len(bs)+1),
	}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			break
		}
	}
	for {
		old := h.min.Load()
		if math.Float64frombits(old) <= v {
			break
		}
		if h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the average observation, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min returns the smallest observation, or 0 with no samples.
func (h *Histogram) Min() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.min.Load())
}

// Max returns the largest observation, or 0 with no samples.
func (h *Histogram) Max() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts: it returns the upper bound of the bucket holding the
// q-quantile observation, clamped to the observed min/max. The estimate
// is exact when every observation in the target bucket equals its bound.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			var b float64
			if i < len(h.bounds) {
				b = h.bounds[i]
			} else {
				b = h.Max()
			}
			if b > h.Max() {
				b = h.Max()
			}
			if b < h.Min() {
				b = h.Min()
			}
			return b
		}
	}
	return h.Max()
}

// Buckets returns the bucket upper bounds and their counts; the final
// entry of counts is the +Inf overflow bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// LatencyBuckets is an exponential bucket layout for durations in
// seconds, from 100µs to ~100s.
func LatencyBuckets() []float64 {
	b := make([]float64, 0, 21)
	for v := 1e-4; v <= 110; v *= 2 {
		b = append(b, v)
	}
	return b
}

// Registry is a named collection of metrics. The zero value is not
// usable; construct with NewRegistry. Lookup methods are get-or-create
// and safe for concurrent use; the returned metric handles should be
// cached by hot paths so steady-state updates take no locks.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry used when callers do not supply
// their own.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls ignore buckets).
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(buckets)
		r.histograms[name] = h
	}
	return h
}

// Reset drops every metric; mainly for tests and between-batch reuse.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.histograms = make(map[string]*Histogram)
}

// HistogramSnapshot is the rendered state of one histogram. Bounds and
// BucketCounts carry the raw (non-cumulative) bucket layout so
// exporters can rebuild the full distribution (Prometheus _bucket
// series); BucketCounts has one extra trailing entry for the +Inf
// overflow bucket.
type HistogramSnapshot struct {
	Count        uint64    `json:"count"`
	Sum          float64   `json:"sum"`
	Min          float64   `json:"min"`
	Mean         float64   `json:"mean"`
	P95          float64   `json:"p95"`
	Max          float64   `json:"max"`
	Bounds       []float64 `json:"bounds,omitempty"`
	BucketCounts []uint64  `json:"bucketCounts,omitempty"`
}

// Snapshot is a point-in-time copy of a registry's values.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		bounds, counts := h.Buckets()
		s.Histograms[n] = HistogramSnapshot{
			Count:        h.Count(),
			Sum:          h.Sum(),
			Min:          h.Min(),
			Mean:         h.Mean(),
			P95:          h.Quantile(0.95),
			Max:          h.Max(),
			Bounds:       bounds,
			BucketCounts: counts,
		}
	}
	return s
}

// RenderText renders the registry in the Prometheus text exposition
// format (via Snapshot.Prometheus), so the same dump a terminal shows
// is scrapeable by any Prometheus-compatible collector. Metric names
// are sanitised to the exposition alphabet; RenderSummary keeps the
// old aligned human-oriented view.
func (r *Registry) RenderText() string {
	return r.Snapshot().Prometheus()
}

// RenderSummary renders the registry as aligned, sorted terminal text:
// one line per metric, histograms condensed to n/min/mean/p95/max.
func (r *Registry) RenderSummary() string {
	s := r.Snapshot()
	var b strings.Builder
	b.WriteString("metrics:\n")
	for _, n := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "  %-44s %d\n", n, s.Counters[n])
	}
	for _, n := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "  %-44s %g\n", n, s.Gauges[n])
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "  %-44s n=%d min=%g mean=%g p95=%g max=%g\n",
			n, h.Count, h.Min, h.Mean, h.P95, h.Max)
	}
	return b.String()
}

// RenderJSON renders the registry snapshot as indented JSON.
func (r *Registry) RenderJSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
