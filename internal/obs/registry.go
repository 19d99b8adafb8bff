// Package obs is the simulator's observability layer: a tracer that
// emits Chrome Trace Event / Perfetto-loadable JSON timelines in
// simulated time, and a registry of named counters and gauges.
//
// Everything here is zero-cost when disabled. Producers (the fabric
// engine, the sweep engine, the training timeline) take a nil-able
// observer/tracer/registry; a nil value is one pointer comparison on
// the hot path and no allocations, pinned by BenchmarkEngineNilObserver
// in internal/fabric.
//
// Timestamps are simulated seconds supplied by the producer — never
// time.Now — so an emitted trace file is a pure function of the
// simulated run and byte-identical across invocations (golden-tested).
// The only clock the tracer knows is the injectable Clock field; it
// exists for diagnostic wall-clock tracks (sweep progress) and
// deterministic tests.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. All methods are
// safe on a nil receiver (no-ops / zero), so producers can hold the
// result of Registry.Counter on a nil registry without branching.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric (accumulated seconds, ratios). Like Counter
// it is nil-safe and safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+d)) {
			return
		}
	}
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a namespace of counters, gauges and histograms. Metric
// handles are created on first use and live for the registry's
// lifetime; lookups on a nil registry return nil handles whose methods
// no-op, so one nil check at wiring time covers an entire instrumented
// subsystem. Handle lookup takes the registry lock; the handles
// themselves are lock-free, so hot paths cache the handle and pay no
// lock on Observe/Add.
//
// Metric names may carry Prometheus-style labels via Labeled
// ("family{k=\"v\"}"); Expose groups such series under one family.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// volatile records family names whose values depend on wall-clock
	// measurement (see MarkVolatile); Expose flags them so determinism
	// checks can exclude them.
	volatile map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		volatile:   make(map[string]bool),
	}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it empty on first
// use. Use Labeled to build names carrying labels.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// MarkVolatile flags metric families whose values depend on wall-clock
// measurement rather than on the simulated run (worker busy time, span
// latencies). Expose emits a "# VOLATILE" comment for them, which the
// byte-identity determinism checks use as an exclusion list. Names are
// family names — the part of a Labeled name before the brace.
func (r *Registry) MarkVolatile(families ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range families {
		r.volatile[f] = true
	}
}

// Snapshot is a point-in-time copy of every metric, JSON-serializable
// with deterministic (sorted) key order. Families lists it in the
// sorted typed form Expose renders.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Volatile lists the family names marked wall-clock-dependent via
	// MarkVolatile, sorted.
	Volatile []string `json:"volatile,omitempty"`
}

// Snapshot captures the current value of every metric.
func (r *Registry) Snapshot() Snapshot { return r.snapshot(false) }

// SnapshotAndReset captures every metric and atomically resets it to
// zero, so consecutive calls observe non-overlapping deltas — the
// snapshot-and-reset idiom for cheap delta scraping (each counter word
// is swapped atomically; an observation racing the scrape lands wholly
// in one delta or the next).
func (r *Registry) SnapshotAndReset() Snapshot { return r.snapshot(true) }

func (r *Registry) snapshot(reset bool) Snapshot {
	s := Snapshot{Counters: map[string]int64{}, Gauges: map[string]float64{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		if reset {
			s.Counters[name] = c.v.Swap(0)
		} else {
			s.Counters[name] = c.Value()
		}
	}
	for name, g := range r.gauges {
		if reset {
			s.Gauges[name] = math.Float64frombits(g.bits.Swap(0))
		} else {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.snapshot(reset)
		}
	}
	for f := range r.volatile {
		s.Volatile = append(s.Volatile, f)
	}
	sort.Strings(s.Volatile)
	return s
}
