// Package obs is Prudentia's internal telemetry layer: a dependency-free,
// allocation-conscious metric registry (counters, gauges, histograms with
// fixed bucket layouts) plus the per-run artifacts a long-lived watchdog
// needs to be post-hoc debuggable — a JSONL cycle timeline and a run
// manifest. It exists because a measurement service that must run
// unattended for months (the paper's operating mode, and the premise of
// chaos experiments per Basiri et al.) is only as trustworthy as the
// steady-state signals it exposes about itself.
//
// Design rules:
//
//   - Handles, not lookups: callers resolve a *Counter/*Gauge/*Histogram
//     once at setup and hold the pointer; the hot path is a single atomic
//     add with no map access and no allocation.
//   - Nil-safe everywhere: every method works on a nil receiver as a
//     no-op, so instrumented code needs no "is telemetry on?" branches
//     and disabled telemetry costs one predictable test-and-branch.
//   - Deterministic snapshots: counter and histogram state is integer
//     (histogram sums accumulate in fixed-point microunits), so totals
//     are independent of scheduling order — two identical seeded cycles,
//     or the same cycle at different worker counts, produce identical
//     snapshots apart from explicitly wall-clock metrics (whose names
//     contain "wall"; see Snapshot.StripWallClock).
//   - Scrapes walk a plan built at registration; the exposition is
//     always live. The Prometheus text's fixed part (line order, TYPE
//     headers, names, labels, bucket bounds) is rendered once per
//     registration into a plan, and Registry.AppendPrometheus, the one
//     encoder of the format, walks it with atomic loads: no map, sort,
//     fmt or lock while encoding, no allocation into a reused buffer.
//     Nothing of the text is cached, so a scrape reflects everything
//     that happened before it.
//   - No dependencies: obs imports only the standard library and is
//     imported from anywhere in the stack without cycles.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float-valued instantaneous metric. A nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetMax raises the gauge to v if v exceeds the current value (a
// high-water mark; safe under concurrent use).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
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

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds a process's metrics by name. Metric names follow the
// Prometheus convention (snake_case, unit-suffixed, `_total` for
// counters); an optional `{label="value"}` suffix is carried verbatim
// into the exposition. A nil *Registry hands out nil handles, which are
// themselves no-ops, so an entire instrumentation layer can be disabled
// by simply not providing a registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// plan is the exposition layout (plan.go). A registration sets it
	// to nil and the next scrape rebuilds it, so registering costs
	// nothing and a scrape sorts no names.
	plan []planLine
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
		r.plan = nil
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
		r.plan = nil
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use. The layout is fixed at first
// registration; later calls return the existing histogram regardless of
// the buckets argument.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(buckets)
		r.hists[name] = h
		r.plan = nil
	}
	return h
}

// Snapshot captures every metric's current state with deterministic
// (sorted) iteration order in the exposition writers.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// sortedKeys returns map keys in lexicographic order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
