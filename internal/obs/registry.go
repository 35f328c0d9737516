package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if !Enabled {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value (throughput, occupancy,
// progress fraction). Stored as atomic bits, so Set/Load are single
// word operations.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if !Enabled {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds named metrics and the run's phase tree. Metric
// accessors are get-or-create and idempotent, so packages may resolve
// the same name independently; hot paths should resolve once (package
// variable) and increment the returned pointer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// reqTraces, when set, supplies recent per-request traces for the
	// snapshot (a provider hook rather than a direct dependency, so the
	// flight recorder can live above this package).
	reqTraces func() []RequestTrace
	root      *Span
	start     time.Time
}

// NewRegistry returns an empty registry whose root span starts now.
func NewRegistry() *Registry {
	now := time.Now()
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		root:     &Span{name: "run", start: now},
		start:    now,
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// SetRequestTraces installs the provider of recent request traces
// included in snapshots (the flight recorder's export hook). Pass nil
// to detach.
func (r *Registry) SetRequestTraces(fn func() []RequestTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqTraces = fn
}

// Root returns the registry's root span (the whole run's phase tree).
func (r *Registry) Root() *Span { return r.root }

// Start returns when the registry (and its root span) was created.
func (r *Registry) Start() time.Time { return r.start }

// Reset zeroes every metric in place (pointers previously handed out
// stay valid and registered) and restarts the phase tree. For tests;
// production code accumulates for the process lifetime.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
	r.start = time.Now()
	r.root = &Span{name: "run", start: r.start}
}

// names returns the sorted metric names of kind-specific map m.
func names[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
