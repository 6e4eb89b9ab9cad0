// Package obs is the pipeline's unified telemetry layer: typed counters,
// gauges and log-bucketed histograms collected in a concurrency-safe
// Registry, plus hierarchical spans (run → stage → wave → unit) recorded
// into a serializable run trace. Every layer of the generation pipeline —
// trace annotation, non-key chunk fills, keygen dependency waves and units,
// the vectorized engine, the worker pool, export — reports through this one
// vocabulary; exporters turn a finished run into a structured JSON RunReport
// or Prometheus text format (see report.go).
//
// A run's registry rides its context.Context (WithRegistry, From), the same
// context that already carries cancellation and the current span to every
// layer, so two runs in one process report into two registries. The engine
// is the one layer without a context at its recording sites: whoever builds
// an engine hands it the registry once (engine.Engine.SetRegistry).
//
// The design constraint: telemetry must cost nothing when nobody is looking.
// Every handle accessor and recording method is nil-safe:
//
//	reg := obs.From(ctx)                         // nil when the run has no registry
//	c := reg.Counter("keygen_units_total")       // nil registry -> nil handle
//	c.Add(3)                                     // nil handle -> no-op
//	t := reg.Histogram("nonkey_fill_ns").Start() // nil -> zero Timer, no time.Now
//	...
//	t.Stop()                                     // zero Timer -> no-op
//
// With no registry on the context the entire chain is one context lookup
// plus nil checks — zero allocations and zero clock reads, enforced by
// testing.AllocsPerRun in obs_test.go. Hot packages (engine, relalg)
// take all wall-clock readings through Timer for exactly this reason; CI
// greps them for direct time.Now calls.
//
// Handle lookup takes the registry mutex, so instrumentation sites that run
// per work item (or hotter) should resolve handles once per stage and reuse
// them; the recording methods themselves are single atomic operations.
//
// Metric naming: snake_case bases, `_total` suffix for counters, `_ns`
// suffix for duration histograms. Labels ride in the key in Prometheus form,
// built by CounterL/HistogramL: `parallel_items_total{stage="keygen/wave"}`.
// Exporters prefix everything with `mirage_`.
package obs

import (
	"context"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry collects one run's metrics and spans. All methods are safe for
// concurrent use, and all methods tolerate a nil receiver (returning nil
// handles / no-ops) so call sites need no enabled-path branching.
type Registry struct {
	start time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	roots    []*Span
	journal  *Journal // lazily created by Events()

	// tracker is the installed progress tracker (nil until a generation run
	// installs one); atomic so /progress snapshots never contend with the
	// registry mutex.
	tracker atomic.Pointer[Tracker]
}

// SetTracker installs t as the registry's progress tracker, closing (and
// unregistering) any previously installed one — repeated generation runs
// under one registry keep exactly one live tracker. A nil registry ignores
// the call; passing nil just uninstalls.
func (r *Registry) SetTracker(t *Tracker) {
	if r == nil {
		return
	}
	if old := r.tracker.Swap(t); old != nil && old != t {
		old.Close()
	}
}

// Tracker returns the installed progress tracker, or nil.
func (r *Registry) Tracker() *Tracker {
	if r == nil {
		return nil
	}
	return r.tracker.Load()
}

// NewRegistry returns an empty registry; its wall clock (span offsets,
// RunReport.WallNS) starts now.
func NewRegistry() *Registry {
	return &Registry{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// regKey carries the run's registry through the context chain.
type regKey struct{}

// WithRegistry returns ctx carrying r as the run's registry. A nil registry
// returns ctx unchanged (no allocation), keeping disabled runs free.
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, regKey{}, r)
}

// From returns the context's registry, or nil when telemetry is off.
func From(ctx context.Context) *Registry {
	r, _ := ctx.Value(regKey{}).(*Registry)
	return r
}

// sinceNS is the registry's monotone clock: nanoseconds since NewRegistry.
func (r *Registry) sinceNS() int64 { return int64(time.Since(r.start)) }

// label formats a metric key with one label pair in Prometheus form:
// label("x_total", "kind", "resize") == `x_total{kind="resize"}`. It
// allocates, so build labeled keys at stage setup, not per item.
func label(name, key, val string) string {
	return name + "{" + key + `="` + val + `"}`
}

// Counter returns the named monotone counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// CounterL is Counter with one label pair; the label string is only built
// when the registry is enabled.
func (r *Registry) CounterL(name, key, val string) *Counter {
	if r == nil {
		return nil
	}
	return r.Counter(label(name, key, val))
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	r.mu.Unlock()
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// HistogramL is Histogram with one label pair.
func (r *Registry) HistogramL(name, key, val string) *Histogram {
	if r == nil {
		return nil
	}
	return r.Histogram(label(name, key, val))
}

// Counter is a monotone int64 counter. The zero value is ready; a nil
// counter is a no-op.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins int64 level. A nil gauge is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set records the current level.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value reads the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max raises the level to n if n is larger (CAS loop; lock-free and safe
// for concurrent use). High-water marks — peak heap bytes, widest wave —
// record through this instead of Set so concurrent samplers never regress
// the level.
func (g *Gauge) Max(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// histBuckets is the bucket count of a Histogram: bucket 0 holds values
// ≤ 0, bucket b (1..64) holds values v with 2^(b-1) ≤ v < 2^b — log2
// bucketing wide enough for any int64 (nanosecond durations up to centuries,
// cardinalities up to 2^63).
const histBuckets = 65

// Histogram is a lock-free log2-bucketed histogram of int64 samples
// (typically nanoseconds or row counts). The zero value is ready; a nil
// histogram is a no-op.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	h.buckets[b].Add(1)
}

// Count reads the number of samples (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sample total (0 for a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Timer measures one wall-clock interval into a histogram. The zero Timer
// (returned by a nil histogram's Start) never reads the clock, which is what
// keeps instrumented hot paths free of time.Now when telemetry is off.
type Timer struct {
	h     *Histogram
	start time.Time
}

// Start begins timing an interval destined for h. On a nil histogram it
// returns the zero Timer without touching the clock.
func (h *Histogram) Start() Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// Stop ends the interval, records it, and returns its duration (0 for the
// zero Timer).
func (t Timer) Stop() time.Duration {
	if t.h == nil {
		return 0
	}
	d := time.Since(t.start)
	t.h.Observe(int64(d))
	return d
}

// sortedKeys returns map keys in deterministic order for the exporters.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
