// Package obs is the live aggregate-metrics layer: a deterministic
// registry of counters, gauges and bounded histograms, sharded per
// worker so the sweep engine's hot path never takes a lock, with a
// commutative merge whose canonical rendering is byte-identical at any
// worker count.
//
// The registry splits every metric into one of two domains:
//
//   - Sim — values derived from the seed alone: event counts, sim-clock
//     durations, schedule tallies. Any partition of a seed range across
//     shards merges to the same totals, so sim-domain metrics are part
//     of the canonical output and obey the same determinism contract as
//     sweep reports (workers=1 and workers=N dumps byte-compare equal).
//   - Wall — wall-clock timings and environment bookkeeping (per-seed
//     wall latency, pool size, GOMAXPROCS). These are quarantined
//     outside the canonical output, exactly like the sweep report keeps
//     per-seed wall times out of its canonical bytes, and only appear
//     in the diagnostic dump and the Prometheus exposition.
//
// Merge semantics are chosen to be commutative and associative so the
// shard partition cannot leak into the totals: counters and histogram
// buckets sum, gauges are high-water marks (monotone max). Values are
// int64 throughout — float sums are not associative, integer sums are.
//
// A nil *Shard (and the nil handles it returns) no-ops everywhere, so
// instrumented seams cost one branch when observation is off.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Domain classifies a metric's determinism contract.
type Domain int

const (
	// Sim metrics derive from the seed alone and are canonical.
	Sim Domain = iota
	// Wall metrics carry wall-clock or environment values and are
	// quarantined outside the canonical output.
	Wall
)

// String names the domain for dumps.
func (d Domain) String() string {
	if d == Wall {
		return "wall"
	}
	return "sim"
}

// Kind is a metric's type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind for dumps.
func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "counter"
}

// def is the registry-level identity of a metric: every shard's handle
// for a name shares one def, so kind/domain/bounds cannot diverge.
type def struct {
	name   string
	kind   Kind
	domain Domain
	help   string
	bounds []int64
}

// Registry owns the metric definitions and the worker shards.
type Registry struct {
	mu     sync.Mutex
	defs   map[string]*def
	shards []*Shard
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{defs: make(map[string]*def)}
}

// Shard allocates a new shard. Each worker goroutine must use its own
// shard; a shard's write methods are lock-free (atomic adds), and its
// values may be read concurrently by live snapshots.
func (r *Registry) Shard() *Shard {
	if r == nil {
		return nil
	}
	s := &Shard{
		reg:      r,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	r.mu.Lock()
	r.shards = append(r.shards, s)
	r.mu.Unlock()
	return s
}

// define resolves (creating on first use) the def for a name, panicking
// on a conflicting redefinition — two call sites disagreeing about a
// metric's shape is a programming error, not a runtime condition.
func (r *Registry) define(name string, kind Kind, domain Domain, help string, bounds []int64) *def {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.defs[name]; ok {
		if d.kind != kind || d.domain != domain {
			panic(fmt.Sprintf("obs: metric %q redefined as %s/%s, was %s/%s",
				name, kind, domain, d.kind, d.domain))
		}
		return d
	}
	d := &def{name: name, kind: kind, domain: domain, help: help, bounds: bounds}
	r.defs[name] = d
	return d
}

// Shard is one worker's private write surface. Metric handles are
// cached per shard; the write path is a single atomic op.
type Shard struct {
	reg      *Registry
	mu       sync.Mutex // guards the handle maps, not the values
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Counter returns (creating on first use) the shard's handle for a
// counter. Nil shards return a nil handle; both no-op.
func (s *Shard) Counter(name, help string, domain Domain) *Counter {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	c := s.counters[name]
	if c == nil {
		c = &Counter{def: s.reg.define(name, KindCounter, domain, help, nil)}
		s.counters[name] = c
	}
	s.mu.Unlock()
	return c
}

// Gauge returns (creating on first use) the shard's handle for a
// high-water gauge.
func (s *Shard) Gauge(name, help string, domain Domain) *Gauge {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	g := s.gauges[name]
	if g == nil {
		g = &Gauge{def: s.reg.define(name, KindGauge, domain, help, nil)}
		g.v.Store(math.MinInt64)
		s.gauges[name] = g
	}
	s.mu.Unlock()
	return g
}

// Histogram returns (creating on first use) the shard's handle for a
// bounded histogram. bounds are ascending bucket upper limits; values
// above the last bound land in an overflow bucket. The first caller's
// bounds win for the whole registry.
func (s *Shard) Histogram(name, help string, domain Domain, bounds []int64) *Histogram {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	h := s.hists[name]
	if h == nil {
		d := s.reg.define(name, KindHistogram, domain, help, bounds)
		h = &Histogram{def: d, buckets: make([]atomic.Int64, len(d.bounds)+1)}
		h.min.Store(math.MaxInt64)
		h.max.Store(math.MinInt64)
		s.hists[name] = h
	}
	s.mu.Unlock()
	return h
}

// Counter is a monotone sum. Merge: addition.
type Counter struct {
	def *def
	v   atomic.Int64
}

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Gauge is a high-water mark: Set keeps the maximum value ever seen.
// Max is the only order-free gauge semantic — last-write-wins would let
// the seed→worker assignment leak into the merged value.
type Gauge struct {
	def *def
	v   atomic.Int64
	set atomic.Bool
}

// Set raises the gauge to v if v exceeds the current mark. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.set.Store(true)
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets and tracks
// count/sum/min/max. All fields merge commutatively.
type Histogram struct {
	def        *def
	buckets    []atomic.Int64 // len(bounds)+1; last is overflow
	count, sum atomic.Int64
	min, max   atomic.Int64
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.def.bounds) && v > h.def.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds. Nil-safe.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// SimDurationBounds are the default bucket limits (ns) for sim-clock
// durations: handling and flip phases live in the 1 ms – 1 s band the
// transparency bound polices.
var SimDurationBounds = []int64{
	int64(1 * time.Millisecond),
	int64(2 * time.Millisecond),
	int64(5 * time.Millisecond),
	int64(10 * time.Millisecond),
	int64(20 * time.Millisecond),
	int64(50 * time.Millisecond),
	int64(100 * time.Millisecond),
	int64(200 * time.Millisecond),
	int64(500 * time.Millisecond),
	int64(1 * time.Second),
}

// WallDurationBounds are the default bucket limits (ns) for wall-clock
// latencies: per-seed runs sit in the 100 µs – 5 s band.
var WallDurationBounds = []int64{
	int64(100 * time.Microsecond),
	int64(250 * time.Microsecond),
	int64(500 * time.Microsecond),
	int64(1 * time.Millisecond),
	int64(2500 * time.Microsecond),
	int64(5 * time.Millisecond),
	int64(10 * time.Millisecond),
	int64(25 * time.Millisecond),
	int64(100 * time.Millisecond),
	int64(500 * time.Millisecond),
	int64(1 * time.Second),
	int64(5 * time.Second),
}
