package obs

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	reg := NewRegistry()
	sh := reg.Shard()

	c := sh.Counter("runs_total", "runs", Sim)
	c.Inc()
	c.Add(4)
	g := sh.Gauge("depth", "max depth", Sim)
	g.Set(3)
	g.Set(1) // high-water: must not lower the mark
	h := sh.Histogram("lat_ns", "latency", Sim, []int64{10, 100})
	for _, v := range []int64{5, 10, 11, 100, 101, 1000} {
		h.Observe(v)
	}
	sh.Histogram("idle_ns", "defined, never observed", Sim, []int64{10})

	snap := reg.Snapshot()
	byName := map[string]Metric{}
	for _, m := range snap.Metrics {
		byName[m.Name] = m
	}
	if got := byName["runs_total"].Value; got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := byName["depth"].Value; got != 3 {
		t.Errorf("gauge = %d, want 3 (high-water)", got)
	}
	hist := byName["lat_ns"].Hist
	if hist == nil {
		t.Fatal("histogram missing from snapshot")
	}
	// ≤10 → bucket 0, ≤100 → bucket 1, rest overflow.
	want := []int64{2, 2, 2}
	for i, n := range want {
		if hist.Counts[i] != n {
			t.Errorf("bucket %d = %d, want %d (%v)", i, hist.Counts[i], n, hist.Counts)
		}
	}
	if hist.Count != 6 || hist.Sum != 5+10+11+100+101+1000 {
		t.Errorf("count=%d sum=%d, want 6 / 1227", hist.Count, hist.Sum)
	}
	if hist.Min != 5 || hist.Max != 1000 {
		t.Errorf("min=%d max=%d, want 5 / 1000", hist.Min, hist.Max)
	}
	if idle := byName["idle_ns"].Hist; idle.Count != 0 || idle.Min != 0 || idle.Max != 0 {
		t.Errorf("empty histogram = %+v, want count/min/max 0", idle)
	}
}

func TestGaugeNegativeValues(t *testing.T) {
	reg := NewRegistry()
	sh := reg.Shard()
	sh.Gauge("below_zero", "", Sim).Set(-7)
	snap := reg.Snapshot()
	if got := snap.Metrics[0].Value; got != -7 {
		t.Errorf("negative-only gauge = %d, want -7", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Hist{
		Bounds: []int64{10, 20, 30},
		Counts: []int64{50, 40, 9, 1},
		Count:  100,
		Min:    1,
		Max:    99,
	}
	if q := h.Quantile(0.50); q != 10 {
		t.Errorf("p50 = %d, want 10", q)
	}
	if q := h.Quantile(0.90); q != 20 {
		t.Errorf("p90 = %d, want 20", q)
	}
	if q := h.Quantile(0.99); q != 30 {
		t.Errorf("p99 = %d, want 30", q)
	}
	if q := h.Quantile(1.0); q != 99 {
		t.Errorf("p100 = %d, want Max=99 (overflow bucket)", q)
	}
	empty := &Hist{}
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty p50 = %d, want 0", q)
	}
}

// TestMergeCommutative is the shard/merge contract: the same
// observations partitioned across any number of shards, in any
// interleaving, must merge to byte-identical canonical dumps. Each
// partition also carries an idle shard that defines every metric and
// observes nothing, as an idle fleet shard does; it must not drag the
// histogram's min or max away from the observed extremes.
func TestMergeCommutative(t *testing.T) {
	type op struct {
		kind string
		name string
		v    int64
	}
	rng := rand.New(rand.NewSource(613))
	var ops []op
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0:
			ops = append(ops, op{"c", "events_total", 1 + rng.Int63n(5)})
		case 1:
			ops = append(ops, op{"g", "frontier", rng.Int63n(1000)})
		default:
			ops = append(ops, op{"h", "lat_ns", rng.Int63n(int64(2 * time.Second))})
		}
	}
	apply := func(sh *Shard, o op) {
		switch o.kind {
		case "c":
			sh.Counter(o.name, "", Sim).Add(o.v)
		case "g":
			sh.Gauge(o.name, "", Sim).Set(o.v)
		case "h":
			sh.Histogram(o.name, "", Sim, SimDurationBounds).Observe(o.v)
		}
	}

	// Reference: everything through one shard, in order.
	ref := NewRegistry()
	one := ref.Shard()
	for _, o := range ops {
		apply(one, o)
	}
	want := ref.Snapshot().MarshalCanonical()
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, o := range ops {
		if o.kind == "h" {
			lo, hi = min(lo, o.v), max(hi, o.v)
		}
	}

	for _, workers := range []int{2, 3, 8} {
		reg := NewRegistry()
		shards := make([]*Shard, workers)
		for i := range shards {
			shards[i] = reg.Shard()
		}
		idle := reg.Shard()
		idle.Counter("events_total", "", Sim)
		idle.Gauge("frontier", "", Sim)
		idle.Histogram("lat_ns", "", Sim, SimDurationBounds)
		// Random partition, concurrent application.
		var wg sync.WaitGroup
		perShard := make([][]op, workers)
		for _, o := range ops {
			w := rng.Intn(workers)
			perShard[w] = append(perShard[w], o)
		}
		for i := range shards {
			wg.Add(1)
			go func(sh *Shard, list []op) {
				defer wg.Done()
				for _, o := range list {
					apply(sh, o)
				}
			}(shards[i], perShard[i])
		}
		wg.Wait()
		snap := reg.Snapshot()
		if got := snap.MarshalCanonical(); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: canonical dump differs from single-shard reference\n--- want\n%s--- got\n%s",
				workers, want, got)
		}
		for _, m := range snap.Metrics {
			if m.Hist != nil && (m.Hist.Min != lo || m.Hist.Max != hi) {
				t.Errorf("workers=%d: %s min/max = %d/%d, want the observed %d/%d",
					workers, m.Name, m.Hist.Min, m.Hist.Max, lo, hi)
			}
		}
	}
}

// TestMergeSnapshotsEmptyHistogram: a shard that defined a histogram but
// never observed into it must not drag the merged min to zero; with no
// observation anywhere, min and max render 0 as a single shard does.
func TestMergeSnapshotsEmptyHistogram(t *testing.T) {
	reg := NewRegistry()
	a, b := reg.Shard(), reg.Shard()
	a.Histogram("lat_ns", "h", Sim, SimDurationBounds).Observe(int64(50 * time.Millisecond))
	b.Histogram("lat_ns", "h", Sim, SimDurationBounds) // defined, empty
	h := reg.Snapshot().Metrics[0].Hist
	if h.Count != 1 || h.Min != int64(50*time.Millisecond) || h.Max != int64(50*time.Millisecond) {
		t.Fatalf("empty histogram polluted the merge: %+v", h)
	}

	reg = NewRegistry()
	reg.Shard().Histogram("lat_ns", "h", Sim, SimDurationBounds)
	reg.Shard().Histogram("lat_ns", "h", Sim, SimDurationBounds)
	if h := reg.Snapshot().Metrics[0].Hist; h.Count != 0 || h.Min != 0 || h.Max != 0 {
		t.Fatalf("all-empty merge should render min=max=0: %+v", h)
	}
}

// TestShardMerge: a shard merged into another, across registries,
// snapshots the same as both shards in one registry: counters and
// buckets add, min/max and gauges keep their extremes, and metrics the
// merged shard only defined (an empty histogram, an unset gauge, a zero
// counter) stay defined. Merging a nil shard, or into one, no-ops.
func TestShardMerge(t *testing.T) {
	record := func(a, b *Shard) {
		rng := rand.New(rand.NewSource(26))
		for i := 0; i < 500; i++ {
			sh := a
			if rng.Intn(2) == 1 {
				sh = b
			}
			sh.Counter("events_total", "events", Sim).Add(1 + rng.Int63n(5))
			sh.Gauge("frontier", "high water", Sim).Set(rng.Int63n(1000) - 500)
			sh.Histogram("lat_ns", "latency", Sim, SimDurationBounds).Observe(rng.Int63n(int64(2 * time.Second)))
			sh.Histogram("wall_ns", "wall", Wall, WallDurationBounds).Observe(rng.Int63n(int64(time.Second)))
		}
		b.Gauge("only_b", "set on b alone", Sim).Set(-7)
		b.Counter("idle_total", "defined, never added", Sim)
		b.Gauge("idle_gauge", "defined, never set", Sim)
		b.Histogram("idle_ns", "defined, never observed", Sim, SimDurationBounds)
	}

	one := NewRegistry()
	record(one.Shard(), one.Shard())
	want := one.Snapshot().MarshalAll()

	dst, capture := NewRegistry(), NewRegistry()
	a, b := dst.Shard(), capture.Shard()
	record(a, b)
	a.Merge(b)
	a.Merge(nil)
	(*Shard)(nil).Merge(b)
	if got := dst.Snapshot().MarshalAll(); !bytes.Equal(got, want) {
		t.Fatalf("merged shard differs from both shards in one registry\n--- want\n%s--- got\n%s", want, got)
	}
}

func TestWallDomainQuarantine(t *testing.T) {
	reg := NewRegistry()
	sh := reg.Shard()
	sh.Counter("seeds_total", "seeds", Sim).Add(4)
	sh.Gauge("pool_workers", "workers", Wall).Set(8)
	sh.Histogram("seed_wall_ns", "wall latency", Wall, WallDurationBounds).Observe(12345)

	snap := reg.Snapshot()
	canon := string(snap.MarshalCanonical())
	if strings.Contains(canon, "pool_workers") || strings.Contains(canon, "seed_wall_ns") {
		t.Errorf("wall-domain metric leaked into canonical dump:\n%s", canon)
	}
	if !strings.Contains(canon, "seeds_total") {
		t.Errorf("sim-domain metric missing from canonical dump:\n%s", canon)
	}
	all := string(snap.MarshalAll())
	prom := snap.PromText()
	for _, name := range []string{"pool_workers", "seed_wall_ns", "seeds_total"} {
		if !strings.Contains(all, name) {
			t.Errorf("full dump missing %s", name)
		}
		if !strings.Contains(prom, name) {
			t.Errorf("prom exposition missing %s", name)
		}
	}
}

func TestPromTextFormat(t *testing.T) {
	reg := NewRegistry()
	sh := reg.Shard()
	sh.Counter("flips_total", "coin flips", Sim).Add(2)
	sh.Histogram("h_ns", "", Sim, []int64{10}).Observe(7)
	sh.Histogram("h_ns", "", Sim, []int64{10}).Observe(99)

	prom := reg.Snapshot().PromText()
	for _, want := range []string{
		"# HELP flips_total coin flips",
		"# TYPE flips_total counter",
		`flips_total{domain="sim"} 2`,
		"# TYPE h_ns histogram",
		`h_ns_bucket{domain="sim",le="10"} 1`,
		`h_ns_bucket{domain="sim",le="+Inf"} 2`,
		`h_ns_sum{domain="sim"} 106`,
		`h_ns_count{domain="sim"} 2`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom exposition missing %q:\n%s", want, prom)
		}
	}
}

func TestSnapshotRoundTripAndTable(t *testing.T) {
	reg := NewRegistry()
	sh := reg.Shard()
	sh.Counter("runs_total", "runs", Sim).Add(3)
	sh.Histogram("handling_sim_ns", "handling", Sim, SimDurationBounds).
		ObserveDuration(90 * time.Millisecond)
	sh.Gauge("workers", "", Wall).Set(4)

	raw := reg.Snapshot().MarshalAll()
	snap, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if len(snap.Metrics) != 3 {
		t.Fatalf("round-trip kept %d metrics, want 3", len(snap.Metrics))
	}
	if v, ok := snap.Value("runs_total"); v != 3 || !ok {
		t.Errorf("Value(runs_total) = %d, %v; want 3, true", v, ok)
	}
	if v, ok := snap.Value("no_such_total"); v != 0 || ok {
		t.Errorf("Value(no_such_total) = %d, %v; want 0, false", v, ok)
	}
	table := snap.Table()
	for _, want := range []string{"runs_total", "handling_sim_ns", "p95=", "wall domain"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if _, err := DecodeSnapshot([]byte("{")); err == nil {
		t.Error("DecodeSnapshot accepted truncated input")
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	sh := reg.Shard()
	if sh != nil {
		t.Fatal("nil registry returned a live shard")
	}
	// All of these must no-op, not panic.
	sh.Counter("x", "", Sim).Inc()
	sh.Gauge("x", "", Sim).Set(1)
	sh.Histogram("x", "", Sim, nil).Observe(1)
	got := reg.Snapshot()
	if len(got.Metrics) != 0 {
		t.Errorf("nil registry snapshot has %d metrics", len(got.Metrics))
	}
	if v, ok := got.Value("x"); v != 0 || ok {
		t.Errorf("nil registry Value(x) = %d, %v; want 0, false", v, ok)
	}
	var p *Progress
	p.Stop() // no-op
}

func TestConflictingRedefinitionPanics(t *testing.T) {
	reg := NewRegistry()
	sh := reg.Shard()
	sh.Counter("m", "", Sim)
	defer func() {
		if recover() == nil {
			t.Error("redefining a counter as a gauge did not panic")
		}
	}()
	sh.Gauge("m", "", Sim)
}

// TestLiveCounterValue: the progress line's read, a snapshot's Value,
// sums a counter across shards and reports an absent name as not ok.
func TestLiveCounterValue(t *testing.T) {
	reg := NewRegistry()
	a, b := reg.Shard(), reg.Shard()
	a.Counter("done", "", Sim).Add(3)
	b.Counter("done", "", Sim).Add(4)
	snap := reg.Snapshot()
	if v, _ := snap.Value("done"); v != 7 {
		t.Errorf("Value(done) = %d, want 7", v)
	}
	if v, ok := snap.Value("absent"); v != 0 || ok {
		t.Errorf("Value(absent) = %d, %v; want 0, false", v, ok)
	}
}

func TestProgressLines(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	var done atomic.Int64
	p := StartProgress(w, "seeds", 10, time.Millisecond, func() (int64, int64) {
		return done.Load(), 1
	})
	done.Store(5)
	time.Sleep(20 * time.Millisecond)
	done.Store(10)
	p.Stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "/10 seeds") || !strings.Contains(out, "failures 1") {
		t.Errorf("progress output missing fields:\n%s", out)
	}
	if !strings.Contains(out, "10/10 seeds (100.0%)") {
		t.Errorf("final progress line missing terminal state:\n%s", out)
	}
	if StartProgress(nil, "x", 1, time.Second, nil) != nil {
		t.Error("StartProgress with nil writer/fn should return nil")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
