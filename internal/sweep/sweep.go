// Package sweep is the deterministic worker-pool engine behind the
// repo's seed sweeps. It fans fully isolated seeded scenarios (oracle
// differential runs, guarded-chaos runs, monkey×chaos stress) across
// GOMAXPROCS goroutines and merges the results in seed order, under a
// hard contract: the merged report, the verdict set, and the failure
// output of a parallel sweep are byte-identical to the sequential
// run's. Per-seed wall times and pool bookkeeping are kept out of the
// canonical output so they cannot leak scheduling noise into it.
//
// Worker panics are recovered, attributed to the seed that raised them,
// and re-surfaced after the merge as ordinary failures (the captured
// stack rides along as a diagnostic, outside the canonical bytes).
package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rchdroid/internal/obs"
)

// Outcome is what a Runner reports for one seed. Detail and Failures
// must derive from the seed alone — no wall-clock time, no worker
// identity — so the merged report stays byte-identical at any worker
// count.
type Outcome struct {
	OK       bool
	Detail   string   // one-line deterministic summary
	Failures []string // deterministic failure lines, empty when OK
}

// Runner executes one seeded scenario. It must not share mutable
// simulation state across calls: each invocation boots its own world.
type Runner func(seed uint64) Outcome

// ObsRunner is a Runner with a metrics shard: the engine hands each
// worker its own lock-free shard, and every per-seed observation the
// runner records must derive from the seed alone — then any
// seed→worker partition merges to the same canonical aggregate. The
// shard is nil when the sweep runs without a registry; obs handles
// no-op on nil.
type ObsRunner func(seed uint64, sh *obs.Shard) Outcome

// Config describes one sweep.
type Config struct {
	// Mode labels the sweep in reports ("oracle", "guard", "monkey", …).
	Mode string
	// Start is the first seed, inclusive (0 means 1 — seed 0 is the
	// chaos layer's "off" value — unless ZeroBased is set).
	Start uint64
	// ZeroBased keeps Start == 0 as a real first index instead of
	// coercing it to 1. Schedule-space exploration uses it: index 0 is
	// the empty (fault-free) schedule, not an "off" sentinel.
	ZeroBased bool
	// Count is how many consecutive seeds to run.
	Count int
	// Workers sizes the pool; ≤ 0 means GOMAXPROCS. The pool is capped
	// at Count — idle workers cannot change the output either way.
	Workers int
	// Replay is a printf format with one %d verb producing the exact
	// command that reproduces a failing seed.
	Replay string
	// Obs, if non-nil, collects aggregate metrics: the engine gives each
	// worker a private shard, records per-seed engine metrics itself
	// (seeds done, failures, panics in the sim domain; per-seed wall
	// latency quarantined in the wall domain) and passes the shard to
	// ObsRunner instrumentation. Progress readers may snapshot the
	// registry live while the sweep runs.
	Obs *obs.Registry
	// Stop, when non-nil, cancels the sweep cooperatively: workers finish
	// the seed they are on and claim no more once the channel closes. The
	// merged report then covers only the seeds that ran (Interrupted is
	// set, DonePrefix gives the resume point); an interrupted report makes
	// no byte-identity promise, a completed one is unchanged.
	Stop <-chan struct{}
}

// SeedResult is the merged record for one seed. Wall and PanicStack are
// diagnostics: they are excluded from the canonical report so parallel
// and sequential sweeps render the same bytes.
type SeedResult struct {
	Seed uint64
	Outcome
	// Done marks a slot whose runner actually ran (panics included).
	// Complete sweeps have every slot Done; an interrupted sweep leaves
	// unclaimed slots zero-valued, and report rendering skips them.
	Done       bool
	Panicked   bool
	PanicVal   string
	PanicStack string
	Wall       time.Duration
}

// Report is a merged sweep: Results[i] holds seed Start+i regardless of
// which worker ran it or when it finished.
type Report struct {
	Mode    string
	Start   uint64
	Count   int
	Workers int
	Replay  string
	Elapsed time.Duration
	// Interrupted is set when Config.Stop fired before every seed ran;
	// only the Done results are meaningful then.
	Interrupted bool
	Results     []SeedResult
}

// Run executes the sweep. Seeds are claimed from an atomic cursor and
// each result is written to its own slot of a seed-indexed slice, so
// the merge is free and the output order is the seed order by
// construction.
func Run(cfg Config, fn Runner) *Report {
	return RunObs(cfg, func(seed uint64, _ *obs.Shard) Outcome { return fn(seed) })
}

// SeedObs is one worker's cached engine-metric handles: the per-seed
// counters every sweep dump carries (seeds/failures/panics in the sim
// domain, wall latency quarantined in the wall domain). Exported so
// fleet-scale runners — the rchserve canary folds oracle seeds through
// the same runners outside this engine — record the exact same metric
// definitions, which is what keeps a fleet dump byte-identical to an
// rchsweep dump over the same seeds.
type SeedObs struct {
	sh       *obs.Shard
	seeds    *obs.Counter
	failures *obs.Counter
	panics   *obs.Counter
	wall     *obs.Histogram
}

// NewSeedObs builds the engine handles on a shard. Nil-safe: a nil
// shard yields handles that no-op.
func NewSeedObs(sh *obs.Shard) *SeedObs {
	return &SeedObs{
		sh:       sh,
		seeds:    sh.Counter("sweep_seeds_total", "seeds (or schedule indices) completed", obs.Sim),
		failures: sh.Counter("sweep_seed_failures_total", "seeds that failed the contract", obs.Sim),
		panics:   sh.Counter("sweep_seed_panics_total", "recovered worker panics, seed-attributed", obs.Sim),
		wall:     sh.Histogram("sweep_seed_wall_ns", "per-seed wall latency", obs.Wall, obs.WallDurationBounds),
	}
}

// Record folds one finished seed into the shard.
func (w *SeedObs) Record(res *SeedResult) {
	if w.sh == nil {
		return
	}
	w.seeds.Inc()
	if !res.OK {
		w.failures.Inc()
	}
	if res.Panicked {
		w.panics.Inc()
	}
	w.wall.ObserveDuration(res.Wall)
}

// RunObs is Run with per-worker metrics shards. The merged report AND
// the canonical metrics snapshot are byte-identical at any worker
// count: seed results merge by slot, metric shards merge commutatively.
func RunObs(cfg Config, fn ObsRunner) *Report {
	if cfg.Start == 0 && !cfg.ZeroBased {
		cfg.Start = 1
	}
	if cfg.Count < 0 {
		cfg.Count = 0
	}
	workers := PoolSize(cfg.Workers, cfg.Count)
	rep := &Report{
		Mode:    cfg.Mode,
		Start:   cfg.Start,
		Count:   cfg.Count,
		Workers: workers,
		Replay:  cfg.Replay,
		Results: make([]SeedResult, cfg.Count),
	}
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wo := NewSeedObs(cfg.Obs.Shard())
			for {
				if cfg.Stop != nil {
					select {
					case <-cfg.Stop:
						return
					default:
					}
				}
				i := next.Add(1) - 1
				if i >= int64(cfg.Count) {
					return
				}
				res := runSeed(fn, cfg.Start+uint64(i), wo.sh)
				wo.Record(&res)
				rep.Results[i] = res
			}
		}()
	}
	wg.Wait()
	rep.Elapsed = time.Since(t0)
	if cfg.Stop != nil && rep.DoneCount() < cfg.Count {
		select {
		case <-cfg.Stop:
			rep.Interrupted = true
		default:
		}
	}
	if cfg.Obs != nil {
		// Environment bookkeeping lives in the wall domain, quarantined
		// from the canonical dump the same way the report excludes it.
		sh := cfg.Obs.Shard()
		sh.Gauge("sweep_pool_workers", "worker-pool size", obs.Wall).Set(int64(workers))
		sh.Gauge("sweep_gomaxprocs", "GOMAXPROCS at run time", obs.Wall).Set(int64(runtime.GOMAXPROCS(0)))
		sh.Gauge("sweep_elapsed_wall_ns", "sweep wall time", obs.Wall).Set(int64(rep.Elapsed))
	}
	return rep
}

// PoolSize is the worker count a sweep of count seeds runs with when
// asked for workers: ≤ 0 means GOMAXPROCS, and the pool is capped at
// count but never drops below one.
func PoolSize(workers, count int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, count))
}

// runSeed runs one seed with panic isolation: a panicking runner is
// recovered, attributed to this seed, and recorded as a failure instead
// of taking the pool (and the other seeds' results) down with it.
func runSeed(fn ObsRunner, seed uint64, sh *obs.Shard) (res SeedResult) {
	res.Seed = seed
	res.Done = true
	t0 := time.Now()
	defer func() {
		res.Wall = time.Since(t0)
		if r := recover(); r != nil {
			res.OK = false
			res.Panicked = true
			res.PanicVal = fmt.Sprint(r)
			res.PanicStack = stripGoroutineHeader(debug.Stack())
			res.Failures = append(res.Failures, "panic: "+res.PanicVal)
			if res.Detail == "" {
				res.Detail = fmt.Sprintf("seed=%d panicked", seed)
			}
		}
	}()
	res.Outcome = fn(seed, sh)
	return
}

// stripGoroutineHeader drops the "goroutine N [running]:" line: the
// goroutine id is pool scheduling, not part of the failure.
func stripGoroutineHeader(stack []byte) string {
	s := string(stack)
	if i := strings.Index(s, "\n"); i >= 0 && strings.HasPrefix(s, "goroutine ") {
		s = s[i+1:]
	}
	return strings.TrimRight(s, "\n")
}

// OK reports whether every seed passed.
func (r *Report) OK() bool { return len(r.Failed()) == 0 }

// Failed returns the failing seeds in seed order (panics included).
// Seeds a stopped sweep never ran are not failures and are skipped.
func (r *Report) Failed() []SeedResult {
	var out []SeedResult
	for _, res := range r.Results {
		if res.Done && !res.OK {
			out = append(out, res)
		}
	}
	return out
}

// Panicked returns the seeds whose runner panicked, in seed order.
func (r *Report) Panicked() []SeedResult {
	var out []SeedResult
	for _, res := range r.Results {
		if res.Done && res.Panicked {
			out = append(out, res)
		}
	}
	return out
}

// DoneCount is how many seeds actually ran (all of them unless the
// sweep was interrupted).
func (r *Report) DoneCount() int {
	n := 0
	for _, res := range r.Results {
		if res.Done {
			n++
		}
	}
	return n
}

// DonePrefix is the length of the contiguous run of Done results from
// the start — the safe resume point after an interrupt: every seed
// before Start+DonePrefix ran, so a restart at Start+DonePrefix re-runs
// at most Workers-1 straggler seeds and skips nothing.
func (r *Report) DonePrefix() int {
	for i, res := range r.Results {
		if !res.Done {
			return i
		}
	}
	return len(r.Results)
}

// Walls returns the per-seed wall times in seed order (diagnostic and
// benchmark input; never part of the canonical report).
func (r *Report) Walls() []time.Duration {
	out := make([]time.Duration, len(r.Results))
	for i, res := range r.Results {
		out[i] = res.Wall
	}
	return out
}

// String renders the canonical merged report: the per-seed verdict
// lines and failures in seed order, followed by the tally. It contains
// no timings and no worker count, so it is byte-identical between
// -workers=1 and -workers=N runs of the same seed range.
func (r *Report) String() string {
	var sb strings.Builder
	last := r.Start + uint64(r.Count)
	if r.Count > 0 {
		last--
	}
	fmt.Fprintf(&sb, "sweep mode=%s seeds=%d..%d\n", r.Mode, r.Start, last)
	for _, res := range r.Results {
		if !res.Done {
			continue
		}
		status := "ok  "
		if !res.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&sb, "%s %s\n", status, res.Detail)
		for _, f := range res.Failures {
			fmt.Fprintf(&sb, "     FAIL: %s\n", f)
		}
	}
	sb.WriteString(r.Tally())
	sb.WriteString("\n")
	return sb.String()
}

// FailureOutput renders only the failing seeds, each with its replay
// line — the part of the report ci.sh puts in front of the user. Like
// String, it is byte-identical at any worker count.
func (r *Report) FailureOutput() string {
	failed := r.Failed()
	if len(failed) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, res := range failed {
		fmt.Fprintf(&sb, "%s\n", res.Detail)
		for _, f := range res.Failures {
			fmt.Fprintf(&sb, "  FAIL: %s\n", f)
		}
		if r.Replay != "" {
			fmt.Fprintf(&sb, "  replay: %s\n", fmt.Sprintf(r.Replay, res.Seed))
		}
	}
	sb.WriteString(r.Tally())
	sb.WriteString("\n")
	return sb.String()
}

// Tally is the one-line sweep verdict. A complete sweep renders
// exactly as before interruption support existed; an interrupted one
// says how far it got so the operator knows where to resume.
func (r *Report) Tally() string {
	failed := r.Failed()
	if r.Interrupted {
		if len(failed) == 0 {
			return fmt.Sprintf("interrupted: %d of %d seeds ran, all ok (resume at %d)",
				r.DoneCount(), r.Count, r.Start+uint64(r.DonePrefix()))
		}
		return fmt.Sprintf("interrupted: %d of %d seeds ran, %d failed (resume at %d)",
			r.DoneCount(), r.Count, len(failed), r.Start+uint64(r.DonePrefix()))
	}
	if len(failed) == 0 {
		return fmt.Sprintf("ok: %d seeds", r.Count)
	}
	panics := len(r.Panicked())
	if panics > 0 {
		return fmt.Sprintf("FAIL: %d of %d seeds failed (%d panicked)", len(failed), r.Count, panics)
	}
	return fmt.Sprintf("FAIL: %d of %d seeds failed", len(failed), r.Count)
}
