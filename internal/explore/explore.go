package explore

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"rchdroid/internal/app"
	"rchdroid/internal/device"
	"rchdroid/internal/obs"
	"rchdroid/internal/oracle"
	"rchdroid/internal/oracle/corpus"
	"rchdroid/internal/sweep"
)

// Verdict is the differential comparison for one schedule index.
type Verdict struct {
	Scenario string
	Index    uint64
	Schedule Schedule
	Stock    RunResult
	RCH      RunResult
	Failures []string
}

// OK reports whether the schedule's divergences all classified cleanly.
func (v *Verdict) OK() bool { return len(v.Failures) == 0 }

// Summary renders the deterministic one-line verdict the sweep engine
// merges: index first (the replay key), then the schedule and both
// runs' observables. No wall times, no worker identity. It is built in
// one exactly sized allocation: a report holds one per schedule.
func (v *Verdict) Summary() string {
	var buf [256]byte
	b := strconv.AppendUint(append(buf[:0], "idx="...), v.Index, 10)
	b = v.Schedule.appendTo(append(b, " sched="...))
	b = strconv.AppendBool(append(b, " stock[crashed="...), v.Stock.Crashed)
	b = strconv.AppendInt(append(b, " loss="...), int64(len(v.Stock.Losses)), 10)
	b = strconv.AppendBool(append(b, "] rch[crashed="...), v.RCH.Crashed)
	b = strconv.AppendInt(append(b, " applied="...), int64(v.RCH.Applied), 10)
	b = strconv.AppendInt(append(b, " handlings="...), int64(v.RCH.Handlings), 10)
	b = strconv.AppendInt(append(b, " inj="...), int64(v.RCH.Injections), 10)
	b = append(b, ']')
	if len(v.Stock.Losses) > 0 {
		b = oracle.AppendTally(append(b, " stockLoss{"...), oracle.TallyLosses(v.Stock.Losses))
		b = append(b, '}')
	}
	if g := v.RCH.Guard; g.Enabled {
		b = strconv.AppendInt(append(b, " guard[quarantines="...), int64(g.Quarantines), 10)
		b = strconv.AppendInt(append(b, " recoveries="...), int64(g.Recoveries), 10)
		b = append(b, ']')
	}
	return string(b)
}

// String renders the verdict with its failure lines.
func (v *Verdict) String() string {
	var sb strings.Builder
	sb.WriteString(v.Summary())
	for _, f := range v.Failures {
		fmt.Fprintf(&sb, "\n  FAIL: %s", f)
	}
	return sb.String()
}

// InstallerForObs builds a fresh default installer for the scenario:
// supervised RCHDroid for guarded scenarios, plain RCHDroid otherwise,
// with the worker's metric shard routed into core (and the guard). A
// nil shard disables observation. Installers are stateful (the guard
// getter), so every run needs its own — never share one across workers.
func InstallerForObs(sc *corpus.Scenario, sh *obs.Shard) oracle.Installer {
	if sc.Guarded {
		return sweep.GuardedInstallerObs(sh)
	}
	return sweep.RCHInstallerObs(sh)
}

// RunIndexWith runs schedule idx of the space under stock and under the
// given RCHDroid installer, and judges the pair. Both arms install one
// app definition, built once for the call. Both run on the literal
// schedule, stock-blind slots included, so a replay is the reference
// that Explore's shared runs must agree with.
func RunIndexWith(sc *corpus.Scenario, sp Space, idx uint64, rch oracle.Installer) Verdict {
	spec := sharedSpec(sc.App())
	sched := sp.At(idx)
	stock := runScenario(sc, spec, sched, stockInstaller, nil)
	return judged(sc, idx, sched, stock, runScenario(sc, spec, sched, rch, nil))
}

// stockInstaller arms nothing: the stock arm is plain Android 10.
var stockInstaller = oracle.Installer{Name: "Android-10"}

// sharedSpec is the device spec whose every world installs def. An app
// is read-only once built, so the worlds of any number of schedules,
// arms, kill relaunches and workers may share it.
func sharedSpec(def *app.App) device.Spec {
	return device.Spec{App: func() *app.App { return def }}
}

// judged is schedule idx's verdict on its two runs, by the oracle's one
// judge (oracle.Scenario.Judge).
func judged(sc *corpus.Scenario, idx uint64, sched Schedule, stock, rch RunResult) Verdict {
	v := Verdict{Scenario: sc.Name, Index: idx, Schedule: sched, Stock: stock, RCH: rch}
	v.Failures = sc.Judge(&v.Stock.RunResult, &v.RCH.RunResult)
	return v
}

// RunIndex is RunIndexWith under the scenario's default installer.
func RunIndex(sc *corpus.Scenario, sp Space, idx uint64) Verdict {
	return RunIndexWith(sc, sp, idx, InstallerForObs(sc, nil))
}

// ReplayFor is the printf format (one %d verb: the schedule index) that
// reproduces one schedule of a scenario.
func ReplayFor(sc *corpus.Scenario, depth int) string {
	return fmt.Sprintf("go run ./cmd/rchexplore -scenario=%s -depth=%d -schedule=", sc.Name, depth) + "%d"
}

// Options configures an exploration.
type Options struct {
	// Depth bounds the schedule size (number of injected faults per run).
	Depth int
	// Workers sizes the sweep pool; ≤ 0 means GOMAXPROCS.
	Workers int
	// Start is the first schedule index (inclusive); Count bounds how
	// many to run (≤ 0 means through the end of the space). Together they
	// chunk a large space across invocations, with Frontier carrying the
	// resume point.
	Start uint64
	Count int
	// Obs, when set, collects the exploration's metrics: schedule and
	// failure counts, stock crash/loss classification tallies, handling
	// latency histograms, and the frontier gauge. Sim-domain values are
	// schedule-derived, so the canonical dump is byte-identical at any
	// worker count.
	Obs *obs.Registry
	// Fork builds the scenario's pre-chaos world once and forks it per
	// schedule instead of rebuilding it. Reports and canonical metric
	// dumps are byte-identical either way.
	Fork bool
	// Stop cancels the chunk cooperatively (see sweep.Config.Stop). An
	// interrupted Result's Next() is the contiguous done prefix, so a
	// frontier written from it resumes without skipping any schedule.
	Stop <-chan struct{}
}

// Result is one explored chunk of a scenario's schedule space.
type Result struct {
	Scenario string
	Space    Space
	Report   *sweep.Report
	// StockCrashes counts schedules whose stock run died (declared or
	// not); StockLossTally buckets every stock loss across the chunk.
	StockCrashes   int
	StockLossTally [oracle.NumLossBuckets]int
}

// OK reports whether every schedule in the chunk passed.
func (r *Result) OK() bool { return r.Report.OK() }

// Next returns the first index after the chunk (== Space.Size() when
// the scenario is fully explored). For an interrupted chunk it is the
// first index not guaranteed to have run — the safe frontier.
func (r *Result) Next() uint64 { return r.Report.Start + uint64(r.Report.DonePrefix()) }

// String renders the canonical chunk report: header, failing schedules
// with replay lines, and the classification tallies. Byte-identical at
// any worker count.
func (r *Result) String() string {
	var sb strings.Builder
	if next := r.Next(); next > r.Report.Start {
		fmt.Fprintf(&sb, "explore scenario=%s depth=%d slots=%d space=%d ran=%d..%d\n",
			r.Scenario, r.Space.Depth, r.Space.Slots(), r.Space.Size(),
			r.Report.Start, next-1)
	} else {
		fmt.Fprintf(&sb, "explore scenario=%s depth=%d slots=%d space=%d ran=none\n",
			r.Scenario, r.Space.Depth, r.Space.Slots(), r.Space.Size())
	}
	if out := r.Report.FailureOutput(); out != "" {
		sb.WriteString(out)
	} else {
		sb.WriteString(r.Report.Tally())
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "stock crashes: %d\n", r.StockCrashes)
	fmt.Fprintf(&sb, "stock-loss tally: %s\n", oracle.FormatTally(r.StockLossTally))
	return sb.String()
}

// Explore fans one chunk of the scenario's schedule space across the
// sweep pool. Results merge under the sweep engine's byte-identical
// contract: per-index side observations are written to index-owned
// slots, so the tallies are the same at any worker count. The chunk
// builds the scenario's app once; every world of every schedule, on
// every worker, installs that read-only definition.
//
// The chunk runs both arms once per stock view, the schedule minus its
// stock-blind slots (see Action). It shares the read-only stock run
// among every schedule with the same view, and the RCHDroid run among
// those whose stock-blind slots that run proves inert (see viewMemo);
// the rest run their own RCHDroid arm. Each schedule is judged exactly
// as RunIndex judges it, and its metrics are what its own runs would
// have recorded. The Sim counters explore_stock_runs_total and
// explore_rch_runs_total count the arms the chunk ran. With Fork set,
// both arms fork from the scenario's single pre-chaos template (they
// differ only in what the post-settle arming point installs), so the
// verdict is byte-identical to the fresh-build path.
func Explore(sc *corpus.Scenario, opts Options) *Result {
	sp := SpaceFor(sc, opts.Depth)
	size := sp.Size()
	start := opts.Start
	if start > size {
		start = size
	}
	count := uint64(opts.Count)
	if opts.Count <= 0 || count > size-start {
		count = size - start
	}
	var forker *device.TemplateCache
	if opts.Fork {
		forker = device.NewTemplateCache()
	}
	spec := sharedSpec(sc.App())
	memo := newViewMemo(sp, opts.Obs != nil)
	crashes := make([]bool, count)
	tallies := make([][oracle.NumLossBuckets]int, count)
	rep := sweep.RunObs(sweep.Config{
		Mode:      "explore:" + sc.Name,
		Start:     start,
		ZeroBased: true,
		Count:     int(count),
		Workers:   opts.Workers,
		Replay:    ReplayFor(sc, opts.Depth),
		Obs:       opts.Obs,
		Stop:      opts.Stop,
	}, func(idx uint64, sh *obs.Shard) sweep.Outcome {
		sched := sp.At(idx)
		stock, rch := memo.arms(sched, sh, func(view Schedule) RunResult {
			sh.Counter("explore_stock_runs_total", "stock arms the explorer ran", obs.Sim).Inc()
			return runScenario(sc, spec, view, stockInstaller, forker)
		}, func(s Schedule, into *obs.Shard) RunResult {
			sh.Counter("explore_rch_runs_total", "RCHDroid arms the explorer ran", obs.Sim).Inc()
			return runScenario(sc, spec, s, InstallerForObs(sc, into), forker)
		})
		v := judged(sc, idx, sched, stock, rch)
		i := idx - start
		crashes[i] = v.Stock.Crashed
		tallies[i] = oracle.TallyLosses(v.Stock.Losses)
		foldVerdict(sh, &v)
		return sweep.Outcome{OK: v.OK(), Detail: v.Summary(), Failures: v.Failures}
	})
	res := &Result{Scenario: sc.Name, Space: sp, Report: rep}
	for i := range crashes {
		if crashes[i] {
			res.StockCrashes++
		}
		for b, n := range tallies[i] {
			res.StockLossTally[b] += n
		}
	}
	if opts.Obs != nil {
		sh := opts.Obs.Shard()
		sh.Gauge("explore_frontier_next", "high-water schedule-space frontier (first unexplored index)", obs.Sim).Set(int64(res.Next()))
		sh.Gauge("explore_space_size", "total schedule-space size at this depth", obs.Sim).Set(int64(sp.Size()))
	}
	return res
}

// lossMetricNames maps each loss bucket to its counter name once —
// bucket String() values carry a "/" that metric names must not.
// firedMetricNames does the same for each stock-blind action.
var (
	lossMetricNames  = [oracle.NumLossBuckets]string{}
	firedMetricNames = [NumActions]string{}
)

func init() {
	for b := oracle.LossBucket(0); b < oracle.NumLossBuckets; b++ {
		name := strings.NewReplacer("/", "_", "-", "_").Replace(b.String())
		lossMetricNames[b] = "explore_stock_loss_" + name + "_total"
	}
	for a := Action(0); a < NumActions; a++ {
		firedMetricNames[a] = "explore_" + a.String() + "_fired_total"
	}
}

// foldVerdict tallies one schedule's verdict into the worker's shard.
// Every input is schedule-derived (crash flags, loss classifications,
// sim-clock handling times), so these merge identically at any worker
// count.
func foldVerdict(sh *obs.Shard, v *Verdict) {
	// Failure-class counters are defined unconditionally so a clean walk
	// still dumps them at zero.
	sh.Counter("explore_schedules_total", "schedules judged by the explorer", obs.Sim).Inc()
	failures := sh.Counter("explore_schedule_failures_total", "schedules with at least one contract failure", obs.Sim)
	stockCrashes := sh.Counter("explore_stock_crashes_total", "schedules whose stock run crashed", obs.Sim)
	if !v.OK() {
		failures.Inc()
	}
	if v.Stock.Crashed {
		stockCrashes.Inc()
	}
	tally := oracle.TallyLosses(v.Stock.Losses)
	for b, n := range tally {
		if n > 0 {
			sh.Counter(lossMetricNames[b], "stock losses classified into the "+oracle.LossBucket(b).String()+" bucket", obs.Sim).Add(int64(n))
		}
	}
	for a := Action(0); a < NumActions; a++ {
		if a.stockBlind() {
			sh.Counter(firedMetricNames[a], a.String()+" directives that fired in judged RCHDroid runs", obs.Sim).Add(int64(v.RCH.Fired[a]))
		}
	}
	sweep.ObserveHandlings(sh, v.RCH.HandlingTimes)
}

// Frontier is the resumable exploration checkpoint: how far into the
// space a scenario has been enumerated. Chunked invocations write it
// after each chunk and resume from Next.
type Frontier struct {
	Scenario string `json:"scenario"`
	Depth    int    `json:"depth"`
	Total    uint64 `json:"total"`
	Next     uint64 `json:"next"`
}

// Done reports whether the space is fully enumerated.
func (f *Frontier) Done() bool { return f.Next >= f.Total }

// EncodeFrontier renders the checkpoint as JSON.
func EncodeFrontier(f Frontier) []byte {
	b, _ := json.MarshalIndent(f, "", "  ")
	return append(b, '\n')
}

// DecodeFrontier parses a checkpoint.
func DecodeFrontier(b []byte) (Frontier, error) {
	var f Frontier
	if err := json.Unmarshal(b, &f); err != nil {
		return Frontier{}, fmt.Errorf("explore: bad frontier: %v", err)
	}
	return f, nil
}
