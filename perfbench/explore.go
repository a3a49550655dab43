package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"rchdroid/internal/device"
	"rchdroid/internal/explore"
	"rchdroid/internal/obs"
	"rchdroid/internal/oracle/corpus"
	"rchdroid/internal/sim"
	"rchdroid/internal/sweep"
)

// explore-depth3 enumerates every depth-3 schedule of every corpus
// scenario through explore.Explore: 42,394 schedule indices, a full pass
// taking ≈10 s at two workers on a 2-vCPU Xeon. The seed picks where in
// each scenario's space the pass starts; the pass wraps around.
const (
	exploreDepth = 3
	// exploreSecondsPerPass sizes a run: --seconds 10 is one full pass.
	exploreSecondsPerPass = 10
	exploreSetupReps      = 15
	// exploreWarm indices per scenario run in set-up.
	exploreWarm = 4
	// exploreCheckEvery re-runs one schedule in this many after the
	// timed phase and compares its verdict.
	exploreCheckEvery = 97
	// exploreDeviceEvery samples the device micro-calls on one index in
	// eight.
	exploreDeviceEvery = 8
)

// exploreChunk is one contiguous range of a scenario's space.
type exploreChunk struct {
	sc           *corpus.Scenario
	sp           explore.Space
	start, count uint64
}

// explorePlan splits each scenario's share of the run into contiguous
// chunks that start at the seed's offset and wrap at the end of the
// space.
func explorePlan(seed uint64, seconds int) []exploreChunk {
	var plan []exploreChunk
	for _, sc := range corpus.All() {
		sc := sc
		sp := explore.SpaceFor(&sc, exploreDepth)
		size := sp.Size()
		left := uint64(math.Ceil(float64(size) * float64(seconds) / exploreSecondsPerPass))
		at := seed % size
		for left > 0 {
			n := min(left, size-at)
			plan = append(plan, exploreChunk{sc: &sc, sp: sp, start: at, count: n})
			left -= n
			at = 0
		}
	}
	return plan
}

func planOps(plan []exploreChunk) int {
	n := 0
	for _, ch := range plan {
		n += int(ch.count)
	}
	return n
}

// chunkConfig is the sweep configuration explore.Explore uses for a
// chunk, so a traced pass through sweep.RunObs renders the same report.
func chunkConfig(ch exploreChunk, reg *obs.Registry) sweep.Config {
	return sweep.Config{
		Mode: "explore:" + ch.sc.Name, Start: ch.start, ZeroBased: true, Count: int(ch.count),
		Workers: concurrency, Replay: explore.ReplayFor(ch.sc, exploreDepth), Obs: reg,
	}
}

func exploreDepth3(r *run) error {
	r.prov.Workers = concurrency
	plan, setup, err := medianSetup(exploreSetupReps, func() ([]exploreChunk, func(), error) {
		plan := explorePlan(r.seed, r.seconds)
		for _, ch := range plan {
			for i := uint64(0); i < exploreWarm && i < ch.count; i++ {
				v := explore.RunIndex(ch.sc, ch.sp, ch.start+i)
				if !v.OK() {
					return nil, nil, fmt.Errorf("set-up warm schedule failed: %s", v.String())
				}
			}
		}
		return plan, nil, nil
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup.Seconds()

	reg := obs.NewRegistry()
	results := make([]*explore.Result, len(plan))
	err = r.timedPhase(func() (int, error) {
		for i, ch := range plan {
			results[i] = explore.Explore(ch.sc, explore.Options{
				Depth: exploreDepth, Workers: concurrency,
				Start: ch.start, Count: int(ch.count), Obs: reg,
			})
		}
		return planOps(plan), nil
	})
	if err != nil {
		return err
	}
	if err := r.endPhase(); err != nil {
		return err
	}

	var walls []time.Duration
	var reports bytes.Buffer
	for i, res := range results {
		ch := plan[i]
		r.attempted += int(ch.count)
		r.failed += len(res.Report.Failed())
		if !res.OK() {
			r.fail("%s", res.String())
		}
		if res.Report.Count != int(ch.count) {
			r.fail("explore %s ran %d of %d schedules", ch.sc.Name, res.Report.Count, ch.count)
		}
		walls = append(walls, res.Report.Walls()...)
		reports.WriteString(res.Report.String())
		reports.WriteString(res.String())
	}
	r.latencies(walls)
	exploreRecheck(r, plan, results)
	canonical := reg.Snapshot().MarshalCanonical()
	if err := r.checkDigest("reports", digestOf(reports.Bytes())); err != nil {
		return err
	}
	if err := r.checkDigest("canonical", digestOf(canonical)); err != nil {
		return err
	}
	r.notes = append(r.notes, fmt.Sprintf("explore-depth3: %d schedules in %d chunks over %d scenarios, depth %d, %d workers",
		planOps(plan), len(plan), len(corpus.All()), exploreDepth, concurrency))
	if !r.trace {
		return nil
	}
	return exploreTraced(r, plan, results)
}

// exploreRecheck re-runs every exploreCheckEvery-th schedule alone, on
// one goroutine, and fails on any verdict that differs from the timed
// phase's.
func exploreRecheck(r *run, plan []exploreChunk, results []*explore.Result) {
	for i, ch := range plan {
		for k := uint64(0); k < ch.count; k += exploreCheckEvery {
			v := explore.RunIndex(ch.sc, ch.sp, ch.start+k)
			got := results[i].Report.Results[k]
			if v.Summary() != got.Detail || !slices.Equal(v.Failures, got.Failures) {
				r.fail("explore %s index %d: re-run verdict %q differs from the timed phase's %q",
					ch.sc.Name, ch.start+k, v.Summary(), got.Detail)
			}
		}
	}
}

// exploreTracedPass runs plan through sweep.RunObs with spans around
// explore.RunIndexWith, one report per chunk.
func exploreTracedPass(tr *tracer, tally *opTally, plan []exploreChunk) (reports []string, walls []time.Duration) {
	cache := device.NewTemplateCache()
	reg := obs.NewRegistry()
	for _, ch := range plan {
		ch := ch
		rep := sweep.RunObs(chunkConfig(ch, reg), func(idx uint64, sh *obs.Shard) sweep.Outcome {
			o := tr.begin(fmt.Sprintf("idx:%s:%d", ch.sc.Name, idx), tr.lane(sh), "op")
			defer o.end()
			var sched *sim.Scheduler
			inst := wrapInstall(explore.InstallerForObs(ch.sc, sh), o, &sched)
			var v explore.Verdict
			o.timed("explore.RunIndexWith", func() { v = explore.RunIndexWith(ch.sc, ch.sp, idx, inst) })
			if idx%exploreDeviceEvery == 0 {
				deviceCalls(o, cache, "scenario:"+ch.sc.Name, device.Spec{App: ch.sc.App}, 0)
			}
			tally.add(v.RCH.Injections, v.RCH.Handlings, v.RCH.Guard.Retries, ch.sc.Guarded, sched)
			return sweep.Outcome{OK: v.OK(), Detail: v.Summary(), Failures: v.Failures}
		})
		walls = append(walls, rep.Walls()...)
		reports = append(reports, rep.String())
	}
	return reports, walls
}

// exploreTraced repeats the timed phase's chunks with spans and turns
// them into the per-layer metrics.
func exploreTraced(r *run, plan []exploreChunk, untraced []*explore.Result) error {
	runtime.GC()
	tr := newTracer()
	var tally opTally
	t0 := time.Now()
	reports, walls := exploreTracedPass(tr, &tally, plan)
	elapsed := time.Since(t0)
	for i, rep := range reports {
		if rep != untraced[i].Report.String() {
			r.fail("traced explore %s chunk at %d: report differs from the timed phase's", plan[i].sc.Name, plan[i].start)
		}
	}
	r.overhead(planOps(plan), elapsed, walls)

	sched := tr.durations("explore.RunIndexWith")
	var runner time.Duration
	for _, d := range sched {
		runner += d
	}
	r.setLayer("explore.schedule_ms_p50", ms(quantile(sched, 0.5)), len(sched))
	r.setSweepLayers(tr, tally.counts(), runner, elapsed)
	return r.finishTrace(tr)
}
