package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/chaos"
	"rchdroid/internal/device"
	"rchdroid/internal/obs"
	"rchdroid/internal/oracle"
	"rchdroid/internal/sim"
	"rchdroid/internal/sweep"
)

// ci-sweep is the CI gate's sweep traffic: a round is 512 Light-preset
// and 1024 Guarded-preset differential-oracle seeds (scripts/ci.sh's
// 1:2 ratio) through sweep.RunObs with a registry, worlds built fresh.
// Every round runs the same seeds, so each round after the first is a
// second run of the same inputs and must render byte-identical reports
// and canonical dumps.
const (
	ciLight = 512
	ciGuard = 1024
	// ciRoundsPerSecond sizes a run: one round takes ≈0.7 s at two
	// workers on a 2-vCPU Xeon.
	ciRoundsPerSecond = 1.4
	// ciStartSpan keeps every start inside 1..1024, so a round's guarded
	// seeds stay within twice the CI gate's range (see README.md).
	ciStartSpan = 1024
	ciSetupReps = 15
	// ciWarm seeds per preset run in set-up, before the timed phase.
	ciWarm = 16
	// ciDeviceEvery samples the device micro-calls on one seed in eight.
	ciDeviceEvery = 8
)

// ciStart maps the seed argument to the first seed of every round:
// seeds 1..1024 start at themselves, larger ones wrap, 0 starts at 1024.
func ciStart(seed uint64) uint64 { return 1 + (seed+ciStartSpan-1)%ciStartSpan }

func ciRounds(seconds int) int {
	return max(1, int(math.Round(float64(seconds)*ciRoundsPerSecond)))
}

// ciRunners is what set-up builds: one runner per preset.
type ciRunners struct{ light, guard sweep.ObsRunner }

// ciRound is one round's merged output.
type ciRound struct {
	light, guard *sweep.Report
	canonical    []byte
}

func (c ciRound) reports() []byte {
	return []byte(c.light.String() + c.guard.String())
}

// runCIRound runs one round of light Light-preset and guard
// Guarded-preset seeds on the pool.
func runCIRound(rn ciRunners, start uint64, light, guard int) ciRound {
	reg := obs.NewRegistry()
	lr := sweep.RunObs(sweep.Config{Mode: "oracle", Start: start, Count: light,
		Workers: concurrency, Replay: sweep.ReplayOracle, Obs: reg}, rn.light)
	gr := sweep.RunObs(sweep.Config{Mode: "guard", Start: start, Count: guard,
		Workers: concurrency, Replay: sweep.ReplayGuard, Obs: reg}, rn.guard)
	return ciRound{light: lr, guard: gr, canonical: reg.Snapshot().MarshalCanonical()}
}

func ciSweep(r *run) error {
	r.prov.Workers = concurrency
	start := ciStart(r.seed)
	rounds := ciRounds(r.seconds)

	rn, setup, err := medianSetup(ciSetupReps, func() (ciRunners, func(), error) {
		rn := ciRunners{light: sweep.OracleRunner(), guard: sweep.GuardRunner()}
		for s := start; s < start+ciWarm; s++ {
			for _, o := range []sweep.Outcome{rn.light(s, nil), rn.guard(s, nil)} {
				if !o.OK {
					return rn, nil, fmt.Errorf("set-up warm seed failed: %s %v", o.Detail, o.Failures)
				}
			}
		}
		return rn, nil, nil
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup.Seconds()

	// peak_rss_mb is the median of the rounds' own peaks: the live heap
	// is under 1 MB and collections run ≈190 times a second, so the
	// phase's single highest peak follows GC timing, not the work.
	var first ciRound
	var walls []time.Duration
	var peaks []float64
	err = r.timedPhase(func() (int, error) {
		for i := 0; i < rounds; i++ {
			if err := resetPeakRSS(); err != nil {
				return 0, err
			}
			rd := runCIRound(rn, start, ciLight, ciGuard)
			peak, err := peakRSSMB()
			if err != nil {
				return 0, err
			}
			peaks = append(peaks, peak)
			walls = append(walls, rd.light.Walls()...)
			walls = append(walls, rd.guard.Walls()...)
			r.attempted += ciLight + ciGuard
			r.failed += len(rd.light.Failed()) + len(rd.guard.Failed())
			if i == 0 {
				first = rd
				continue
			}
			if !bytes.Equal(rd.reports(), first.reports()) {
				r.fail("round %d report differs from round 1 on the same seeds", i+1)
			}
			if !bytes.Equal(rd.canonical, first.canonical) {
				r.fail("round %d canonical metrics dump differs from round 1", i+1)
			}
		}
		return rounds * (ciLight + ciGuard), nil
	})
	if err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = median(peaks)
	if err := r.endPhase(); err != nil {
		return err
	}
	r.latencies(walls)
	for _, rep := range []*sweep.Report{first.light, first.guard} {
		if out := rep.FailureOutput(); out != "" {
			r.fail("%s", out)
		}
	}
	if err := r.checkDigest("reports", digestOf(first.reports())); err != nil {
		return err
	}
	if err := r.checkDigest("canonical", digestOf(first.canonical)); err != nil {
		return err
	}
	r.notes = append(r.notes, fmt.Sprintf("ci-sweep: %d rounds of %d Light + %d Guarded seeds from seed %d, %d workers",
		rounds, ciLight, ciGuard, start, concurrency))
	if !r.trace {
		return nil
	}
	return ciTraced(r, start, rounds, first)
}

// ciTracedRunner is a preset's runner with spans: the same verdict and
// outcome as sweep.OracleRunner / GuardRunner, with the RCH arm's
// installer wrapped.
func ciTracedRunner(tr *tracer, tally *opTally, cache *device.TemplateCache, guarded bool) sweep.ObsRunner {
	preset, opts := "light", chaos.Light()
	if guarded {
		preset, opts = "guarded", chaos.Guarded()
	}
	name := "oracle.DifferentialWith " + preset
	return func(seed uint64, sh *obs.Shard) sweep.Outcome {
		o := tr.begin(fmt.Sprintf("seed:%d:%s", seed, preset), tr.lane(sh), "op")
		defer o.end()
		inst := sweep.RCHInstallerObs(sh)
		if guarded {
			inst = sweep.GuardedInstallerObs(sh)
		}
		var sched *sim.Scheduler
		inst = wrapInstall(inst, o, &sched)
		var v oracle.Verdict
		o.timed(name, func() { v = oracle.DifferentialWith(seed, inst, opts, nil) })
		if seed%ciDeviceEvery == 0 {
			images := oracle.GenScenario(seed).Images
			spec := device.Spec{App: func() *app.App { return oracle.OracleApp(images) }}
			deviceCalls(o, cache, fmt.Sprintf("images:%d", images), spec, seed)
		}
		tally.add(v.RCH.Injections, v.RCH.Handlings, v.RCH.Guard.Retries, guarded, sched)
		return sweep.Outcome{OK: v.OK(), Detail: v.Summary(), Failures: v.Failures}
	}
}

// ciTracedPass runs rounds of light+guard seeds from start with spans.
func ciTracedPass(tr *tracer, tally *opTally, start uint64, rounds, light, guard int) (reports [][]byte, walls []time.Duration) {
	cache := device.NewTemplateCache()
	rn := ciRunners{
		light: ciTracedRunner(tr, tally, cache, false),
		guard: ciTracedRunner(tr, tally, cache, true),
	}
	for i := 0; i < rounds; i++ {
		rd := runCIRound(rn, start, light, guard)
		walls = append(walls, rd.light.Walls()...)
		walls = append(walls, rd.guard.Walls()...)
		reports = append(reports, rd.reports())
	}
	return reports, walls
}

// ciTraced repeats the timed phase's rounds with spans and turns them
// into the per-layer metrics.
func ciTraced(r *run, start uint64, rounds int, first ciRound) error {
	runtime.GC()
	tr := newTracer()
	var tally opTally
	t0 := time.Now()
	reports, walls := ciTracedPass(tr, &tally, start, rounds, ciLight, ciGuard)
	elapsed := time.Since(t0)
	for i, rep := range reports {
		if !bytes.Equal(rep, first.reports()) {
			r.fail("traced round %d report differs from the timed phase's", i+1)
		}
	}
	r.overhead(rounds*(ciLight+ciGuard), elapsed, walls)

	light := tr.durations("oracle.DifferentialWith light")
	guard := tr.durations("oracle.DifferentialWith guarded")
	var runner time.Duration
	for _, d := range append(light, guard...) {
		runner += d
	}
	r.setLayer("oracle.seed_ms_p50", ms(quantile(light, 0.5)), len(light))
	r.setLayer("guard.seed_ms_p50", ms(quantile(guard, 0.5)), len(guard))
	r.setSweepLayers(tr, tally.counts(), runner, elapsed)
	return r.finishTrace(tr)
}
