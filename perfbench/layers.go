package main

import (
	"sync/atomic"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/chaos"
	"rchdroid/internal/device"
	"rchdroid/internal/oracle"
	"rchdroid/internal/sim"
)

// Helpers both sweep workloads' traced passes share.

// opTally accumulates a traced pass's per-op verdict counts: the exact
// sim-domain counts the self-test requires to repeat.
type opTally struct {
	ops, guardOps, injections, retries, handlings, simEvents atomic.Int64
}

// add folds one op's RCH-arm results; sched is the arm's scheduler.
func (t *opTally) add(injections, handlings, guardRetries int, guarded bool, sched *sim.Scheduler) {
	t.ops.Add(1)
	t.injections.Add(int64(injections))
	t.handlings.Add(int64(handlings))
	if sched != nil {
		t.simEvents.Add(int64(sched.Fired()))
	}
	if guarded {
		t.guardOps.Add(1)
		t.retries.Add(int64(guardRetries))
	}
}

// opCounts is a read of an opTally.
type opCounts struct{ ops, guardOps, injections, retries, handlings, simEvents int64 }

func (t *opTally) counts() opCounts {
	return opCounts{t.ops.Load(), t.guardOps.Load(), t.injections.Load(), t.retries.Load(), t.handlings.Load(), t.simEvents.Load()}
}

// setSweepLayers records the per-layer metrics both sweep workloads
// share: pool busy time, verdict counts, sim events, and the sampled
// device micro-calls. runner is the total time of the runner-call spans.
func (r *run) setSweepLayers(tr *tracer, c opCounts, runner, elapsed time.Duration) {
	var busy time.Duration
	for _, d := range tr.durations("op") {
		busy += d
	}
	n := int(c.ops)
	builds := tr.durations("device.New")
	forks := tr.durations("device.TemplateCache.Fork")
	r.setLayer("sweep.busy_frac", ratio(busy.Seconds(), elapsed.Seconds()*float64(concurrency)), n)
	r.setLayer("chaos.injections_per_op", ratio(float64(c.injections), float64(c.ops)), n)
	r.setLayer("guard.retries_per_op", ratio(float64(c.retries), float64(c.guardOps)), int(c.guardOps))
	r.setLayer("core.handlings_per_op", ratio(float64(c.handlings), float64(c.ops)), n)
	r.setLayer("sim.events_per_op", ratio(float64(c.simEvents), float64(c.ops)), n)
	r.setLayer("sim.host_ns_per_event", ratio(float64(runner.Nanoseconds()), float64(c.simEvents)), n)
	r.setLayer("device.build_us_p50", us(quantile(builds, 0.5)), len(builds))
	r.setLayer("device.fork_us_p50", us(quantile(forks, 0.5)), len(forks))
}

// wrapInstall returns inst with its Install timed as a child span and
// the world's scheduler captured, so the caller can read the RCH arm's
// fired-event count after the run.
func wrapInstall(inst oracle.Installer, o *opTrace, sched **sim.Scheduler) oracle.Installer {
	inner := inst.Install
	inst.Install = func(sys *atms.ATMS, proc *app.Process, plan *chaos.Plan) {
		end := o.child("oracle.Installer.Install")
		*sched = sys.Scheduler()
		inner(sys, proc, plan)
		end()
	}
	return inst
}

// deviceCalls times device.New and TemplateCache.Fork on one op's own
// spec as child spans.
func deviceCalls(o *opTrace, cache *device.TemplateCache, key string, spec device.Spec, seed uint64) {
	o.timed("device.New", func() { device.New(spec, seed, nil) })
	o.timed("device.TemplateCache.Fork", func() { cache.Fork(key, spec, seed, nil) })
}
