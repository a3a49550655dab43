package explore

import (
	"time"

	"rchdroid/internal/chaos"
	"rchdroid/internal/device"
	"rchdroid/internal/oracle"
	"rchdroid/internal/oracle/corpus"
)

// RunResult is one scenario run under one handler and one schedule: the
// oracle's run record plus what the explorer learns about its stock-blind
// slots.
//
// A RunResult is read-only once runScenario returns it: Explore shares
// a stock view's two runs among the schedules that reuse them, so its
// slices may back several verdicts at once.
type RunResult struct {
	oracle.RunResult
	// Fired counts, per stock-blind action, the directives of the
	// schedule's slots that fired. A slot whose directive never fires
	// changes nothing.
	Fired [NumActions]int
	// lastConsult is, per stock-blind action, the last edge after whose
	// arming point the run consulted the action's chaos point, or -1.
	// Explore shares a stock view's RCHDroid run with a schedule whose
	// every stock-blind slot (e, a) has e > lastConsult[a]: the directive
	// the slot would arm is never consulted, so it changes nothing.
	lastConsult [NumActions]int
}

// runScenario runs the scenario under inst through the oracle's runner
// with the schedule's fault actions injected at their edges. Everything
// is scripted — the chaos plan starts with zero rates, so the run is a
// pure function of (scenario, schedule, installer). The edge hook arms
// edge i's slots in action order, then records, per stock-blind action,
// whether its point was consulted since the previous arming point
// (lastConsult). The world is forked from forker's per-scenario template
// when one is supplied (the scripted plan consumes no randomness before
// the first step, so the fork's post-settle arming point is behaviorally
// identical to a fresh build) and built from spec otherwise.
func runScenario(sc *corpus.Scenario, spec device.Spec, sched Schedule, inst oracle.Installer, forker *device.TemplateCache) RunResult {
	var res RunResult
	plan := chaos.NewScripted()
	asyncDrain := sc.AsyncDrain
	if asyncDrain <= 0 {
		asyncDrain = time.Second
	}

	// consulted sets lastConsult to armed, the latest arming point the
	// run passed, for each stock-blind point consulted since the last
	// call.
	armed := -1
	var seen [NumActions]int
	for a := range res.lastConsult {
		res.lastConsult[a] = -1
	}
	consulted := func() {
		for a := Action(0); a < NumActions; a++ {
			if pt, ok := a.blindPoint(); ok && plan.Consults(pt) != seen[a] {
				seen[a], res.lastConsult[a] = plan.Consults(pt), armed
			}
		}
	}
	hook := func(e *oracle.Edge) {
		// Scheduled fault actions at the edge, in canonical action order.
		for _, slot := range sched {
			if slot.Edge != e.Index {
				continue
			}
			switch slot.Action {
			case ActConfig:
				plan.Note(chaos.PointConfig, "configChange", "extra change (scripted)")
				e.Sys.PushConfiguration(e.Sys.GlobalConfig().Rotated())
			case ActAsync:
				plan.Note(chaos.PointAsync, "drain", "forced drain "+asyncDrain.String()+" (scripted)")
				e.Clock.Advance(asyncDrain)
			case ActKill:
				e.Kill()
			case ActFlush:
				pt, _ := ActFlush.blindPoint()
				plan.AddDirective(chaos.Directive{Point: pt, Label: "flush", Delay: 300 * time.Millisecond})
			}
			if e.Crashed() {
				return
			}
		}
		consulted()
		armed = e.Index
	}

	res.RunResult = oracle.Run(sc, spec, plan, inst, nil, forker, hook)
	consulted()
	for a := Action(0); a < NumActions; a++ {
		if pt, ok := a.blindPoint(); ok {
			res.Fired[a] = plan.FiredDirectives(pt)
		}
	}
	return res
}
