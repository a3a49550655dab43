package chaos

import (
	"fmt"
	"time"

	"rchdroid/internal/looper"

	"rchdroid/internal/app"
	"rchdroid/internal/config"
)

// Directive is one scripted injection: instead of a seeded die roll, the
// fault lands deterministically at the Nth eligible decision call of a
// point. Directives make every injection site enumerable — the
// schedule-space explorer (internal/explore) drives the exact same hooks
// the sampled presets drive, but from an explicit script, so a run is
// reproducible from the directive list alone with no RNG anywhere.
type Directive struct {
	// Point selects which decision hook the directive arms.
	Point Point
	// Label, when non-empty, restricts the directive to decision calls
	// whose label matches exactly (message, task or phase name).
	Label string
	// Skip is how many eligible calls to let pass before firing.
	Skip int
	// Delay is the magnitude for stall/delay/defer-style faults.
	Delay time.Duration
	// Drop marks drop-style faults (message, async result, transferred
	// bundle). When false the directive injects a Delay-style fault.
	Drop bool

	seen int
	done bool
}

// NewScripted returns a plan that injects nothing by itself: all rates
// are zero, so no random rolls ever fire, and every fault comes from an
// explicitly added directive. Install/Injections/BindClock work exactly
// as on a sampled plan, so the two kinds share all harness plumbing.
func NewScripted(directives ...Directive) *Plan {
	p := NewPlan(0, Options{})
	for _, d := range directives {
		p.AddDirective(d)
	}
	return p
}

// AddDirective arms a directive. Safe to call mid-run: the schedule-space
// driver arms "defer the next migration flush" at the lifecycle edge the
// schedule names, not at plan construction.
func (p *Plan) AddDirective(d Directive) {
	d.seen, d.done = 0, false
	p.directives = append(p.directives, &d)
}

// PendingDirectives counts armed directives that have not fired yet.
func (p *Plan) PendingDirectives() int {
	n := 0
	for _, d := range p.directives {
		if !d.done {
			n++
		}
	}
	return n
}

// FiredDirectives counts the armed directives at pt that have fired.
func (p *Plan) FiredDirectives(pt Point) int {
	n := 0
	for _, d := range p.directives {
		if d.done && d.Point == pt {
			n++
		}
	}
	return n
}

// Consults counts the plan's decision calls at pt so far: every call,
// whether a fault landed or not and whatever its label. A directive
// does nothing until a call at its point consults it, and every such
// call advances its Skip count, so a directive armed when the count
// read n is inert for the run if the count still reads n at its end.
// The schedule-space explorer relies on exactly that to prove a
// stock-blind slot changes nothing.
func (p *Plan) Consults(pt Point) int { return p.consults[pt] }

// Note records a driver-level injection (a scheduled kill, an extra
// config change, a forced drain) into the same log the hook-level faults
// use, so a run's full injection history reads off one list and the
// fault-attribution rules (no quarantine without a prior injection) keep
// working when the faults come from a script instead of the dice.
func (p *Plan) Note(pt Point, label, effect string) {
	p.record(pt, label, effect)
}

// consultScript counts the decision call at its point, advances every
// armed directive matching it and returns the first one whose
// eligible-call count passes Skip, marking it fired. Every hook calls it
// first, on sampled plans too. It never touches the RNG streams, so
// adding or removing directives cannot perturb a sampled plan's rolls,
// and a directive-free plan behaves exactly as before.
func (p *Plan) consultScript(pt Point, label string) *Directive {
	p.consults[pt]++
	var fired *Directive
	for _, d := range p.directives {
		if d.done || d.Point != pt {
			continue
		}
		if d.Label != "" && d.Label != label {
			continue
		}
		d.seen++
		if fired == nil && d.seen > d.Skip {
			d.done = true
			fired = d
		}
	}
	return fired
}

// scriptMessage resolves a fired looper directive. Drops obey the same
// Droppable contract as sampled drops (losing a lifecycle-chain message
// simulates a broken harness, not a fault); a non-droppable drop
// directive degrades to an order-preserving stall.
func (p *Plan) scriptMessage(d *Directive, name string) looper.Fault {
	if d.Drop && Droppable(name) {
		p.record(PointLooper, name, "drop (scripted)")
		return looper.Fault{Drop: true}
	}
	p.record(PointLooper, name, fmt.Sprintf("stall %v (scripted)", d.Delay))
	return looper.Fault{Stall: d.Delay}
}

// scriptAsync resolves a fired async directive.
func (p *Plan) scriptAsync(d *Directive, name string) app.AsyncFault {
	if d.Drop {
		p.droppedAsync[name]++
		p.record(PointAsync, name, "drop result (scripted)")
		return app.AsyncFault{DropResult: true}
	}
	p.record(PointAsync, name, fmt.Sprintf("delay %v (scripted)", d.Delay))
	return app.AsyncFault{ExtraDelay: d.Delay}
}

// scriptConfig resolves a fired config-echo directive.
func (p *Plan) scriptConfig(d *Directive, cfg config.Configuration) (bool, time.Duration) {
	p.record(PointConfig, "configChange", fmt.Sprintf("echo after %v (scripted)", d.Delay))
	return true, d.Delay
}

// scriptTransfer resolves a fired state-transfer directive.
func (p *Plan) scriptTransfer(d *Directive, attempt int) TransferFault {
	if d.Drop {
		p.record(PointXfer, fmt.Sprintf("transfer(attempt %d)", attempt), "drop bundle (scripted)")
		return TransferFault{Drop: true}
	}
	p.record(PointXfer, fmt.Sprintf("transfer(attempt %d)", attempt), "corrupt bundle (scripted)")
	return TransferFault{Corrupt: true}
}
