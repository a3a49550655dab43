package oracle

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/chaos"
	"rchdroid/internal/config"
	"rchdroid/internal/device"
	"rchdroid/internal/guard"
	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
	"rchdroid/internal/view"
)

// Installer wires a change-handling scheme onto a freshly booted
// system. A nil Install leaves the stock Android-10 restart handler in
// place. The oracle package cannot import internal/core (core's tests
// import the oracle), so callers pass core.Install through this seam.
type Installer struct {
	Name    string
	Install func(sys *atms.ATMS, proc *app.Process, plan *chaos.Plan)
	// Guard, if set, returns the guard armed by the most recent Install
	// call, so the run result can carry its supervision summary.
	Guard func() *guard.Guard
}

// RunResult is one run of a scenario under one handler, whichever
// harness drives it: the seeded oracle's verdicts and the schedule
// explorer's hold one per arm, and one judge (Scenario.Judge) reads
// them.
//
// A RunResult is read-only once Run returns it: the explorer shares a
// stock view's runs among the schedules that reuse them, so its slices
// may back several verdicts at once.
type RunResult struct {
	Name       string
	Crashed    bool
	CrashCause string
	// Invariant holds the first lifecycle-invariant violation sampled at
	// a quiescent point, with its step context ("" when clean).
	Invariant string
	// FinalMissing is set when the run ended with no foreground activity
	// despite not having crashed.
	FinalMissing bool
	// Essence is the final foreground instance's stock-persisted state,
	// compared across handlers: the onSaveInstanceState bundle (view
	// subtree the stock relaunch would carry, fragments, app-private
	// section) plus the view-tree shape.
	Essence string
	// Applied counts script interactions that found a foreground target.
	Applied int
	// HandlingViolation is the first out-of-bounds change-handling time.
	HandlingViolation string
	Handlings         int
	// HandlingTimes are the per-handling end-to-end sim-clock durations
	// (config change at the ATMS → resume), in handling order. Sim-clock
	// values are seed-deterministic, so aggregate consumers may fold
	// them into canonical metric histograms.
	HandlingTimes []time.Duration
	Injections    int
	// FirstInjectionAt is the virtual time of the first landed fault
	// (zero when no fault landed).
	FirstInjectionAt sim.Time
	// Guard summarises the supervision layer (zero value when disabled).
	Guard guard.Summary
	// Config is the final foreground instance's applied configuration;
	// the judge compares it across handlers along with the essence.
	Config config.Configuration
	// Losses classifies every divergence between the ground truth the
	// steps recorded and the final foreground probe into the DLD
	// taxonomy, sorted by field.
	Losses []Loss
	// KillLosses are saved-bucket fields a captured system bundle failed
	// to carry across a kill — the save/restore contract itself broke.
	KillLosses []Loss
	// KillStates are the rendered bundles captured at each kill, in
	// order; runs whose kills captured different state are not
	// essence-comparable.
	KillStates []string
	Kills      int
	// Tasks are the async tasks the run started since its last kill, in
	// start order. A kill clears them: their results die with the
	// process.
	Tasks []Task
}

// Task is one async task a run started.
type Task struct {
	// Index numbers the task among the script's async and touch steps;
	// it runs as "task<Index>".
	Index int
	// Delivered counts how many times its result ran.
	Delivered int
	// DroppedByPlan is set when the chaos plan swallowed the result on
	// purpose.
	DroppedByPlan bool
}

// Sample checks the lifecycle invariants at a quiescent point and keeps
// the first violation, labelled "step <step> (<kind>)", or "final" when
// step < 0. A crashed process is not sampled: the crash is the finding.
func (a *RunResult) Sample(proc *app.Process, cfg InvariantConfig, step int, kind string) {
	if a.Invariant != "" || proc.Crashed() {
		return
	}
	errs := CheckInvariants([]*app.Process{proc}, cfg)
	if len(errs) == 0 {
		return
	}
	if step < 0 {
		a.Invariant = fmt.Sprintf("final: %v", errs[0])
		return
	}
	a.Invariant = fmt.Sprintf("step %d (%s): %v", step, kind, errs[0])
}

// Finish records the end of the run: every handling time against the
// (0, 1s] bound, the faults the plan landed, and the supervision
// summary of the guard inst armed, if any.
func (a *RunResult) Finish(sys *atms.ATMS, plan *chaos.Plan, inst Installer) {
	hs := sys.HandlingTimes()
	a.Handlings = len(hs)
	a.HandlingTimes = hs
	for i, d := range hs {
		if d <= 0 || d > time.Second {
			a.HandlingViolation = fmt.Sprintf("handling %d took %v, want (0, 1s]", i, d)
			break
		}
	}
	inj := plan.Injections()
	a.Injections = len(inj)
	if len(inj) > 0 {
		a.FirstInjectionAt = inj[0].At
	}
	if inst.Guard != nil {
		a.Guard = inst.Guard().Summary()
	}
}

// Bounds returns the arm's mode-aware failure lines, the clause the
// judge applies to the arm under test. A handling time out of bounds is
// excused only when the guard's watchdog fired on the run. Then each
// degradation of a guarded run that no landed fault explains fails: a
// quarantine with no injection or before the first one, and a breaker
// open or self-check failure with no injection. Such a degradation is a
// supervision bug, not robustness. Injections counts landed faults;
// FirstInjectionAt alone cannot tell "none" from a fault on the very
// first tick.
func (a *RunResult) Bounds() []string {
	var out []string
	g := a.Guard
	if a.HandlingViolation != "" && !(g.Enabled && g.ANRs > 0) {
		out = append(out, fmt.Sprintf("%s: %s", a.Name, a.HandlingViolation))
	}
	if g.Quarantines > 0 {
		if a.Injections == 0 {
			out = append(out, fmt.Sprintf("%s: quarantined with no injected fault", a.Name))
		} else if g.FirstQuarantineAt < a.FirstInjectionAt {
			out = append(out, fmt.Sprintf("%s: first quarantine at %v precedes first injection at %v",
				a.Name, g.FirstQuarantineAt, a.FirstInjectionAt))
		}
	}
	if g.BreakerOpens > 0 && a.Injections == 0 {
		out = append(out, fmt.Sprintf("%s: breaker opened with no injected fault", a.Name))
	}
	if g.SelfCheckFailures > 0 && a.Injections == 0 {
		out = append(out, fmt.Sprintf("%s: self-check failed with no injected fault", a.Name))
	}
	return out
}

// Verdict is the differential comparison for one seed.
type Verdict struct {
	Seed     uint64
	Stock    RunResult
	RCH      RunResult
	Failures []string
}

// OK reports whether the transparency contract held.
func (v *Verdict) OK() bool { return len(v.Failures) == 0 }

// Summary renders the one-line verdict header (replay seed first, no
// failure lines) — the deterministic per-seed line sweep reports merge.
// It is built in one exactly sized allocation: a sweep report holds one
// per seed.
func (v *Verdict) Summary() string {
	var buf [192]byte
	b := strconv.AppendUint(append(buf[:0], "seed="...), v.Seed, 10)
	b = strconv.AppendBool(append(b, " stock[crashed="...), v.Stock.Crashed)
	b = strconv.AppendInt(append(b, " applied="...), int64(v.Stock.Applied), 10)
	b = strconv.AppendInt(append(b, " handlings="...), int64(v.Stock.Handlings), 10)
	b = strconv.AppendBool(append(b, "] rch[crashed="...), v.RCH.Crashed)
	b = strconv.AppendInt(append(b, " applied="...), int64(v.RCH.Applied), 10)
	b = strconv.AppendInt(append(b, " handlings="...), int64(v.RCH.Handlings), 10)
	b = strconv.AppendInt(append(b, " inj="...), int64(v.RCH.Injections), 10)
	b = append(b, ']')
	if g := v.RCH.Guard; g.Enabled {
		b = strconv.AppendInt(append(b, " guard[anrs="...), int64(g.ANRs), 10)
		b = strconv.AppendInt(append(b, " retries="...), int64(g.Retries), 10)
		b = strconv.AppendInt(append(b, " xferFail="...), int64(g.TransferFailures), 10)
		b = strconv.AppendInt(append(b, " quarantines="...), int64(g.Quarantines), 10)
		b = strconv.AppendInt(append(b, " recoveries="...), int64(g.Recoveries), 10)
		b = strconv.AppendInt(append(b, " breaker="...), int64(g.BreakerOpens), 10)
		b = append(b, ']')
	}
	return string(b)
}

// String renders the verdict with the replay seed first — the one line
// needed to reproduce.
func (v *Verdict) String() string {
	var sb strings.Builder
	sb.WriteString(v.Summary())
	for _, f := range v.Failures {
		fmt.Fprintf(&sb, "\n  FAIL: %s", f)
	}
	return sb.String()
}

// taskName names async task idx; results post as "asyncResult:task<idx>",
// which the chaos layer treats as droppable.
func taskName(idx int) string { return "task" + strconv.Itoa(idx) }

// essenceOf renders an activity's stock-persisted state plus its
// view-tree shape, deterministically, as "<bundle> tree: T×n …" with
// the widget types sorted.
func essenceOf(a *app.Activity) string {
	counts := view.CountByType(a.Decor())
	types := make([]string, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Strings(types)
	var buf [320]byte
	b := append(buf[:0], a.SaveInstanceStateStock().String()...)
	b = append(b, " tree:"...)
	for _, t := range types {
		b = append(append(append(b, ' '), t...), "×"...)
		b = strconv.AppendInt(b, int64(counts[t]), 10)
	}
	return string(b)
}

// oracleSpec is the device spec for a generated scenario's worlds. Its
// factory builds the scenario's app on first use and returns that
// read-only definition to every later world, so both arms of a
// differential share one app. The memo is not synchronized: a spec
// belongs to one differential on one goroutine.
func oracleSpec(sc *Scenario) device.Spec {
	var def *app.App
	return device.Spec{App: func() *app.App {
		if def == nil {
			def = sc.App()
		}
		return def
	}}
}

// DifferentialWith runs the seed's generated scenario under the stock
// Android-10 handler and under the installer's handler, both on the
// same chaos plan (the preset opts on the seed), then judges the
// transparency contract.
//
// The trailing variadic is ignored. It exists only so perfbench's
// four-argument call, which passes a device.TemplateCache, keeps
// compiling; ROADMAP item 4's benchmark change drops that argument and
// this parameter. Callers in this module pass three arguments.
func DifferentialWith(seed uint64, rch Installer, opts chaos.Options, _ ...*device.TemplateCache) Verdict {
	sc := GenScenario(seed)
	spec := oracleSpec(&sc)
	v := Verdict{Seed: seed}
	v.Stock = Run(&sc, spec, chaos.NewPlan(seed, opts), Installer{Name: "Android-10"}, nil, nil)
	v.RCH = Run(&sc, spec, chaos.NewPlan(seed, opts), rch, nil, nil)
	v.Failures = sc.Judge(&v.Stock, &v.RCH)
	return v
}

// TraceRCHWith re-runs the RCHDroid side of a seed's scenario under the
// chaos preset opts with a bounded ring tracer armed and returns the
// Chrome trace_event JSON. Determinism makes this a faithful timeline of
// the failing run — the faults land at the exact same points — at zero
// tracing cost to the passing sweep. Capacity bounds the ring (≤ 0 uses
// the default), so the dump always holds the tail of the run: the part
// where it failed.
func TraceRCHWith(seed uint64, rch Installer, capacity int, opts chaos.Options) ([]byte, error) {
	sc := GenScenario(seed)
	tracer := trace.NewRing(nil, capacity)
	Run(&sc, oracleSpec(&sc), chaos.NewPlan(seed, opts), rch, tracer, nil)
	return tracer.MarshalJSON()
}

// Judge returns the failure lines of one differential pair under the
// scenario's contract. It is the one judge of both harnesses:
//
//	RCHDroid absolutes — crash-free, invariant-clean, no state loss in
//	any bucket the scenario does not declare for it (stock's legitimate
//	losses included), kills never drop saved-bucket state, every async
//	result it started delivered exactly once unless the chaos plan
//	dropped it, handling times in bounds.
//
//	Stock classification — never a double delivery; a crash must be
//	declared (StockMayCrash), and every loss must land in a declared
//	bucket; anything else is an unclassified divergence. Invariants and
//	handling bounds hold while it survives.
//
//	Differential — when both runs survive and captured identical kill
//	bundles, the stock-persisted essence (onSaveInstanceState keys and
//	values, tree shape) and the final configuration must be identical:
//	the app cannot tell the handlers apart.
//
//	Guarded runs — a quarantined activity degrades to exact stock
//	semantics, so its losses are judged against the stock buckets
//	instead (the essence equality still applies: RCHDroid-or-stock,
//	never a hybrid). Handling times may exceed the bound only when the
//	watchdog actually fired on them, and each degradation must be
//	fault-attributed (RunResult.Bounds).
func (sc *Scenario) Judge(stock, rch *RunResult) []string {
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}

	r := rch
	quarantined := r.Guard.Enabled && r.Guard.Quarantines > 0
	if r.Crashed {
		fail("%s crashed: %s", r.Name, r.CrashCause)
	}
	if r.Invariant != "" {
		fail("%s invariant: %s", r.Name, r.Invariant)
	}
	if r.FinalMissing {
		fail("%s: no foreground activity at end of scenario", r.Name)
	}
	for _, l := range r.KillLosses {
		fail("%s: kill dropped saved state: %s", r.Name, l)
	}
	for _, l := range r.Losses {
		switch {
		case quarantined && sc.MayLose(l.Bucket):
			// Stock-routed changes lose exactly what stock loses.
		case quarantined:
			fail("%s: quarantined loss outside declared buckets: %s", r.Name, l)
		case sc.MayLoseRCH(l.Bucket):
			// Declared best-effort bucket (unserialized instance fields).
		default:
			fail("%s lost user state: %s", r.Name, l)
		}
	}
	out = append(out, r.Bounds()...)
	if !r.Crashed {
		for _, t := range r.Tasks {
			want := 1
			if t.DroppedByPlan {
				want = 0
			}
			if t.Delivered != want {
				fail("%s: task%d delivered %d times, want %d (droppedByPlan=%v)",
					r.Name, t.Index, t.Delivered, want, t.DroppedByPlan)
			}
		}
	}

	s := stock
	for _, t := range s.Tasks {
		if t.Delivered > 1 {
			fail("%s: task%d delivered %d times, want ≤ 1", s.Name, t.Index, t.Delivered)
		}
	}
	if s.Crashed && !sc.StockMayCrash {
		fail("%s: undeclared crash: %s", s.Name, s.CrashCause)
	}
	for _, l := range s.KillLosses {
		fail("%s: kill dropped saved state: %s", s.Name, l)
	}
	if s.Crashed {
		return out
	}
	if s.Invariant != "" {
		fail("%s invariant: %s", s.Name, s.Invariant)
	}
	if s.HandlingViolation != "" {
		fail("%s: %s", s.Name, s.HandlingViolation)
	}
	if s.FinalMissing {
		fail("%s: no foreground activity at end of scenario", s.Name)
	}
	for _, l := range s.Losses {
		if !sc.MayLose(l.Bucket) {
			fail("%s: unclassified loss: %s", s.Name, l)
		}
	}
	sameKills := slices.Equal(s.KillStates, r.KillStates)
	if !s.FinalMissing && !r.Crashed && !r.FinalMissing && sameKills && (s.Essence != r.Essence || s.Config != r.Config) {
		fail("essence diverged:\n    %s: %s cfg:%s\n    %s: %s cfg:%s",
			s.Name, s.Essence, s.Config, r.Name, r.Essence, r.Config)
	}
	return out
}
