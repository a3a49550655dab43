package oracle

import (
	"fmt"
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

// ModelState is the ground-truth user state of the oracle app, read
// directly from the foreground widgets (and the activity's extras) —
// what the user would see on screen.
type ModelState struct {
	Text    string
	Cursor  int
	Checked bool
	Seek    int
	SelRow  int
	Counter int64
}

// Arm is what one arm of a differential run records, whichever harness
// drives it: the seeded oracle here and the schedule explorer both embed
// it in their run results and judge it with Bounds.
type Arm struct {
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
}

// Sample checks the lifecycle invariants at a quiescent point and keeps
// the first violation, labelled "step <step> (<kind>)", or "final" when
// step < 0. A crashed process is not sampled: the crash is the finding.
func (a *Arm) Sample(proc *app.Process, cfg InvariantConfig, step int, kind string) {
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
func (a *Arm) Finish(sys *atms.ATMS, plan *chaos.Plan, inst Installer) {
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

// Bounds returns the arm's mode-aware failure lines, the clause every
// judge applies to the arm under test. A handling time out of bounds is
// excused only when the guard's watchdog fired on the run. Then each
// degradation of a guarded run that no landed fault explains fails: a
// quarantine with no injection or before the first one, and a breaker
// open or self-check failure with no injection. Such a degradation is a
// supervision bug, not robustness. Injections counts landed faults;
// FirstInjectionAt alone cannot tell "none" from a fault on the very
// first tick.
func (a *Arm) Bounds() []string {
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

// RunResult is one run of a scenario under one handler.
type RunResult struct {
	Arm
	// Expected is the state the script actually applied (ground truth
	// recorded at application time); Actual is what the final foreground
	// instance shows.
	Expected ModelState
	Actual   ModelState
	// Started/Delivered/DroppedByPlan track each async task: whether it
	// was started, how many times its result ran, and whether the chaos
	// plan swallowed the result on purpose.
	Started       []bool
	Delivered     []int
	DroppedByPlan []bool
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

// readModel reads the ground-truth widget state off the foreground
// instance. The counter extra is seeded in OnCreate, so it must exist
// as an int64 on every live instance; an absent or mistyped value is
// reported as an error instead of silently reading 0 — the silent zero
// can make a run that dropped the counter compare equal to one that
// kept it, turning a real divergence into a vacuous pass.
func readModel(a *app.Activity) (ModelState, error) {
	var m ModelState
	if et, ok := a.FindViewByID(EditID).(*view.EditText); ok {
		m.Text, m.Cursor = et.Text(), et.Cursor()
	}
	if cb, ok := a.FindViewByID(CheckID).(*view.CheckBox); ok {
		m.Checked = cb.Checked()
	}
	if sb, ok := a.FindViewByID(SeekID).(*view.SeekBar); ok {
		m.Seek = sb.Progress()
	}
	if lv, ok := a.FindViewByID(ListID).(*view.ListView); ok {
		m.SelRow = lv.SelectorPosition()
	}
	switch c := a.Extra(CounterKey).(type) {
	case int64:
		m.Counter = c
	case nil:
		return m, fmt.Errorf("counter extra absent")
	default:
		return m, fmt.Errorf("counter extra mistyped: %T(%v)", c, c)
	}
	return m, nil
}

// oracleInvariants is the sampling config used at quiescent points: the
// instance bound is 3 (sunny + shadow + one transient zombie awaiting
// async drain).
var oracleInvariants = InvariantConfig{MaxInstancesPerProcess: 3, CheckMemoryFloor: true}

// oracleSpec is the device spec for a scenario's world. Its factory
// builds OracleApp on first use and returns that read-only definition to
// every later world, so both arms of a differential share one app; a
// fork path that never calls the factory builds none. The memo is not
// synchronized: a spec belongs to one differential on one goroutine.
// Worlds of equal image count are identical pre-chaos, which is what
// makes them share a fork template.
func oracleSpec(sc Scenario) device.Spec {
	var def *app.App
	return device.Spec{App: func() *app.App {
		if def == nil {
			def = OracleApp(sc.Images)
		}
		return def
	}}
}

// runOnce executes the scenario script in a seeded world: built fresh
// (or forked from forker's per-image-count template — byte-identical by
// construction), then armed at the post-settle point with the chaos plan
// on the scenario's seed, the handler under test, and the optional
// tracer on every layer (system server, process, chaos plan).
func runOnce(inst Installer, sc Scenario, spec device.Spec, opts chaos.Options, tracer *trace.Tracer, forker *device.TemplateCache) RunResult {
	res := RunResult{
		Arm:           Arm{Name: inst.Name},
		Started:       make([]bool, sc.Tasks),
		Delivered:     make([]int, sc.Tasks),
		DroppedByPlan: make([]bool, sc.Tasks),
	}
	var plan *chaos.Plan
	arm := func(w *device.World) {
		tracer.BindClock(w.Sched)
		w.Sys.SetTracer(tracer)
		w.Proc.SetTracer(tracer)
		plan = chaos.NewPlan(sc.Seed, opts)
		plan.BindClock(w.Sched)
		plan.SetTracer(tracer)
		if inst.Install != nil {
			inst.Install(w.Sys, w.Proc, plan)
		}
		plan.Install(w.Sys, w.Proc)
	}
	var w *device.World
	if forker != nil {
		w = forker.Fork(fmt.Sprintf("images:%d", sc.Images), spec, sc.Seed, arm)
	} else {
		w = device.New(spec, sc.Seed, arm)
	}
	sched, sys, proc := w.Sched, w.Sys, w.Proc
	if fg := proc.Thread().ForegroundActivity(); fg != nil {
		// Ground truth starts from the freshly launched instance (e.g. a
		// list's selector begins at -1, not the zero value).
		var err error
		if res.Expected, err = readModel(fg); err != nil {
			res.Invariant = fmt.Sprintf("launch: %v", err)
		}
	}

	// ui posts a script interaction onto the app's UI looper; it runs at
	// a quiescent point, looks up the live foreground instance and
	// records the ground truth it applied.
	ui := func(kind string, fn func(fg *app.Activity)) {
		proc.PostApp("oracle:"+kind, time.Millisecond, func() {
			fg := proc.Thread().ForegroundActivity()
			if fg == nil {
				return
			}
			res.Applied++
			fn(fg)
		})
	}

	for step, o := range sc.Ops {
		switch o.kind {
		case "rotate":
			sys.PushConfiguration(sys.GlobalConfig().Rotated())
		case "resize":
			sz := resizeTable[o.n]
			sys.PushConfiguration(sys.GlobalConfig().Resized(sz[0], sz[1]))
		case "locale":
			sys.PushConfiguration(sys.GlobalConfig().WithLocale(o.text))
		case "night":
			mode := config.UIModeDay
			if o.n == 1 {
				mode = config.UIModeNight
			}
			sys.PushConfiguration(sys.GlobalConfig().WithUIMode(mode))
		case "fontscale":
			sys.PushConfiguration(sys.GlobalConfig().WithFontScale(o.f))
		case "burst":
			sys.PushConfiguration(sys.GlobalConfig().Rotated())
			sched.Advance(o.d)
			sys.PushConfiguration(sys.GlobalConfig().Rotated())
		case "type":
			text := o.text
			ui(o.kind, func(fg *app.Activity) {
				if et, ok := fg.FindViewByID(EditID).(*view.EditText); ok {
					et.Type(text)
					res.Expected.Text, res.Expected.Cursor = et.Text(), et.Cursor()
				}
			})
		case "check":
			ui(o.kind, func(fg *app.Activity) {
				if cb, ok := fg.FindViewByID(CheckID).(*view.CheckBox); ok {
					cb.SetChecked(!cb.Checked())
					res.Expected.Checked = cb.Checked()
				}
			})
		case "seek":
			val := o.n
			ui(o.kind, func(fg *app.Activity) {
				if sb, ok := fg.FindViewByID(SeekID).(*view.SeekBar); ok {
					sb.SetProgress(val)
					res.Expected.Seek = sb.Progress()
				}
			})
		case "selectRow":
			row := o.n
			ui(o.kind, func(fg *app.Activity) {
				if lv, ok := fg.FindViewByID(ListID).(*view.ListView); ok {
					lv.PositionSelector(row)
					res.Expected.SelRow = lv.SelectorPosition()
				}
			})
		case "bump":
			ui(o.kind, func(fg *app.Activity) {
				c, ok := fg.Extra(CounterKey).(int64)
				if !ok && res.Invariant == "" {
					// Bumping would silently repair a dropped or corrupted
					// counter (0+1 looks like a legitimate first bump), so
					// flag it before overwriting.
					res.Invariant = fmt.Sprintf("step %d (bump): counter extra absent/mistyped: %T",
						step, fg.Extra(CounterKey))
				}
				fg.PutExtra(CounterKey, c+1)
				res.Expected.Counter = c + 1
			})
		case "touch":
			idx, work := o.n, o.d
			ui(o.kind, func(fg *app.Activity) {
				res.Started[idx] = true
				// The closure captures THIS instance's ImageViews — the
				// §2.2 pattern that crashes a restarted app.
				imgs := make([]*view.ImageView, 0, sc.Images)
				for i := 0; i < sc.Images; i++ {
					if iv, ok := fg.FindViewByID(ImgIDBase + view.ID(i)).(*view.ImageView); ok {
						imgs = append(imgs, iv)
					}
				}
				fg.StartAsyncTask(taskName(idx), work, func() {
					res.Delivered[idx]++
					for _, iv := range imgs {
						iv.SetDrawable("drawable/loaded")
					}
				})
			})
		case "idle", "idleLong":
			// nothing to inject; the advance below is the op
		}
		sched.Advance(o.settle)
		res.Sample(proc, oracleInvariants, step, o.kind)
	}
	// Drain: longest task (400 ms) + worst chaos delay (700 ms) both fit.
	sched.Advance(4 * time.Second)

	res.Crashed = proc.Crashed()
	if res.Crashed {
		res.CrashCause = fmt.Sprint(proc.CrashCause())
	} else {
		res.Sample(proc, oracleInvariants, -1, "")
		if fg := proc.Thread().ForegroundActivity(); fg != nil {
			res.Essence = essenceOf(fg)
			var err error
			if res.Actual, err = readModel(fg); err != nil && res.Invariant == "" {
				res.Invariant = fmt.Sprintf("final: %v", err)
			}
		} else {
			res.FinalMissing = true
		}
	}
	for i := range res.DroppedByPlan {
		res.DroppedByPlan[i] = plan.AsyncDropped(taskName(i)) > 0
	}
	res.Finish(sys, plan, inst)
	return res
}

// Differential runs the scenario for a seed under the stock Android-10
// handler and under the installer's handler, then judges the
// transparency contract.
func Differential(seed uint64, rch Installer) Verdict {
	return DifferentialOpts(seed, rch, chaos.Light())
}

// DifferentialOpts is Differential under an explicit chaos preset —
// both runs replay the same plan, so the comparison stays apples to
// apples at any fault intensity.
func DifferentialOpts(seed uint64, rch Installer, opts chaos.Options) Verdict {
	return DifferentialWith(seed, rch, opts, nil)
}

// DifferentialWith is DifferentialOpts with an optional fork cache: when
// forker is non-nil, both arms' worlds are forked from per-image-count
// templates instead of being built from scratch. The verdict is
// byte-identical either way — forks replay the exact pre-chaos state and
// the chaos plan arms at the same post-settle point on both paths.
func DifferentialWith(seed uint64, rch Installer, opts chaos.Options, forker *device.TemplateCache) Verdict {
	sc := GenScenario(seed)
	v := Verdict{Seed: seed}
	spec := oracleSpec(sc)
	v.Stock = runOnce(Installer{Name: "Android-10"}, sc, spec, opts, nil, forker)
	v.RCH = runOnce(rch, sc, spec, opts, nil, forker)
	v.judge()
	return v
}

// TraceRCH re-runs the RCHDroid side of a seed's scenario with a
// bounded ring tracer armed and returns the Chrome trace_event JSON.
// Determinism makes this a faithful timeline of the failing run — the
// faults land at the exact same points — at zero tracing cost to the
// passing sweep. Capacity bounds the ring (≤ 0 uses the default), so
// the dump always holds the tail of the run: the part where it failed.
func TraceRCH(seed uint64, rch Installer, capacity int) ([]byte, error) {
	return TraceRCHWith(seed, rch, capacity, chaos.Light())
}

// TraceRCHWith is TraceRCH under an explicit chaos preset, for
// replaying failures found by sweeps that run heavier presets.
func TraceRCHWith(seed uint64, rch Installer, capacity int, opts chaos.Options) ([]byte, error) {
	sc := GenScenario(seed)
	tracer := trace.NewRing(nil, capacity)
	runOnce(rch, sc, oracleSpec(sc), opts, tracer, nil)
	return tracer.MarshalJSON()
}

// judge asserts the contract:
//
//	RCHDroid absolutes — crash-free, invariant-clean, full user state
//	preserved (including what stock legitimately loses), every async
//	result delivered exactly once unless the chaos plan dropped it,
//	handling times in bounds.
//
//	Stock sanity — never a double delivery; invariants and handling
//	bounds hold while it survives.
//
//	Differential — if the stock run survived, the stock-persisted
//	essence (onSaveInstanceState keys and values, tree shape) must be
//	identical across handlers: the app cannot tell them apart.
//
//	Guarded runs — a quarantined activity degrades to exact stock
//	semantics, so the full-state absolute no longer applies to it (the
//	stock-essence equality still does: RCHDroid-or-stock, never a
//	hybrid). Handling times may exceed the bound only when the watchdog
//	actually fired on them. Degradation must be fault-attributed: a
//	quarantine (or breaker open) without a previously landed injection
//	is a supervision bug, not robustness.
func (v *Verdict) judge() {
	fail := func(format string, args ...any) {
		v.Failures = append(v.Failures, fmt.Sprintf(format, args...))
	}

	r := &v.RCH
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
	if !r.Crashed && !r.FinalMissing && r.Actual != r.Expected && !quarantined {
		fail("%s lost user state: actual %+v, expected %+v", r.Name, r.Actual, r.Expected)
	}
	v.Failures = append(v.Failures, r.Bounds()...)
	for i, started := range r.Started {
		want := 0
		if started && !r.DroppedByPlan[i] {
			want = 1
		}
		if !r.Crashed && r.Delivered[i] != want {
			fail("%s: task%d delivered %d times, want %d (started=%v droppedByPlan=%v)",
				r.Name, i, r.Delivered[i], want, started, r.DroppedByPlan[i])
		}
	}

	s := &v.Stock
	for i, d := range s.Delivered {
		if d > 1 {
			fail("%s: task%d delivered %d times, want ≤ 1", s.Name, i, d)
		}
	}
	if !s.Crashed {
		if s.Invariant != "" {
			fail("%s invariant: %s", s.Name, s.Invariant)
		}
		if s.HandlingViolation != "" {
			fail("%s: %s", s.Name, s.HandlingViolation)
		}
		if s.FinalMissing {
			fail("%s: no foreground activity at end of scenario", s.Name)
		}
		if !s.FinalMissing && !r.Crashed && !r.FinalMissing && s.Essence != r.Essence {
			fail("essence diverged:\n    %s: %s\n    %s: %s", s.Name, s.Essence, r.Name, r.Essence)
		}
	}
}
