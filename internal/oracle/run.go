package oracle

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/bundle"
	"rchdroid/internal/chaos"
	"rchdroid/internal/config"
	"rchdroid/internal/device"
	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
	"rchdroid/internal/view"
)

// Edge is a run at one lifecycle edge, as an EdgeHook sees it: step
// Index has settled, the run has not crashed, and its invariants were
// sampled.
type Edge struct {
	Index int
	Sys   *atms.ATMS
	Clock *sim.Scheduler
	r     *runner
}

// Kill kills the process and relaunches it with the system-held stock
// bundle, exactly as StepKill does.
func (e *Edge) Kill() { e.r.kill() }

// Crashed reports whether the run has crashed. A hook that acts more
// than once at an edge stops at the first crash, as the script does.
func (e *Edge) Crashed() bool { return e.r.crashed() }

// EdgeHook acts on a run at each of its lifecycle edges. The schedule
// explorer injects its faults through one.
type EdgeHook func(*Edge)

// textSetter is a TextView-family widget.
type textSetter interface{ SetText(string) }

// runner is one run in progress.
type runner struct {
	sc     *Scenario
	inst   Installer
	plan   *chaos.Plan
	tracer *trace.Tracer
	w      *device.World
	proc   *app.Process
	res    RunResult
	// expected is the ground truth, one field per name: what the steps
	// recorded the app reaching.
	expected []Field
	// before and after are the probe buffers of the step in hand.
	before, after []Field
	// tasks counts the script's async and touch steps so far.
	tasks int
}

// Run executes the scenario's script once, the one runner behind both
// harnesses. The world is built from spec on the plan's seed and armed
// at its post-settle point: the optional tracer on every layer, the
// plan, and inst's handler. Each step runs, then virtual time advances
// by its settle, and the run samples its invariants at that quiescent
// point. A hook, when given, then acts at the edge. The script stops at
// the first crash; a final drain lets async results and chaos delays
// land before the final probe.
//
// Ground truth follows one rule: a UI step probes the foreground
// instance just before its action and just after, and merges a field
// into the expectation when the expectation lacks it or when the
// step changed its value. A step's Expect overrides win over its probe.
// So state lost between steps stays lost: a later step never re-reads
// it into the expectation.
func Run(sc *Scenario, spec device.Spec, plan *chaos.Plan, inst Installer, tracer *trace.Tracer, hook EdgeHook) RunResult {
	fields := make([]Field, 24)
	r := &runner{sc: sc, inst: inst, plan: plan, tracer: tracer,
		expected: fields[0:0:8], before: fields[8:8:16], after: fields[16:16:24]}
	r.res.Name = inst.Name
	arm := func(w *device.World) {
		r.w = w
		tracer.BindClock(w.Sched)
		w.Sys.SetTracer(tracer)
		w.Proc.SetTracer(tracer)
		plan.BindClock(w.Sched)
		plan.SetTracer(tracer)
		r.install(w.Proc)
	}
	device.New(spec, plan.Seed(), arm)
	r.proc = r.w.Proc
	inv := sc.invariants()
	if fg := r.fg(); fg != nil {
		// Ground truth starts from the freshly launched instance (a list's
		// selector begins at -1, not the zero value).
		r.expected = sc.Probe(fg, r.expected)
	}

	var edge *Edge
	for i := range sc.Steps {
		st := &sc.Steps[i]
		r.step(i, st)
		r.w.Sched.Advance(st.Settle)
		for _, f := range st.Expect {
			r.expect(f)
		}
		if r.crashed() {
			break
		}
		r.res.Sample(r.proc, inv, i, st.Kind.String())
		if hook == nil {
			continue
		}
		if edge == nil {
			edge = &Edge{Sys: r.w.Sys, Clock: r.w.Sched, r: r}
		}
		edge.Index = i
		hook(edge)
		if r.crashed() {
			break
		}
	}
	// Drain: the longest task (400 ms) plus the worst chaos delay
	// (700 ms) both fit.
	r.w.Sched.Advance(4 * time.Second)

	if !r.crashed() {
		r.res.Sample(r.proc, inv, -1, "")
		if fg := r.fg(); fg != nil {
			r.res.Essence = essenceOf(fg)
			r.res.Config = fg.Config()
			r.after = sc.Probe(fg, r.after[:0])
			r.res.Losses = ClassifyLoss(r.expected, r.after)
		} else {
			r.res.FinalMissing = true
		}
	}
	for k := range r.res.Tasks {
		t := &r.res.Tasks[k]
		t.DroppedByPlan = plan.AsyncDropped(taskName(t.Index)) > 0
	}
	r.res.Finish(r.w.Sys, plan, inst)
	return r.res
}

// install arms the plan and inst's handler on a process.
func (r *runner) install(p *app.Process) {
	if r.inst.Install != nil {
		r.inst.Install(r.w.Sys, p, r.plan)
	}
	r.plan.Install(r.w.Sys, p)
}

// relaunch arms a relaunched process as the first one was armed.
func (r *runner) relaunch(p *app.Process) {
	p.SetTracer(r.tracer)
	r.install(p)
}

func (r *runner) fg() *app.Activity { return r.proc.Thread().ForegroundActivity() }

// crashed latches the first crash of the live process.
func (r *runner) crashed() bool {
	if r.proc.Crashed() && !r.res.Crashed {
		r.res.Crashed = true
		r.res.CrashCause = fmt.Sprint(r.proc.CrashCause())
	}
	return r.res.Crashed
}

// step performs step i. Runtime changes and lifecycle actions act at
// once; interactions with the app post onto its UI looper (ui).
func (r *runner) step(i int, st *Step) {
	sys := r.w.Sys
	switch st.Kind {
	case StepRotate:
		sys.PushConfiguration(sys.GlobalConfig().Rotated())
	case StepResize:
		sz := resizeTable[st.N]
		sys.PushConfiguration(sys.GlobalConfig().Resized(sz[0], sz[1]))
	case StepLocale:
		sys.PushConfiguration(sys.GlobalConfig().WithLocale(st.Text))
	case StepFontScale:
		sys.PushConfiguration(sys.GlobalConfig().WithFontScale(fontTable[st.N]))
	case StepNight:
		sys.PushConfiguration(sys.GlobalConfig().WithUIMode(config.UIMode(st.N)))
	case StepBurst:
		sys.PushConfiguration(sys.GlobalConfig().Rotated())
		r.w.Sched.Advance(st.Work)
		sys.PushConfiguration(sys.GlobalConfig().Rotated())
	case StepBack:
		if fg := r.fg(); fg != nil {
			// Back discards the finished screen's state on both handlers.
			prefix := strings.TrimSuffix(fg.Class().Name, "Activity") + "."
			r.expected = slices.DeleteFunc(r.expected, func(f Field) bool { return strings.HasPrefix(f.Name, prefix) })
		}
		sys.FinishTopActivity()
	case StepKill:
		r.kill()
	case StepQuarantine:
		if r.inst.Guard != nil {
			if g := r.inst.Guard(); g.Enabled() {
				r.plan.Note(chaos.PointLifecycle, "quarantine", "forced quarantine (scripted)")
				g.Quarantine(st.Class, "scripted: forced by corpus scenario")
			}
		}
	case StepIdle:
		// the settle is the step
	case StepAsync, StepTouch:
		r.ui(i, r.tasks, st)
		r.tasks++
	default:
		r.ui(i, -1, st)
	}
}

// ui posts step i onto the app's UI looper. It runs at a quiescent
// point, applies the interaction to the live foreground instance and
// records what the step changed (see Run). The step's Expect overrides
// merge in the same message, after the probe: a looper stalled by an
// injected fault can run the step arbitrarily late, and the override
// must still win over the probe it corrects.
func (r *runner) ui(i, task int, st *Step) {
	r.proc.PostApp(stepMessages[st.Kind], time.Millisecond, func() {
		fg := r.fg()
		if fg == nil {
			return
		}
		r.res.Applied++
		r.before = r.sc.Probe(fg, r.before[:0])
		r.apply(i, task, st, fg)
		r.after = r.sc.Probe(fg, r.after[:0])
		for _, f := range r.after {
			if changed(r.before, f) || fieldIndex(r.expected, f.Name) < 0 {
				r.expect(f)
			}
		}
		for _, f := range st.Expect {
			r.expect(f)
		}
	})
}

// apply performs an interaction step on the foreground instance.
func (r *runner) apply(i, task int, st *Step, fg *app.Activity) {
	switch st.Kind {
	case StepType:
		if et, ok := fg.FindViewByID(st.ID).(*view.EditText); ok {
			et.Type(st.Text)
		}
	case StepSetText:
		if tv, ok := fg.FindViewByID(st.ID).(textSetter); ok {
			tv.SetText(st.Text)
		}
	case StepCheck:
		if cb, ok := fg.FindViewByID(st.ID).(*view.CheckBox); ok {
			cb.SetChecked(!cb.Checked())
		}
	case StepSeek:
		if sb, ok := fg.FindViewByID(st.ID).(*view.SeekBar); ok {
			sb.SetProgress(st.N)
		}
	case StepSelect:
		if lv, ok := fg.FindViewByID(st.ID).(*view.ListView); ok {
			lv.PositionSelector(st.N)
		}
	case StepClick:
		if b, ok := fg.FindViewByID(st.ID).(*view.Button); ok {
			b.Click()
		}
	case StepBump:
		c, ok := fg.Extra(st.Text).(int64)
		if !ok && r.res.Invariant == "" {
			r.res.Invariant = fmt.Sprintf("step %d (bump): counter extra absent/mistyped: %T", i, fg.Extra(st.Text))
		}
		fg.PutExtra(st.Text, c+1)
	case StepStart:
		fg.StartActivity(st.Class)
	case StepFragment:
		if fc := fg.Class().FragmentClasses[st.Class]; fc != nil {
			fg.Fragments().Add(fc, st.Text, st.ID)
		}
	case StepDialog:
		fg.ShowDialog(st.Text, nil)
	case StepAsync:
		// The completion dismisses whatever dialogs are showing when it
		// fires. An injected change can move the dialog to a different
		// instance between start and completion (RCHDroid's flip re-shows
		// it on the preserved twin), so the completion scans every live
		// instance rather than the starting foreground's list.
		r.startTask(fg, task, st.Work, func() {
			acts := r.proc.Thread().Activities()
			tokens := make([]int, 0, len(acts))
			for tok := range acts {
				tokens = append(tokens, tok)
			}
			sort.Ints(tokens)
			for _, tok := range tokens {
				for _, d := range acts[tok].Dialogs() {
					if d.Showing() {
						d.Dismiss()
					}
				}
			}
		})
	case StepTouch:
		// The callback writes to the views of the instance that started
		// the task, wherever the foreground went since.
		views := make([]view.View, 0, st.N)
		for k := 0; k < st.N; k++ {
			switch v := fg.FindViewByID(st.ID + view.ID(k)).(type) {
			case *view.ImageView, textSetter:
				views = append(views, v)
			}
		}
		text := st.Text
		r.startTask(fg, task, st.Work, func() {
			for _, v := range views {
				if iv, ok := v.(*view.ImageView); ok {
					iv.SetDrawable(text)
				} else {
					v.(textSetter).SetText(text)
				}
			}
		})
	}
}

// startTask starts async task number task on fg and records its start
// and each delivery of its result.
func (r *runner) startTask(fg *app.Activity, task int, work time.Duration, done func()) {
	k, kills := len(r.res.Tasks), r.res.Kills
	r.res.Tasks = append(r.res.Tasks, Task{Index: task})
	fg.StartAsyncTask(taskName(task), work, func() {
		if r.res.Kills == kills {
			r.res.Tasks[k].Delivered++
		}
		done()
	})
}

// expect sets f in the expectation.
func (r *runner) expect(f Field) {
	if j := fieldIndex(r.expected, f.Name); j >= 0 {
		r.expected[j] = f
	} else {
		r.expected = append(r.expected, f)
	}
}

// kill crashes the process, relaunches it with the system-held stock
// bundle and rebases the expected state on what actually survived.
// Saved-bucket fields the bundle failed to carry are recorded as
// KillLosses before the rebase. The killed process's async tasks are
// cleared: their results can no longer arrive.
func (r *runner) kill() {
	var saved *bundle.Bundle
	if fg := r.fg(); fg != nil {
		saved = fg.SaveInstanceStateStock()
	}
	killState := "<none>"
	if saved != nil {
		killState = saved.String()
	}
	r.res.KillStates = append(r.res.KillStates, killState)
	r.plan.Note(chaos.PointProcess, "kill", "kill process (scripted)")
	r.proc.Crash(chaos.ErrKilled)
	r.res.Kills++
	r.res.Tasks = r.res.Tasks[:0]
	r.proc = r.w.Launch(r.proc.App(), saved, r.relaunch)
	r.w.Sched.Advance(2 * time.Second)
	fg := r.fg()
	if fg == nil {
		return
	}
	relaunched := r.sc.Probe(fg, r.after[:0])
	r.after = relaunched
	if saved != nil {
		for _, want := range r.expected {
			if !want.Saved {
				continue
			}
			if j := fieldIndex(relaunched, want.Name); j >= 0 && relaunched[j].Value != want.Value {
				r.res.KillLosses = append(r.res.KillLosses, Loss{
					Field: want.Name, Bucket: want.Bucket(),
					Expected: want.Value, Actual: relaunched[j].Value,
				})
			}
		}
		slices.SortFunc(r.res.KillLosses, func(a, b Loss) int { return strings.Compare(a.Field, b.Field) })
	}
	// Unsaved state died with the process on both handlers; the rest of
	// the run expects what the relaunch restored.
	r.expected = append(r.expected[:0], relaunched...)
}

// fieldIndex returns the index of the field named name in fs, or -1.
func fieldIndex(fs []Field, name string) int {
	for j := range fs {
		if fs[j].Name == name {
			return j
		}
	}
	return -1
}

// changed reports whether f differs from its namesake in before: a new
// value, or a field the before-probe lacked.
func changed(before []Field, f Field) bool {
	j := fieldIndex(before, f.Name)
	return j < 0 || before[j].Value != f.Value
}
