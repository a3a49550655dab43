package explore

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/bundle"
	"rchdroid/internal/chaos"
	"rchdroid/internal/config"
	"rchdroid/internal/device"
	"rchdroid/internal/oracle"
	"rchdroid/internal/oracle/corpus"
	"rchdroid/internal/view"
)

// RunResult is one scenario run under one handler and one schedule. Its
// Essence also carries the final instance's applied configuration.
//
// A RunResult is read-only once runScenario returns it: Explore shares
// one stock run among every schedule with the same stock view, so its
// slices may back several verdicts at once.
type RunResult struct {
	oracle.Arm
	// Losses classifies every divergence between the accumulated ground
	// truth (probe fields recorded at application time) and the final
	// foreground probe into the DLD taxonomy.
	Losses []oracle.Loss
	// KillLosses are saved-bucket fields a captured system bundle failed
	// to carry across a kill — the save/restore contract itself broke.
	KillLosses []oracle.Loss
	// KillStates are the rendered bundles captured at each kill, in
	// order; runs whose kills captured different state are not
	// essence-comparable.
	KillStates []string
	Kills      int
}

// invariantsFor builds the sampling config from the scenario's declared
// instance bound.
func invariantsFor(sc *corpus.Scenario) oracle.InvariantConfig {
	max := sc.MaxInstances
	if max <= 0 {
		max = 3
	}
	return oracle.InvariantConfig{
		MaxInstancesPerProcess: max,
		CheckMemoryFloor:       true,
		MaxVisible:             sc.MaxVisible,
	}
}

// fieldPrefix maps an activity class name to its probe-field prefix
// ("ComposeActivity" probes as "Compose.*").
func fieldPrefix(className string) string {
	return strings.TrimSuffix(className, "Activity") + "."
}

// runScenario executes one scenario under inst with the schedule's
// fault actions injected at their edges. Everything is scripted — the
// chaos plan starts with zero rates, so the run is a pure function of
// (scenario, schedule, installer). The world is forked from forker's
// per-scenario template when one is supplied (the scripted plan consumes
// no randomness before the first step, so the fork's post-settle arming
// point is behaviorally identical to a fresh build) and built from spec
// otherwise.
func runScenario(sc *corpus.Scenario, spec device.Spec, sched Schedule, inst oracle.Installer, forker *device.TemplateCache) RunResult {
	res := RunResult{Arm: oracle.Arm{Name: inst.Name}}
	var plan *chaos.Plan
	var w *device.World
	install := func(p *app.Process) {
		if inst.Install != nil {
			inst.Install(w.Sys, p, plan)
		}
		plan.Install(w.Sys, p)
	}
	arm := func(dw *device.World) {
		w = dw
		plan = chaos.NewScripted()
		plan.BindClock(dw.Sched)
		install(dw.Proc)
	}
	if forker != nil {
		forker.Fork("scenario:"+sc.Name, spec, 0, arm)
	} else {
		device.New(spec, 0, arm)
	}
	clock, sys, proc := w.Sched, w.Sys, w.Proc

	invCfg := invariantsFor(sc)
	expected := make(map[string]oracle.Field, 8)
	mergeProbe := func(fg *app.Activity) {
		for _, f := range sc.Probe(fg) {
			expected[f.Name] = f
		}
	}
	if fg := proc.Thread().ForegroundActivity(); fg != nil {
		mergeProbe(fg)
	}

	// ui posts a step onto the app's UI looper; it runs at a quiescent
	// point, applies the interaction to the live foreground instance and
	// re-probes it, so expectations always reflect state the app really
	// reached. The step's Expect overrides merge inside the same closure,
	// after the probe: a looper stalled by an injected fault can run the
	// step arbitrarily late, and the override must still win over the
	// probe it corrects.
	ui := func(name string, expect []oracle.Field, fn func(fg *app.Activity)) {
		proc.PostApp(name, time.Millisecond, func() {
			fg := proc.Thread().ForegroundActivity()
			if fg == nil {
				return
			}
			res.Applied++
			fn(fg)
			mergeProbe(fg)
			for _, f := range expect {
				expected[f.Name] = f
			}
		})
	}

	asyncDrain := sc.AsyncDrain
	if asyncDrain <= 0 {
		asyncDrain = time.Second
	}

	// kill crashes the process, relaunches it with the system-held stock
	// bundle and rebases the expected state on what actually survived.
	// Saved-bucket fields the bundle failed to carry are recorded as
	// KillLosses before the rebase.
	kill := func() {
		var saved *bundle.Bundle
		if fg := proc.Thread().ForegroundActivity(); fg != nil {
			saved = fg.SaveInstanceStateStock()
		}
		killState := "<none>"
		if saved != nil {
			killState = saved.String()
		}
		res.KillStates = append(res.KillStates, killState)
		plan.Note(chaos.PointProcess, "kill", "kill process (scripted)")
		proc.Crash(chaos.ErrKilled)
		res.Kills++
		proc = w.Relaunch(saved, install)
		clock.Advance(2 * time.Second)
		fg := proc.Thread().ForegroundActivity()
		if fg == nil {
			return
		}
		relaunched := sc.Probe(fg)
		if saved != nil {
			got := make(map[string]oracle.Field, len(relaunched))
			for _, f := range relaunched {
				got[f.Name] = f
			}
			for _, want := range expected {
				if !want.Saved {
					continue
				}
				if have, ok := got[want.Name]; ok && have.Value != want.Value {
					res.KillLosses = append(res.KillLosses, oracle.Loss{
						Field: want.Name, Bucket: want.Bucket(),
						Expected: want.Value, Actual: have.Value,
					})
				}
			}
			slices.SortFunc(res.KillLosses, func(a, b oracle.Loss) int { return strings.Compare(a.Field, b.Field) })
		}
		// Unsaved state died with the process on both handlers; the rest
		// of the run expects what the relaunch restored.
		expected = make(map[string]oracle.Field, len(relaunched))
		for _, f := range relaunched {
			expected[f.Name] = f
		}
	}

	crashed := func() bool {
		if proc.Crashed() && !res.Crashed {
			res.Crashed = true
			res.CrashCause = fmt.Sprint(proc.CrashCause())
		}
		return res.Crashed
	}

steps:
	for i, st := range sc.Steps {
		switch st.Kind {
		case corpus.StepType:
			text, id := st.Text, st.ID
			ui("corpus:type", st.Expect, func(fg *app.Activity) {
				if et, ok := fg.FindViewByID(id).(*view.EditText); ok {
					et.Type(text)
				}
			})
		case corpus.StepSetText:
			text, id := st.Text, st.ID
			ui("corpus:setText", st.Expect, func(fg *app.Activity) {
				type textSetter interface{ SetText(string) }
				if tv, ok := fg.FindViewByID(id).(textSetter); ok {
					tv.SetText(text)
				}
			})
		case corpus.StepCheck:
			id := st.ID
			ui("corpus:check", st.Expect, func(fg *app.Activity) {
				if cb, ok := fg.FindViewByID(id).(*view.CheckBox); ok {
					cb.SetChecked(!cb.Checked())
				}
			})
		case corpus.StepSeek:
			id, n := st.ID, st.N
			ui("corpus:seek", st.Expect, func(fg *app.Activity) {
				if sb, ok := fg.FindViewByID(id).(*view.SeekBar); ok {
					sb.SetProgress(n)
				}
			})
		case corpus.StepSelect:
			id, n := st.ID, st.N
			ui("corpus:select", st.Expect, func(fg *app.Activity) {
				if lv, ok := fg.FindViewByID(id).(*view.ListView); ok {
					lv.PositionSelector(n)
				}
			})
		case corpus.StepBumpSaved:
			ui("corpus:bumpSaved", st.Expect, func(fg *app.Activity) {
				c, _ := fg.Extra(corpus.SavedKey).(int64)
				fg.PutExtra(corpus.SavedKey, c+1)
			})
		case corpus.StepBumpUnsaved:
			ui("corpus:bumpUnsaved", st.Expect, func(fg *app.Activity) {
				c, _ := fg.Extra(corpus.DraftKey).(int64)
				fg.PutExtra(corpus.DraftKey, c+1)
			})
		case corpus.StepRotate:
			sys.PushConfiguration(sys.GlobalConfig().Rotated())
		case corpus.StepNight:
			cfg := sys.GlobalConfig()
			if cfg.UIMode == config.UIModeNight {
				cfg = cfg.WithUIMode(config.UIModeDay)
			} else {
				cfg = cfg.WithUIMode(config.UIModeNight)
			}
			sys.PushConfiguration(cfg)
		case corpus.StepBack:
			if fg := proc.Thread().ForegroundActivity(); fg != nil {
				prefix := fieldPrefix(fg.Class().Name)
				for name := range expected {
					if strings.HasPrefix(name, prefix) {
						delete(expected, name)
					}
				}
			}
			sys.FinishTopActivity()
		case corpus.StepStart:
			class := st.Class
			ui("corpus:start", st.Expect, func(fg *app.Activity) { fg.StartActivity(class) })
		case corpus.StepFragment:
			class, tag, id := st.Class, st.Text, st.ID
			ui("corpus:fragment", st.Expect, func(fg *app.Activity) {
				if fc := fg.Class().FragmentClasses[class]; fc != nil {
					fg.Fragments().Add(fc, tag, id)
				}
			})
		case corpus.StepDialog:
			title := st.Text
			ui("corpus:dialog", st.Expect, func(fg *app.Activity) { fg.ShowDialog(title, nil) })
		case corpus.StepAsync:
			work := st.Work
			ui("corpus:async", st.Expect, func(fg *app.Activity) {
				// The completion dismisses whatever dialogs are showing when
				// it fires — the deferred-dismiss pattern that leaks the
				// window when a stock restart destroyed the owner first. An
				// injected change can move the dialog to a different instance
				// between start and completion (RCHDroid's flip re-shows it
				// on the preserved twin), so the completion scans every live
				// instance rather than the starting foreground's list.
				fg.StartAsyncTask("task"+strconv.Itoa(i), work, func() {
					acts := proc.Thread().Activities()
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
			})
		case corpus.StepKill:
			kill()
		case corpus.StepQuarantine:
			if inst.Guard != nil {
				if g := inst.Guard(); g.Enabled() {
					plan.Note(chaos.PointLifecycle, "quarantine", "forced quarantine (scripted)")
					g.Quarantine(st.Class, "scripted: forced by corpus scenario")
				}
			}
		case corpus.StepIdle:
			// the settle below is the step
		}
		clock.Advance(st.Settle)
		for _, f := range st.Expect {
			expected[f.Name] = f
		}
		if crashed() {
			break steps
		}
		res.Sample(proc, invCfg, i, st.Kind.String())
		// Scheduled fault actions at edge i, in canonical action order.
		for _, slot := range sched {
			if slot.Edge != i {
				continue
			}
			switch slot.Action {
			case ActConfig:
				plan.Note(chaos.PointConfig, "configChange", "extra change (scripted)")
				sys.PushConfiguration(sys.GlobalConfig().Rotated())
			case ActAsync:
				plan.Note(chaos.PointAsync, "drain", "forced drain "+asyncDrain.String()+" (scripted)")
				clock.Advance(asyncDrain)
			case ActKill:
				kill()
			case ActFlush:
				plan.AddDirective(chaos.Directive{
					Point: chaos.PointMigration, Label: "flush", Delay: 300 * time.Millisecond,
				})
			}
			if crashed() {
				break steps
			}
		}
	}

	clock.Advance(4 * time.Second)
	crashed()
	var actual []oracle.Field
	if !res.Crashed {
		res.Sample(proc, invCfg, -1, "")
		if fg := proc.Thread().ForegroundActivity(); fg != nil {
			res.Essence = oracle.Essence(fg) + " cfg:" + fg.Config().String()
			actual = sc.Probe(fg)
		} else {
			res.FinalMissing = true
		}
	}
	if !res.Crashed && !res.FinalMissing {
		// ClassifyLoss sorts the losses by field, so neither list needs an
		// order.
		want := make([]oracle.Field, 0, len(expected))
		for _, f := range expected {
			want = append(want, f)
		}
		res.Losses = oracle.ClassifyLoss(want, actual)
	}

	res.Finish(sys, plan, inst)
	return res
}
