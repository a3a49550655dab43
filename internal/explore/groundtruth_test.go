package explore

import (
	"strings"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/chaos"
	"rchdroid/internal/config"
	"rchdroid/internal/core"
	"rchdroid/internal/oracle"
	"rchdroid/internal/oracle/corpus"
	"rchdroid/internal/view"
)

// seekResetHandler wraps RCHDroid's change handler and resets the
// editor's SeekBar on the first runtime change it handles: a loss at one
// change that nothing repairs later.
type seekResetHandler struct {
	app.ChangeHandler
	fired *bool
}

func (h seekResetHandler) HandleRuntimeChange(t *app.ActivityThread, a *app.Activity, newCfg config.Configuration) {
	if !*h.fired {
		*h.fired = true
		if sb, ok := a.FindViewByID(corpus.EditorSeek).(*view.SeekBar); ok {
			sb.SetProgress(0)
		}
	}
	h.ChangeHandler.HandleRuntimeChange(t, a, newCfg)
}

// doubleRotationIndex is schedule s's index in double-rotation's
// depth-1 space.
func doubleRotationIndex(t *testing.T, s string) (corpus.Scenario, Space, uint64) {
	t.Helper()
	sc, ok := corpus.ByName("double-rotation")
	if !ok {
		t.Fatal("corpus lost double-rotation")
	}
	sp := SpaceFor(&sc, 1)
	sched, err := sp.ParseSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := sp.IndexOf(sched)
	if !ok {
		t.Fatalf("%s is outside the depth-1 space", s)
	}
	return sc, sp, idx
}

// TestLaterStepKeepsEarlierLoss: a handler that zeroes the SeekBar at
// the first change loses the user's volume of 40. In double-rotation
// [e3:config] that change is the injected rotation right after the seek
// step, and the select step that follows leaves the SeekBar alone, so
// it must not re-read the zero into the expectation. A judge that
// re-probes every field after every step passes this run.
func TestLaterStepKeepsEarlierLoss(t *testing.T) {
	sc, sp, idx := doubleRotationIndex(t, "[e3:config]")
	inst := oracle.Installer{
		Name: "RCHDroid-seekreset",
		Install: func(sys *atms.ATMS, proc *app.Process, plan *chaos.Plan) {
			opts := core.DefaultOptions()
			opts.Chaos = plan
			core.Install(sys, proc, opts)
			proc.Thread().SetChangeHandler(seekResetHandler{proc.Thread().Handler(), new(bool)})
		},
	}
	v := RunIndexWith(&sc, sp, idx, inst)
	if v.OK() {
		t.Fatalf("a handler that resets the SeekBar passed:\n%s", v.String())
	}
	want := `Editor.volume [view/unsaved]: want "40", got "0"`
	if !strings.Contains(strings.Join(v.Failures, "\n"), want) {
		t.Fatalf("failures do not name the lost volume (%s):\n%s", want, v.String())
	}
}

// TestBumpFlagsCorruptedCounter: the RCHDroid arm's saved counter turns
// into a string 100 ms into double-rotation's empty schedule, before
// the script bumps it. The bump must report the corruption rather than
// read it as 0 and write a plausible 1.
func TestBumpFlagsCorruptedCounter(t *testing.T) {
	sc, sp, idx := doubleRotationIndex(t, "[]")
	inst := oracle.Installer{
		Name: "RCHDroid-corrupt",
		Install: func(sys *atms.ATMS, proc *app.Process, plan *chaos.Plan) {
			opts := core.DefaultOptions()
			opts.Chaos = plan
			core.Install(sys, proc, opts)
			proc.Scheduler().After(100*time.Millisecond, "corruptNotes", func() {
				if fg := proc.Thread().ForegroundActivity(); fg != nil {
					fg.PutExtra(corpus.SavedKey, "not-an-int64")
				}
			})
		},
	}
	v := RunIndexWith(&sc, sp, idx, inst)
	if v.OK() {
		t.Fatalf("a corrupted counter passed:\n%s", v.String())
	}
	if !strings.Contains(strings.Join(v.Failures, "\n"), "counter extra absent/mistyped") {
		t.Fatalf("failures do not flag the corrupted counter:\n%s", v.String())
	}
}
