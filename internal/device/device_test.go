package device_test

import (
	"fmt"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/chaos"
	"rchdroid/internal/device"
	"rchdroid/internal/looper"
	"rchdroid/internal/oracle"
	"rchdroid/internal/view"
)

// probeSpec is the oracle app the tests build worlds from: a full view
// tree with loaded images and list state.
func probeSpec() device.Spec {
	return device.Spec{App: func() *app.App {
		return oracle.OracleApp(4)
	}}
}

// fingerprint folds everything observable about a world into one string:
// sim clock, stack dump, foreground view tree, memory, crash state. Two
// worlds with equal fingerprints went through the same history.
func fingerprint(w *device.World) string {
	s := fmt.Sprintf("now=%v crashed=%v mem=%.4f\n", w.Sched.Now(), w.Proc.Crashed(), w.Proc.Memory().CurrentMB())
	s += w.Sys.DumpStack()
	if fg := w.Proc.Thread().ForegroundActivity(); fg != nil {
		s += view.Dump(fg.Decor())
	}
	return s
}

// rotate drives one runtime change through the world and settles it.
func rotate(w *device.World) {
	w.Sys.PushConfiguration(w.Sys.GlobalConfig().Rotated())
	w.Sched.Advance(2 * time.Second)
}

// TestNewDeterministic pins replayability: two fresh builds on the same
// seed, armed with the same chaos plan and driven the same way, end in
// byte-identical histories.
func TestNewDeterministic(t *testing.T) {
	run := func(seed uint64) string {
		var plan *chaos.Plan
		w := device.New(probeSpec(), seed, func(w *device.World) {
			plan = chaos.NewPlan(seed, chaos.Light())
			plan.BindClock(w.Sched)
			plan.Install(w.Sys, w.Proc)
		})
		for i := 0; i < 3 && !w.Proc.Crashed(); i++ {
			rotate(w)
		}
		return fmt.Sprintf("%sinjections=%d dropped=%d\n", fingerprint(w), len(plan.Injections()), plan.TotalAsyncDropped())
	}
	if a, b := run(7), run(7); a != b {
		t.Errorf("same seed, same plan, different history:\n%s\nvs\n%s", a, b)
	}
}

// TestProfiledWorldMetersFromBoot pins the profiler's contract: a
// profiled world records from boot, so its UI-thread work starts with
// the cold launch's transaction and its memory series at t=0, and an
// unprofiled world records neither.
func TestProfiledWorldMetersFromBoot(t *testing.T) {
	spec := probeSpec()
	spec.Profile = true
	w := device.New(spec, 0, nil)
	if work := looper.Work(w.Proc.Thread().Trace()); len(work) == 0 || work[0].Name != "binder:oracleapp:scheduleLaunch" {
		t.Fatalf("UI-thread work does not start at boot: %+v", work)
	}
	if pts := w.Proc.Memory().TraceSeries().Points; len(pts) < 2 || pts[0].At != 0 {
		t.Fatalf("memory series does not start at boot: %v", pts)
	}
	plain := device.New(probeSpec(), 0, nil)
	if tr, _ := plain.Proc.Thread().Trace(); tr != nil || len(plain.Proc.Memory().TraceSeries().Points) != 0 {
		t.Fatal("unprofiled world carries profiler records")
	}
}
