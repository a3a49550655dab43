package device_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/bundle"
	"rchdroid/internal/chaos"
	"rchdroid/internal/device"
	"rchdroid/internal/oracle"
	"rchdroid/internal/sim"
	"rchdroid/internal/view"
)

// forkSpec is the oracle app every fork test builds worlds from — a
// full view tree with loaded images and list state, and (unlike the
// interactive benchmark app, whose button click handler closes over its
// world and is rightly rejected by the clone) nothing that entangles
// the settled world with its environment.
func forkSpec() device.Spec {
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

// TestForkIsolation pins the copy-on-fork contract: running one fork is
// invisible to its siblings and to the template.
func TestForkIsolation(t *testing.T) {
	tpl, err := device.NewTemplate(forkSpec())
	if err != nil {
		t.Fatalf("oracle app must be forkable: %v", err)
	}
	a, err := tpl.Fork(1, nil)
	if err != nil {
		t.Fatalf("fork a: %v", err)
	}
	b, err := tpl.Fork(2, nil)
	if err != nil {
		t.Fatalf("fork b: %v", err)
	}
	before := fingerprint(b)
	if got := fingerprint(a); got != before {
		t.Fatalf("two unarmed forks differ before any run:\n%s\nvs\n%s", got, before)
	}

	// Run fork a hard: put an async task in flight, rotate three times.
	a.Proc.StartAsyncTask(a.Proc.Thread().ForegroundActivity(), "probe", 400*time.Millisecond, func() {})
	a.Sched.Advance(50 * time.Millisecond)
	for i := 0; i < 3; i++ {
		rotate(a)
	}
	if got := fingerprint(b); got != before {
		t.Errorf("running fork a mutated sibling b:\n%s\nvs\n%s", got, before)
	}
	// The template is untouched iff a post-run fork still opens at the
	// pre-run state.
	c, err := tpl.Fork(3, nil)
	if err != nil {
		t.Fatalf("fork c: %v", err)
	}
	if got := fingerprint(c); got != before {
		t.Errorf("running fork a mutated the template (fresh fork differs):\n%s\nvs\n%s", got, before)
	}
}

// TestForkDeterminism pins replayability: forking the same seed twice
// and driving the same chaos yields byte-identical histories.
func TestForkDeterminism(t *testing.T) {
	tpl, err := device.NewTemplate(forkSpec())
	if err != nil {
		t.Fatalf("template: %v", err)
	}
	run := func(seed uint64) string {
		var plan *chaos.Plan
		w, err := tpl.Fork(seed, func(w *device.World) {
			plan = chaos.NewPlan(seed, chaos.Light())
			plan.BindClock(w.Sched)
			plan.Install(w.Sys, w.Proc)
		})
		if err != nil {
			t.Fatalf("fork seed %d: %v", seed, err)
		}
		for i := 0; i < 3 && !w.Proc.Crashed(); i++ {
			rotate(w)
		}
		return fmt.Sprintf("%sinjections=%d dropped=%d\n", fingerprint(w), len(plan.Injections()), plan.TotalAsyncDropped())
	}
	if a, b := run(7), run(7); a != b {
		t.Errorf("same seed, same template, different history:\n%s\nvs\n%s", a, b)
	}
}

// TestForkMatchesFresh pins the core soundness claim: a forked world is
// indistinguishable from a freshly built one — same arming point, same
// event order, same chaos stream, same end state.
func TestForkMatchesFresh(t *testing.T) {
	tpl, err := device.NewTemplate(forkSpec())
	if err != nil {
		t.Fatalf("template: %v", err)
	}
	run := func(build func(seed uint64, arm device.ArmFunc) *device.World, seed uint64) string {
		var plan *chaos.Plan
		w := build(seed, func(w *device.World) {
			plan = chaos.NewPlan(seed, chaos.Light())
			plan.BindClock(w.Sched)
			plan.Install(w.Sys, w.Proc)
		})
		for i := 0; i < 3 && !w.Proc.Crashed(); i++ {
			rotate(w)
		}
		return fmt.Sprintf("%sinjections=%d dropped=%d\n", fingerprint(w), len(plan.Injections()), plan.TotalAsyncDropped())
	}
	fresh := func(seed uint64, arm device.ArmFunc) *device.World {
		return device.New(forkSpec(), seed, arm)
	}
	forked := func(seed uint64, arm device.ArmFunc) *device.World {
		w, err := tpl.Fork(seed, arm)
		if err != nil {
			t.Fatalf("fork seed %d: %v", seed, err)
		}
		return w
	}
	for seed := uint64(1); seed <= 8; seed++ {
		if a, b := run(fresh, seed), run(forked, seed); a != b {
			t.Errorf("seed %d: fork diverged from fresh build:\n%s\nvs\n%s", seed, a, b)
		}
	}
}

// TestProfiledWorldIsNotForkable pins the profiler's two contracts: a
// profiled world has its meters from boot, so the memory series starts at
// t=0, and it cannot be forked, since the fork carries no meters. A busy
// log, which hangs off the same looper observer, is refused the same way.
func TestProfiledWorldIsNotForkable(t *testing.T) {
	spec := forkSpec()
	spec.Profile = true
	w := device.New(spec, 0, nil)
	if w.Proc.CPU() == nil {
		t.Fatal("profiled world has no CPU meter")
	}
	if pts := w.Proc.Memory().TraceSeries().Points; len(pts) < 2 || pts[0].At != 0 {
		t.Fatalf("memory series does not start at boot: %v", pts)
	}
	if _, err := device.NewTemplate(spec); err == nil || !strings.Contains(err.Error(), "profiled") {
		t.Fatalf("template of a profiled spec: err = %v, want a refusal naming the profiler", err)
	}
	plain := device.New(forkSpec(), 0, nil)
	if plain.Proc.CPU() != nil || len(plain.Proc.Memory().TraceSeries().Points) != 0 {
		t.Fatal("unprofiled world carries profiler meters")
	}
	plain.Proc.EnableBusyLog()
	sched, err := plain.Sched.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.ForkProcess(plain.Proc, sched); err == nil || !strings.Contains(err.Error(), "busy log") {
		t.Fatalf("fork of a busy-logging process: err = %v, want a refusal", err)
	}
}

// TestTemplateCacheFallback pins the cache's honesty: a key is built
// once, and a second key with the same spec shares nothing with it.
func TestTemplateCacheFallback(t *testing.T) {
	c := device.NewTemplateCache()
	a := c.Fork("bench", forkSpec(), 1, nil)
	b := c.Fork("bench", forkSpec(), 2, nil)
	if a.Sched == b.Sched || a.Proc == b.Proc {
		t.Fatal("two forks of one key share mutable state")
	}
	rotate(a)
	if got, want := fingerprint(b), fingerprint(c.Fork("bench", forkSpec(), 3, nil)); got != want {
		t.Errorf("cache forks not isolated:\n%s\nvs\n%s", got, want)
	}
}

// TestTemplateCacheConcurrent hammers one cache from many goroutines —
// forkable and unforkable keys interleaved — under the contract the
// serve shards rely on: exactly one template build per forkable key
// (concurrent same-key callers wait, they never build twice), fresh
// builds for unforkable keys, every returned world isolated, and no
// data races (this test is the -race gate for the cache).
func TestTemplateCacheConcurrent(t *testing.T) {
	var forkableBuilds, unforkableBuilds atomic.Int64
	forkable := device.Spec{App: func() *app.App {
		forkableBuilds.Add(1)
		return oracle.OracleApp(2)
	}}
	// An extra holding a func makes the spec unforkable: the trial fork
	// rejects the deep copy, so every world must be built fresh.
	unforkable := device.Spec{App: func() *app.App {
		unforkableBuilds.Add(1)
		a := oracle.OracleApp(2)
		base := a.Main.Callbacks.OnCreate
		a.Main.Callbacks.OnCreate = func(act *app.Activity, saved *bundle.Bundle) {
			base(act, saved)
			act.PutExtra("hook", func() {})
		}
		return a
	}}

	const goroutines, perG = 8, 4
	worlds := make([]*device.World, goroutines*perG)
	c := device.NewTemplateCache()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				seed := uint64(g*perG + i + 1)
				var w *device.World
				if g%2 == 0 {
					w = c.Fork("forkable", forkable, seed, nil)
				} else {
					w = c.Fork("unforkable", unforkable, seed, nil)
				}
				worlds[g*perG+i] = w
			}
		}(g)
	}
	wg.Wait()

	// One build for the template (spec.App runs once per build); every
	// fork shares it. Duplicate builds mean the once gate raced.
	if n := forkableBuilds.Load(); n != 1 {
		t.Errorf("forkable key built %d templates, want exactly 1", n)
	}
	// Unforkable: one failed template build plus one fresh build per
	// world.
	if n, want := unforkableBuilds.Load(), int64(1+goroutines/2*perG); n != want {
		t.Errorf("unforkable key ran the app factory %d times, want %d", n, want)
	}
	seen := make(map[*sim.Scheduler]bool)
	for i, w := range worlds {
		if w == nil || w.Proc.Crashed() || w.Proc.Thread().ForegroundActivity() == nil {
			t.Fatalf("world %d not settled", i)
		}
		if seen[w.Sched] {
			t.Fatalf("world %d shares a scheduler with another world", i)
		}
		seen[w.Sched] = true
	}
}
