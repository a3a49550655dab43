package monkey

import (
	"errors"
	"fmt"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/appset"
	"rchdroid/internal/chaos"
	"rchdroid/internal/core"
	"rchdroid/internal/device"
	"rchdroid/internal/oracle"
)

// StressOptions tune a monkey×chaos stress run.
type StressOptions struct {
	// Chunks is how many monkey bursts to run (default 8); between
	// chunks the chaos plan may kill or trim the process.
	Chunks int
	// EventsPerChunk is the monkey budget per burst (default 12).
	EventsPerChunk int
}

// StressResult is the outcome of one seeded monkey×chaos stress run.
// Everything in it derives from the seed and the virtual clock, so two
// runs of the same seed are identical.
type StressResult struct {
	Model    string
	Seed     uint64
	Events   int
	Changes  int
	Kills    int
	Trims    int
	Failures []string
}

// OK reports whether the run survived with no contract violation.
func (r StressResult) OK() bool { return len(r.Failures) == 0 }

// Summary renders the deterministic one-line outcome.
func (r StressResult) Summary() string {
	return fmt.Sprintf("seed=%d model=%s events=%d changes=%d kills=%d trims=%d",
		r.Seed, r.Model, r.Events, r.Changes, r.Kills, r.Trims)
}

// Stress drives one app model under RCHDroid with the Heavy chaos
// preset while the monkey injects events, and between event chunks the
// chaos plan may kill the process (rebooted with RCHDroid reinstalled,
// like a real low-memory kill) or deliver a memory trim. The assertions
// are survival ones: no handler panic, no lifecycle-invariant
// violation, and no crash the plan did not inject itself. This is the
// library form of the TP-27 stress test, shared with the sweep engine.
func Stress(m appset.Model, seed uint64, opts StressOptions) StressResult {
	if opts.Chunks <= 0 {
		opts.Chunks = 8
	}
	if opts.EventsPerChunk <= 0 {
		opts.EventsPerChunk = 12
	}
	res := StressResult{Model: m.Name, Seed: seed}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	var plan *chaos.Plan
	var w *device.World
	// install arms chaos and RCHDroid on a process: at the post-settle
	// point on first boot, and before the launch on each relaunch — the
	// same points a real device arms them.
	install := func(p *app.Process) {
		coreOpts := core.DefaultOptions()
		coreOpts.Chaos = plan
		core.Install(w.Sys, p, coreOpts)
		plan.Install(w.Sys, p)
	}
	device.New(device.Spec{App: m.Build}, seed, func(dw *device.World) {
		w = dw
		plan = chaos.NewPlan(seed^0xC0FFEE, chaos.Heavy())
		plan.BindClock(dw.Sched)
		install(dw.Proc)
	})
	sched, sys, proc := w.Sched, w.Sys, w.Proc

	invCfg := oracle.InvariantConfig{CheckMemoryFloor: true}
	for chunk := 0; chunk < opts.Chunks; chunk++ {
		out := Run(sched, sys, proc, Options{
			Events:     opts.EventsPerChunk,
			Seed:       seed*1000 + uint64(chunk),
			ChangeBias: 35,
		})
		res.Events += out.EventsInjected
		res.Changes += out.ChangesInjected
		if out.Crashed {
			fail("chunk %d: app crashed under chaos: %v", chunk, out.CrashCause)
			return res
		}
		if errs := oracle.CheckInvariants([]*app.Process{proc}, invCfg); len(errs) > 0 {
			fail("chunk %d: invariant violated: %v", chunk, errs[0])
			return res
		}
		switch plan.NextProcessEvent() {
		case chaos.ProcKill:
			res.Kills++
			proc.Crash(chaos.ErrKilled)
			if !errors.Is(proc.CrashCause(), chaos.ErrKilled) {
				fail("chunk %d: kill cause lost: %v", chunk, proc.CrashCause())
				return res
			}
			// The user reopens the app after the LMK kill (cold start: the
			// monkey run holds no instance state worth restoring).
			proc = w.Launch(w.Proc.App(), nil, install)
			sched.Advance(2 * time.Second)
		case chaos.ProcTrim:
			res.Trims++
			proc.TrimMemory()
			sched.Advance(500 * time.Millisecond)
		}
	}
	// Drain and final check on the surviving process.
	sched.Advance(5 * time.Second)
	for _, err := range oracle.CheckInvariants([]*app.Process{proc}, invCfg) {
		fail("final: invariant violated: %v", err)
	}
	return res
}
