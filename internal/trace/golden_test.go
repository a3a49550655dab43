package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/chaos"
	"rchdroid/internal/core"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/logcat"
	"rchdroid/internal/looper"
	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
)

// runChaoticScenario boots the full stack — system server, benchmark
// app, RCHDroid, a seeded chaos plan, logcat — with every layer wired
// to one tracer, runs a touch plus three rotations, and returns the
// tracer and the app's UI track. This is the rchsim -trace pipeline as
// a library call.
func runChaoticScenario(t *testing.T, seed uint64) (*trace.Tracer, trace.TrackID) {
	t.Helper()
	sched := sim.NewScheduler()
	tracer := trace.New(sched)
	model := costmodel.Default()
	sys := atms.New(sched, model)
	sys.SetTracer(tracer)
	lc := logcat.New(sched, 256)
	lc.SetTracer(tracer)
	sys.SetLogcat(lc)
	proc := app.NewProcess(sched, model, benchapp.New(benchapp.Config{
		Images:    4,
		TaskDelay: 400 * time.Millisecond,
	}))
	proc.SetTracer(tracer)
	plan := chaos.NewPlan(seed, chaos.Light())
	plan.BindClock(sched)
	plan.SetTracer(tracer)
	opts := core.DefaultOptions()
	opts.Chaos = plan
	core.Install(sys, proc, opts)
	plan.Install(sys, proc)

	sys.LaunchApp(proc)
	sched.Advance(2 * time.Second)
	benchapp.TouchButton(proc)
	sched.Advance(50 * time.Millisecond)
	for i := 0; i < 3; i++ {
		sys.PushConfiguration(sys.GlobalConfig().Rotated())
		sched.Advance(2 * time.Second)
	}
	if proc.Crashed() {
		t.Fatalf("seed %d: RCHDroid run crashed: %v", seed, proc.CrashCause())
	}
	return proc.Thread().Trace()
}

// TestGoldenTraceDeterminism is the determinism contract: two runs of
// the same scenario under the same chaos seed must export byte-identical
// trace JSON, and the trace must carry every event class the acceptance
// criteria name — looper dispatch spans, all core lifecycle phases, a
// coin-flip decision and the injected chaos — on one shared timeline.
func TestGoldenTraceDeterminism(t *testing.T) {
	const seed = 7
	a, ui := runChaoticScenario(t, seed)
	b, _ := runChaoticScenario(t, seed)

	var ja, jb bytes.Buffer
	if err := a.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatalf("same seed, different traces: %d vs %d bytes", ja.Len(), jb.Len())
	}
	if !json.Valid(ja.Bytes()) {
		t.Fatal("export is not valid JSON")
	}

	spanNames := map[string]bool{}
	var coinFlips, chaosEvents, looperSpans int
	var handlingOpen, handlingClosed int
	for _, e := range looper.Work(a, ui) {
		if e.Ph == trace.PhaseComplete {
			looperSpans++
		}
	}
	for _, e := range a.Events() {
		switch e.Ph {
		case trace.PhaseComplete:
			spanNames[e.Name] = true
		case trace.PhaseInstant:
			if e.Name == "coinFlip" {
				coinFlips++
			}
			if e.Cat == "chaos" {
				chaosEvents++
			}
		case trace.PhaseAsyncBegin:
			handlingOpen++
		case trace.PhaseAsyncEnd:
			handlingClosed++
		}
	}
	if looperSpans == 0 {
		t.Error("no looper dispatch spans")
	}
	// The core lifecycle: pause-free launch phases plus every RCHDroid
	// handling phase of the flip and init paths.
	for _, phase := range []string{
		"launch:create", "launch:restore", "launch:resume",
		"rch:enterShadow", "rch:buildMapping",
		"rch:enterShadow(flip)", "rch:flip", "rch:flipResume",
	} {
		if !spanNames[phase] {
			t.Errorf("lifecycle phase %q missing from trace", phase)
		}
	}
	if coinFlips == 0 {
		t.Error("no coin-flip decision instants")
	}
	if chaosEvents == 0 {
		t.Error("no chaos injection instants (seed 7 injects under Light)")
	}
	if handlingOpen == 0 || handlingOpen != handlingClosed {
		t.Errorf("runtime-change async spans unbalanced: %d open, %d closed",
			handlingOpen, handlingClosed)
	}
}

// TestOracleRingTraceDeterminism checks the failure-dump path: a bounded
// ring tracer over the same seeded run twice yields identical JSON even
// after the ring has discarded history.
func TestOracleRingTraceDeterminism(t *testing.T) {
	run := func() []byte {
		sched := sim.NewScheduler()
		tracer := trace.NewRing(sched, 64)
		sys := atms.New(sched, costmodel.Default())
		sys.SetTracer(tracer)
		proc := app.NewProcess(sched, costmodel.Default(), benchapp.New(benchapp.Config{Images: 2}))
		proc.SetTracer(tracer)
		core.Install(sys, proc, core.DefaultOptions())
		sys.LaunchApp(proc)
		sched.Advance(2 * time.Second)
		for i := 0; i < 4; i++ {
			sys.PushConfiguration(sys.GlobalConfig().Rotated())
			sched.Advance(2 * time.Second)
		}
		raw, err := tracer.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if tracer.Dropped() == 0 {
			t.Fatal("scenario too small to exercise the ring bound")
		}
		return raw
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("ring traces differ: %d vs %d bytes", len(a), len(b))
	}
}
