package core

import (
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/config"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/looper"
	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
	"rchdroid/internal/view"
)

// runScripted executes a fixed scenario and returns the full event log
// plus the final UI dump — the reproducibility contract: two runs must be
// byte-identical.
func runScripted(t *testing.T) (log []string, dump string, handling []time.Duration) {
	t.Helper()
	sched := sim.NewScheduler()
	recorder := &sim.RecordingTracer{}
	sched.SetTracer(recorder)
	model := costmodel.Default()
	sys := atms.New(sched, model)
	proc := app.NewProcess(sched, model, benchApp(4, 300*time.Millisecond))
	// One tracer records the work of both loopers.
	tr := trace.New(sched)
	sys.SetTracer(tr)
	proc.SetTracer(tr)
	Install(sys, proc, DefaultOptions())
	sys.LaunchApp(proc)
	sched.Advance(time.Second)

	fg := proc.Thread().ForegroundActivity()
	btn := fg.FindViewByID(1).(*view.Button)
	proc.PostApp("tap", time.Millisecond, btn.Click)
	sched.Advance(50 * time.Millisecond)

	sys.PushConfiguration(config.Portrait())
	sched.Advance(2 * time.Second)
	sys.PushConfiguration(config.Default())
	sched.Advance(2 * time.Second)

	// Merge the scheduler's raw events with the message-level work of
	// both loopers; the simulation is single-threaded, so each record is
	// individually deterministic and concatenation preserves that.
	for _, e := range recorder.Entries {
		log = append(log, e.At.String()+" "+e.Name)
	}
	for _, e := range looper.Work(proc.Thread().Trace()) {
		log = append(log, e.TS.String()+" "+e.Name)
	}
	for _, e := range looper.Work(sys.Tracer(), sys.Track()) {
		log = append(log, e.TS.String()+" "+e.Name)
	}
	if s := proc.Thread().CurrentSunny(); s != nil {
		dump = view.Dump(s.Decor())
	}
	return log, dump, sys.HandlingTimes()
}

func TestScenarioIsFullyDeterministic(t *testing.T) {
	t1, d1, h1 := runScripted(t)
	t2, d2, h2 := runScripted(t)
	if len(t1) == 0 || len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace diverges at %d:\n%s\nvs\n%s", i, t1[i], t2[i])
		}
	}
	if d1 != d2 {
		t.Fatalf("final UI dumps differ:\n%s\nvs\n%s", d1, d2)
	}
	if len(h1) != len(h2) {
		t.Fatal("handling counts differ")
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("handling %d: %v vs %v", i, h1[i], h2[i])
		}
	}
}

// TestTraceContainsCausalSkeleton pins the load-bearing event ordering of
// one full RCHDroid handling: config change → enter shadow → sunny start
// request → record decision → launch/flip → resume notification.
func TestTraceContainsCausalSkeleton(t *testing.T) {
	trace, dump, handling := runScripted(t)
	joined := ""
	for _, line := range trace {
		joined += line + "\n"
	}
	// The UI-thread message log preserves phase order within a handling;
	// server-looper events are appended after it, so assert order for the
	// thread phases and presence for the server events.
	threadSkeleton := []string{
		"rch:enterShadow",
		"rch:requestSunny",
		"launch:create",
		"rch:buildMapping",
		"launch:resume",
		"rch:lazyMigrate",
		"rch:enterShadow(flip)",
		"rch:flipResume",
	}
	pos := 0
	for _, want := range threadSkeleton {
		idx := indexFrom(joined, want, pos)
		if idx < 0 {
			t.Fatalf("event %q missing (or out of order) in trace:\n%s", want, joined)
		}
		pos = idx
	}
	for _, want := range []string{"atms:configChange", "atms:startActivity", "atms:notifyResumed", "atms:launchApp"} {
		if indexFrom(joined, want, 0) < 0 {
			t.Fatalf("server event %q missing from trace", want)
		}
	}
	if len(handling) != 2 {
		t.Fatalf("handlings = %d", len(handling))
	}
	if dump == "" {
		t.Fatal("no final dump")
	}
}

func indexFrom(s, sub string, from int) int {
	for i := from; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
