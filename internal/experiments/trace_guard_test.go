package experiments

import (
	"testing"
	"time"

	"rchdroid/internal/benchapp"
	"rchdroid/internal/core"
	"rchdroid/internal/guard"
	"rchdroid/internal/trace"
)

// steadyFlip boots the benchmark rig (optionally with tracing armed on
// every layer) and returns the steady-state flip latency: the second
// rotation, after the first has paid RCHDroid-init.
func steadyFlip(t *testing.T, tr *trace.Tracer) time.Duration {
	t.Helper()
	r := NewRig(benchapp.New(benchapp.Config{Images: 4}), ModeRCHDroid)
	if tr != nil {
		tr.BindClock(r.Sched)
		r.Sys.SetTracer(tr)
		r.Proc.SetTracer(tr)
	}
	if _, err := r.Rotate(); err != nil {
		t.Fatalf("init rotation: %v", err)
	}
	d, err := r.Rotate()
	if err != nil {
		t.Fatalf("flip rotation: %v", err)
	}
	return d
}

// TestTraceOverheadGuard is the observability tax check: with tracing
// disabled the steady-state flip must sit on the paper's 89.2 ms anchor,
// and arming the tracer must not move virtual time by a single tick —
// instrumentation observes the simulation, it never participates in it.
func TestTraceOverheadGuard(t *testing.T) {
	off := steadyFlip(t, nil)
	withinPct(t, "flip ms (tracing off)", ms(off), 89.2, 3)

	tracer := trace.New(nil)
	on := steadyFlip(t, tracer)
	if on != off {
		t.Errorf("tracing moved virtual time: %v with tracer, %v without", on, off)
	}
	if tracer.Len() == 0 {
		t.Error("armed tracer recorded nothing")
	}
	spans := 0
	for _, e := range tracer.Events() {
		if e.Ph == trace.PhaseComplete {
			spans++
		}
	}
	if spans == 0 {
		t.Error("armed tracer recorded no spans")
	}
}

// TestGuardIdleAnchor is the supervision tax check: arming the guard on
// a fault-free run must keep the steady-state flip on the 89.2 ms anchor
// without moving virtual time by a single tick. The watchdog observes
// deadlines, it never charges the timeline — and with no faults it must
// stay entirely idle.
func TestGuardIdleAnchor(t *testing.T) {
	bare := steadyFlip(t, nil)

	cfg := guard.DefaultConfig()
	opts := core.DefaultOptions()
	opts.Guard = &cfg
	r := BootRig(RigSpec{App: benchapp.New(benchapp.Config{Images: 4}), Mode: ModeRCHDroid, Core: &opts})
	if _, err := r.Rotate(); err != nil {
		t.Fatalf("init rotation: %v", err)
	}
	guarded, err := r.Rotate()
	if err != nil {
		t.Fatalf("flip rotation: %v", err)
	}

	if guarded != bare {
		t.Errorf("guard moved virtual time: %v with guard, %v without", guarded, bare)
	}
	withinPct(t, "flip ms (guard idle)", ms(guarded), 89.2, 3)

	g := r.RCH.Guard
	if !g.Enabled() {
		t.Fatal("guard not installed on the guarded rig")
	}
	// A healthy run makes chatter decisions only (arm, disarm, clean
	// self-checks): no ANR, retry, stock route or degradation.
	for k := guard.Kind(0); k < guard.NumKinds; k++ {
		if k.Escalation() && g.Count(k) != 0 {
			t.Errorf("guard escalated a healthy run: %d %s decisions", g.Count(k), k)
		}
	}
}
