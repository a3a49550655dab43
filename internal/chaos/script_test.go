package chaos

import (
	"testing"
	"time"

	"rchdroid/internal/config"
)

// TestScriptedPlanIsInert proves the scripted plan's zero baseline: with
// no directives armed, no decision point ever injects, however often it
// is consulted — the property that makes a schedule reproducible from
// its directive list alone.
func TestScriptedPlanIsInert(t *testing.T) {
	p := NewScripted()
	for i := 0; i < 500; i++ {
		if f := p.OnMessage("launch:create", time.Millisecond); f.Stall != 0 || f.Delay != 0 || f.Drop {
			t.Fatalf("inert plan faulted message: %+v", f)
		}
		if f := p.OnAsync("asyncResult:load"); f.ExtraDelay != 0 || f.DropResult {
			t.Fatalf("inert plan faulted async: %+v", f)
		}
		if echo, _ := p.OnConfigChange(config.Default()); echo {
			t.Fatal("inert plan echoed a config")
		}
		if d := p.OnCorePhase("rch:flip"); d != 0 {
			t.Fatalf("inert plan stalled a phase: %v", d)
		}
		if d := p.OnMigrationFlush(3); d != 0 {
			t.Fatalf("inert plan deferred a flush: %v", d)
		}
	}
	if n := len(p.Injections()); n != 0 {
		t.Fatalf("inert plan recorded %d injections", n)
	}
}

func TestDirectiveSkipCounting(t *testing.T) {
	p := NewScripted(Directive{Point: PointLooper, Skip: 2, Delay: 5 * time.Millisecond})
	for i := 0; i < 5; i++ {
		f := p.OnMessage("launch:resume", time.Millisecond)
		if i == 2 {
			if f.Stall != 5*time.Millisecond {
				t.Fatalf("call %d: want 5ms stall, got %+v", i, f)
			}
			continue
		}
		if f.Stall != 0 || f.Drop {
			t.Fatalf("call %d: directive fired off-schedule: %+v", i, f)
		}
	}
	if n := p.PendingDirectives(); n != 0 {
		t.Errorf("fired directive still pending (%d)", n)
	}
}

func TestDirectiveLabelMatching(t *testing.T) {
	p := NewScripted(Directive{Point: PointLooper, Label: "stock:save", Delay: time.Millisecond})
	// Non-matching labels do not advance the eligible-call count.
	for i := 0; i < 10; i++ {
		if f := p.OnMessage("launch:create", time.Millisecond); f.Stall != 0 {
			t.Fatalf("directive fired on wrong label: %+v", f)
		}
	}
	if f := p.OnMessage("stock:save", time.Millisecond); f.Stall != time.Millisecond {
		t.Fatalf("directive missed its label: %+v", f)
	}
}

// TestDropDegradesToStall pins the Droppable contract for scripted
// drops: lifecycle-chain messages are never dropped (that would simulate
// a broken harness), the directive degrades to an order-preserving
// stall; droppable names drop for real.
func TestDropDegradesToStall(t *testing.T) {
	p := NewScripted(
		Directive{Point: PointLooper, Label: "launch:create", Drop: true, Delay: 2 * time.Millisecond},
		Directive{Point: PointLooper, Label: "asyncResult:load", Drop: true},
	)
	if f := p.OnMessage("launch:create", time.Millisecond); f.Drop || f.Stall != 2*time.Millisecond {
		t.Errorf("non-droppable drop directive: want 2ms stall, got %+v", f)
	}
	if f := p.OnMessage("asyncResult:load", time.Millisecond); !f.Drop {
		t.Errorf("droppable drop directive did not drop: %+v", f)
	}
}

func TestScriptedAsyncDropCounted(t *testing.T) {
	p := NewScripted(Directive{Point: PointAsync, Label: "asyncResult:save", Drop: true})
	if f := p.OnAsync("asyncResult:save"); !f.DropResult {
		t.Fatalf("async drop directive did not drop: %+v", f)
	}
	// The oracle tells "lost by design" from "lost by bug" via this count;
	// scripted drops must feed it like sampled ones do.
	if n := p.AsyncDropped("asyncResult:save"); n != 1 {
		t.Errorf("AsyncDropped = %d, want 1", n)
	}
}

func TestAddDirectiveMidRunAndPending(t *testing.T) {
	p := NewScripted()
	if n := p.PendingDirectives(); n != 0 {
		t.Fatalf("fresh plan has %d pending directives", n)
	}
	// Arm mid-run, the way the schedule-space driver arms "defer the next
	// migration flush" at the lifecycle edge the schedule names.
	d := Directive{Point: PointMigration, Delay: 100 * time.Millisecond, seen: 99, done: true}
	p.AddDirective(d)
	if n := p.PendingDirectives(); n != 1 {
		t.Fatalf("armed directive not pending (%d) — AddDirective must reset fired state", n)
	}
	if got := p.OnMigrationFlush(1); got != 100*time.Millisecond {
		t.Fatalf("mid-run directive did not fire: %v", got)
	}
	if n := p.PendingDirectives(); n != 0 {
		t.Errorf("fired directive still pending (%d)", n)
	}
}

// TestOneDirectivePerCall pins that a single decision call fires at most
// one directive, while every matching directive still advances its
// eligible-call count.
func TestOneDirectivePerCall(t *testing.T) {
	p := NewScripted(
		Directive{Point: PointLooper, Delay: time.Millisecond},
		Directive{Point: PointLooper, Delay: 2 * time.Millisecond},
	)
	if f := p.OnMessage("launch:create", time.Millisecond); f.Stall != time.Millisecond {
		t.Fatalf("first call: want the first directive's 1ms, got %+v", f)
	}
	if f := p.OnMessage("launch:create", time.Millisecond); f.Stall != 2*time.Millisecond {
		t.Fatalf("second call: want the second directive's 2ms, got %+v", f)
	}
}

func TestNoteRecordsIntoInjectionLog(t *testing.T) {
	p := NewScripted()
	p.Note(PointProcess, "kill@edge3", "scheduled kill")
	inj := p.Injections()
	if len(inj) != 1 {
		t.Fatalf("Note recorded %d injections, want 1", len(inj))
	}
	if inj[0].Point != PointProcess || inj[0].Label != "kill@edge3" || inj[0].Effect != "scheduled kill" {
		t.Errorf("Note record mangled: %+v", inj[0])
	}
}

// TestConsultsCountEveryCall: Consults counts every decision call at a
// point, whatever its label and whether a directive fired, and no other
// point's calls. FiredDirectives counts the fired directives at a point.
func TestConsultsCountEveryCall(t *testing.T) {
	p := NewScripted(
		Directive{Point: PointMigration, Skip: 1, Delay: time.Millisecond},
		Directive{Point: PointLooper, Label: "stock:save", Delay: time.Millisecond},
	)
	for i := 0; i < 3; i++ {
		p.OnMigrationFlush(i + 1)
	}
	p.OnMessage("launch:create", 0)
	p.OnMessage("stock:save", 0)
	p.OnMessage("stock:save", 0)
	p.OnStateTransfer(0)
	for pt, want := range map[Point]int{PointMigration: 3, PointLooper: 3, PointXfer: 1, PointAsync: 0, PointConfig: 0} {
		if got := p.Consults(pt); got != want {
			t.Errorf("Consults(%s) = %d, want %d", pt, got, want)
		}
	}
	if got := p.FiredDirectives(PointMigration); got != 1 {
		t.Errorf("FiredDirectives(migration) = %d, want 1", got)
	}
	if got := p.FiredDirectives(PointAsync); got != 0 {
		t.Errorf("FiredDirectives(async) = %d, want 0", got)
	}
}
