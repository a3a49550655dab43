package guard_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/bundle"
	"rchdroid/internal/chaos"
	"rchdroid/internal/config"
	"rchdroid/internal/core"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/guard"
	"rchdroid/internal/sim"
)

// rig boots a minimal system with one resumed benchapp activity and a
// guard wired directly (no core handler), for unit-level ladder tests.
type rig struct {
	sched *sim.Scheduler
	sys   *atms.ATMS
	proc  *app.Process
	g     *guard.Guard
	class string
	token int
}

func newRig(t *testing.T, cfg guard.Config) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	model := costmodel.Default()
	sys := atms.New(sched, model)
	proc := app.NewProcess(sched, model, benchapp.New(benchapp.Config{Images: 2}))
	g := guard.New(cfg, sched, proc, sys)
	sys.LaunchApp(proc)
	sched.Advance(2 * time.Second)
	fg := proc.Thread().ForegroundActivity()
	if fg == nil {
		t.Fatal("rig: no foreground activity after launch")
	}
	return &rig{sched: sched, sys: sys, proc: proc, g: g,
		class: fg.Class().Name, token: fg.Token()}
}

// stockCycle simulates one stock-routed change reaching its resume.
func (r *rig) stockCycle() {
	r.g.NoteStockRoute(r.class)
	r.g.OnResumed(r.token)
}

func TestLadderQuarantineAndRecovery(t *testing.T) {
	cfg := guard.DefaultConfig()
	cfg.ProbationK = 2
	r := newRig(t, cfg)
	g := r.g

	if !g.Allow(r.class) {
		t.Fatal("fresh class not allowed")
	}
	g.Quarantine(r.class, "test:manual")
	if g.Allow(r.class) {
		t.Fatal("quarantined class still allowed")
	}
	if g.Count(guard.KindQuarantine) != 1 {
		t.Fatalf("Quarantines = %d, want 1", g.Count(guard.KindQuarantine))
	}
	g.Quarantine(r.class, "test:again")
	if g.Count(guard.KindQuarantine) != 1 {
		t.Fatalf("quarantine not idempotent: %d", g.Count(guard.KindQuarantine))
	}
	if got := g.Summary().Modes[r.class]; got != "quarantined" {
		t.Fatalf("mode = %q, want quarantined", got)
	}

	// One clean stock change is not enough; the second recovers.
	r.stockCycle()
	if g.Allow(r.class) {
		t.Fatal("recovered after 1/2 clean changes")
	}
	r.stockCycle()
	if !g.Allow(r.class) {
		t.Fatal("not recovered after ProbationK clean changes")
	}
	if g.Count(guard.KindRecover) != 1 {
		t.Fatalf("Recoveries = %d, want 1", g.Count(guard.KindRecover))
	}

	// A resume without a stock route in flight must not advance probation.
	g.Quarantine(r.class, "test:again")
	g.OnResumed(r.token)
	g.OnResumed(r.token)
	if g.Allow(r.class) {
		t.Fatal("recovered on resumes with no stock-routed change")
	}
}

func TestBreakerIsFinal(t *testing.T) {
	cfg := guard.DefaultConfig()
	cfg.BreakerThreshold = 1
	cfg.ProbationK = 1
	r := newRig(t, cfg)
	g := r.g

	g.Quarantine(r.class, "test:breaker")
	if g.Count(guard.KindBreakerOpen) != 1 {
		t.Fatalf("breaker not open at threshold: opens=%d", g.Count(guard.KindBreakerOpen))
	}
	if g.Allow(r.class) || g.Allow("SomeOtherActivity") {
		t.Fatal("open breaker still allows RCHDroid handling")
	}
	// Probation cannot close an open breaker.
	for i := 0; i < 5; i++ {
		r.stockCycle()
	}
	if g.Count(guard.KindRecover) != 0 || g.Allow(r.class) {
		t.Fatalf("breaker-open class recovered: recoveries=%d allow=%v",
			g.Count(guard.KindRecover), g.Allow(r.class))
	}
}

func TestWatchdogFiresOnDeadline(t *testing.T) {
	cfg := guard.DefaultConfig()
	r := newRig(t, cfg)
	g := r.g

	// A disarmed phase never fires.
	g.ArmPhase(r.class, "runtimeChange")
	g.DisarmPhase(r.class, "runtimeChange")
	r.sched.Advance(2 * cfg.PhaseDeadline)
	if g.Count(guard.KindANR) != 0 {
		t.Fatalf("disarmed watchdog fired: %d ANRs", g.Count(guard.KindANR))
	}

	// An armed phase that never completes is an ANR and a quarantine.
	g.ArmPhase(r.class, "runtimeChange")
	r.sched.Advance(cfg.PhaseDeadline / 2)
	if g.Count(guard.KindANR) != 0 {
		t.Fatal("watchdog fired before its deadline")
	}
	r.sched.Advance(cfg.PhaseDeadline)
	if g.Count(guard.KindANR) != 1 {
		t.Fatalf("ANRs = %d, want 1", g.Count(guard.KindANR))
	}
	if g.Allow(r.class) {
		t.Fatal("ANR did not quarantine the class")
	}
	if g.Summary().FirstQuarantineAt == 0 {
		t.Fatal("FirstQuarantineAt not recorded")
	}
}

func TestDispatchOverrunAttribution(t *testing.T) {
	cfg := guard.DefaultConfig()
	r := newRig(t, cfg)
	g := r.g

	// An overrun with no armed phase is counted but not attributed.
	g.OnDispatch("someMessage", r.sched.Now(), cfg.DispatchDeadline+time.Millisecond)
	if g.Count(guard.KindANR) != 1 || g.Count(guard.KindQuarantine) != 0 {
		t.Fatalf("unattributed overrun: ANRs=%d quarantines=%d",
			g.Count(guard.KindANR), g.Count(guard.KindQuarantine))
	}
	if rep := g.Report(); !strings.Contains(rep, "(1 dispatch overruns)") {
		t.Fatalf("report does not count the overrun:\n%s", rep)
	}
	// With a handling in flight the overrun quarantines its class.
	g.ArmPhase(r.class, "runtimeChange")
	g.OnDispatch("rch:enterShadow", r.sched.Now(), cfg.DispatchDeadline+time.Millisecond)
	if g.Count(guard.KindQuarantine) != 1 || g.Allow(r.class) {
		t.Fatalf("attributed overrun did not quarantine: quarantines=%d", g.Count(guard.KindQuarantine))
	}
}

// TestTransferRetriesAndBackoff drives one transfer through 0 to 4
// failing attempts, dropped or corrupted (and one drop then one
// corruption), with three retries: the snapshot is saved once and
// re-sent, a clean arrival is the snapshot itself, the charged backoff
// is the deterministic exponential sum, and the decision log holds one
// retry per failed attempt that had one left, then transferFail when
// all four failed.
func TestTransferRetriesAndBackoff(t *testing.T) {
	drop, corrupt := chaos.TransferFault{Drop: true}, chaos.TransferFault{Corrupt: true}
	type tc struct {
		name    string
		failing []chaos.TransferFault // the faults of the first attempts
	}
	cases := []tc{{"drop-then-corrupt", []chaos.TransferFault{drop, corrupt}}}
	for _, f := range []struct {
		name  string
		fault chaos.TransferFault
	}{{"dropped", drop}, {"corrupt", corrupt}} {
		for n := 0; n <= 4; n++ {
			failing := make([]chaos.TransferFault, n)
			for i := range failing {
				failing[i] = f.fault
			}
			cases = append(cases, tc{fmt.Sprintf("%s-%d", f.name, n), failing})
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := guard.DefaultConfig()
			cfg.TransferRetries = 3
			cfg.RetryBackoff = 5 * time.Millisecond
			r := newRig(t, cfg)

			saves := 0
			var saved *bundle.Bundle
			save := func() *bundle.Bundle {
				saves++
				saved = bundle.New()
				saved.PutString("k", "v")
				saved.PutInt("n", 42)
				return saved
			}
			attempts := 0
			snap, backoff, ok := r.g.Transfer(r.class, save, func(attempt int) chaos.TransferFault {
				if attempt != attempts {
					t.Fatalf("fault drawn for attempt %d, want %d", attempt, attempts)
				}
				attempts++
				if attempt < len(c.failing) {
					return c.failing[attempt]
				}
				return chaos.TransferFault{}
			})
			failing := len(c.failing)
			if saves != 1 {
				t.Fatalf("save ran %d times, want once per transfer", saves)
			}
			if want := min(failing+1, 4); attempts != want {
				t.Fatalf("%d attempts, want %d", attempts, want)
			}

			var wantLog []string
			var wantBackoff time.Duration
			for i := 0; i < min(failing, 3); i++ {
				cause := "corrupt"
				if c.failing[i].Drop {
					cause = "dropped"
				}
				wait := 5 * time.Millisecond << i
				wantBackoff += wait
				wantLog = append(wantLog, fmt.Sprintf("retry %s: transfer %s, attempt %d, backoff %v", r.class, cause, i+1, wait))
			}
			if failing == 4 {
				wantLog = append(wantLog, fmt.Sprintf("transferFail %s: all 4 attempts failed", r.class))
			}
			var gotLog []string
			for _, d := range r.g.Decisions() {
				gotLog = append(gotLog, fmt.Sprintf("%s %s: %s", d.Kind, d.Class, d.Detail))
			}
			if strings.Join(gotLog, "\n") != strings.Join(wantLog, "\n") {
				t.Fatalf("decision log:\n%s\nwant:\n%s", strings.Join(gotLog, "\n"), strings.Join(wantLog, "\n"))
			}
			if backoff != wantBackoff {
				t.Fatalf("backoff = %v, want %v", backoff, wantBackoff)
			}
			if r.g.Count(guard.KindRetry) != min(failing, 3) {
				t.Fatalf("Retries = %d, want %d", r.g.Count(guard.KindRetry), min(failing, 3))
			}

			if failing == 4 {
				if ok || snap != nil {
					t.Fatalf("all-fail transfer returned ok=%v snap=%v", ok, snap)
				}
				if r.g.Count(guard.KindTransferFail) != 1 {
					t.Fatalf("TransferFailures = %d, want 1", r.g.Count(guard.KindTransferFail))
				}
				return
			}
			if !ok || snap != saved {
				t.Fatalf("transfer ok=%v returned %v, want the saved snapshot %v", ok, snap, saved)
			}
			if got, want := snap.String(), `{k="v", n=42}`; got != want {
				t.Fatalf("snapshot = %s, want %s", got, want)
			}
			if r.g.Count(guard.KindTransferFail) != 0 {
				t.Fatalf("TransferFailures = %d, want 0", r.g.Count(guard.KindTransferFail))
			}
		})
	}
}

// TestNilGuardNoOps exercises every entry point on a nil *Guard — the
// disabled configuration must be safe everywhere.
func TestNilGuardNoOps(t *testing.T) {
	var g *guard.Guard
	if g.Enabled() {
		t.Fatal("nil guard claims enabled")
	}
	if !g.Allow("X") {
		t.Fatal("nil guard refused a handling")
	}
	g.NoteStockRoute("X")
	g.ArmPhase("X", "runtimeChange")
	g.DisarmPhase("X", "runtimeChange")
	g.OnDispatch("m", 0, time.Hour)
	g.OnResumed(1)
	g.Quarantine("X", "cause")
	g.SetReleaser(func(string) bool { return true })
	g.SetAuxCheck(func() []string { return nil })
	if got := g.SelfCheck("X"); got != nil {
		t.Fatalf("nil guard self-check returned %v", got)
	}
	b := bundle.New()
	b.PutString("k", "v")
	snap, backoff, ok := g.Transfer("X", func() *bundle.Bundle { return b }, nil)
	if !ok || backoff != 0 || snap.GetString("k", "") != "v" {
		t.Fatalf("nil guard transfer: ok=%v backoff=%v", ok, backoff)
	}
	// A dropped bundle on the unguarded path reads as empty, not nil.
	snap, _, ok = g.Transfer("X", func() *bundle.Bundle { return b },
		func(int) chaos.TransferFault { return chaos.TransferFault{Drop: true} })
	if !ok || snap == nil || snap.Len() != 0 {
		t.Fatalf("nil guard dropped transfer: ok=%v snap=%v", ok, snap)
	}
	for k := guard.Kind(0); k < guard.NumKinds; k++ {
		if g.Count(k) != 0 {
			t.Fatalf("nil guard counts %d %s decisions", g.Count(k), k)
		}
	}
	if s := g.Summary(); s.Enabled || s.Modes != nil {
		t.Fatalf("nil guard summary: %+v", s)
	}
	if g.Report() != "guard: disabled\n" {
		t.Fatalf("nil guard report: %q", g.Report())
	}
}

// TestReportByteIdentical runs the same guarded chaos scenario twice and
// requires the rendered report to match byte-for-byte — supervision
// decisions are part of the deterministic replay contract.
func TestReportByteIdentical(t *testing.T) {
	run := func() string {
		sched := sim.NewScheduler()
		model := costmodel.Default()
		sys := atms.New(sched, model)
		proc := app.NewProcess(sched, model, benchapp.New(benchapp.Config{
			Images:    2,
			TaskDelay: 100 * time.Millisecond,
		}))
		plan := chaos.NewPlan(1234, chaos.Guarded())
		plan.BindClock(sched)
		opts := core.DefaultOptions()
		opts.Chaos = plan
		cfg := guard.DefaultConfig()
		opts.Guard = &cfg
		rch := core.Install(sys, proc, opts)
		plan.Install(sys, proc)
		sys.LaunchApp(proc)
		sched.Advance(2 * time.Second)
		cfg2 := config.Default()
		for i := 0; i < 4; i++ {
			cfg2 = cfg2.Rotated()
			sys.PushConfiguration(cfg2)
			sched.Advance(3 * time.Second)
		}
		return rch.Guard.Report()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("guard reports differ between identical runs:\n%s----\n%s", a, b)
	}
	if a == "" || a == "guard: disabled\n" {
		t.Fatalf("unexpected report: %q", a)
	}
}
