package chaos_test

import (
	"fmt"
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
	"rchdroid/internal/sim"
)

// replayTrace drives a fixed mixed sequence of decisions against a plan
// and returns a canonical transcript, so two plans can be compared for
// bit-identical behaviour.
func replayTrace(p *chaos.Plan, rounds int) string {
	out := ""
	for i := 0; i < rounds; i++ {
		f := p.OnMessage(fmt.Sprintf("asyncResult:t%d", i), time.Millisecond)
		out += fmt.Sprintf("msg %v %v %v;", f.Stall, f.Delay, f.Drop)
		a := p.OnAsync(fmt.Sprintf("t%d", i))
		out += fmt.Sprintf("async %v %v;", a.ExtraDelay, a.DropResult)
		echo, d := p.OnConfigChange(config.Default())
		out += fmt.Sprintf("cfg %v %v;", echo, d)
		out += fmt.Sprintf("core %v;", p.OnCorePhase("rch:flip"))
		out += fmt.Sprintf("flush %v;", p.OnMigrationFlush(i%7))
		out += fmt.Sprintf("proc %v;", p.NextProcessEvent())
	}
	return out
}

func TestPlanDeterminism(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		a := replayTrace(chaos.NewPlan(seed, chaos.Heavy()), 200)
		b := replayTrace(chaos.NewPlan(seed, chaos.Heavy()), 200)
		if a != b {
			t.Fatalf("seed %d: two plans from the same seed diverged", seed)
		}
	}
	if replayTrace(chaos.NewPlan(1, chaos.Heavy()), 200) ==
		replayTrace(chaos.NewPlan(2, chaos.Heavy()), 200) {
		t.Fatal("seeds 1 and 2 produced identical traces")
	}
}

func TestPointStreamIsolation(t *testing.T) {
	// Decisions at one point must not shift the dice at another: the
	// core-phase sequence is the same whether or not looper decisions
	// are interleaved.
	plain := chaos.NewPlan(7, chaos.Heavy())
	mixed := chaos.NewPlan(7, chaos.Heavy())
	var a, b []time.Duration
	for i := 0; i < 500; i++ {
		a = append(a, plain.OnCorePhase("rch:enterShadow"))
		mixed.OnMessage("asyncResult:x", 0)
		mixed.OnAsync("x")
		b = append(b, mixed.OnCorePhase("rch:enterShadow"))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("core stream perturbed by looper/async draws at step %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestDroppable(t *testing.T) {
	for name, want := range map[string]bool{
		"asyncResult:updateImages": true,
		"monkey:event":             true,
		"oracle:touch":             true,
		"launch:create":            false,
		"rch:flip":                 false,
		"stock:relaunch":           false,
		"chaos:flushLater":         false,
		"chaos:configEcho":         false,
	} {
		if got := chaos.Droppable(name); got != want {
			t.Errorf("Droppable(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestLightPresetIsOracleSafe(t *testing.T) {
	// The differential oracle needs both runs to see the same external
	// world: Light must never drop or reorder messages, kill or trim.
	p := chaos.NewPlan(3, chaos.Light())
	for i := 0; i < 5000; i++ {
		if f := p.OnMessage("asyncResult:x", 0); f.Drop || f.Delay != 0 {
			t.Fatalf("Light dropped/delayed a message at roll %d: %+v", i, f)
		}
		if ev := p.NextProcessEvent(); ev != chaos.ProcNone {
			t.Fatalf("Light produced process event %v at roll %d", ev, i)
		}
	}
}

func TestInjectionLogAndAsyncDropAccounting(t *testing.T) {
	opts := chaos.Options{AsyncDrop: chaos.Rate{Permille: 1000}}
	p := chaos.NewPlan(1, opts)
	sched := sim.NewScheduler()
	sched.Advance(42 * time.Millisecond)
	p.BindClock(sched)
	if f := p.OnAsync("updateImages"); !f.DropResult {
		t.Fatal("permille 1000 did not drop")
	}
	if got := p.AsyncDropped("updateImages"); got != 1 {
		t.Fatalf("AsyncDropped = %d, want 1", got)
	}
	inj := p.Injections()
	if len(inj) != 1 || inj[0].Point != chaos.PointAsync || inj[0].Label != "updateImages" {
		t.Fatalf("injection log = %+v", inj)
	}
	if inj[0].At != sim.Time(42*time.Millisecond) {
		t.Fatalf("injection not stamped with virtual time: %v", inj[0].At)
	}
	if inj[0].String() == "" {
		t.Fatal("empty injection format")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		orig := chaos.NewPlan(seed*0x1234567, chaos.Heavy())
		dec, err := chaos.Decode(orig.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if dec.Seed() != orig.Seed() || dec.Opts() != orig.Opts() {
			t.Fatalf("round trip changed identity: %+v vs %+v", dec.Opts(), orig.Opts())
		}
		if replayTrace(orig, 100) != replayTrace(dec, 100) {
			t.Fatal("decoded plan replays differently")
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	good := chaos.NewPlan(1, chaos.Light()).Encode()
	cases := map[string][]byte{
		"short":    good[:10],
		"long":     append(append([]byte{}, good...), 0),
		"badMagic": append([]byte("XHAOS1"), good[6:]...),
	}
	overPermille := append([]byte{}, good...)
	overPermille[6+8] = 0xff // first rate's permille low byte
	overPermille[6+8+1] = 0xff
	cases["permille>1000"] = overPermille
	overMax := append([]byte{}, good...)
	for i := 0; i < 4; i++ {
		overMax[6+8+2+i] = 0xff // first rate's max: ~71 minutes
	}
	cases["max>10s"] = overMax
	for name, data := range cases {
		if _, err := chaos.Decode(data); err == nil {
			t.Errorf("%s: decode accepted invalid input", name)
		}
	}
}

// TestInstallWiring boots a real system, arms a plan that stalls every
// message, and checks the faults actually land through the looper and
// the core-side hooks.
func TestInstallWiring(t *testing.T) {
	sched := sim.NewScheduler()
	model := costmodel.Default()
	sys := atms.New(sched, model)
	proc := app.NewProcess(sched, model, benchapp.New(benchapp.Config{
		Images:    2,
		TaskDelay: 100 * time.Millisecond,
	}))
	plan := chaos.NewPlan(11, chaos.Options{
		MsgStall:  chaos.Rate{Permille: 1000, Max: time.Millisecond},
		CoreStall: chaos.Rate{Permille: 1000, Max: time.Millisecond},
	})
	plan.BindClock(sched)
	core.Install(sys, proc, core.Options{GC: core.DefaultGCConfig(), Chaos: plan})
	plan.Install(sys, proc)
	sys.LaunchApp(proc)
	sched.Advance(2 * time.Second)
	sys.PushConfiguration(config.Portrait())
	sched.Advance(3 * time.Second)

	if proc.Crashed() {
		t.Fatalf("process crashed under stall-only chaos: %v", proc.CrashCause())
	}
	var sawLooper, sawCore bool
	for _, in := range plan.Injections() {
		switch in.Point {
		case chaos.PointLooper:
			sawLooper = true
		case chaos.PointLifecycle:
			sawCore = true
		}
	}
	if !sawLooper || !sawCore {
		t.Fatalf("expected looper and lifecycle injections, got looper=%v core=%v (%d records)",
			sawLooper, sawCore, len(plan.Injections()))
	}
}

// TestTransferFaultApplyLeavesInputIntact: Apply never writes into the
// bundle it is given, which is what lets the guard re-send one snapshot
// on every retry. A drop arrives as nil, a corruption is a fresh bundle
// equal to the input minus its first key, and an empty or nil input
// arrives as itself.
func TestTransferFaultApplyLeavesInputIntact(t *testing.T) {
	in := bundle.New()
	in.PutString("a:first", "x")
	in.PutInt("b", 7)
	sec := bundle.New()
	sec.PutBool("visible", true)
	in.PutBundle("view:3", sec)
	wantString, wantSum := in.String(), in.Checksum()

	if got := (chaos.TransferFault{Drop: true}).Apply(in); got != nil {
		t.Fatalf("drop arrived as %v, want nil", got)
	}
	got := (chaos.TransferFault{Corrupt: true}).Apply(in)
	if in.String() != wantString || in.Checksum() != wantSum {
		t.Fatalf("Apply wrote into its input: %s, want %s", in, wantString)
	}
	minusFirst := in.Clone()
	minusFirst.Remove("a:first")
	if got == in || !got.Equal(minusFirst) || got.String() != minusFirst.String() {
		t.Fatalf("corruption arrived as %s, want a new bundle %s", got, minusFirst)
	}
	if got.GetBundle("view:3") == sec {
		t.Fatal("corruption shares a nested section with its input")
	}
	if got := (chaos.TransferFault{}).Apply(in); got != in {
		t.Fatalf("clean transfer arrived as %p, want the input %p", got, in)
	}
	empty := bundle.New()
	if got := (chaos.TransferFault{Corrupt: true}).Apply(empty); got != empty {
		t.Fatal("corrupting an empty bundle did not return it unchanged")
	}
	if got := (chaos.TransferFault{Corrupt: true}).Apply(nil); got != nil {
		t.Fatalf("corrupting nil arrived as %v", got)
	}
}
