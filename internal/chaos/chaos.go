// Package chaos is the fault-injection layer of the test harness: a
// seeded, deterministic plan of faults threaded through the looper, the
// async-task machinery, the configuration path, the RCHDroid handling
// phases and the lazy-migration flush.
//
// Every decision a Plan makes is a pure function of its seed, its
// Options and the sequence of decision calls, so an entire chaotic run
// is replayable from a single uint64: re-create the plan with the same
// seed and drive the same scenario, and the exact same faults land at
// the exact same points. The differential oracle (internal/oracle)
// leans on this to print a reproducer seed with every failure.
//
// The plan keeps per-point random streams: injections at one point
// (say, the looper) never shift the dice rolled at another (say, the
// migration flush), which keeps counterexamples stable when a fault
// site is added or removed from an app under test.
package chaos

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/bundle"
	"rchdroid/internal/config"
	"rchdroid/internal/looper"
	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
)

// ErrKilled is the crash cause used when the chaos layer kills a process
// (the oracle and stress harnesses treat it as an injected, expected
// death rather than an app bug).
var ErrKilled = errors.New("chaos: process killed")

// Point identifies the layer an injection landed in.
type Point int

const (
	// PointLooper — message stalls, delays and drops on the UI looper.
	PointLooper Point = iota
	// PointAsync — extra background latency and lost results.
	PointAsync
	// PointConfig — a second configuration change delivered mid-transition.
	PointConfig
	// PointLifecycle — stalls inside RCHDroid handling phases.
	PointLifecycle
	// PointMigration — the lazy-migration flush deferred mid-flight.
	PointMigration
	// PointProcess — kills and memory-pressure trims.
	PointProcess
	// PointXfer — corrupted or dropped saved-state bundle transfers.
	PointXfer

	numPoints
)

// String names the point for injection logs.
func (p Point) String() string {
	switch p {
	case PointLooper:
		return "looper"
	case PointAsync:
		return "async"
	case PointConfig:
		return "config"
	case PointLifecycle:
		return "lifecycle"
	case PointMigration:
		return "migration"
	case PointProcess:
		return "process"
	case PointXfer:
		return "xfer"
	}
	return fmt.Sprintf("point(%d)", int(p))
}

// Rate is one fault knob: a probability out of 1000 and, where the fault
// has a magnitude, the maximum magnitude (actual magnitudes are drawn
// uniformly from (0, Max]).
type Rate struct {
	Permille int
	Max      time.Duration
}

// Options holds the per-point fault rates. The zero value injects
// nothing.
type Options struct {
	// MsgStall stalls the UI thread before a posted message may run.
	// Order-preserving, so it is safe on any message, including
	// lifecycle chains.
	MsgStall Rate
	// MsgDelay shifts a single message's delivery, which may reorder it
	// against later posts. Applied only to droppable message names (see
	// Droppable) — reordering one phase of a lifecycle chain is a
	// harness artifact, not an app-visible fault.
	MsgDelay Rate
	// MsgDrop swallows a droppable message entirely. Max is unused.
	MsgDrop Rate
	// AsyncDelay lengthens a background task, pushing its result past
	// the next runtime change.
	AsyncDelay Rate
	// AsyncDrop loses a task's result in flight (counters still drain).
	// Max is unused.
	AsyncDrop Rate
	// ConfigEcho re-delivers a configuration change shortly after the
	// first delivery — the "change arrives mid-transition" fault.
	ConfigEcho Rate
	// CoreStall stretches a named RCHDroid handling phase (enterShadow,
	// buildMapping, flip, ...), widening every mid-handling race window.
	CoreStall Rate
	// FlushStall defers a lazy-migration flush, interrupting the
	// migration between the shadow-side save and the sunny-side apply.
	FlushStall Rate
	// Kill crashes the whole process (consumed by stress drivers via
	// NextProcessEvent, not by Install). Max is unused.
	Kill Rate
	// Trim delivers a memory-pressure trim (NextProcessEvent). Max is
	// unused.
	Trim Rate
	// XferCorrupt damages a saved-state bundle in transit (one entry
	// lost), so its content checksum no longer matches. Max is unused.
	XferCorrupt Rate
	// XferDrop loses the whole saved-state bundle in transit. Max is
	// unused.
	XferDrop Rate
}

// rates returns the knobs in canonical (encoding) order.
func (o *Options) rates() []*Rate {
	return []*Rate{
		&o.MsgStall, &o.MsgDelay, &o.MsgDrop,
		&o.AsyncDelay, &o.AsyncDrop,
		&o.ConfigEcho, &o.CoreStall, &o.FlushStall,
		&o.Kill, &o.Trim,
		&o.XferCorrupt, &o.XferDrop,
	}
}

// Light is the oracle preset: faults that a transparent change handler
// must absorb without any app-visible difference — stalls, slow and
// lost async results, echoed changes, deferred migrations. No message
// drops, kills or trims, so both runs of a differential pair see the
// same external world.
func Light() Options {
	return Options{
		MsgStall:   Rate{Permille: 30, Max: 40 * time.Millisecond},
		AsyncDelay: Rate{Permille: 120, Max: 700 * time.Millisecond},
		AsyncDrop:  Rate{Permille: 60},
		ConfigEcho: Rate{Permille: 150, Max: 120 * time.Millisecond},
		CoreStall:  Rate{Permille: 100, Max: 60 * time.Millisecond},
		FlushStall: Rate{Permille: 80, Max: 250 * time.Millisecond},
	}
}

// Guarded is the supervision-sweep preset: Light's oracle-safe faults
// plus the failures the guard exists to absorb — phase stalls long
// enough to trip the watchdog and saved-state transfers that corrupt or
// vanish in flight. Still no message drops, kills or trims, so a
// differential pair sees the same external world; the guard (not the
// plan) decides which activities fall back to stock handling.
func Guarded() Options {
	o := Light()
	o.CoreStall = Rate{Permille: 220, Max: 950 * time.Millisecond}
	o.XferCorrupt = Rate{Permille: 180}
	o.XferDrop = Rate{Permille: 90}
	return o
}

// Heavy is the stress preset: everything Light does, harder, plus
// dropped messages, process kills and memory trims. Used by the
// monkey×chaos stress test, which only asserts survival invariants,
// not differential equality.
func Heavy() Options {
	return Options{
		MsgStall:   Rate{Permille: 80, Max: 120 * time.Millisecond},
		MsgDelay:   Rate{Permille: 100, Max: 200 * time.Millisecond},
		MsgDrop:    Rate{Permille: 40},
		AsyncDelay: Rate{Permille: 250, Max: 1500 * time.Millisecond},
		AsyncDrop:  Rate{Permille: 150},
		ConfigEcho: Rate{Permille: 300, Max: 300 * time.Millisecond},
		CoreStall:  Rate{Permille: 200, Max: 150 * time.Millisecond},
		FlushStall: Rate{Permille: 150, Max: 600 * time.Millisecond},
		Kill:       Rate{Permille: 15},
		Trim:       Rate{Permille: 60},
	}
}

// droppablePrefixes lists the message-name prefixes whose ordering
// contract tolerates per-message delay or loss: asynchronous results and
// injected input events. Lifecycle-chain messages (launch:*, rch:*,
// stock:*) are excluded — reordering them simulates a broken harness,
// not a fault an app could ever observe — and so are the chaos layer's
// own timers, which must not re-fault themselves.
var droppablePrefixes = []string{"asyncResult:", "monkey:", "oracle:"}

// Droppable reports whether a message name may be delayed or dropped.
func Droppable(name string) bool {
	for _, p := range droppablePrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Injection is one fault that actually landed, for reports and replay
// debugging.
type Injection struct {
	At     sim.Time
	Point  Point
	Label  string // message / task / phase name the fault hit
	Effect string // human-readable effect, e.g. "stall 12ms"
}

// String formats the injection for logs.
func (i Injection) String() string {
	return fmt.Sprintf("%10.3fms %-9s %-28s %s",
		float64(time.Duration(i.At))/float64(time.Millisecond), i.Point, i.Label, i.Effect)
}

// maxLog bounds the injection log so a pathological plan cannot eat the
// heap; past the cap decisions still fire, only the records are lost.
const maxLog = 4096

// ProcessEvent is a process-level fault drawn by NextProcessEvent.
type ProcessEvent int

const (
	// ProcNone — no process event this round.
	ProcNone ProcessEvent = iota
	// ProcTrim — deliver a memory-pressure trim.
	ProcTrim
	// ProcKill — crash the process (with ErrKilled).
	ProcKill
)

// Plan is a deterministic fault plan. All decision methods are pure
// functions of the seed, the options and the call sequence; a Plan is
// not safe for concurrent use (the simulator is single-threaded).
type Plan struct {
	seed  uint64
	opts  Options
	rng   [numPoints]*sim.RNG
	clock *sim.Scheduler

	log          []Injection
	truncated    int
	droppedAsync map[string]int

	// directives are scripted injections (see script.go), consulted
	// before any random roll at the same decision points.
	directives []*Directive
	// consults counts every decision call per point, fired or not and
	// whatever its label (see Consults).
	consults [numPoints]int

	tracer *trace.Tracer
	track  trace.TrackID
}

// NewPlan returns a plan for the seed. Per-point streams are derived
// from the seed with fixed offsets, so decisions at different points
// never perturb each other.
func NewPlan(seed uint64, opts Options) *Plan {
	p := &Plan{seed: seed, opts: opts, droppedAsync: make(map[string]int)}
	for i := range p.rng {
		p.rng[i] = sim.NewRNG(seed ^ (0x9E3779B97F4A7C15 * uint64(i+1)))
	}
	return p
}

// Seed returns the seed the plan was built from — the reproducer.
func (p *Plan) Seed() uint64 { return p.seed }

// Opts returns the plan's options.
func (p *Plan) Opts() Options { return p.opts }

// BindClock attaches a scheduler so injection records carry virtual
// timestamps. Optional; unbound plans record At 0.
func (p *Plan) BindClock(s *sim.Scheduler) { p.clock = s }

// SetTracer mirrors every landed injection onto the trace timeline as an
// instant on a dedicated "chaos" process row, so faults and their
// consequences (stalled dispatches, dropped results, echoed configs) are
// read off one view. Call after BindClock; a nil tracer disables it.
func (p *Plan) SetTracer(tr *trace.Tracer) {
	p.tracer = tr
	if tr == nil {
		return
	}
	pid := tr.RegisterProcess("chaos")
	p.track = tr.RegisterThread(pid, "injections")
}

// Injections returns the faults that landed so far (capped at 4096;
// Truncated reports how many records past the cap were discarded).
func (p *Plan) Injections() []Injection {
	out := make([]Injection, len(p.log))
	copy(out, p.log)
	return out
}

// Truncated returns how many injection records were dropped after the
// log cap was reached.
func (p *Plan) Truncated() int { return p.truncated }

// AsyncDropped reports how many results of the named async task this
// plan swallowed — the oracle uses it to tell "lost by design" from
// "lost by bug".
func (p *Plan) AsyncDropped(name string) int { return p.droppedAsync[name] }

// TotalAsyncDropped sums AsyncDropped over every task name.
func (p *Plan) TotalAsyncDropped() int {
	total := 0
	for _, n := range p.droppedAsync {
		total += n
	}
	return total
}

// roll draws one permille die at the point.
func (p *Plan) roll(pt Point, r Rate) bool {
	return r.Permille > 0 && p.rng[pt].Intn(1000) < r.Permille
}

// draw picks a magnitude in (0, max], microsecond-granular.
func (p *Plan) draw(pt Point, max time.Duration) time.Duration {
	us := int(max / time.Microsecond)
	if us <= 0 {
		return 0
	}
	return time.Duration(p.rng[pt].Intn(us)+1) * time.Microsecond
}

// record appends to the injection log (bounded) and mirrors the
// injection onto the trace timeline. The trace instant is emitted even
// past the log cap — the tracer has its own (ring) bound.
func (p *Plan) record(pt Point, label, effect string) {
	if p.tracer.Enabled() {
		p.tracer.Instant(p.track, pt.String()+":"+label, "chaos",
			trace.Arg{Key: "effect", Val: effect})
	}
	if len(p.log) >= maxLog {
		p.truncated++
		return
	}
	var at sim.Time
	if p.clock != nil {
		at = p.clock.Now()
	}
	p.log = append(p.log, Injection{At: at, Point: pt, Label: label, Effect: effect})
}

// OnMessage implements looper.FaultInjector: stalls may hit any message,
// delays and drops only droppable ones.
func (p *Plan) OnMessage(name string, cost time.Duration) looper.Fault {
	if d := p.consultScript(PointLooper, name); d != nil {
		return p.scriptMessage(d, name)
	}
	var f looper.Fault
	if p.roll(PointLooper, p.opts.MsgStall) {
		f.Stall = p.draw(PointLooper, p.opts.MsgStall.Max)
		p.record(PointLooper, name, fmt.Sprintf("stall %v", f.Stall))
	}
	if Droppable(name) {
		if p.roll(PointLooper, p.opts.MsgDrop) {
			f.Drop = true
			p.record(PointLooper, name, "drop")
			return f
		}
		if p.roll(PointLooper, p.opts.MsgDelay) {
			f.Delay = p.draw(PointLooper, p.opts.MsgDelay.Max)
			p.record(PointLooper, name, fmt.Sprintf("delay %v", f.Delay))
		}
	}
	return f
}

// OnAsync implements app.AsyncFaultInjector.
func (p *Plan) OnAsync(name string) app.AsyncFault {
	if d := p.consultScript(PointAsync, name); d != nil {
		return p.scriptAsync(d, name)
	}
	var f app.AsyncFault
	if p.roll(PointAsync, p.opts.AsyncDrop) {
		f.DropResult = true
		p.droppedAsync[name]++
		p.record(PointAsync, name, "drop result")
		return f
	}
	if p.roll(PointAsync, p.opts.AsyncDelay) {
		f.ExtraDelay = p.draw(PointAsync, p.opts.AsyncDelay.Max)
		p.record(PointAsync, name, fmt.Sprintf("delay %v", f.ExtraDelay))
	}
	return f
}

// OnConfigChange matches the atms.SetConfigChangeFault hook: it decides
// whether a pushed configuration is echoed a second time mid-transition,
// and how soon.
func (p *Plan) OnConfigChange(cfg config.Configuration) (bool, time.Duration) {
	if d := p.consultScript(PointConfig, "configChange"); d != nil {
		return p.scriptConfig(d, cfg)
	}
	if !p.roll(PointConfig, p.opts.ConfigEcho) {
		return false, 0
	}
	d := p.draw(PointConfig, p.opts.ConfigEcho.Max)
	p.record(PointConfig, "configChange", fmt.Sprintf("echo after %v", d))
	return true, d
}

// OnCorePhase matches core's SetPhaseStall hook: extra occupancy for a
// named handling phase.
func (p *Plan) OnCorePhase(phase string) time.Duration {
	if d := p.consultScript(PointLifecycle, phase); d != nil {
		p.record(PointLifecycle, phase, fmt.Sprintf("stall %v (scripted)", d.Delay))
		return d.Delay
	}
	if !p.roll(PointLifecycle, p.opts.CoreStall) {
		return 0
	}
	d := p.draw(PointLifecycle, p.opts.CoreStall.Max)
	p.record(PointLifecycle, phase, fmt.Sprintf("stall %v", d))
	return d
}

// OnMigrationFlush matches core's SetFlushFault hook: a non-zero return
// defers the flush by that long.
func (p *Plan) OnMigrationFlush(pending int) time.Duration {
	if d := p.consultScript(PointMigration, "flush"); d != nil {
		p.record(PointMigration, fmt.Sprintf("flush(%d views)", pending), fmt.Sprintf("defer %v (scripted)", d.Delay))
		return d.Delay
	}
	if !p.roll(PointMigration, p.opts.FlushStall) {
		return 0
	}
	d := p.draw(PointMigration, p.opts.FlushStall.Max)
	p.record(PointMigration, fmt.Sprintf("flush(%d views)", pending), fmt.Sprintf("defer %v", d))
	return d
}

// TransferFault is one saved-state transfer decision: the bundle is
// either corrupted in flight (one entry lost, checksum broken) or lost
// wholesale. Apply materialises the fault on a bundle.
type TransferFault struct {
	Corrupt bool
	Drop    bool
}

// Apply returns the bundle as it arrives on the far side of the
// transfer: nil when dropped, a clone missing its first (sorted) key
// when corrupted, the original otherwise. Apply never writes into b, so
// a sender may re-send b after a failed attempt, and an arrival that is
// b itself is known intact without hashing it. Callers without a
// checksum verifier should treat a nil arrival as an empty bundle —
// that is what a stock restart restores after a lost transfer.
func (f TransferFault) Apply(b *bundle.Bundle) *bundle.Bundle {
	if f.Drop {
		return nil
	}
	if f.Corrupt && !b.IsEmpty() {
		c := b.Clone()
		c.Remove(c.KeyAt(0))
		return c
	}
	return b
}

// OnStateTransfer draws the fault for one saved-state transfer attempt.
// The attempt index is only documentation — retries consume fresh rolls
// from the same stream, so a retried transfer may succeed.
func (p *Plan) OnStateTransfer(attempt int) TransferFault {
	if d := p.consultScript(PointXfer, "transfer"); d != nil {
		return p.scriptTransfer(d, attempt)
	}
	var f TransferFault
	if p.roll(PointXfer, p.opts.XferDrop) {
		f.Drop = true
		p.record(PointXfer, fmt.Sprintf("transfer(attempt %d)", attempt), "drop bundle")
		return f
	}
	if p.roll(PointXfer, p.opts.XferCorrupt) {
		f.Corrupt = true
		p.record(PointXfer, fmt.Sprintf("transfer(attempt %d)", attempt), "corrupt bundle")
	}
	return f
}

// NextProcessEvent draws the next process-level fault. Stress drivers
// call it between scenario chunks and apply the result themselves (a
// kill needs a reboot the driver has to orchestrate).
func (p *Plan) NextProcessEvent() ProcessEvent {
	if p.roll(PointProcess, p.opts.Kill) {
		p.record(PointProcess, "process", "kill")
		return ProcKill
	}
	if p.roll(PointProcess, p.opts.Trim) {
		p.record(PointProcess, "process", "trim")
		return ProcTrim
	}
	return ProcNone
}

// Install arms the app/system-side fault hooks: the looper and async
// injectors on every process, and the config-echo hook on the system.
// The core-side hooks (phase stalls, flush deferral) are wired by
// core.Install from Options.Chaos, because the dependency arrow runs
// core→chaos. Passing a nil system skips the config hook.
func (p *Plan) Install(sys *atms.ATMS, procs ...*app.Process) {
	if sys != nil {
		sys.SetConfigChangeFault(p.OnConfigChange)
	}
	for _, proc := range procs {
		proc.UILooper().SetFaultInjector(p.OnMessage)
		proc.SetAsyncFaultInjector(p.OnAsync)
	}
}
