// Package guard is RCHDroid's supervision and graceful-degradation
// layer. The paper's transparency claim is absolute — the user must
// never observe behaviour worse than stock Android 10 — so when the
// shadow machinery itself misbehaves (a handling phase that stalls past
// its deadline, a saved-state transfer that corrupts in flight, an
// invariant broken after a flip) the guard degrades the affected
// activity to the stock restart path instead of letting a third, worse
// behaviour reach the user.
//
// Four mechanisms cooperate:
//
//   - an ANR-style watchdog on the virtual clock, armed around each
//     core handling phase, the end-to-end handling interval, deferred
//     migration flushes and every looper dispatch;
//   - checksummed saved-state transfer with bounded deterministic
//     retry/backoff;
//   - an in-process self-check that validates RCHDroid's structural
//     invariants right after each flip;
//   - a per-activity degradation ladder: Active → Quarantined (coin
//     flip disabled, shadow released, changes routed through the stock
//     restart handler) → back to Active after K clean stock-handled
//     changes, with a process-level circuit breaker when too many
//     activities quarantine at once.
//
// Every decision — arm, fire, retry, quarantine, recover, breaker-open
// — has a Kind, and one writer records it: a per-run count, the kind's
// guard_<kind>_total counter, a traced instant with its inputs while
// tracing is on, and, for escalations only, an entry in the decision
// log the rchsim report prints. A nil *Guard is valid and inert, so
// the instrumented seams cost one branch when supervision is off.
package guard

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/bundle"
	"rchdroid/internal/chaos"
	"rchdroid/internal/obs"
	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
)

// Config holds the supervision parameters. The zero value is not
// useful; start from DefaultConfig.
type Config struct {
	// HandlingDeadline bounds the end-to-end runtime-change handling
	// interval (config change at the ATMS → resume). It matches the
	// transparency bound the differential oracle enforces, so a change
	// the oracle would flag is exactly a change the watchdog catches.
	HandlingDeadline time.Duration
	// PhaseDeadline bounds each core handling phase (HandleRuntimeChange,
	// HandleSunnyLaunch, HandleFlip) from entry to the activity's resume.
	PhaseDeadline time.Duration
	// FlushDeadline bounds a deferred lazy-migration flush: armed when
	// the flush is first deferred, disarmed when it finally lands.
	FlushDeadline time.Duration
	// DispatchDeadline bounds a single looper dispatch's occupancy
	// (cost + charges + stalls). Overruns escalate to a quarantine only
	// while a handling is in flight for some class — otherwise they are
	// counted but unattributable.
	DispatchDeadline time.Duration
	// TransferRetries is how many times a failed saved-state transfer is
	// retried before the guard declares it failed (attempts = retries+1).
	TransferRetries int
	// RetryBackoff is the first retry's backoff; attempt i waits
	// RetryBackoff << (i-1). The backoff is charged to the UI thread, so
	// retries cost deterministic virtual time.
	RetryBackoff time.Duration
	// ProbationK is how many consecutive clean stock-handled changes a
	// quarantined activity must survive before RCHDroid is re-enabled.
	ProbationK int
	// BreakerThreshold opens the process-level circuit breaker when this
	// many activity classes are quarantined at once. An open breaker
	// routes every class through the stock path for the rest of the run.
	BreakerThreshold int
}

// DefaultConfig returns the supervision defaults used by rchsim -guard
// and the guarded oracle sweep.
func DefaultConfig() Config {
	return Config{
		HandlingDeadline: time.Second,
		PhaseDeadline:    time.Second,
		FlushDeadline:    1200 * time.Millisecond,
		DispatchDeadline: 800 * time.Millisecond,
		TransferRetries:  3,
		RetryBackoff:     5 * time.Millisecond,
		ProbationK:       2,
		BreakerThreshold: 3,
	}
}

// Mode is one rung of the per-activity degradation ladder.
type Mode int

const (
	// ModeActive — RCHDroid handles this activity's runtime changes.
	ModeActive Mode = iota
	// ModeQuarantined — changes route through the stock restart path.
	ModeQuarantined
)

// String names the mode for reports.
func (m Mode) String() string {
	if m == ModeQuarantined {
		return "quarantined"
	}
	return "active"
}

// Kind is one type of supervision decision.
type Kind uint8

// The decision kinds. Arm, disarm and a clean self-check are per-phase
// chatter; every other kind is an escalation.
const (
	KindArm Kind = iota
	KindDisarm
	KindSelfCheck
	KindStockRoute
	KindANR
	KindRetry
	KindTransferFail
	KindQuarantine
	KindBreakerOpen
	KindProbation
	KindRecover
	KindSelfCheckFail
	NumKinds
)

// kinds is the one table every record of a decision reads. name is the
// trace suffix (guard:<name>), the decision log's kind column and the
// counter's help text; metric is the canonical counter; escalation
// marks the kinds the decision log keeps.
var kinds = [NumKinds]struct {
	name       string
	metric     string
	escalation bool
}{
	KindArm:           {"arm", "guard_arm_total", false},
	KindDisarm:        {"disarm", "guard_disarm_total", false},
	KindSelfCheck:     {"selfCheck", "guard_self_check_total", false},
	KindStockRoute:    {"stockRoute", "guard_stock_route_total", true},
	KindANR:           {"anr", "guard_anr_total", true},
	KindRetry:         {"retry", "guard_retry_total", true},
	KindTransferFail:  {"transferFail", "guard_transfer_fail_total", true},
	KindQuarantine:    {"quarantine", "guard_quarantine_total", true},
	KindBreakerOpen:   {"breakerOpen", "guard_breaker_open_total", true},
	KindProbation:     {"probation", "guard_probation_total", true},
	KindRecover:       {"recover", "guard_recover_total", true},
	KindSelfCheckFail: {"selfCheckFail", "guard_self_check_fail_total", true},
}

// String names the kind ("transferFail").
func (k Kind) String() string { return kinds[k].name }

// Metric returns the kind's canonical counter name
// ("guard_transfer_fail_total").
func (k Kind) Metric() string { return kinds[k].metric }

// Escalation reports whether the decision log keeps the kind.
func (k Kind) Escalation() bool { return kinds[k].escalation }

// Decision is one escalation, kept (bounded) for the report.
type Decision struct {
	At     sim.Time
	Kind   Kind
	Class  string
	Detail string
}

// String formats the decision for the report.
func (d Decision) String() string {
	return fmt.Sprintf("%10.3fms %-12s %-24s %s",
		float64(time.Duration(d.At))/float64(time.Millisecond), d.Kind, d.Class, d.Detail)
}

// maxDecisions bounds the decision log; past the cap, counts still
// advance but escalations are no longer recorded.
const maxDecisions = 1024

// ladder is the per-class supervision state.
type ladder struct {
	mode           Mode
	cause          string
	quarantinedAt  sim.Time
	cleanStock     int  // clean stock-handled changes since quarantine
	pendingStock   bool // a stock-routed change is in flight
	releasePending bool // shadow release deferred until the next resume
	quarantines    int
	recoveries     int
}

// armed is one (class, phase) watchdog. Its event, with the event's
// name and fire closure, is built on the first arm and re-armed in place
// after that; on says whether a deadline is pending.
type armed struct {
	on       bool
	deadline sim.Time
	ev       *sim.Event
}

// anyOn reports whether any of the class's watchdogs is armed.
func anyOn(pm map[string]*armed) bool {
	for _, a := range pm {
		if a.on {
			return true
		}
	}
	return false
}

// Guard supervises one process's RCHDroid machinery. Construct with
// New; a nil *Guard no-ops everywhere.
type Guard struct {
	cfg   Config
	sched *sim.Scheduler
	proc  *app.Process
	sys   *atms.ATMS

	classes map[string]*ladder
	watch   map[string]map[string]*armed // class → phase → watchdog

	// release, set by core.Install, releases the class's shadow
	// machinery (shadow instance, pending snapshot) on quarantine. It
	// returns false when a handling is still in flight and the release
	// must be retried at a later resume.
	release func(class string) bool
	// aux, set by core.Install, contributes extra self-check clauses
	// that need core-side state (essence-map coverage, dirty shadows).
	aux func() []string

	// counts holds the run's decisions by kind; emit is its only
	// writer. Dispatch overruns are a subset of KindANR, counted apart.
	counts           [NumKinds]int
	dispatchOverruns int
	firstQuarantine  sim.Time

	// decisions logs escalations, bounded by maxDecisions.
	decisions []Decision

	// obsShard, when set, mirrors every decision into its kind's
	// aggregate counter, created on the kind's first decision.
	// Decisions derive from the seed alone, so the counters live in the
	// canonical sim domain.
	obsShard    *obs.Shard
	obsCounters [NumKinds]*obs.Counter
}

// New returns a guard supervising proc against sys. Either tracer may
// be observed lazily through the process, so New works before tracing
// is configured.
func New(cfg Config, sched *sim.Scheduler, proc *app.Process, sys *atms.ATMS) *Guard {
	return &Guard{
		cfg:     cfg,
		sched:   sched,
		proc:    proc,
		sys:     sys,
		classes: make(map[string]*ladder),
		watch:   make(map[string]map[string]*armed),
	}
}

// Enabled reports whether supervision is on — false for nil.
func (g *Guard) Enabled() bool { return g != nil }

// entry returns (creating on demand) the class's ladder state.
func (g *Guard) entry(class string) *ladder {
	l := g.classes[class]
	if l == nil {
		l = &ladder{}
		g.classes[class] = l
	}
	return l
}

// SetObs mirrors every future decision into the shard's counters. A
// nil shard leaves observation off; call before the run starts so the
// counter set cannot depend on when observation was enabled.
func (g *Guard) SetObs(sh *obs.Shard) {
	if g == nil {
		return
	}
	g.obsShard, g.obsCounters = sh, [NumKinds]*obs.Counter{}
}

// emit records one decision and is the only place a decision is
// counted: it bumps the run's count and the kind's obs counter, writes
// a guard:<kind> instant on the app's UI track while tracing is on, and
// logs escalations. args is called only while tracing is on and detail
// is kept only for escalations, so on an untraced run the chatter kinds
// format no string and box no trace.Arg.
func (g *Guard) emit(k Kind, class, detail string, args func() []trace.Arg) {
	g.counts[k]++
	if g.obsShard != nil {
		c := g.obsCounters[k]
		if c == nil {
			c = g.obsShard.Counter(k.Metric(), "guard decisions of kind "+k.String(), obs.Sim)
			g.obsCounters[k] = c
		}
		c.Inc()
	}
	if tr, track := g.proc.Thread().Trace(); tr.Enabled() {
		var as []trace.Arg
		if args != nil {
			as = args()
		}
		tr.Instant(track, "guard:"+k.String(), "guard", append(as, trace.Arg{Key: "class", Val: class})...)
	}
	if k.Escalation() && len(g.decisions) < maxDecisions {
		g.decisions = append(g.decisions, Decision{At: g.sched.Now(), Kind: k, Class: class, Detail: detail})
	}
}

// deadlineFor maps a phase name to its configured deadline.
func (g *Guard) deadlineFor(phase string) time.Duration {
	switch phase {
	case "handling":
		return g.cfg.HandlingDeadline
	case "migrationFlush":
		return g.cfg.FlushDeadline
	default:
		return g.cfg.PhaseDeadline
	}
}

// Allow reports whether RCHDroid may handle a runtime change for the
// class; false routes the change through the stock restart path.
func (g *Guard) Allow(class string) bool {
	if g == nil {
		return true
	}
	if g.breakerOpen() {
		return false
	}
	return g.entry(class).mode == ModeActive
}

// NoteStockRoute records that a runtime change for the class is being
// handled by the stock path — the probation counter credits it once the
// activity resumes cleanly.
func (g *Guard) NoteStockRoute(class string) {
	if g == nil {
		return
	}
	e := g.entry(class)
	e.pendingStock = true
	g.emit(KindStockRoute, class, "routing change via stock restart", func() []trace.Arg {
		return []trace.Arg{{Key: "cause", Val: e.cause}}
	})
}

// ArmPhase arms (or re-arms) the watchdog for a named phase of the
// class. The deadline timer fires on the virtual clock even while the
// UI thread is stalled — exactly the property an ANR watchdog needs.
// For the migration-flush phase an existing deadline is kept, so a
// flush deferred repeatedly is still measured from its first deferral.
func (g *Guard) ArmPhase(class, phase string) {
	if g == nil || class == "" {
		return
	}
	d := g.deadlineFor(phase)
	if d <= 0 {
		return
	}
	pm := g.watch[class]
	if pm == nil {
		pm = make(map[string]*armed)
		g.watch[class] = pm
	}
	a := pm[phase]
	if a != nil && a.on && phase == "migrationFlush" {
		return
	}
	deadline := g.sched.Now().Add(d)
	if a == nil {
		a = &armed{}
		a.ev = g.sched.At(deadline, "guard:watchdog:"+phase, func() {
			g.fire(class, phase)
		})
		pm[phase] = a
	} else {
		g.sched.Rearm(a.ev, deadline)
	}
	a.on = true
	a.deadline = deadline
	g.emit(KindArm, class, "", func() []trace.Arg {
		return []trace.Arg{{Key: "phase", Val: phase}, {Key: "deadline", Val: d}}
	})
}

// DisarmPhase cancels the phase watchdog, recording the margin left
// before the deadline. A phase that was never armed is a no-op.
func (g *Guard) DisarmPhase(class, phase string) {
	if g == nil {
		return
	}
	a := g.watch[class][phase]
	if a == nil || !a.on {
		return
	}
	a.on = false
	g.sched.Cancel(a.ev)
	margin := a.deadline.Sub(g.sched.Now())
	g.emit(KindDisarm, class, "", func() []trace.Arg {
		return []trace.Arg{{Key: "phase", Val: phase}, {Key: "margin", Val: margin}}
	})
}

// fire is the watchdog expiry: the phase missed its deadline, which is
// this simulator's ANR. The class is quarantined.
func (g *Guard) fire(class, phase string) {
	a := g.watch[class][phase]
	if !a.on {
		return
	}
	a.on = false
	if g.proc.Crashed() {
		return
	}
	d := g.deadlineFor(phase)
	g.emit(KindANR, class, fmt.Sprintf("%s missed %v deadline", phase, d), func() []trace.Arg {
		return []trace.Arg{{Key: "phase", Val: phase}, {Key: "deadline", Val: d}}
	})
	g.Quarantine(class, "anr:"+phase)
}

// cancelWatch cancels every armed deadline for the class without
// recording margins (used on quarantine, where the phases did not
// complete).
func (g *Guard) cancelWatch(class string) {
	for _, a := range g.watch[class] {
		a.on = false
		g.sched.Cancel(a.ev)
	}
}

// OnDispatch is the looper seam: called after every UI dispatch with
// its final occupancy. An overrun past DispatchDeadline is an ANR; it
// escalates to a quarantine only when attributable — some class has a
// handling in flight (an armed phase watchdog).
func (g *Guard) OnDispatch(name string, start sim.Time, occupancy time.Duration) {
	if g == nil {
		return
	}
	if g.cfg.DispatchDeadline <= 0 || occupancy <= g.cfg.DispatchDeadline {
		return
	}
	if g.proc.Crashed() {
		return
	}
	g.dispatchOverruns++
	class := g.firstArmedClass()
	g.emit(KindANR, class, fmt.Sprintf("dispatch %s occupied %v (limit %v)", name, occupancy, g.cfg.DispatchDeadline), func() []trace.Arg {
		return []trace.Arg{
			{Key: "phase", Val: "dispatch:" + name},
			{Key: "occupancy", Val: occupancy},
			{Key: "deadline", Val: g.cfg.DispatchDeadline},
		}
	})
	if class != "" {
		g.Quarantine(class, "anr:dispatch:"+name)
	}
}

// firstArmedClass returns the lexically first class with an armed phase
// watchdog, or "" — the deterministic attribution for a dispatch ANR.
func (g *Guard) firstArmedClass() string {
	var names []string
	for c, pm := range g.watch {
		if anyOn(pm) {
			names = append(names, c)
		}
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	return names[0]
}

// Transfer performs one checksummed saved-state transfer: snapshot via
// save and hash it once, then push the snapshot through the fault model
// and check what arrives against that hash. A mismatched or dropped
// arrival is retried, re-sending the same snapshot, up to
// TransferRetries times with deterministic exponential backoff; the
// accumulated backoff is returned so the caller can charge it to the UI
// thread. ok=false means every attempt failed and the caller must
// degrade.
//
// Two invariants make one snapshot enough. save has no side effects
// (Activity.SaveInstanceState only reads the activity, which cannot
// change inside the synchronous phase that transfers it), so saving
// again per attempt would rebuild the same bundle. And
// chaos.TransferFault.Apply never writes into its argument, so the
// snapshot survives a failed attempt intact, and an arrival that is the
// snapshot itself needs no second hash.
func (g *Guard) Transfer(class string, save func() *bundle.Bundle, fault func(attempt int) chaos.TransferFault) (*bundle.Bundle, time.Duration, bool) {
	if g == nil {
		b := save()
		if fault != nil {
			if got := fault(0).Apply(b); got != nil {
				return got, 0, true
			}
			return bundle.New(), 0, true
		}
		return b, 0, true
	}
	attempts := g.cfg.TransferRetries + 1
	if attempts < 1 {
		attempts = 1
	}
	b := save()
	want := b.Checksum()
	var backoff time.Duration
	for i := 0; i < attempts; i++ {
		got := b
		if fault != nil {
			got = fault(i).Apply(b)
		}
		if got == b || got.Checksum() == want {
			return got, backoff, true
		}
		cause := "corrupt"
		if got == nil {
			cause = "dropped"
		}
		if i == attempts-1 {
			break
		}
		wait := g.cfg.RetryBackoff << uint(i)
		backoff += wait
		attempt := i + 1
		g.emit(KindRetry, class, fmt.Sprintf("transfer %s, attempt %d, backoff %v", cause, attempt, wait), func() []trace.Arg {
			return []trace.Arg{{Key: "attempt", Val: attempt}, {Key: "cause", Val: cause}, {Key: "backoff", Val: wait}}
		})
	}
	g.emit(KindTransferFail, class, fmt.Sprintf("all %d attempts failed", attempts), func() []trace.Arg {
		return []trace.Arg{{Key: "attempts", Val: attempts}}
	})
	return nil, backoff, false
}

// Quarantine drops the class to the stock path: its coin flip is
// disabled, its shadow released at the class's next resume, and the
// breaker consulted. Idempotent while already quarantined.
//
// The release is always deferred: a watchdog often fires while a
// handling is still limping through its (stalled) phases, and releasing
// the shadow instance at that instant would destroy the very activity a
// queued flip is about to bring back — turning a slow handling into a
// lost foreground. Resumes are not settled-points either (a stale
// notification from the previous handling can land mid-flight), so the
// releaser itself reports whether it could release; until it does, the
// release stays pending and is retried at each resume. If the class
// never resumes again, the stock-route entry path sweeps the leftover
// shadow on the next change.
func (g *Guard) Quarantine(class, cause string) {
	if g == nil || class == "" {
		return
	}
	e := g.entry(class)
	if e.mode == ModeQuarantined {
		return
	}
	inFlight := anyOn(g.watch[class])
	g.cancelWatch(class)
	e.mode = ModeQuarantined
	e.cause = cause
	e.cleanStock = 0
	e.pendingStock = false
	e.quarantinedAt = g.sched.Now()
	e.quarantines++
	if g.firstQuarantine == 0 {
		g.firstQuarantine = g.sched.Now()
	}
	g.emit(KindQuarantine, class, cause, func() []trace.Arg {
		return []trace.Arg{{Key: "cause", Val: cause}, {Key: "inFlight", Val: inFlight}}
	})
	if g.release != nil {
		e.releasePending = true
	}
	if !g.breakerOpen() && g.quarantinedCount() >= g.cfg.BreakerThreshold {
		n := g.quarantinedCount()
		g.emit(KindBreakerOpen, class, fmt.Sprintf("%d classes quarantined (threshold %d)", n, g.cfg.BreakerThreshold), func() []trace.Arg {
			return []trace.Arg{{Key: "quarantined", Val: n}, {Key: "threshold", Val: g.cfg.BreakerThreshold}}
		})
	}
}

// breakerOpen reports whether the circuit breaker has opened; it is
// final for the run, so one breakerOpen decision keeps it open.
func (g *Guard) breakerOpen() bool { return g.counts[KindBreakerOpen] > 0 }

// quarantinedCount counts currently quarantined classes.
func (g *Guard) quarantinedCount() int {
	n := 0
	for _, e := range g.classes {
		if e.mode == ModeQuarantined {
			n++
		}
	}
	return n
}

// OnResumed is the ATMS seam: every resume notification disarms the
// class's watchdogs, applies a deferred shadow release, and advances
// probation — a clean stock-routed change counts toward recovery, and
// after ProbationK of them RCHDroid is re-enabled (unless the breaker
// is open, which is final for the run).
func (g *Guard) OnResumed(token int) {
	if g == nil {
		return
	}
	a := g.proc.Thread().Activity(token)
	if a == nil {
		return
	}
	class := a.Class().Name
	// Disarm in sorted phase order so the margin instants land in a
	// deterministic order. The buffer holds every phase the handler arms,
	// so the sort runs on the stack.
	var buf [8]string
	phases := buf[:0]
	for ph, a := range g.watch[class] {
		if a.on {
			phases = append(phases, ph)
		}
	}
	slices.Sort(phases)
	for _, ph := range phases {
		g.DisarmPhase(class, ph)
	}
	e := g.entry(class)
	if e.releasePending && g.release != nil && g.release(class) {
		e.releasePending = false
	}
	if e.mode == ModeQuarantined && e.pendingStock {
		e.pendingStock = false
		e.cleanStock++
		g.emit(KindProbation, class, fmt.Sprintf("clean stock change %d/%d", e.cleanStock, g.cfg.ProbationK), func() []trace.Arg {
			return []trace.Arg{{Key: "clean", Val: e.cleanStock}, {Key: "needed", Val: g.cfg.ProbationK}}
		})
		if !g.breakerOpen() && g.cfg.ProbationK > 0 && e.cleanStock >= g.cfg.ProbationK {
			e.mode = ModeActive
			e.cause = ""
			e.cleanStock = 0
			e.recoveries++
			g.emit(KindRecover, class, "probation passed, RCHDroid re-enabled", nil)
		}
	}
}

// SelfCheck validates RCHDroid's structural invariants in-process —
// the lightweight in-situ cousin of oracle.CheckInvariants, run after
// each flip. Any violation quarantines the class. The returned issues
// are for tests and logs.
func (g *Guard) SelfCheck(class string) []string {
	if g == nil || g.proc.Crashed() {
		return nil
	}
	th := g.proc.Thread()
	var issues []string

	// Tracked instances must be alive, and at most one in Shadow state.
	tokens := make([]int, 0, len(th.Activities()))
	for tok := range th.Activities() {
		tokens = append(tokens, tok)
	}
	sort.Ints(tokens)
	shadows := 0
	for _, tok := range tokens {
		inst := th.Activity(tok)
		if !inst.State().Alive() {
			issues = append(issues, fmt.Sprintf("token %d tracked in dead state %v", tok, inst.State()))
		}
		if inst.State() == app.StateShadow {
			shadows++
		}
	}
	if shadows > 1 {
		issues = append(issues, fmt.Sprintf("%d instances in Shadow state", shadows))
	}
	if sh := th.CurrentShadow(); sh != nil && sh.State() != app.StateShadow {
		issues = append(issues, fmt.Sprintf("currentShadow in state %v", sh.State()))
	}
	if sn := th.CurrentSunny(); sn != nil && !sn.State().Visible() {
		issues = append(issues, fmt.Sprintf("currentSunny in state %v", sn.State()))
	}

	// ATMS stack: at most one shadow-flagged record, each mapping to a
	// live shadow-or-stopped instance; the visible record's instance must
	// be alive.
	if g.sys != nil {
		if task := g.sys.Stack().TaskByName(g.proc.App().Name); task != nil {
			shadowRecs := 0
			for _, rec := range task.Records() {
				if !rec.Shadow() {
					continue
				}
				shadowRecs++
				inst := th.Activity(rec.Token)
				if inst == nil {
					issues = append(issues, fmt.Sprintf("shadow record token %d has no instance", rec.Token))
				} else if inst.State() != app.StateShadow && inst.State() != app.StateStopped {
					issues = append(issues, fmt.Sprintf("shadow record token %d maps to state %v", rec.Token, inst.State()))
				}
			}
			if shadowRecs > 1 {
				issues = append(issues, fmt.Sprintf("%d shadow-flagged records in task", shadowRecs))
			}
		}
	}

	if g.aux != nil {
		issues = append(issues, g.aux()...)
	}

	if len(issues) > 0 {
		g.emit(KindSelfCheckFail, class, strings.Join(issues, "; "), func() []trace.Arg {
			return []trace.Arg{{Key: "issues", Val: len(issues)}}
		})
		g.Quarantine(class, "selfcheck:"+issues[0])
	} else {
		g.emit(KindSelfCheck, class, "", nil)
	}
	return issues
}

// SetReleaser installs the shadow-release hook (core package use). The
// hook returns false to defer the release to a later resume.
func (g *Guard) SetReleaser(fn func(class string) bool) {
	if g == nil {
		return
	}
	g.release = fn
}

// SetAuxCheck installs the extra self-check clauses (core package use).
func (g *Guard) SetAuxCheck(fn func() []string) {
	if g == nil {
		return
	}
	g.aux = fn
}

// Count returns how many decisions of kind k the run made — 0 for nil.
func (g *Guard) Count(k Kind) int {
	if g == nil {
		return 0
	}
	return g.counts[k]
}

// Summary is one run's supervision outcome as a verdict carries it:
// plain data, safe for %+v-based byte-identity comparisons. The zero
// value means "guard disabled".
type Summary struct {
	Enabled           bool
	ANRs              int
	Retries           int
	TransferFailures  int
	Quarantines       int
	Recoveries        int
	BreakerOpens      int
	SelfCheckFailures int
	// FirstQuarantineAt is the virtual time of the first quarantine, or
	// 0 — the oracle correlates it against the first injected fault.
	FirstQuarantineAt sim.Time
	// Modes maps each supervised class to its final ladder mode.
	Modes map[string]string
}

// Summary reads the run's outcome; a nil guard returns the zero value.
func (g *Guard) Summary() Summary {
	if g == nil {
		return Summary{}
	}
	modes := make(map[string]string, len(g.classes))
	for c, e := range g.classes {
		modes[c] = e.mode.String()
	}
	return Summary{
		Enabled:           true,
		ANRs:              g.counts[KindANR],
		Retries:           g.counts[KindRetry],
		TransferFailures:  g.counts[KindTransferFail],
		Quarantines:       g.counts[KindQuarantine],
		Recoveries:        g.counts[KindRecover],
		BreakerOpens:      g.counts[KindBreakerOpen],
		SelfCheckFailures: g.counts[KindSelfCheckFail],
		FirstQuarantineAt: g.firstQuarantine,
		Modes:             modes,
	}
}

// Decisions returns the recorded supervision events (bounded).
func (g *Guard) Decisions() []Decision {
	if g == nil {
		return nil
	}
	out := make([]Decision, len(g.decisions))
	copy(out, g.decisions)
	return out
}

// Report renders the supervision summary: counters, then the per-class
// ladder in sorted order — deterministic byte-for-byte across runs.
func (g *Guard) Report() string {
	if g == nil {
		return "guard: disabled\n"
	}
	var b strings.Builder
	n := &g.counts
	fmt.Fprintf(&b, "guard: %d ANRs (%d dispatch overruns), %d transfer retries, %d transfer failures\n",
		n[KindANR], g.dispatchOverruns, n[KindRetry], n[KindTransferFail])
	fmt.Fprintf(&b, "guard: %d quarantines, %d recoveries, %d self-check failures (%d checks), breaker %s\n",
		n[KindQuarantine], n[KindRecover], n[KindSelfCheckFail], n[KindSelfCheck]+n[KindSelfCheckFail],
		map[bool]string{true: "OPEN", false: "closed"}[g.breakerOpen()])
	names := make([]string, 0, len(g.classes))
	for c := range g.classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		e := g.classes[c]
		fmt.Fprintf(&b, "guard: %-24s %-11s", c, e.mode)
		if e.mode == ModeQuarantined {
			fmt.Fprintf(&b, " cause=%s since=%v probation=%d/%d",
				e.cause, time.Duration(e.quarantinedAt), e.cleanStock, g.cfg.ProbationK)
		}
		fmt.Fprintf(&b, " (quarantined %dx, recovered %dx)\n", e.quarantines, e.recoveries)
	}
	return b.String()
}
