// Package corpus is the declarative data-loss scenario corpus: compact
// app models and interaction scripts distilled from the lifecycle edges
// where the Data Loss Detector literature ("A Benchmark of Data Loss
// Bugs for Android Apps") clusters real bugs — double rotation,
// background-kill-then-resume with unsaved input, back-stack
// navigation, and dialog/fragment state mid-change.
//
// Each scenario declares its app, a probe that reads the ground-truth
// user state off the foreground instance as taxonomy-tagged fields
// (oracle.Field), the interaction steps, and the buckets stock Android
// is allowed to lose state into. The schedule-space explorer
// (internal/explore) runs every scenario under stock and RCHDroid with
// every bounded interleaving of edge faults, and classifies each
// divergence against the declared taxonomy: an undeclared bucket is an
// unclassified divergence and fails the gate.
package corpus

import (
	"fmt"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/oracle"
	"rchdroid/internal/view"
)

// StepKind enumerates the scripted interactions.
type StepKind int

const (
	// StepType types Text into the EditText with ID.
	StepType StepKind = iota
	// StepSetText sets Text programmatically on the TextView with ID —
	// state the stock save contract does not cover.
	StepSetText
	// StepCheck toggles the CheckBox with ID.
	StepCheck
	// StepSeek sets the SeekBar with ID to progress N.
	StepSeek
	// StepSelect positions the selector of the list with ID at row N.
	StepSelect
	// StepBumpSaved increments the extra the app persists through
	// onSaveInstanceState (SavedKey).
	StepBumpSaved
	// StepBumpUnsaved increments the in-memory-only extra (DraftKey).
	StepBumpUnsaved
	// StepRotate pushes a rotated configuration.
	StepRotate
	// StepNight toggles the day/night UI mode — a runtime change on a
	// dimension other than orientation, so it never no-ops against an
	// instance whose pending rotation has not applied yet (two rotations
	// in flight cancel out; rotation-then-night does not).
	StepNight
	// StepBack finishes the foreground activity (back navigation).
	StepBack
	// StepStart starts the activity Class from the foreground instance.
	StepStart
	// StepFragment attaches fragment class Class with tag Text into the
	// container with ID.
	StepFragment
	// StepDialog shows a dialog titled Text on the foreground instance.
	StepDialog
	// StepAsync starts a Work-long async task whose completion dismisses
	// the dialogs showing at start time — the deferred-dismiss pattern
	// that leaks the window when a stock restart got there first.
	StepAsync
	// StepTouch starts a Work-long async task whose completion sets Text
	// on the starting instance's TextView with ID — the Fig 9 pattern and
	// the oracle's touch op. If a stock restart released that view
	// meanwhile, the write crashes; if RCHDroid made the instance its
	// shadow, the lazy-migration flush carries the write to the sunny
	// instance.
	StepTouch
	// StepKill crashes the process and relaunches it with the
	// system-held stock bundle (background kill, user navigates back).
	StepKill
	// StepQuarantine force-quarantines Class on the guard (guarded
	// scenarios only; a no-op under stock).
	StepQuarantine
	// StepIdle advances virtual time only.
	StepIdle
)

// String names the step kind for reports.
func (k StepKind) String() string {
	switch k {
	case StepType:
		return "type"
	case StepSetText:
		return "setText"
	case StepCheck:
		return "check"
	case StepSeek:
		return "seek"
	case StepSelect:
		return "select"
	case StepBumpSaved:
		return "bumpSaved"
	case StepBumpUnsaved:
		return "bumpUnsaved"
	case StepRotate:
		return "rotate"
	case StepNight:
		return "night"
	case StepBack:
		return "back"
	case StepStart:
		return "start"
	case StepFragment:
		return "fragment"
	case StepDialog:
		return "dialog"
	case StepAsync:
		return "async"
	case StepTouch:
		return "touch"
	case StepKill:
		return "kill"
	case StepQuarantine:
		return "quarantine"
	case StepIdle:
		return "idle"
	}
	return fmt.Sprintf("step(%d)", int(k))
}

// Step is one scripted interaction. Settle is how long virtual time
// advances after the step before the next lifecycle edge; short settles
// put the edge inside the previous step's handling window.
type Step struct {
	Kind   StepKind
	Text   string
	ID     view.ID
	N      int
	Class  string
	Work   time.Duration
	Settle time.Duration
	// Expect overrides expected fields after the step is applied, for
	// effects that land asynchronously (an async dismissal means the
	// dialog count is eventually 0, even though the probe at step time
	// still sees it showing).
	Expect []oracle.Field
}

// Scenario is one corpus entry.
type Scenario struct {
	Name  string
	About string
	// App builds a fresh instance of the scenario's app model.
	App func() *app.App
	// Probe reads the ground-truth user state off the foreground
	// instance. Field names are class-prefixed so multi-activity
	// expectations stay per-class.
	Probe func(fg *app.Activity) []oracle.Field
	Steps []Step
	// AsyncDrain is how far an async-completion edge action advances
	// virtual time (0 means 1s).
	AsyncDrain time.Duration
	// NoKill removes the process-kill action from the schedule space
	// (multi-activity scenarios, where the single system-held bundle
	// cannot model per-record state).
	NoKill bool
	// Guarded runs the RCHDroid side with the supervision layer armed
	// and judges quarantined runs stock-equivalently.
	Guarded bool
	// StockMayLose declares the taxonomy buckets the stock handler is
	// allowed to lose state into; a stock loss in any other bucket is an
	// unclassified divergence.
	StockMayLose []oracle.LossBucket
	// RCHMayLose declares the buckets RCHDroid is allowed to lose into.
	// The shadow snapshot is a superset bundle (full view tree +
	// app:private), so raw in-memory fields (nonview/unsaved) survive
	// only when the same instance flips back to the foreground — a
	// change that launches a fresh sunny instance rebuilds it from the
	// snapshot, which cannot carry unserialized fields. Scenarios that
	// probe such state declare the bucket here; everything else stays an
	// absolute.
	RCHMayLose []oracle.LossBucket
	// StockMayCrash declares that the stock run may die (leaked dialog
	// window); an undeclared stock crash is unclassified.
	StockMayCrash bool
	// MaxInstances bounds live instances per process for the invariant
	// check (0 means 3: sunny + shadow + one transient zombie).
	MaxInstances int
	// MaxVisible bounds visible activities system-wide (0 means 1).
	// Multi-activity scenarios overlap two visible activities while a
	// start or back transition — stretched by an injected change — is in
	// flight.
	MaxVisible int
}

// MayLose reports whether the scenario declares the bucket for stock.
func (s *Scenario) MayLose(b oracle.LossBucket) bool {
	return bucketIn(s.StockMayLose, b)
}

// MayLoseRCH reports whether the scenario declares the bucket for
// RCHDroid.
func (s *Scenario) MayLoseRCH(b oracle.LossBucket) bool {
	return bucketIn(s.RCHMayLose, b)
}

func bucketIn(buckets []oracle.LossBucket, b oracle.LossBucket) bool {
	for _, d := range buckets {
		if d == b {
			return true
		}
	}
	return false
}

// Edges returns the number of lifecycle edges the schedule space
// enumerates: one after each step.
func (s *Scenario) Edges() int { return len(s.Steps) }

// All returns the corpus in canonical order.
func All() []Scenario {
	return []Scenario{
		DoubleRotation(),
		KillResume(),
		BackStack(),
		DialogFragment(),
		ThemeSwitch(),
		QuarantineRecovery(),
	}
}

// ByName finds a scenario.
func ByName(name string) (Scenario, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
