package oracle

import (
	"fmt"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/view"
)

// StepKind enumerates the scripted interactions and runtime changes of
// the one scenario language both harnesses speak: the seeded oracle
// generates scripts in it (GenScenario) and the data-loss corpus
// (internal/oracle/corpus) writes them by hand.
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
	// StepBump increments the int64 counter extra named Text. The apps
	// seed their counters in OnCreate, so an absent or mistyped counter
	// is dropped or corrupted state: the step records it as an invariant
	// violation before overwriting it, since 0+1 would look like a
	// legitimate first bump.
	StepBump
	// StepRotate pushes a rotated configuration.
	StepRotate
	// StepResize pushes the screen size resizeTable[N].
	StepResize
	// StepLocale pushes the locale Text.
	StepLocale
	// StepFontScale pushes the font scale fontTable[N].
	StepFontScale
	// StepNight pushes the day/night UI mode N (config.UIModeDay or
	// config.UIModeNight) — a runtime change on a dimension other than
	// orientation, so it never no-ops against an instance whose pending
	// rotation has not applied yet.
	StepNight
	// StepBurst pushes two rotations Work apart: the second lands while
	// the first is still being handled.
	StepBurst
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
	// the dialogs showing at completion time — the deferred-dismiss
	// pattern that leaks the window when a stock restart got there first.
	StepAsync
	// StepTouch starts a Work-long async task whose completion writes
	// Text to the N views with ids ID, ID+1, … of the instance that
	// started it: an ImageView takes Text as its drawable, a TextView as
	// its text. This is the Fig 9 pattern. If a stock restart released
	// those views meanwhile, the write crashes; if RCHDroid made the
	// instance its shadow, the lazy-migration flush carries the write to
	// the sunny instance.
	StepTouch
	// StepKill crashes the process and relaunches it with the
	// system-held stock bundle (background kill, user navigates back).
	StepKill
	// StepQuarantine force-quarantines Class on the guard (guarded
	// scenarios only; a no-op under stock).
	StepQuarantine
	// StepIdle advances virtual time only.
	StepIdle

	numStepKinds
)

var stepKindNames = [numStepKinds]string{
	StepType:       "type",
	StepSetText:    "setText",
	StepCheck:      "check",
	StepSeek:       "seek",
	StepSelect:     "select",
	StepBump:       "bump",
	StepRotate:     "rotate",
	StepResize:     "resize",
	StepLocale:     "locale",
	StepFontScale:  "fontscale",
	StepNight:      "night",
	StepBurst:      "burst",
	StepBack:       "back",
	StepStart:      "start",
	StepFragment:   "fragment",
	StepDialog:     "dialog",
	StepAsync:      "async",
	StepTouch:      "touch",
	StepKill:       "kill",
	StepQuarantine: "quarantine",
	StepIdle:       "idle",
}

// stepMessages names the UI-looper message each kind posts, built once:
// "oracle:<kind>", a prefix the chaos layer treats as droppable input.
var stepMessages [numStepKinds]string

func init() {
	for k, name := range stepKindNames {
		stepMessages[k] = "oracle:" + name
	}
}

// String names the step kind for reports.
func (k StepKind) String() string {
	if k >= 0 && k < numStepKinds {
		return stepKindNames[k]
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
	Expect []Field
}

// Scenario is one script of the scenario language with its app, its
// probe and the contract its runs are judged by. The corpus writes six
// by hand; GenScenario derives one per seed.
type Scenario struct {
	Name  string
	About string
	// App builds the scenario's app model.
	App func() *app.App
	// Probe appends the ground-truth user state of the foreground
	// instance to dst as taxonomy-tagged fields and returns the result.
	// Field names are class-prefixed so multi-activity expectations stay
	// per-class.
	Probe func(fg *app.Activity, dst []Field) []Field
	Steps []Step
	// Images is the oracle app's ImageView count in a generated scenario
	// and 0 in a corpus one. Generated worlds of equal image count are
	// identical before chaos arms, so they share a fork template; corpus
	// scenarios key theirs by name.
	Images int
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
	StockMayLose []LossBucket
	// RCHMayLose declares the buckets RCHDroid is allowed to lose into.
	// The shadow snapshot is a superset bundle (full view tree +
	// app:private), so raw in-memory fields (nonview/unsaved) survive
	// only when the same instance flips back to the foreground — a
	// change that launches a fresh sunny instance rebuilds it from the
	// snapshot, which cannot carry unserialized fields. Scenarios that
	// probe such state declare the bucket here; everything else stays an
	// absolute.
	RCHMayLose []LossBucket
	// StockMayCrash declares that the stock run may die (leaked dialog
	// window, released view); an undeclared stock crash is unclassified.
	StockMayCrash bool
	// MaxInstances bounds live instances per process for the invariant
	// check (0 means 3: sunny + shadow + one transient zombie awaiting
	// async drain).
	MaxInstances int
	// MaxVisible bounds visible activities system-wide (0 means 1).
	// Multi-activity scenarios overlap two visible activities while a
	// start or back transition — stretched by an injected change — is in
	// flight.
	MaxVisible int
}

// MayLose reports whether the scenario declares the bucket for stock.
func (s *Scenario) MayLose(b LossBucket) bool { return bucketIn(s.StockMayLose, b) }

// MayLoseRCH reports whether the scenario declares the bucket for
// RCHDroid.
func (s *Scenario) MayLoseRCH(b LossBucket) bool { return bucketIn(s.RCHMayLose, b) }

func bucketIn(buckets []LossBucket, b LossBucket) bool {
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

// invariants is the sampling config for the scenario's declared bounds.
func (s *Scenario) invariants() InvariantConfig {
	max := s.MaxInstances
	if max <= 0 {
		max = 3
	}
	return InvariantConfig{MaxInstancesPerProcess: max, CheckMemoryFloor: true, MaxVisible: s.MaxVisible}
}
