// Package corpus is the declarative data-loss scenario corpus: compact
// app models and interaction scripts distilled from the lifecycle edges
// where the Data Loss Detector literature ("A Benchmark of Data Loss
// Bugs for Android Apps") clusters real bugs — double rotation,
// background-kill-then-resume with unsaved input, back-stack
// navigation, and dialog/fragment state mid-change.
//
// Each scenario declares its app, a probe that reads the ground-truth
// user state off the foreground instance as taxonomy-tagged fields
// (oracle.Field), the steps in the oracle's scenario language
// (oracle.Step), and the buckets stock Android is allowed to lose state
// into. The schedule-space explorer
// (internal/explore) runs every scenario under stock and RCHDroid with
// every bounded interleaving of edge faults, and classifies each
// divergence against the declared taxonomy: an undeclared bucket is an
// unclassified divergence and fails the gate.
package corpus

import "rchdroid/internal/oracle"

// Scenario is one corpus entry: a script in the oracle's one step
// language (oracle.Step) with its app, probe and loss contract. It is an
// alias of oracle.Scenario, so the runner in internal/oracle runs corpus
// entries and generated seeds alike, and callers keep writing
// corpus.Scenario.
type Scenario = oracle.Scenario

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
