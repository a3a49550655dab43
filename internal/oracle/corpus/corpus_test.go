package corpus

import (
	"strings"
	"testing"

	"rchdroid/internal/oracle"
)

// TestCorpusWellFormed checks every scenario's declarative contract: the
// explorer trusts these invariants (unique names, buildable apps, valid
// buckets, at least one edge) without re-validating them per run.
func TestCorpusWellFormed(t *testing.T) {
	all := All()
	if len(all) < 5 {
		t.Fatalf("corpus shrank to %d scenarios", len(all))
	}
	seen := map[string]bool{}
	for _, sc := range all {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if sc.Name == "" || sc.About == "" {
				t.Error("scenario missing name or about text")
			}
			if seen[sc.Name] {
				t.Errorf("duplicate scenario name %q", sc.Name)
			}
			seen[sc.Name] = true
			if sc.App == nil || sc.Probe == nil {
				t.Fatal("scenario missing App or Probe")
			}
			if a := sc.App(); a == nil {
				t.Error("App() built nil")
			}
			if sc.Edges() != len(sc.Steps) || sc.Edges() == 0 {
				t.Errorf("Edges() = %d with %d steps", sc.Edges(), len(sc.Steps))
			}
			for _, b := range append(append([]oracle.LossBucket{}, sc.StockMayLose...), sc.RCHMayLose...) {
				if b < 0 || b >= oracle.NumLossBuckets {
					t.Errorf("declared bucket %d out of range", int(b))
				}
			}
			for i, st := range sc.Steps {
				if strings.HasPrefix(st.Kind.String(), "step(") {
					t.Errorf("step %d has unnamed kind %d", i, int(st.Kind))
				}
				if st.Settle < 0 {
					t.Errorf("step %d has negative settle", i)
				}
			}
			if sc.Guarded {
				quarantines := 0
				for _, st := range sc.Steps {
					if st.Kind == StepQuarantine {
						quarantines++
					}
				}
				if quarantines == 0 {
					t.Error("guarded scenario never quarantines — the guard path goes unexercised")
				}
			}
		})
	}
}

func TestByNameMatchesAll(t *testing.T) {
	for _, sc := range All() {
		got, ok := ByName(sc.Name)
		if !ok {
			t.Errorf("ByName(%q) missed", sc.Name)
			continue
		}
		if got.Name != sc.Name || got.About != sc.About || len(got.Steps) != len(sc.Steps) {
			t.Errorf("ByName(%q) returned a different scenario", sc.Name)
		}
	}
	if _, ok := ByName("no-such-scenario"); ok {
		t.Error("ByName invented a scenario")
	}
}

// TestStepKindStrings pins the report vocabulary — replay logs name steps
// by these strings, so renames break saved repro lines.
func TestStepKindStrings(t *testing.T) {
	want := map[StepKind]string{
		StepType:        "type",
		StepSetText:     "setText",
		StepCheck:       "check",
		StepSeek:        "seek",
		StepSelect:      "select",
		StepBumpSaved:   "bumpSaved",
		StepBumpUnsaved: "bumpUnsaved",
		StepRotate:      "rotate",
		StepNight:       "night",
		StepBack:        "back",
		StepStart:       "start",
		StepFragment:    "fragment",
		StepDialog:      "dialog",
		StepAsync:       "async",
		StepTouch:       "touch",
		StepKill:        "kill",
		StepQuarantine:  "quarantine",
		StepIdle:        "idle",
	}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("StepKind(%d).String() = %q, want %q", int(k), got, s)
		}
	}
	if got := StepKind(999).String(); got != "step(999)" {
		t.Errorf("unknown kind renders %q", got)
	}
}

func TestMayLoseDeclarations(t *testing.T) {
	sc := Scenario{
		StockMayLose: []oracle.LossBucket{oracle.LossViewUnsaved},
		RCHMayLose:   []oracle.LossBucket{oracle.LossNonViewUnsaved},
	}
	if !sc.MayLose(oracle.LossViewUnsaved) || sc.MayLose(oracle.LossNonViewSaved) {
		t.Error("MayLose misreads StockMayLose")
	}
	if !sc.MayLoseRCH(oracle.LossNonViewUnsaved) || sc.MayLoseRCH(oracle.LossViewUnsaved) {
		t.Error("MayLoseRCH misreads RCHMayLose")
	}
}
