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
					if st.Kind == oracle.StepQuarantine {
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

// TestStepKindStrings pins the vocabulary of the step language the
// corpus is written in — invariant lines and replay logs name steps by
// these strings, so renames break saved repro lines.
func TestStepKindStrings(t *testing.T) {
	want := map[oracle.StepKind]string{
		oracle.StepType:       "type",
		oracle.StepSetText:    "setText",
		oracle.StepCheck:      "check",
		oracle.StepSeek:       "seek",
		oracle.StepSelect:     "select",
		oracle.StepBump:       "bump",
		oracle.StepRotate:     "rotate",
		oracle.StepResize:     "resize",
		oracle.StepLocale:     "locale",
		oracle.StepFontScale:  "fontscale",
		oracle.StepNight:      "night",
		oracle.StepBurst:      "burst",
		oracle.StepBack:       "back",
		oracle.StepStart:      "start",
		oracle.StepFragment:   "fragment",
		oracle.StepDialog:     "dialog",
		oracle.StepAsync:      "async",
		oracle.StepTouch:      "touch",
		oracle.StepKill:       "kill",
		oracle.StepQuarantine: "quarantine",
		oracle.StepIdle:       "idle",
	}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("StepKind(%d).String() = %q, want %q", int(k), got, s)
		}
	}
	if got := oracle.StepKind(999).String(); got != "step(999)" {
		t.Errorf("unknown kind renders %q", got)
	}
	if got := oracle.StepKind(-1).String(); got != "step(-1)" {
		t.Errorf("negative kind renders %q", got)
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
