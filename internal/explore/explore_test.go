package explore

import (
	"strings"
	"testing"

	"rchdroid/internal/oracle"
	"rchdroid/internal/oracle/corpus"
)

// TestBaselineSchedules: the fault-free schedule (index 0) and every
// single-fault schedule must pass for every corpus scenario — RCHDroid
// preserves everything, and whatever stock loses classifies into the
// scenario's declared buckets.
func TestBaselineSchedules(t *testing.T) {
	depth := 1
	if testing.Short() {
		depth = 0
	}
	for _, sc := range corpus.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res := Explore(&sc, Options{Depth: depth})
			if !res.OK() {
				t.Fatalf("explore failed:\n%s", res)
			}
		})
	}
}

// TestExploreDeterminism: two independent explorations of the same
// space render byte-identical reports and per-schedule verdicts at
// different worker counts — the byte-identical-merge contract extended
// to the explorer's tallies. Every corpus scenario is an input, so the
// four-worker pass reads each scenario's shared app definition from
// four goroutines at once (the race-enabled tier-1 pass checks it).
func TestExploreDeterminism(t *testing.T) {
	for _, sc := range corpus.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			opts := Options{Depth: 1, Workers: 1}
			a := Explore(&sc, opts)
			opts.Workers = 4
			b := Explore(&sc, opts)
			if a.String() != b.String() || a.Report.String() != b.Report.String() {
				t.Fatalf("exploration not deterministic:\n--- workers=1:\n%s\n--- workers=4:\n%s", a, b)
			}
		})
	}
}

// TestChunkedFrontier: exploring a space in chunks visits exactly the
// indexes a single pass does, and the frontier arithmetic closes the
// space.
func TestChunkedFrontier(t *testing.T) {
	sc, ok := corpus.ByName("kill-resume")
	if !ok {
		t.Fatal("corpus lost kill-resume")
	}
	sp := SpaceFor(&sc, 1)
	full := Explore(&sc, Options{Depth: 1})
	var got []string
	f := Frontier{Scenario: sc.Name, Depth: 1, Total: sp.Size()}
	for !f.Done() {
		chunk := Explore(&sc, Options{Depth: 1, Start: f.Next, Count: 7})
		for _, r := range chunk.Report.Results {
			got = append(got, r.Detail)
		}
		f.Next = chunk.Next()
	}
	if len(got) != len(full.Report.Results) {
		t.Fatalf("chunked pass ran %d schedules, full pass %d", len(got), len(full.Report.Results))
	}
	for i, r := range full.Report.Results {
		if got[i] != r.Detail {
			t.Fatalf("chunk/full divergence at index %d:\n  chunked: %s\n  full:    %s", i, got[i], r.Detail)
		}
	}
	round, err := DecodeFrontier(EncodeFrontier(f))
	if err != nil || round != f {
		t.Fatalf("frontier did not round-trip: %+v vs %+v (%v)", round, f, err)
	}
}

// TestClassifierHasTeeth: running the stock handler on BOTH sides must
// fail — the final rotation loses the unsaved buckets, and the verdict
// names them. A classifier that passes a stock-vs-stock run is vacuous.
func TestClassifierHasTeeth(t *testing.T) {
	sc, ok := corpus.ByName("double-rotation")
	if !ok {
		t.Fatal("corpus lost double-rotation")
	}
	sp := SpaceFor(&sc, 0)
	v := RunIndexWith(&sc, sp, 0, oracle.Installer{Name: "Android-10-as-RCH"})
	if v.OK() {
		t.Fatal("stock-vs-stock passed: the classifier cannot see stock's losses")
	}
	all := strings.Join(v.Failures, "\n")
	if !strings.Contains(all, "[view/unsaved]") {
		t.Errorf("failures missing bucket [view/unsaved]:\n%s", all)
	}
	// The in-memory draft extra is a declared best-effort bucket (it is
	// excused, not a failure), but the classifier must still see it.
	foundDraft := false
	for _, l := range v.RCH.Losses {
		if l.Field == "Editor.draft" && l.Bucket == oracle.LossNonViewUnsaved {
			foundDraft = true
		}
	}
	if !foundDraft {
		t.Errorf("classifier did not bucket the dropped draft extra as nonview/unsaved: %v", v.RCH.Losses)
	}
	// The saved buckets survive stock's own restart path: state the
	// contract covers must never be misclassified as lost.
	for _, l := range v.RCH.Losses {
		if l.Bucket == oracle.LossViewSaved || l.Bucket == oracle.LossNonViewSaved {
			t.Errorf("stock restart misclassified saved-bucket state as lost: %s", l)
		}
	}
}
