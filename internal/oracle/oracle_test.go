package oracle_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/chaos"
	"rchdroid/internal/config"
	"rchdroid/internal/core"
	"rchdroid/internal/oracle"
	"rchdroid/internal/sweep"
	"rchdroid/internal/view"
)

var (
	seedCount = flag.Int("oracle.seeds", 1000,
		"number of seeds the differential sweep covers (short mode caps at 128)")
	replaySeed = flag.Uint64("oracle.replay", 0,
		"replay a single failing seed with its full verdict")
	traceOnFail = flag.Bool("oracle.trace-on-fail", false,
		"on a failing seed, re-run the RCHDroid side with a ring tracer and write the trace to ./artifacts/")
)

// failureTrace writes the failing seed's RCHDroid-side trace to
// ./artifacts/ (when -oracle.trace-on-fail is set) and returns a line
// pointing at it, "" otherwise. The trace is a deterministic re-run, so
// it shows the exact timeline that failed.
func failureTrace(t *testing.T, seed uint64) string {
	t.Helper()
	if !*traceOnFail {
		return ""
	}
	raw, err := oracle.TraceRCHWith(seed, rchInstaller(), 0, chaos.Light())
	if err != nil {
		return fmt.Sprintf("\ntrace-on-fail: %v", err)
	}
	if err := os.MkdirAll("artifacts", 0o755); err != nil {
		return fmt.Sprintf("\ntrace-on-fail: %v", err)
	}
	path := filepath.Join("artifacts", fmt.Sprintf("seed%d.trace.json", seed))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Sprintf("\ntrace-on-fail: %v", err)
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		abs = path
	}
	return fmt.Sprintf("\ntrace:  %s (open with rchtrace, chrome://tracing or ui.perfetto.dev)", abs)
}

// rchInstaller wires RCHDroid (with its core-side chaos hooks) onto a
// fresh system — shared with the sweep engine, which owns the seam
// through which the oracle (imported by core's own tests) reaches core
// without an import cycle.
func rchInstaller() oracle.Installer { return sweep.RCHInstaller() }

// TestTransparencyOracleSweep is the tentpole: a deterministic sweep of
// seeded chaotic scenarios, each run under stock Android 10 and under
// RCHDroid, asserting the transparency contract. The seeds fan out
// across the internal/sweep worker pool (the 1000-seed soak rides the
// same engine); a failure prints the seed and the exact command that
// replays it.
func TestTransparencyOracleSweep(t *testing.T) {
	if *replaySeed != 0 {
		v := oracle.DifferentialWith(*replaySeed, rchInstaller(), chaos.Light(), nil)
		t.Logf("replay verdict:\n%s%s", v.String(), failureTrace(t, *replaySeed))
		if !v.OK() {
			t.Fail()
		}
		return
	}
	seeds := *seedCount
	if testing.Short() && seeds > 128 {
		seeds = 128
	}
	rep := sweep.RunObs(sweep.Config{
		Mode:   "oracle",
		Start:  1,
		Count:  seeds,
		Replay: sweep.ReplayOracle,
	}, sweep.OracleRunner())
	for _, res := range rep.Failed() {
		if res.Panicked {
			t.Errorf("seed %d panicked: %s\n%s", res.Seed, res.PanicVal, res.PanicStack)
			continue
		}
		t.Errorf("%s\n%s\nreplay: "+sweep.ReplayOracle+"%s",
			res.Detail, strings.Join(res.Failures, "\n"), res.Seed, failureTrace(t, res.Seed))
	}
}

// TestVerdictDeterministic re-runs the same seeds and requires
// bit-identical verdicts — the property that makes a printed seed an
// actual reproducer.
func TestVerdictDeterministic(t *testing.T) {
	for _, seed := range []uint64{7, 42, 1337} {
		a := oracle.DifferentialWith(seed, rchInstaller(), chaos.Light(), nil)
		b := oracle.DifferentialWith(seed, rchInstaller(), chaos.Light(), nil)
		as := fmt.Sprintf("%s|%+v|%+v", a.String(), a.RCH, b.Stock)
		bs := fmt.Sprintf("%s|%+v|%+v", b.String(), b.RCH, a.Stock)
		if as != bs {
			t.Fatalf("seed %d: verdicts differ between identical runs:\n%s\n----\n%s", seed, as, bs)
		}
	}
}

// lossyHandler wraps RCHDroid's handler but wipes the EditText before
// every change — a synthetic transparency bug.
type lossyHandler struct {
	app.ChangeHandler
}

func (l lossyHandler) HandleRuntimeChange(t *app.ActivityThread, a *app.Activity, newCfg config.Configuration) {
	if et, ok := a.FindViewByID(oracle.EditID).(*view.EditText); ok {
		et.SetText("")
		et.SetCursor(0)
	}
	l.ChangeHandler.HandleRuntimeChange(t, a, newCfg)
}

// TestOracleHasTeeth verifies the oracle actually detects state loss:
// the lossy mutant must fail on at least one seed where genuine RCHDroid
// passes, and be flagged as losing user state or diverging in essence.
func TestOracleHasTeeth(t *testing.T) {
	lossy := oracle.Installer{
		Name: "RCHDroid-lossy",
		Install: func(sys *atms.ATMS, proc *app.Process, plan *chaos.Plan) {
			opts := core.DefaultOptions()
			opts.Chaos = plan
			core.Install(sys, proc, opts)
			proc.Thread().SetChangeHandler(lossyHandler{proc.Thread().Handler()})
		},
	}
	for seed := uint64(1); seed <= 40; seed++ {
		good := oracle.DifferentialWith(seed, rchInstaller(), chaos.Light(), nil)
		bad := oracle.DifferentialWith(seed, lossy, chaos.Light(), nil)
		if good.OK() && !bad.OK() {
			return // the oracle told the mutant apart from the real thing
		}
	}
	t.Fatal("oracle did not distinguish a state-wiping handler from RCHDroid in 40 seeds")
}
