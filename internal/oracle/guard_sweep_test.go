package oracle_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rchdroid/internal/chaos"
	"rchdroid/internal/oracle"
	"rchdroid/internal/sweep"
)

var (
	guardSeeds = flag.Int("oracle.guard-seeds", 256,
		"number of seeds the guarded-chaos sweep covers (short mode caps at 64)")
	guardReplay = flag.Uint64("oracle.guard-replay", 0,
		"replay a single failing guarded seed with its full verdict")
)

// guardedInstaller wires RCHDroid with the supervision layer armed —
// shared with the sweep engine; each call returns an independent
// installer whose Guard getter reads back the guard the most recent
// Install created, so the verdict carries the supervision summary.
func guardedInstaller() oracle.Installer { return sweep.GuardedInstaller() }

// guardFailureTrace mirrors failureTrace for the guarded sweep: it
// replays the failing seed under the Guarded preset and writes the
// timeline to ./artifacts/ (created on demand).
func guardFailureTrace(t *testing.T, seed uint64) string {
	t.Helper()
	if !*traceOnFail {
		return ""
	}
	raw, err := oracle.TraceRCHWith(seed, guardedInstaller(), 0, chaos.Guarded())
	if err != nil {
		return fmt.Sprintf("\ntrace-on-fail: %v", err)
	}
	if err := os.MkdirAll("artifacts", 0o755); err != nil {
		return fmt.Sprintf("\ntrace-on-fail: %v", err)
	}
	path := filepath.Join("artifacts", fmt.Sprintf("seed%d.guarded.trace.json", seed))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Sprintf("\ntrace-on-fail: %v", err)
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		abs = path
	}
	return fmt.Sprintf("\ntrace:  %s (open with rchtrace, chrome://tracing or ui.perfetto.dev)", abs)
}

// TestGuardedChaosSweep drives the supervised build through the heavy
// Guarded preset (core stalls long enough to trip the watchdog, plus
// transfer corruption and drops). The judge runs mode-aware: every
// activity must end the run either RCHDroid-equivalent or exactly
// stock-equivalent, never a hybrid, and every quarantine or breaker
// open must be preceded by a landed injection.
func TestGuardedChaosSweep(t *testing.T) {
	if *guardReplay != 0 {
		v := oracle.DifferentialWith(*guardReplay, guardedInstaller(), chaos.Guarded(), nil)
		t.Logf("replay verdict:\n%s%s", v.String(), guardFailureTrace(t, *guardReplay))
		if !v.OK() {
			t.Fail()
		}
		return
	}
	seeds := *guardSeeds
	if testing.Short() && seeds > 64 {
		seeds = 64
	}
	rep := sweep.RunObs(sweep.Config{
		Mode:   "guard",
		Start:  1,
		Count:  seeds,
		Replay: sweep.ReplayGuard,
	}, sweep.GuardRunner())
	for _, res := range rep.Failed() {
		if res.Panicked {
			t.Errorf("seed %d panicked: %s\n%s", res.Seed, res.PanicVal, res.PanicStack)
			continue
		}
		t.Errorf("%s\n%s\nreplay: "+sweep.ReplayGuard+"%s",
			res.Detail, strings.Join(res.Failures, "\n"), res.Seed, guardFailureTrace(t, res.Seed))
	}
}

// TestGuardRecoveryMidStockRouteRegression pins guarded seed 613, first
// caught when the sweep gate was raised to 1024 seeds: a chaos config
// echo landed at the exact tick the guard recovered the class from
// quarantine, while the previous change's stock-routed relaunch was
// still queued on the looper. The recovered change took the RCHDroid
// path and the stale stock relaunch ran anyway, resurrecting the old
// token as a second visible activity. The handler now supersedes a
// queued stock route whenever a newer handling is scheduled
// (core.TestStaleStockRouteSupersededByRCHHandling is the unit-level
// counterpart).
func TestGuardRecoveryMidStockRouteRegression(t *testing.T) {
	v := oracle.DifferentialWith(613, guardedInstaller(), chaos.Guarded(), nil)
	if !v.OK() {
		t.Fatalf("guarded seed 613 regressed:\n%s", v.String())
	}
}

// TestGuardSavesRawFailures is the counterfactual: on the same seeds and
// the same fault plan, the unguarded build must reproduce raw contract
// failures (that is what the Guarded preset is tuned to cause), and the
// guarded build must pass every one of those seeds.
func TestGuardSavesRawFailures(t *testing.T) {
	rawFailures := 0
	for seed := uint64(1); seed <= 96; seed++ {
		raw := oracle.DifferentialWith(seed, rchInstaller(), chaos.Guarded(), nil)
		if raw.OK() {
			continue
		}
		rawFailures++
		guarded := oracle.DifferentialWith(seed, guardedInstaller(), chaos.Guarded(), nil)
		if !guarded.OK() {
			t.Fatalf("seed %d fails even with the guard:\nraw:     %s\nguarded: %s",
				seed, raw.String(), guarded.String())
		}
	}
	if rawFailures == 0 {
		t.Fatal("Guarded preset caused no raw failures in 96 seeds; the counterfactual is vacuous")
	}
	t.Logf("guard recovered %d raw-failing seeds", rawFailures)
}

// TestGuardDeterministic re-runs guarded seeds and requires bit-identical
// verdicts, including the guard summary — quarantine decisions and retry
// backoffs are part of the deterministic replay contract.
func TestGuardDeterministic(t *testing.T) {
	for _, seed := range []uint64{3, 19, 77} {
		a := oracle.DifferentialWith(seed, guardedInstaller(), chaos.Guarded(), nil)
		b := oracle.DifferentialWith(seed, guardedInstaller(), chaos.Guarded(), nil)
		as := fmt.Sprintf("%s|%+v", a.String(), a.RCH)
		bs := fmt.Sprintf("%s|%+v", b.String(), b.RCH)
		if as != bs {
			t.Fatalf("seed %d: guarded verdicts differ between identical runs:\n%s\n----\n%s", seed, as, bs)
		}
	}
}
