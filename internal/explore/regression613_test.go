package explore

import (
	"strings"
	"testing"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/chaos"
	"rchdroid/internal/core"
	"rchdroid/internal/guard"
	"rchdroid/internal/oracle"
	"rchdroid/internal/oracle/corpus"
	"rchdroid/internal/sweep"
)

// guardedCountingInstaller is sweep.GuardedInstaller plus a handle on the
// installed RCHDroid, so tests can read the handler counters after a run.
func guardedCountingInstaller(rch **core.RCHDroid) oracle.Installer {
	var g *guard.Guard
	return oracle.Installer{
		Name: "RCHDroid-guarded",
		Install: func(sys *atms.ATMS, proc *app.Process, plan *chaos.Plan) {
			opts := core.DefaultOptions()
			opts.Chaos = plan
			cfg := guard.DefaultConfig()
			opts.Guard = &cfg
			r := core.Install(sys, proc, opts)
			g = r.Guard
			*rch = r
		},
		Guard: func() *guard.Guard { return g },
	}
}

// supersessionAblatedInstaller is the guarded build with the
// handling-generation guard off (core.Options.DisableSupersession) — the
// ablation that re-creates the guarded-seed-613 stale-relaunch race.
func supersessionAblatedInstaller() oracle.Installer {
	var g *guard.Guard
	return oracle.Installer{
		Name: "RCHDroid-guarded-nosupersede",
		Install: func(sys *atms.ATMS, proc *app.Process, plan *chaos.Plan) {
			opts := core.DefaultOptions()
			opts.Chaos = plan
			opts.DisableSupersession = true
			cfg := guard.DefaultConfig()
			opts.Guard = &cfg
			g = core.Install(sys, proc, opts).Guard
		},
		Guard: func() *guard.Guard { return g },
	}
}

// twinSchedule is the enumerated schedule-space twin of guarded seed 613
// on the quarantine-recovery scenario: one config change injected at the
// edge inside the second quarantined rotate's relaunch window. The
// injected change opens a stock route whose phases queue behind the
// in-flight relaunch; the scenario's scripted night-mode toggle is
// delivered right behind it and its handler entry outdates the queued
// route's generation — the exact window where only the
// handling-generation guard keeps the stale relaunch from running.
const twinSchedule = "[e4:config]"

// regressionSeed is the chaos reproduction of the stale-relaunch race
// originally found at guarded seed 613. The device-builder migration
// moved chaos arming to the post-settle point (launch messages are no
// longer rolled), which re-indexed the fault streams; seed 889 is the
// equivalent window under the new arming, re-found by scanning for a
// seed the guarded build survives and the supersession-ablated build
// fails with the second visible activity.
const regressionSeed = 889

// TestGuardedSeed613Regression pins the chaos reproduction of the
// seed-613 race: the full guarded build survives it, and the
// supersession-ablated build fails it with the stale stock relaunch
// resurrecting a second visible activity. The seeded run is the
// counterfactual that proves the race is harmful; the schedule-space twin
// below proves the explorer reaches the same window without RNG.
func TestGuardedSeed613Regression(t *testing.T) {
	guarded := oracle.DifferentialWith(regressionSeed, sweep.GuardedInstaller(), chaos.Guarded())
	if !guarded.OK() {
		t.Fatalf("guarded seed %d regressed:\n%s", regressionSeed, guarded.String())
	}
	ablated := oracle.DifferentialWith(regressionSeed, supersessionAblatedInstaller(), chaos.Guarded())
	if ablated.OK() {
		t.Fatalf("seed %d passed without the handling-generation guard — the ablation no longer reproduces the race, so the regression has lost its counterfactual", regressionSeed)
	}
	if s := ablated.String(); !strings.Contains(s, "visible activities") {
		t.Errorf("ablated seed %d failed with an unexpected shape (want the stale relaunch's second visible activity):\n%s", regressionSeed, s)
	}
}

// TestSeed613ScheduleSpaceTwin pins the deterministic rediscovery: the
// depth-2 enumeration of the quarantine-recovery scenario contains a
// schedule that drives the handler into the same stale-stock-route window
// seed 613 needed sampled chaos to reach — proven by the supersession
// counter firing — with no random seeds anywhere, and the guarded build
// survives it.
func TestSeed613ScheduleSpaceTwin(t *testing.T) {
	sc, ok := corpus.ByName("quarantine-recovery")
	if !ok {
		t.Fatal("quarantine-recovery scenario missing from corpus")
	}
	sp := SpaceFor(&sc, 2)
	parsed, err := sp.ParseSchedule(twinSchedule)
	if err != nil {
		t.Fatalf("twin schedule %s no longer parses: %v", twinSchedule, err)
	}
	idx, ok := sp.IndexOf(parsed)
	if !ok {
		t.Fatalf("twin schedule %s fell out of the depth-2 space", twinSchedule)
	}

	// The empty schedule leaves the race window closed: the scenario's
	// scripted changes alone never overlap a queued stock route.
	var baseline *core.RCHDroid
	if v := RunIndexWith(&sc, sp, 0, guardedCountingInstaller(&baseline)); !v.OK() {
		t.Fatalf("baseline quarantine-recovery run failed:\n%s", v.String())
	}
	if n := baseline.Handler.SupersededStockRoutes(); n != 0 {
		t.Fatalf("baseline run superseded %d stock routes, want 0 — the twin's injection is no longer what opens the window", n)
	}

	// The twin index opens it: the injected change's stock route must be
	// outdated while queued, and the guarded build must survive that.
	var rch *core.RCHDroid
	v := RunIndexWith(&sc, sp, idx, guardedCountingInstaller(&rch))
	if !v.OK() {
		t.Fatalf("guarded build failed the twin schedule %s (idx %d):\n%s", twinSchedule, idx, v.String())
	}
	if n := rch.Handler.SupersededStockRoutes(); n < 1 {
		t.Fatalf("twin schedule %s (idx %d) no longer supersedes a queued stock route — the enumerator lost the seed-613 window", twinSchedule, idx)
	}

	// Rediscovery is deterministic: the same index replays byte-identically.
	again := RunIndexWith(&sc, sp, idx, sweep.GuardedInstaller())
	if v.String() != again.String() {
		t.Fatalf("twin index %d not deterministic:\n%s\nvs\n%s", idx, v.String(), again.String())
	}
}
