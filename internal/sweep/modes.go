package sweep

import (
	"fmt"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/appset"
	"rchdroid/internal/atms"
	"rchdroid/internal/chaos"
	"rchdroid/internal/core"
	"rchdroid/internal/device"
	"rchdroid/internal/guard"
	"rchdroid/internal/monkey"
	"rchdroid/internal/obs"
	"rchdroid/internal/oracle"
)

// Replay command formats — the exact lines a failing seed prints, per
// the ci.sh contract. Each has one %d verb for the seed.
const (
	ReplayOracle = "go test ./internal/oracle -run TestTransparencyOracleSweep -oracle.replay=%d -v"
	ReplayGuard  = "go test ./internal/oracle -run TestGuardedChaosSweep -oracle.guard-replay=%d -v"
	ReplayMonkey = "go run ./cmd/rchsweep -mode=monkey -start=%d -seeds=1 -v"
	ReplayBoot   = "go run ./cmd/rchsweep -mode=boot -start=%d -seeds=1 -v"
)

// RCHInstaller wires RCHDroid (with its core-side chaos hooks) onto a
// fresh system — the seam through which the sweep reaches core without
// the oracle package importing it (core's tests import the oracle).
func RCHInstaller() oracle.Installer { return RCHInstallerObs(nil) }

// RCHInstallerObs is RCHInstaller with the worker's metric shard routed
// into core, so handler counters and phase histograms land in the
// registry. A nil shard disables observation (identical behavior).
func RCHInstallerObs(sh *obs.Shard) oracle.Installer {
	return oracle.Installer{
		Name: "RCHDroid",
		Install: func(sys *atms.ATMS, proc *app.Process, plan *chaos.Plan) {
			opts := core.DefaultOptions()
			opts.Chaos = plan
			opts.Obs = sh
			core.Install(sys, proc, opts)
		},
	}
}

// GuardedInstaller wires RCHDroid with the supervision layer armed. The
// Guard getter reads back the guard the most recent Install created, so
// the verdict carries the supervision summary. Each call returns an
// independent installer — workers must never share one.
func GuardedInstaller() oracle.Installer { return GuardedInstallerObs(nil) }

// GuardedInstallerObs is GuardedInstaller with the worker's metric
// shard routed into core and the guard's decision stream.
func GuardedInstallerObs(sh *obs.Shard) oracle.Installer {
	var g *guard.Guard
	return oracle.Installer{
		Name: "RCHDroid-guarded",
		Install: func(sys *atms.ATMS, proc *app.Process, plan *chaos.Plan) {
			opts := core.DefaultOptions()
			opts.Chaos = plan
			cfg := guard.DefaultConfig()
			opts.Guard = &cfg
			opts.Obs = sh
			g = core.Install(sys, proc, opts).Guard
		},
		Guard: func() *guard.Guard { return g },
	}
}

// verdictOutcome folds a differential verdict into a sweep outcome.
func verdictOutcome(v oracle.Verdict) Outcome {
	return Outcome{OK: v.OK(), Detail: v.Summary(), Failures: v.Failures}
}

// foldVerdict tallies one differential verdict into the worker's shard.
// Every input is seed-derived (crash flags, injection counts, sim-clock
// handling times), so all of these live in the canonical sim domain and
// merge identically at any worker count.
func foldVerdict(sh *obs.Shard, v oracle.Verdict) {
	// Define the failure-class counters unconditionally so a clean sweep
	// still dumps them at zero — "no failures" should be visible, not
	// absent.
	sh.Counter("oracle_runs_total", "differential oracle seeds judged", obs.Sim).Inc()
	failures := sh.Counter("oracle_failures_total", "seeds with at least one transparency-contract failure", obs.Sim)
	stockCrashes := sh.Counter("oracle_stock_crashes_total", "seeds where the stock run crashed", obs.Sim)
	rchCrashes := sh.Counter("oracle_rch_crashes_total", "seeds where the RCHDroid run crashed", obs.Sim)
	if !v.OK() {
		failures.Inc()
	}
	if v.Stock.Crashed {
		stockCrashes.Inc()
	}
	if v.RCH.Crashed {
		rchCrashes.Inc()
	}
	sh.Counter("oracle_injections_total", "chaos faults landed in RCHDroid runs", obs.Sim).Add(int64(v.RCH.Injections))
	sh.Counter("oracle_handlings_total", "runtime changes handled in RCHDroid runs", obs.Sim).Add(int64(v.RCH.Handlings))
	ObserveHandlings(sh, v.RCH.HandlingTimes)
}

// ObserveHandlings records a run's per-handling end-to-end sim-clock
// latencies into the canonical core_handling_sim_ns histogram, the one
// definition every differential runner shares.
func ObserveHandlings(sh *obs.Shard, times []time.Duration) {
	h := sh.Histogram("core_handling_sim_ns", "end-to-end change-handling sim-clock latency (change at ATMS to resume)", obs.Sim, obs.SimDurationBounds)
	for _, d := range times {
		h.ObserveDuration(d)
	}
}

// OracleRunner runs one seed of the differential RCHDroid-vs-stock
// oracle under the Light chaos preset.
func OracleRunner() ObsRunner {
	return func(seed uint64, sh *obs.Shard) Outcome {
		v := oracle.DifferentialWith(seed, RCHInstallerObs(sh), chaos.Light())
		foldVerdict(sh, v)
		return verdictOutcome(v)
	}
}

// GuardRunner runs one seed of the guarded-chaos sweep: the supervised
// build under the heavy Guarded preset, judged mode-aware.
func GuardRunner() ObsRunner {
	return func(seed uint64, sh *obs.Shard) Outcome {
		v := oracle.DifferentialWith(seed, GuardedInstallerObs(sh), chaos.Guarded())
		foldVerdict(sh, v)
		return verdictOutcome(v)
	}
}

// MonkeyRunner runs one seed of the monkey×chaos stress: the TP-27
// model picked by the seed, driven through event chunks with LMK
// kills/trims in between.
func MonkeyRunner() ObsRunner {
	models := appset.TP27()
	return func(seed uint64, sh *obs.Shard) Outcome {
		m := models[int((seed-1)%uint64(len(models)))]
		res := monkey.Stress(m, seed, monkey.StressOptions{})
		sh.Counter("monkey_runs_total", "monkey stress seeds driven", obs.Sim).Inc()
		failures := sh.Counter("monkey_failures_total", "seeds with a monkey-stress contract violation", obs.Sim)
		if !res.OK() {
			failures.Inc()
		}
		sh.Counter("monkey_events_total", "monkey events delivered", obs.Sim).Add(int64(res.Events))
		sh.Counter("monkey_changes_total", "runtime changes injected by the monkey", obs.Sim).Add(int64(res.Changes))
		sh.Counter("monkey_kills_total", "LMK kills injected between chunks", obs.Sim).Add(int64(res.Kills))
		sh.Counter("monkey_trims_total", "memory trims injected between chunks", obs.Sim).Add(int64(res.Trims))
		return Outcome{OK: res.OK(), Detail: res.Summary(), Failures: res.Failures}
	}
}

// BootRunner measures device spin-up throughput: each seed builds one
// settled pre-chaos world and verifies it is ready to run. This is the
// rchserve boot path, worlds/sec and nothing else: like a fleet spec,
// the runner builds its app once and every world, on every worker,
// installs that read-only definition.
func BootRunner() ObsRunner {
	spec := device.Shared(oracle.OracleApp(16))
	return func(seed uint64, sh *obs.Shard) Outcome {
		w := device.New(spec, seed, nil)
		sh.Counter("boot_worlds_total", "device worlds spun up", obs.Sim).Inc()
		if fg := w.Proc.Thread().ForegroundActivity(); w.Proc.Crashed() || fg == nil {
			return Outcome{OK: false, Detail: fmt.Sprintf("seed=%d boot failed", seed),
				Failures: []string{"world not settled: no resumed foreground activity"}}
		}
		return Outcome{OK: true, Detail: fmt.Sprintf("seed=%d booted token=%d", seed, w.Token)}
	}
}

// ForMode resolves a mode name to its runner and replay format.
func ForMode(mode string) (ObsRunner, string, error) {
	switch mode {
	case "oracle":
		return OracleRunner(), ReplayOracle, nil
	case "guard":
		return GuardRunner(), ReplayGuard, nil
	case "monkey":
		return MonkeyRunner(), ReplayMonkey, nil
	case "boot":
		return BootRunner(), ReplayBoot, nil
	}
	return nil, "", fmt.Errorf("unknown sweep mode %q (want oracle, guard, monkey or boot)", mode)
}
