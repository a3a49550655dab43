// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiments driver
// and reports the paper's headline quantities as custom metrics
// (ms-of-virtual-time, MB, percentages), so `go test -bench=. -benchmem`
// prints the whole reproduction in one sweep. Wall-clock ns/op measures
// the cost of the simulation itself, not the modelled latencies.
package rchdroid_test

import (
	"testing"
	"time"

	"rchdroid/internal/benchapp"
	"rchdroid/internal/bundle"
	"rchdroid/internal/chaos"
	"rchdroid/internal/core"
	"rchdroid/internal/device"
	"rchdroid/internal/experiments"
	"rchdroid/internal/explore"
	"rchdroid/internal/guard"
	"rchdroid/internal/monkey"
	"rchdroid/internal/oracle"
	"rchdroid/internal/oracle/corpus"
	"rchdroid/internal/serve"
	"rchdroid/internal/sweep"
	"rchdroid/internal/view"
)

// ─── Figures 7 and 8: the 27-app set ─────────────────────────────────────

func BenchmarkFig7HandlingTime27Apps(b *testing.B) {
	var r *experiments.AppSetPerfResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7and8()
	}
	b.ReportMetric(r.AvgStockMS(), "android10_ms")
	b.ReportMetric(r.AvgRCHMS(), "rchdroid_ms")
	b.ReportMetric(r.AvgInitMS(), "rchdroid_init_ms")
	b.ReportMetric(r.SavingPct(), "saving_%")
}

func BenchmarkFig8Memory27Apps(b *testing.B) {
	var r *experiments.AppSetPerfResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7and8()
	}
	b.ReportMetric(r.AvgStockMemMB(), "android10_MB")
	b.ReportMetric(r.AvgRCHMemMB(), "rchdroid_MB")
	b.ReportMetric(r.AvgRCHMemMB()/r.AvgStockMemMB(), "ratio")
}

// ─── Figure 9: CPU/memory trace ──────────────────────────────────────────

func BenchmarkFig9Trace(b *testing.B) {
	var r *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9()
	}
	b.ReportMetric(r.StockFirstCPU, "android10_first_cpu_%")
	b.ReportMetric(r.RCHFirstCPU, "rchdroid_first_cpu_%")
	b.ReportMetric(r.RCHSecondCPU, "rchdroid_second_cpu_%")
	b.ReportMetric(boolMetric(r.StockCrashed), "android10_crashed")
	b.ReportMetric(boolMetric(r.RCHCrashed), "rchdroid_crashed")
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// ─── Figure 10: scalability ──────────────────────────────────────────────

func BenchmarkFig10aScalability(b *testing.B) {
	var r *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig10()
	}
	last := r.Sweep[len(r.Sweep)-1]
	b.ReportMetric(last.StockMS, "android10_16views_ms")
	b.ReportMetric(last.InitMS, "rchdroid_init_16views_ms")
	b.ReportMetric(last.FlipMS, "rchdroid_16views_ms")
}

func BenchmarkFig10bAsyncMigration(b *testing.B) {
	var r *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig10()
	}
	b.ReportMetric(r.Sweep[0].MigrateMS, "migration_1view_ms")
	b.ReportMetric(r.Sweep[len(r.Sweep)-1].MigrateMS, "migration_16views_ms")
}

// ─── Figure 11: GC trade-off ─────────────────────────────────────────────

func BenchmarkFig11GCTradeoff(b *testing.B) {
	var r *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig11()
	}
	first, knee := r.Sweep[0], r.Sweep[4] // THRESH_T = 10 s and 50 s
	b.ReportMetric(first.AvgHandlingMS, "handling_t10_ms")
	b.ReportMetric(knee.AvgHandlingMS, "handling_t50_ms")
	b.ReportMetric(first.AvgMemMB, "memory_t10_MB")
	b.ReportMetric(knee.AvgMemMB, "memory_t50_MB")
}

// ─── Figure 12 / Table 4: RuntimeDroid comparison ────────────────────────

func BenchmarkFig12RuntimeDroid(b *testing.B) {
	var r *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig12()
	}
	var rd, rch float64
	for _, a := range r.PerApp {
		rd += a.RuntimeDroidNorm
		rch += a.RCHDroidNorm
	}
	n := float64(len(r.PerApp))
	b.ReportMetric(rd/n, "runtimedroid_norm")
	b.ReportMetric(rch/n, "rchdroid_norm")
}

// ─── Tables 3 and 5: effectiveness scans ─────────────────────────────────

func BenchmarkTable3Effectiveness(b *testing.B) {
	var r *experiments.EffectivenessResult
	for i := 0; i < b.N; i++ {
		r = experiments.Table3()
	}
	b.ReportMetric(float64(r.Issues()), "issues")
	b.ReportMetric(float64(r.Fixed()), "fixed")
}

func BenchmarkTable5Top100Scan(b *testing.B) {
	var r *experiments.EffectivenessResult
	for i := 0; i < b.N; i++ {
		r = experiments.Table5()
	}
	b.ReportMetric(float64(r.Issues()), "issues")
	b.ReportMetric(float64(r.Fixed()), "fixed")
}

// ─── Figure 14: top-100 performance ──────────────────────────────────────

func BenchmarkFig14aTop100Time(b *testing.B) {
	var r *experiments.AppSetPerfResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig14()
	}
	b.ReportMetric(r.AvgStockMS(), "android10_ms")
	b.ReportMetric(r.AvgRCHMS(), "rchdroid_ms")
	b.ReportMetric(r.SavingPct(), "saving_%")
	b.ReportMetric(r.SavingVsInitPct(), "saving_vs_init_%")
}

func BenchmarkFig14bTop100Memory(b *testing.B) {
	var r *experiments.AppSetPerfResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig14()
	}
	b.ReportMetric(r.AvgStockMemMB(), "android10_MB")
	b.ReportMetric(r.AvgRCHMemMB(), "rchdroid_MB")
	b.ReportMetric(r.MemOverheadPct(), "overhead_%")
}

// ─── §5.6 energy ─────────────────────────────────────────────────────────

func BenchmarkEnergyConsumption(b *testing.B) {
	var r *experiments.EnergyResult
	for i := 0; i < b.N; i++ {
		r = experiments.Energy()
	}
	b.ReportMetric(avg(r.StockWatts), "android10_W")
	b.ReportMetric(avg(r.RCHWatts), "rchdroid_W")
}

func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ─── Ablations (DESIGN.md §5) ────────────────────────────────────────────

func benchAblation(b *testing.B, pick func(*experiments.AblationResult) (base, alt experiments.AblationRow)) {
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.Ablations()
	}
	base, alt := pick(r)
	b.ReportMetric(base.HandlingMS, "base_handling_ms")
	b.ReportMetric(alt.HandlingMS, "alt_handling_ms")
	b.ReportMetric(base.InitMS, "base_init_ms")
	b.ReportMetric(alt.InitMS, "alt_init_ms")
}

func BenchmarkAblationMappingStrategy(b *testing.B) {
	benchAblation(b, func(r *experiments.AblationResult) (experiments.AblationRow, experiments.AblationRow) {
		return r.PerConfig[0], r.PerConfig[1]
	})
}

func BenchmarkAblationCoinFlip(b *testing.B) {
	benchAblation(b, func(r *experiments.AblationResult) (experiments.AblationRow, experiments.AblationRow) {
		return r.PerConfig[0], r.PerConfig[2]
	})
}

func BenchmarkAblationGCPolicy(b *testing.B) {
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.Ablations()
	}
	b.ReportMetric(r.PerConfig[3].MemMB, "nevergc_MB")
	b.ReportMetric(r.PerConfig[4].MemMB, "immediategc_MB")
	b.ReportMetric(r.PerConfig[4].HandlingMS, "immediategc_handling_ms")
}

func BenchmarkAblationLazyVsEager(b *testing.B) {
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.Ablations()
	}
	b.ReportMetric(r.PerConfig[0].MigrateMS, "lazy_migration_ms")
	b.ReportMetric(r.PerConfig[5].MigrateMS, "eager_migration_ms")
}

// ─── Micro-benchmarks: real wall-clock cost of the core algorithms ──────

func buildTwoTrees(n int) (view.View, view.View) {
	mk := func() view.View {
		root := view.NewLinearLayout(1)
		for i := 0; i < n; i++ {
			root.AddChild(view.NewTextView(view.ID(100+i), "x"))
		}
		return root
	}
	return mk(), mk()
}

func BenchmarkEssenceMappingHash256(b *testing.B) {
	shadow, sunny := buildTwoTrees(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildEssenceMapping(shadow, sunny)
	}
}

func BenchmarkEssenceMappingQuadratic256(b *testing.B) {
	shadow, sunny := buildTwoTrees(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildEssenceMappingQuadratic(shadow, sunny)
	}
}

func BenchmarkViewTreeInflate64(b *testing.B) {
	spec := view.Linear(1)
	for i := 0; i < 64; i++ {
		spec.Children = append(spec.Children, view.Text(view.ID(10+i), "t"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.Inflate(spec)
	}
}

func BenchmarkBundleSaveRestore64Views(b *testing.B) {
	root := view.NewDecorView(1)
	for i := 0; i < 64; i++ {
		root.AddChild(view.NewEditText(view.ID(10+i), "content"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state := bundle.New()
		root.SaveState(state)
		root.RestoreState(state)
	}
}

// BenchmarkBundleTransferChecksum64Views is the bundle layer's
// save-and-hash cost: save a 64-view tree into an unsized bundle, then
// checksum it twice, as a transport that re-hashes every arrival would.
// guard.Transfer hashes a clean arrival once
// (BenchmarkGuardTransfer64Views).
func BenchmarkBundleTransferChecksum64Views(b *testing.B) {
	root := view.NewDecorView(1)
	for i := 0; i < 64; i++ {
		root.AddChild(view.NewEditText(view.ID(10+i), "content"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state := bundle.New()
		root.SaveState(state)
		if state.Checksum() != state.Checksum() {
			b.Fatal("checksum differs between the two sides of one transfer")
		}
	}
}

// BenchmarkGuardTransfer64Views is one guard.Transfer of a 64-view
// tree's saved state, sized as a repeat snapshot is (the decor and its
// 64 children). In "clean" the first attempt lands: one save, one hash.
// In "corrupt3" the first three attempts arrive corrupted, each a clone
// the receiver hashes, and the fourth lands; the snapshot is still saved
// once.
func BenchmarkGuardTransfer64Views(b *testing.B) {
	root := view.NewDecorView(1)
	for i := 0; i < 64; i++ {
		root.AddChild(view.NewEditText(view.ID(10+i), "content"))
	}
	save := func() *bundle.Bundle {
		out := bundle.NewCap(65)
		root.SaveState(out)
		return out
	}
	for _, bc := range []struct {
		name    string
		corrupt int
	}{{"clean", 0}, {"corrupt3", 3}} {
		b.Run(bc.name, func(b *testing.B) {
			rig := experiments.NewRig(benchapp.New(benchapp.Config{}), experiments.ModeStock)
			g := guard.New(guard.DefaultConfig(), rig.Sched, rig.Proc, rig.Sys)
			fault := func(attempt int) chaos.TransferFault {
				return chaos.TransferFault{Corrupt: attempt < bc.corrupt}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok := g.Transfer("Main", save, fault); !ok {
					b.Fatal("transfer failed")
				}
			}
		})
	}
}

func BenchmarkSimulatedRuntimeChange(b *testing.B) {
	// End-to-end: one full coin-flip handling per iteration.
	rig := experiments.NewRig(benchapp.New(benchapp.Config{Images: 8, TaskDelay: time.Hour}), experiments.ModeRCHDroid)
	rig.Rotate() // warm: create the shadow/sunny pair
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rig.Rotate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuardedRuntimeChange(b *testing.B) {
	// BenchmarkSimulatedRuntimeChange with the supervision guard armed
	// at its defaults and tracing off: the arm/disarm/self-check
	// bookkeeping on a healthy handling.
	cfg := guard.DefaultConfig()
	opts := core.DefaultOptions()
	opts.Guard = &cfg
	rig := experiments.BootRig(experiments.RigSpec{
		App:  benchapp.New(benchapp.Config{Images: 8, TaskDelay: time.Hour}),
		Mode: experiments.ModeRCHDroid,
		Core: &opts,
	})
	rig.Rotate() // warm: create the shadow/sunny pair
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rig.Rotate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreSchedule is the schedule explorer's unit of work: one
// depth-3 double-rotation schedule (an extra rotation mid-edit, a
// process kill between the two scripted rotations, then a flush slot)
// run literally under stock and RCHDroid through RunIndex, and judged.
// The flush slot arms a deferral that never fires: no double-rotation
// step writes to a shadow view, so the migrator never consults it.
// Explore would share both arms of this schedule with its stock view.
func BenchmarkExploreSchedule(b *testing.B) {
	sc, ok := corpus.ByName("double-rotation")
	if !ok {
		b.Fatal("corpus lost double-rotation")
	}
	sp := explore.SpaceFor(&sc, 3)
	idx, ok := sp.IndexOf(explore.Schedule{
		{Edge: 2, Action: explore.ActConfig},
		{Edge: 7, Action: explore.ActKill},
		{Edge: 8, Action: explore.ActFlush},
	})
	if !ok {
		b.Fatal("schedule outside the depth-3 space")
	}
	var v explore.Verdict
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = explore.RunIndex(&sc, sp, idx)
	}
	if !v.OK() {
		b.Fatalf("schedule %d failed:\n%s", idx, v.String())
	}
}

// BenchmarkOracleSeed is the sampled differential's unit of work, the
// path the oracle and guard sweeps run: Light seed 42 under stock and
// RCHDroid (stock crashes on a touch callback, RCHDroid absorbs eight
// faults) and Guarded seed 77 under stock and guarded RCHDroid (two
// watchdog quarantines and a recovery), each generated, run through
// both arms and judged.
func BenchmarkOracleSeed(b *testing.B) {
	var light, guarded oracle.Verdict
	for i := 0; i < b.N; i++ {
		light = oracle.DifferentialWith(42, sweep.RCHInstaller(), chaos.Light())
		guarded = oracle.DifferentialWith(77, sweep.GuardedInstaller(), chaos.Guarded())
	}
	if !light.OK() || !guarded.OK() {
		b.Fatalf("benchmark seeds failed:\n%s\n%s", light.String(), guarded.String())
	}
}

// BenchmarkWireRoundTrip is the wire codec's share of one fleet round
// trip: the client encodes the request, the server decodes it, the
// server encodes the reply and the client decodes it, each through the
// serve codec with the line buffers reused as a connection reuses them.
// "flip" is a drive rotate and its reply; "batch3" is a three-step batch
// (a 14-event monkey burst with a 20-digit seed, a rotation, a night
// switch) and its three results.
func BenchmarkWireRoundTrip(b *testing.B) {
	for _, bc := range []struct {
		name string
		req  serve.Request
		resp serve.Response
	}{
		{"flip",
			serve.Request{ID: "r1042", Op: serve.OpDrive, Device: "dev-17", Kind: serve.KindRotate},
			serve.Response{ID: "r1042", OK: true, Shard: 1, Detail: "rotated"}},
		{"batch3",
			serve.Request{ID: "x2210", Op: serve.OpBatch, Batch: []serve.BatchStep{
				{Device: "dev-3", Kind: serve.KindMonkey, Seed: 12786962302290339731, Events: 14},
				{Device: "dev-40", Kind: serve.KindRotate},
				{Device: "dev-9", Kind: serve.KindNight},
			}},
			serve.Response{ID: "x2210", OK: true, Shard: -1, Results: []serve.BatchResult{
				{Index: 0, OK: true, Shard: 1, Detail: "monkey clean: 14 events (3 changes)"},
				{Index: 1, OK: true, Shard: 0, Detail: "rotated"},
				{Index: 2, OK: true, Shard: 1, Detail: "ui-mode night"},
			}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var reqLine, respLine []byte
			var req serve.Request
			var resp serve.Response
			for i := 0; i < b.N; i++ {
				var ok bool
				if reqLine, ok = serve.AppendRequest(reqLine[:0], &bc.req); !ok {
					b.Fatal("request declined")
				}
				if err := serve.DecodeRequest(reqLine[:len(reqLine)-1], &req); err != nil {
					b.Fatal(err)
				}
				if respLine, ok = serve.AppendResponse(respLine[:0], &bc.resp); !ok {
					b.Fatal("reply declined")
				}
				if err := serve.DecodeResponse(respLine[:len(respLine)-1], &resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonkeyBurst is one fleet monkey burst: 14 events (the
// replayed log's typical size) on a resident RCHDroid oracle device,
// which keeps the state every earlier burst left.
func BenchmarkMonkeyBurst(b *testing.B) {
	w := device.New(device.Shared(oracle.OracleApp(4)), 7, func(w *device.World) {
		core.Install(w.Sys, w.Proc, core.DefaultOptions())
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := monkey.Run(w.Sched, w.Sys, w.Proc, monkey.Options{Events: 14, Seed: uint64(i + 1)}); out.Crashed {
			b.Fatalf("burst %d crashed: %v", i+1, out.CrashCause)
		}
	}
}

func BenchmarkFig13IssueExamples(b *testing.B) {
	var r *experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig13()
	}
	lost, kept := 0, 0
	for _, c := range r.Cases {
		if c.LostOnStock {
			lost++
		}
		if c.KeptOnRCH {
			kept++
		}
	}
	b.ReportMetric(float64(lost), "lost_on_stock")
	b.ReportMetric(float64(kept), "kept_on_rchdroid")
}

func BenchmarkKREFinderStaticAnalysis(b *testing.B) {
	var r *experiments.KREFinderResult
	for i := 0; i < b.N; i++ {
		r = experiments.KREFinder()
	}
	b.ReportMetric(r.AvgFalsePositives(), "false_positives_per_app")
	b.ReportMetric(100*r.DetectionRate(), "detection_rate_%")
}

func BenchmarkAnatomyDecomposition(b *testing.B) {
	var r *experiments.AnatomyResult
	for i := 0; i < b.N; i++ {
		r = experiments.Anatomy()
	}
	total := func(ps []experiments.AnatomyPhase) float64 {
		t := 0.0
		for _, p := range ps {
			t += p.MS
		}
		return t
	}
	b.ReportMetric(total(r.Stock), "stock_onthread_ms")
	b.ReportMetric(total(r.Init), "init_onthread_ms")
	b.ReportMetric(total(r.Flip), "flip_onthread_ms")
}

func BenchmarkDailyExtrapolation(b *testing.B) {
	var r *experiments.DailyResult
	for i := 0; i < b.N; i++ {
		r = experiments.Daily()
	}
	b.ReportMetric(float64(r.StockCrashes), "stock_crashes_per_day")
	b.ReportMetric(float64(r.StockStateLoss), "stock_state_losses_per_day")
	b.ReportMetric(float64(r.RCHCrashes+r.RCHStateLoss), "rchdroid_incidents_per_day")
}

func BenchmarkSpreadProtocol(b *testing.B) {
	var r *experiments.SpreadResult
	for i := 0; i < b.N; i++ {
		r = experiments.Spread(5)
	}
	b.ReportMetric(100*r.MaxRelStdDev(), "max_relstddev_%")
}
