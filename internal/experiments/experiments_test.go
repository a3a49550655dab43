package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// withinPct fails the test when got is not within tol% of want.
func withinPct(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	lo, hi := want*(1-tol/100), want*(1+tol/100)
	if got < lo || got > hi {
		t.Errorf("%s = %.2f, want %.2f ±%.0f%%", name, got, want, tol)
	} else {
		t.Logf("%s = %.2f (paper %.2f)", name, got, want)
	}
}

func TestFig7and8MatchesPaper(t *testing.T) {
	r := Fig7and8()
	if len(r.PerApp) != 27 {
		t.Fatalf("apps = %d", len(r.PerApp))
	}
	// Abstract/§5.3: 25.46% average handling-time saving.
	withinPct(t, "Fig7 saving %", r.SavingPct(), 25.46, 5)
	// Fig 8: 47.56 MB vs 53.53 MB, 1.12× average.
	withinPct(t, "Fig8 stock mem MB", r.AvgStockMemMB(), 47.56, 5)
	withinPct(t, "Fig8 rchdroid mem MB", r.AvgRCHMemMB(), 53.53, 5)
	withinPct(t, "Fig8 mem ratio", r.AvgRCHMemMB()/r.AvgStockMemMB(), 1.12, 3)
	for _, a := range r.PerApp {
		if a.RCHMS >= a.StockMS {
			t.Errorf("%s: RCHDroid (%.1f) not faster than stock (%.1f)", a.Name, a.RCHMS, a.StockMS)
		}
		if a.InitMS <= a.StockMS {
			t.Errorf("%s: init (%.1f) should exceed stock (%.1f)", a.Name, a.InitMS, a.StockMS)
		}
	}
}

func TestFig9ScenarioOutcomes(t *testing.T) {
	r := Fig9()
	if !r.StockCrashed {
		t.Error("stock run must crash on the late AsyncTask")
	}
	if r.RCHCrashed {
		t.Error("RCHDroid run must survive")
	}
	if r.RCHMigrations != 1 {
		t.Errorf("migrations = %d, want 1", r.RCHMigrations)
	}
	if r.StockMem.Last(-1) != 0 {
		t.Errorf("stock final memory = %.2f, want 0", r.StockMem.Last(-1))
	}
	if r.RCHMem.Last(0) <= 0 {
		t.Error("RCHDroid final memory must be positive")
	}
	// CPU shape: RCHDroid pays more on the first change (mapping build),
	// less on the second (coin flip).
	if r.RCHFirstCPU <= r.StockFirstCPU {
		t.Errorf("first change: RCHDroid CPU %.1f should exceed stock %.1f", r.RCHFirstCPU, r.StockFirstCPU)
	}
	if r.RCHSecondCPU >= r.RCHFirstCPU {
		t.Errorf("second change CPU %.1f should drop below first %.1f (coin flip)", r.RCHSecondCPU, r.RCHFirstCPU)
	}
}

// TestFig9TracePinned pins Fig 9's raw trace. The boot rows are pinned
// on both arms (the cold launch fills the first 100 ms windows, and the
// memory series starts at the process base), and a digest covers every
// row, so a profiler attached after the launch, which would lose the boot
// rows, fails here.
func TestFig9TracePinned(t *testing.T) {
	rows := Fig9Trace().Rows()
	if len(rows) != 101 {
		t.Fatalf("rows = %d, want 101 (0..10 s every 100 ms)", len(rows))
	}
	boot := [][]string{
		{"0", "88.0", "38.00", "88.0", "38.00"},
		{"100", "100.0", "38.00", "100.0", "38.00"},
	}
	for i, want := range boot {
		if got := strings.Join(rows[i], " "); got != strings.Join(want, " ") {
			t.Errorf("row %d = %q, want %q", i, got, strings.Join(want, " "))
		}
	}
	h := sha256.New()
	for _, row := range rows {
		fmt.Fprintln(h, strings.Join(row, ","))
	}
	const want = "441467c6b36db897e7983da17467450f9457bbff4dd3fcce42431e38c089228c"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("trace digest = %s, want %s", got, want)
	}
}

func TestFig10MatchesPaper(t *testing.T) {
	r := Fig10()
	if len(r.Sweep) != 5 {
		t.Fatalf("sweep points = %d", len(r.Sweep))
	}
	first, last := r.Sweep[0], r.Sweep[len(r.Sweep)-1]
	// Fig 10a anchors.
	withinPct(t, "flip @1 view", first.FlipMS, 89.2, 3)
	withinPct(t, "flip @16 views", last.FlipMS, 89.2, 3)
	withinPct(t, "init @1 view", first.InitMS, 154.6, 3)
	withinPct(t, "init @16 views", last.InitMS, 180.2, 3)
	// Fig 10b anchors.
	withinPct(t, "migration @1 view", first.MigrateMS, 8.6, 5)
	withinPct(t, "migration @16 views", last.MigrateMS, 20.2, 5)
	for i := 1; i < len(r.Sweep); i++ {
		if r.Sweep[i].MigrateMS <= r.Sweep[i-1].MigrateMS {
			t.Error("migration time must grow with view count")
		}
		if r.Sweep[i].InitMS <= r.Sweep[i-1].InitMS {
			t.Error("init time must grow with view count")
		}
		if r.Sweep[i].FlipMS != r.Sweep[0].FlipMS {
			t.Error("flip time must be independent of view count")
		}
		if r.Sweep[i].MigrateMS >= r.Sweep[i].StockMS {
			t.Error("async migration must be much cheaper than a restart")
		}
	}
}

func TestFig11MatchesPaper(t *testing.T) {
	r := Fig11()
	if len(r.Sweep) != 8 {
		t.Fatalf("sweep points = %d", len(r.Sweep))
	}
	// Monotone trends: handling and CPU overhead non-increasing, memory
	// non-decreasing in THRESH_T.
	for i := 1; i < len(r.Sweep); i++ {
		if r.Sweep[i].AvgHandlingMS > r.Sweep[i-1].AvgHandlingMS+0.01 {
			t.Errorf("handling rose at THRESH_T=%d", r.Sweep[i].ThreshTSec)
		}
		if r.Sweep[i].CPUOverheadPct > r.Sweep[i-1].CPUOverheadPct+0.01 {
			t.Errorf("CPU overhead rose at THRESH_T=%d", r.Sweep[i].ThreshTSec)
		}
		if r.Sweep[i].AvgMemMB < r.Sweep[i-1].AvgMemMB-0.01 {
			t.Errorf("memory fell at THRESH_T=%d", r.Sweep[i].ThreshTSec)
		}
	}
	// Flat from 50 s — the paper's chosen operating point.
	at := map[int]Fig11Row{}
	for _, row := range r.Sweep {
		at[row.ThreshTSec] = row
	}
	if at[50].AvgHandlingMS != at[80].AvgHandlingMS {
		t.Error("handling should be flat from THRESH_T = 50 s")
	}
	if at[50].AvgMemMB != at[80].AvgMemMB {
		t.Error("memory should be flat from THRESH_T = 50 s")
	}
	if at[10].AvgHandlingMS <= at[50].AvgHandlingMS {
		t.Error("short THRESH_T must cost handling time")
	}
	if at[10].AvgMemMB >= at[50].AvgMemMB {
		t.Error("short THRESH_T must save memory")
	}
	if !strings.Contains(r.Summary(), "50 s") {
		t.Errorf("summary should identify the 50 s knee: %s", r.Summary())
	}
}

func TestFig12MatchesPaper(t *testing.T) {
	r := Fig12()
	if len(r.PerApp) != 8 {
		t.Fatalf("apps = %d", len(r.PerApp))
	}
	for _, a := range r.PerApp {
		// §5.7: RuntimeDroid is more efficient than RCHDroid; both beat stock.
		if a.RuntimeDroidNorm >= a.RCHDroidNorm {
			t.Errorf("%s: RuntimeDroid (%.2f) should beat RCHDroid (%.2f)", a.Name, a.RuntimeDroidNorm, a.RCHDroidNorm)
		}
		if a.RCHDroidNorm >= 1 {
			t.Errorf("%s: RCHDroid (%.2f) should beat stock", a.Name, a.RCHDroidNorm)
		}
		if a.ModifiedLoC <= 0 {
			t.Errorf("%s: missing patch size", a.Name)
		}
		// Our behavioural reimplementation must land in the published
		// ballpark (within ±0.15 normalized) and keep the ordering.
		if a.RTDGoNorm <= 0 || a.RTDGoNorm >= a.RCHDroidNorm {
			t.Errorf("%s: reimpl norm %.2f should sit below RCHDroid %.2f", a.Name, a.RTDGoNorm, a.RCHDroidNorm)
		}
		if diff := a.RTDGoNorm - a.RuntimeDroidNorm; diff > 0.15 || diff < -0.15 {
			t.Errorf("%s: reimpl norm %.2f far from published %.2f", a.Name, a.RTDGoNorm, a.RuntimeDroidNorm)
		}
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	r := Table3()
	if r.Issues() != 27 {
		t.Errorf("issues = %d, want 27", r.Issues())
	}
	if r.Fixed() != 25 {
		t.Errorf("fixed = %d, want 25", r.Fixed())
	}
	for _, row := range r.PerApp {
		want := row.Model.FixedByRCHDroid() || !row.Model.HasIssue()
		if row.RCHOK != want {
			t.Errorf("%s: RCHDroid verdict %v, table says %v", row.Model.Name, row.RCHOK, want)
		}
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	r := Table5()
	if r.Issues() != 63 {
		t.Errorf("issues = %d, want 63", r.Issues())
	}
	if r.Fixed() != 59 {
		t.Errorf("fixed = %d, want 59 (93.65%%)", r.Fixed())
	}
}

func TestFig14MatchesPaper(t *testing.T) {
	r := Fig14()
	if len(r.PerApp) != 59 {
		t.Fatalf("apps = %d, want 59", len(r.PerApp))
	}
	// §6: 420.58 ms vs 250.39 ms; memory 162.28 vs 173.85 MB (+7.13%).
	withinPct(t, "Fig14a stock ms", r.AvgStockMS(), 420.58, 3)
	withinPct(t, "Fig14a rchdroid ms", r.AvgRCHMS(), 250.39, 3)
	withinPct(t, "Fig14a saving vs init %", r.SavingVsInitPct(), 44.96, 5)
	withinPct(t, "Fig14b stock mem MB", r.AvgStockMemMB(), 162.28, 3)
	withinPct(t, "Fig14b rchdroid mem MB", r.AvgRCHMemMB(), 173.85, 3)
	withinPct(t, "Fig14b overhead %", r.MemOverheadPct(), 7.13, 15)
}

func TestEnergyMatchesPaper(t *testing.T) {
	r := Energy()
	if mean(r.StockWatts) != 4.03 || mean(r.RCHWatts) != 4.03 {
		t.Errorf("watts = %.2f / %.2f, want 4.03 / 4.03", mean(r.StockWatts), mean(r.RCHWatts))
	}
}

func TestTable1CoversAllPolicies(t *testing.T) {
	r := Table1()
	want := map[string]string{
		"TextView":    "setText",
		"ImageView":   "setDrawable",
		"AbsListView": "positionSelector",
		"VideoView":   "setVideoURI",
		"ProgressBar": "setProgress",
	}
	got := map[string]string{}
	for _, row := range r.PerType {
		got[row.ViewType] = row.Policy
	}
	for typ, policy := range want {
		if got[typ] != policy {
			t.Errorf("%s policy = %q, want %q", typ, got[typ], policy)
		}
	}
	if got["CustomTextView (user-defined)"] != "setText" {
		t.Error("user-defined view must inherit its basic type's policy")
	}
}

func TestTable2Sums348(t *testing.T) {
	r := Table2()
	if r.TotalPaperLoC() != 348 {
		t.Errorf("total = %d, want 348", r.TotalPaperLoC())
	}
	if len(r.PerClass) != 8 {
		t.Errorf("classes = %d, want 8", len(r.PerClass))
	}
}

func TestAblationsShowExpectedDegradations(t *testing.T) {
	r := Ablations()
	byName := map[string]AblationRow{}
	for _, row := range r.PerConfig {
		key := row.Config
		byName[key] = row
	}
	base := r.PerConfig[0]
	for name, row := range byName {
		switch {
		case strings.Contains(name, "O(n²)"):
			if row.InitMS <= base.InitMS {
				t.Error("quadratic mapping should slow the first change")
			}
		case strings.Contains(name, "no coin flip"):
			if row.HandlingMS <= base.HandlingMS*1.5 {
				t.Error("always-create should roughly double steady handling")
			}
		case strings.Contains(name, "collect immediately"):
			if row.HandlingMS <= base.HandlingMS || row.MemMB >= base.MemMB {
				t.Error("immediate GC should trade latency for memory")
			}
		case strings.Contains(name, "eager"):
			if row.MigrateMS < base.MigrateMS {
				t.Error("eager migration cannot be cheaper than lazy")
			}
		}
	}
}

func TestFormatResultRendersEveryDriver(t *testing.T) {
	for _, r := range []Result{Table1(), Table2(), Deployment()} {
		out := FormatResult(r)
		if !strings.Contains(out, r.Title()) || len(out) < 40 {
			t.Errorf("FormatResult(%s) too small:\n%s", r.Title(), out)
		}
	}
}

func TestFig13ExamplesMatchPaper(t *testing.T) {
	r := Fig13()
	if len(r.Cases) != 4 {
		t.Fatalf("cases = %d", len(r.Cases))
	}
	for _, c := range r.Cases {
		if !c.LostOnStock {
			t.Errorf("%s: %s should be lost after a stock restart", c.App, c.Aspect)
		}
		if !c.KeptOnRCH {
			t.Errorf("%s: %s should be preserved by RCHDroid", c.App, c.Aspect)
		}
		if c.AfterA10 == "CRASHED" || c.AfterRCH == "CRASHED" {
			t.Errorf("%s: unexpected crash (%s / %s)", c.App, c.AfterA10, c.AfterRCH)
		}
	}
	// The KJVBible timer must keep COUNTING under RCHDroid, not just keep
	// its value: the shadow instance's timer ticks on and migrates.
	kjv := r.Cases[2]
	if kjv.AfterRCH <= kjv.Before {
		t.Errorf("KJVBible timer did not keep running: %s → %s", kjv.Before, kjv.AfterRCH)
	}
}

func TestSummaryAggregatesEverything(t *testing.T) {
	r := Summary()
	if len(r.PerRow) != 14 {
		t.Fatalf("rows = %d", len(r.PerRow))
	}
	for _, row := range r.PerRow {
		if row.Quantity == "" || row.Paper == "" || row.Measured == "" {
			t.Fatalf("incomplete row %+v", row)
		}
	}
	out := FormatResult(r)
	if !strings.Contains(out, "25.4") || !strings.Contains(out, "THRESH_T = 50 s") {
		t.Fatalf("summary output suspicious:\n%s", out)
	}
}

func TestKREFinderReproducesOverApproximation(t *testing.T) {
	r := KREFinder()
	if len(r.PerApp) != 27 {
		t.Fatalf("apps = %d", len(r.PerApp))
	}
	// §2.2: 2.3 false positives per app on average; ours must land in the
	// same band and never reach zero (over-approximation is inherent).
	fp := r.AvgFalsePositives()
	if fp < 1.5 || fp > 3.5 {
		t.Fatalf("avg false positives = %.2f, want ≈2.3", fp)
	}
	// Static analysis must miss some dynamically-visible issues
	// (programmatic text, timers, services) while catching most
	// widget-state ones.
	rate := r.DetectionRate()
	if rate < 0.4 || rate > 0.9 {
		t.Fatalf("detection rate = %.2f, implausible", rate)
	}
	for _, row := range r.PerApp {
		if row.TruePositives+row.FalsePositives != row.Reports {
			t.Fatalf("%s: report accounting broken", row.App)
		}
	}
}

func TestSensitivityMonotoneAndOrderingPreserved(t *testing.T) {
	r := Sensitivity()
	if len(r.PerRow) != 7 {
		t.Fatalf("rows = %d", len(r.PerRow))
	}
	prev := map[string]SensitivityRow{}
	for _, row := range r.PerRow {
		// RCHDroid must beat stock under every perturbation.
		if row.FlipMS >= row.StockMS {
			t.Errorf("%s %.1fx: flip %.1f not below stock %.1f", row.Param, row.Scale, row.FlipMS, row.StockMS)
		}
		if row.InitMS <= row.StockMS {
			t.Errorf("%s %.1fx: init %.1f should exceed stock %.1f", row.Param, row.Scale, row.InitMS, row.StockMS)
		}
		// Latencies grow with either parameter.
		if p, ok := prev[row.Param]; ok {
			if row.FlipMS <= p.FlipMS || row.StockMS <= p.StockMS {
				t.Errorf("%s: latencies not increasing across scales", row.Param)
			}
		}
		prev[row.Param] = row
	}
	if !strings.Contains(r.Summary(), "three hops") {
		t.Errorf("summary = %s", r.Summary())
	}
}

func TestMarkdownReportRendersAllSections(t *testing.T) {
	var sb strings.Builder
	// A small subset keeps the test quick while covering the renderer.
	results := []Result{Table1(), Table2(), Deployment()}
	if err := WriteMarkdownReport(&sb, results); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# RCHDroid reproduction report",
		"## Table 1", "## Table 2", "## §5.7",
		"| View Type |", "| --- |",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// Golden check: the Fig 10 table renders byte-identically run after run —
// the repository's reproducibility contract, pinned at the output level.
func TestFig10GoldenOutput(t *testing.T) {
	golden := FormatResult(Fig10())
	for i := 0; i < 2; i++ {
		if got := FormatResult(Fig10()); got != golden {
			t.Fatalf("output differs between runs:\n%s\nvs\n%s", got, golden)
		}
	}
	for _, anchor := range []string{"141.8", "89.2", "8.60", "20.20", "155.6", "182.6"} {
		if !strings.Contains(golden, anchor) {
			t.Fatalf("golden output missing anchor %q:\n%s", anchor, golden)
		}
	}
}

func TestSpreadStaysWithinPaperCriterion(t *testing.T) {
	r := Spread(5)
	if r.Runs != 5 || len(r.PerRow) != 3 {
		t.Fatalf("runs=%d rows=%d", r.Runs, len(r.PerRow))
	}
	for _, row := range r.PerRow {
		if row.Stats.N != 5 {
			t.Fatalf("%s: n=%d", row.Quantity, row.Stats.N)
		}
		if row.Stats.StdDev <= 0 {
			t.Fatalf("%s: jittered runs must spread", row.Quantity)
		}
	}
	// §5.1: σ < 5% of the mean for every reported number.
	if rel := r.MaxRelStdDev(); rel >= 0.05 {
		t.Fatalf("max σ/mean = %.3f, must stay < 0.05", rel)
	}
	// Spread(0) clamps to the protocol minimum of five runs.
	if Spread(0).Runs != 5 {
		t.Fatal("run clamp broken")
	}
}

func TestAnatomyDecomposition(t *testing.T) {
	r := Anatomy()
	names := func(ps []AnatomyPhase) map[string]bool {
		m := map[string]bool{}
		for _, p := range ps {
			m[p.Phase] = true
		}
		return m
	}
	stock, initP, flip := names(r.Stock), names(r.Init), names(r.Flip)
	// The restart path must destroy; the init path must build the mapping
	// and enter the shadow state; the flip path must do neither create
	// nor restore.
	if !stock["relaunch:destroy"] || !stock["launch:create"] {
		t.Fatalf("stock phases = %v", r.Stock)
	}
	if !initP["rch:buildMapping"] || !initP["rch:enterShadow"] {
		t.Fatalf("init phases = %v", r.Init)
	}
	if flip["launch:create"] || flip["launch:restore"] || flip["relaunch:destroy"] {
		t.Fatalf("flip has heavyweight phases: %v", r.Flip)
	}
	if !flip["rch:flipResume"] {
		t.Fatalf("flip phases = %v", r.Flip)
	}
	total := func(ps []AnatomyPhase) float64 {
		s := 0.0
		for _, p := range ps {
			s += p.MS
		}
		return s
	}
	// On-thread totals must approximate the end-to-end numbers minus IPC.
	if tf := total(r.Flip); tf < 80 || tf > 90 {
		t.Fatalf("flip on-thread total = %.1f ms", tf)
	}
	if ts := total(r.Stock); ts < 130 || ts > 145 {
		t.Fatalf("stock on-thread total = %.1f ms", ts)
	}
}

func TestDailyExtrapolation(t *testing.T) {
	r := Daily()
	if r.Changes < 60 {
		t.Fatalf("changes = %d, expected dozens over 8 h", r.Changes)
	}
	// The user-facing deltas: stock crashes and loses state, RCHDroid
	// never does.
	if r.StockCrashes == 0 || r.StockStateLoss == 0 {
		t.Fatalf("stock day too clean: crashes=%d losses=%d", r.StockCrashes, r.StockStateLoss)
	}
	if r.RCHCrashes != 0 || r.RCHStateLoss != 0 {
		t.Fatalf("RCHDroid day not clean: crashes=%d losses=%d", r.RCHCrashes, r.RCHStateLoss)
	}
	// Cumulative handling stays within the same ballpark (GC reclaims
	// shadows across five-minute gaps, so isolated rotations pay init).
	ratio := r.RCHFrozenMS / r.StockFrozenMS
	if ratio < 0.5 || ratio > 1.2 {
		t.Fatalf("daily frozen-UI ratio = %.2f, implausible", ratio)
	}
}
