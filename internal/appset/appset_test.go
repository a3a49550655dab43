package appset

import (
	"sync"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/config"
	"rchdroid/internal/core"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/sim"
	"rchdroid/internal/view"
)

func TestTP27Population(t *testing.T) {
	set := TP27()
	if len(set) != 27 {
		t.Fatalf("len = %d", len(set))
	}
	issues, fixed := 0, 0
	for _, m := range set {
		if !m.HasIssue() {
			t.Errorf("%v: every Table 3 app has an issue", m)
		} else {
			issues++
		}
		if m.FixedByRCHDroid() {
			fixed++
		}
		if m.Views <= 0 || m.ExtraMemMB < 0 || m.ResumeCostMS <= 0 {
			t.Errorf("%v: parameters not materialized", m)
		}
	}
	if issues != 27 || fixed != 25 {
		t.Fatalf("issues=%d fixed=%d, want 27/25", issues, fixed)
	}
	// The two unfixable rows are #9 and #10.
	if set[8].FixedByRCHDroid() || set[9].FixedByRCHDroid() {
		t.Fatal("#9/#10 must be unfixable")
	}
}

func TestTop100Population(t *testing.T) {
	set := Top100()
	if len(set) != 100 {
		t.Fatalf("len = %d", len(set))
	}
	issues, fixed, declared, noIssueRestart := 0, 0, 0, 0
	for _, m := range set {
		if m.HasIssue() {
			issues++
			if m.FixedByRCHDroid() {
				fixed++
			}
		} else if m.Declared {
			declared++
		} else {
			noIssueRestart++
		}
	}
	if issues != 63 {
		t.Fatalf("issues = %d, want 63", issues)
	}
	if fixed != 59 {
		t.Fatalf("fixed = %d, want 59", fixed)
	}
	if declared != 26 || noIssueRestart != 11 {
		t.Fatalf("declared=%d restartNoIssue=%d, want 26/11", declared, noIssueRestart)
	}
	for _, idx := range []int{2, 57, 66, 70} {
		m := set[idx-1]
		if !m.HasIssue() || m.FixedByRCHDroid() {
			t.Errorf("#%d %s must be an unfixable issue", idx, m.Name)
		}
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	a, b := TP27(), TP27()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs between calls", i)
		}
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []StateKind{KindNone, KindStockInput, KindTextInput, KindListSelection,
		KindScroll, KindSeekBar, KindStatusText, KindAsyncImages, KindExtras}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d string %q empty or duplicated", k, s)
		}
		seen[s] = true
	}
}

// runScenario plants the model's state, applies one rotation and reports
// whether the state survived.
func runScenario(t *testing.T, m Model, rch bool) bool {
	t.Helper()
	sched := sim.NewScheduler()
	model := costmodel.Default()
	sys := atms.New(sched, model)
	proc := app.NewProcess(sched, model, m.Build())
	if rch {
		core.Install(sys, proc, core.DefaultOptions())
	}
	sys.LaunchApp(proc)
	sched.Advance(2 * time.Second)
	m.PlantState(proc, 400*time.Millisecond)
	sched.Advance(100 * time.Millisecond)
	sys.PushConfiguration(config.Portrait())
	sched.Advance(3 * time.Second)
	return m.VerifyState(proc)
}

func TestScenarioOutcomesMatchTableVerdicts(t *testing.T) {
	// Every kind appears in TP27 ∪ Top100; exercise one representative
	// per kind against both modes and compare with the declared verdict.
	byKind := map[StateKind]Model{}
	for _, m := range append(TP27(), Top100()...) {
		if _, ok := byKind[m.Kind]; !ok {
			byKind[m.Kind] = m
		}
	}
	for kind, m := range byKind {
		stockOK := runScenario(t, m, false)
		rchOK := runScenario(t, m, true)
		wantStock := !m.HasIssue()
		wantRCH := !m.HasIssue() || m.FixedByRCHDroid()
		if stockOK != wantStock {
			t.Errorf("%v (%v): stock preserved=%v, table says %v", m, kind, stockOK, wantStock)
		}
		if rchOK != wantRCH {
			t.Errorf("%v (%v): rchdroid preserved=%v, table says %v", m, kind, rchOK, wantRCH)
		}
	}
}

func TestFullTP27Verdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("full population scan")
	}
	fixed := 0
	for _, m := range TP27() {
		if runScenario(t, m, false) {
			t.Errorf("%v: no issue on stock, expected one", m)
		}
		if runScenario(t, m, true) {
			fixed++
		}
	}
	if fixed != 25 {
		t.Fatalf("RCHDroid fixed %d/27, want 25", fixed)
	}
}

func TestBuildTreeSizesMatchModel(t *testing.T) {
	for _, m := range []Model{TP27()[0], Top100()[0]} {
		sched := sim.NewScheduler()
		proc := app.NewProcess(sched, costmodel.Default(), m.Build())
		sys := atms.New(sched, costmodel.Default())
		sys.LaunchApp(proc)
		sched.Advance(time.Second)
		fg := proc.Thread().ForegroundActivity()
		if fg == nil {
			t.Fatalf("%v: no foreground", m)
		}
		if got := fg.ViewCount(); got != m.Views {
			t.Errorf("%v: tree has %d views, want %d", m, got, m.Views)
		}
	}
}

func TestSecondaryInputSurvivesBothModes(t *testing.T) {
	// The negative control: the stock-persisted EditText survives every
	// handling scheme on every non-declared app.
	for _, m := range TP27() {
		for _, rch := range []bool{false, true} {
			sched := sim.NewScheduler()
			model := costmodel.Default()
			sys := atms.New(sched, model)
			proc := app.NewProcess(sched, model, m.Build())
			if rch {
				core.Install(sys, proc, core.DefaultOptions())
			}
			sys.LaunchApp(proc)
			sched.Advance(2 * time.Second)
			m.PlantState(proc, 400*time.Millisecond)
			sched.Advance(100 * time.Millisecond)
			sys.PushConfiguration(config.Portrait())
			sched.Advance(3 * time.Second)
			if m.Kind == KindAsyncImages && !rch {
				continue // that app crashes on stock by design
			}
			if !m.VerifySecondary(proc) {
				t.Errorf("%v (rch=%v): secondary input lost", m, rch)
			}
		}
	}
}

func TestFullTop100Verdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("full population scan")
	}
	issues, fixed := 0, 0
	for _, m := range Top100() {
		stockOK := runScenario(t, m, false)
		rchOK := runScenario(t, m, true)
		if !stockOK {
			issues++
			if rchOK {
				fixed++
			}
		}
		if stockOK != !m.HasIssue() {
			t.Errorf("%v: stock verdict %v, table says issue=%v", m, stockOK, m.HasIssue())
		}
	}
	if issues != 63 || fixed != 59 {
		t.Fatalf("issues=%d fixed=%d, want 63/59", issues, fixed)
	}
}

func TestAllGeneratedLayoutsValidate(t *testing.T) {
	// Every app model's layout must pass the view linter for both
	// orientations — duplicate ids would silently corrupt the essence
	// mapping.
	for _, m := range append(TP27(), Top100()...) {
		a := m.Build()
		for _, cfg := range []config.Configuration{config.Default(), config.Portrait()} {
			specAny, ok := a.Resources.Resolve("layout/main", cfg)
			if !ok {
				t.Fatalf("%v: no layout for %v", m, cfg.Orientation)
			}
			if errs := view.ValidateSpec(specAny.(*view.Spec)); len(errs) != 0 {
				t.Errorf("%v (%v): %v", m, cfg.Orientation, errs)
			}
		}
	}
}

// Building a model writes nothing shared: rchsweep -mode=monkey builds
// TP-27 models on parallel workers, so two builds of one model may run at
// once. BlueNET wires a background service; go test -race fails here on
// any package-level state its build writes.
func TestConcurrentBuildsShareNothing(t *testing.T) {
	m := TP27()[3]
	if m.Name != "BlueNET" || m.Kind != KindServiceState {
		t.Fatalf("row 4 is %v, want BlueNET's service state", m)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Build()
		}()
	}
	wg.Wait()
	// Each build's service still starts and is stopped by the restart.
	if runScenario(t, m, false) || !runScenario(t, m, true) {
		t.Fatal("BlueNET's server no longer behaves as Table 3 says")
	}
}
