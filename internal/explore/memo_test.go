package explore

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/obs"
	"rchdroid/internal/oracle"
	"rchdroid/internal/oracle/corpus"
	"rchdroid/internal/view"
)

// lazyMigration is a fixture scenario in which flush slots can land. Two
// touch tasks each have a rotation inside their window, so each
// callback writes to a view of an instance RCHDroid has made the shadow
// by then, and the migrator consults the flush hook after edge 1 and
// again after edge 3. Stock has released those views and crashes, as
// the paper's Fig 9 app does.
func lazyMigration() corpus.Scenario {
	status := func(text string) []oracle.Field {
		return []oracle.Field{{Name: "Editor.status", Value: text, View: true}}
	}
	return corpus.Scenario{
		Name:  "lazy-migration",
		About: "async callbacks writing to the starting instance's views across rotations",
		App:   corpus.EditorApp,
		Probe: func(fg *app.Activity, fs []oracle.Field) []oracle.Field {
			if et, ok := fg.FindViewByID(corpus.EditorEdit).(*view.EditText); ok {
				fs = append(fs, oracle.Field{Name: "Editor.text", Value: et.Text(), View: true, Saved: true})
			}
			if tv, ok := fg.FindViewByID(corpus.EditorStatus).(*view.TextView); ok {
				fs = append(fs, oracle.Field{Name: "Editor.status", Value: tv.Text(), View: true})
			}
			return fs
		},
		Steps: []oracle.Step{
			{Kind: oracle.StepType, ID: corpus.EditorEdit, Text: "fig 9", Settle: 50 * time.Millisecond},
			{Kind: oracle.StepTouch, ID: corpus.EditorStatus, N: 1, Text: "loaded", Work: 300 * time.Millisecond,
				Settle: 30 * time.Millisecond, Expect: status("loaded")},
			{Kind: oracle.StepRotate, Settle: 2 * time.Second},
			{Kind: oracle.StepTouch, ID: corpus.EditorStatus, N: 1, Text: "refreshed", Work: 300 * time.Millisecond,
				Settle: 30 * time.Millisecond, Expect: status("refreshed")},
			{Kind: oracle.StepRotate, Settle: 2 * time.Second},
			{Kind: oracle.StepIdle, Settle: time.Second},
		},
		StockMayCrash: true,
		StockMayLose:  []oracle.LossBucket{oracle.LossViewUnsaved, oracle.LossNonViewUnsaved},
		RCHMayLose:    []oracle.LossBucket{oracle.LossNonViewUnsaved},
	}
}

// withFixture is the corpus plus the lazy-migration fixture.
func withFixture() []corpus.Scenario { return append(corpus.All(), lazyMigration()) }

// TestStockBlindSlotsLeaveStockUnchanged: for every depth-2 schedule
// with a stock-blind slot, in every scenario, the full stock run equals
// the stock run of its view. This is what lets Explore share one stock
// run per view; an action marked stock-blind that stock does consult
// changes some stock run and fails here.
func TestStockBlindSlotsLeaveStockUnchanged(t *testing.T) {
	checked := 0
	for _, sc := range withFixture() {
		sc := sc
		spec := sharedSpec(sc.App())
		sp := SpaceFor(&sc, 2)
		views := make(map[string]RunResult)
		for idx := uint64(0); idx < sp.Size(); idx++ {
			sched := sp.At(idx)
			view := sched.stockView()
			if len(view) == len(sched) {
				continue
			}
			want, ok := views[view.String()]
			if !ok {
				want = runScenario(&sc, spec, view, stockInstaller, nil)
				views[view.String()] = want
			}
			got := runScenario(&sc, spec, sched, stockInstaller, nil)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: stock run differs from its view %s's:\n  schedule: %+v\n  view:     %+v",
					sc.Name, sched, view, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no schedule has a stock-blind slot: the check is vacuous")
	}
	t.Logf("%d schedules with stock-blind slots match their views' stock runs", checked)
}

// TestInertSlotsLeaveRCHUnchanged: for every depth-2 schedule whose
// stock-blind slots its view's RCHDroid run proves inert, in every
// scenario and the fixture, the literal RCHDroid run equals the view's,
// field for field. That is what lets Explore share the view's run. The
// fixture consults the flush hook after two edges, so a record of the
// first consult instead of the last shares schedules whose directive
// fires, and fails here; it must also yield a live slot that fires.
func TestInertSlotsLeaveRCHUnchanged(t *testing.T) {
	shared, fired := 0, 0
	for _, sc := range withFixture() {
		sc := sc
		spec := sharedSpec(sc.App())
		sp := SpaceFor(&sc, 2)
		views := make(map[string]RunResult)
		for idx := uint64(0); idx < sp.Size(); idx++ {
			sched := sp.At(idx)
			view := sched.stockView()
			if len(view) == len(sched) {
				continue
			}
			want, ok := views[view.String()]
			if !ok {
				want = runScenario(&sc, spec, view, InstallerForObs(&sc, nil), nil)
				views[view.String()] = want
			}
			got := runScenario(&sc, spec, sched, InstallerForObs(&sc, nil), nil)
			if e := (viewEntry{rch: want}); !e.inert(sched) {
				if got.Fired[ActFlush] > 0 && sc.Name == "lazy-migration" {
					fired++
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: shared RCHDroid run differs from its view %s's:\n  schedule: %+v\n  view:     %+v",
					sc.Name, sched, view, got, want)
			}
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no schedule shares its view's RCHDroid run: the check is vacuous")
	}
	if fired == 0 {
		t.Fatal("no flush directive fired in the fixture: it cannot tell a live slot from an inert one")
	}
	t.Logf("%d shared schedules match their views' RCHDroid runs; %d fixture schedules fire a flush", shared, fired)
}

// TestStockBlindActionsSortLast pins the ordering the per-edge consult
// record relies on: every stock-blind action sorts after every
// stock-visible one, so runScenario arms a blind slot after all visible
// slots of its edge, and no two blind actions share a chaos point.
func TestStockBlindActionsSortLast(t *testing.T) {
	points := make(map[string]Action)
	for a := Action(0); a < NumActions; a++ {
		pt, blind := a.blindPoint()
		if !blind {
			continue
		}
		if prev, dup := points[pt.String()]; dup {
			t.Errorf("%s and %s both arm chaos point %s", prev, a, pt)
		}
		points[pt.String()] = a
		for b := a + 1; b < NumActions; b++ {
			if !b.stockBlind() {
				t.Errorf("stock-blind %s sorts before stock-visible %s", a, b)
			}
		}
	}
	if len(points) == 0 {
		t.Fatal("no stock-blind action: the check is vacuous")
	}
}

// TestExploreAgreesWithRunIndex: at four workers, Explore's verdicts,
// which share both arms, equal the literal single-schedule replay index
// by index, for every scenario and the fixture.
func TestExploreAgreesWithRunIndex(t *testing.T) {
	depth := 2
	if testing.Short() {
		depth = 1
	}
	for _, sc := range withFixture() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			sp := SpaceFor(&sc, depth)
			res := Explore(&sc, Options{Depth: depth, Workers: 4})
			if len(res.Report.Results) != int(sp.Size()) {
				t.Fatalf("explored %d of %d schedules", len(res.Report.Results), sp.Size())
			}
			for i, got := range res.Report.Results {
				want := RunIndex(&sc, sp, uint64(i))
				if got.Detail != want.Summary() || !slices.Equal(got.Failures, want.Failures) {
					t.Fatalf("index %d: Explore says %q %q, RunIndex says %q %q",
						i, got.Detail, got.Failures, want.Summary(), want.Failures)
				}
			}
		})
	}
}

// TestExploreMetricsMatchLiteralRuns: Explore's canonical dump holds,
// for every metric a judged schedule's runs record, what running each
// schedule's arms literally records: a shared RCHDroid run's capture is
// merged once into every schedule that uses it, and nowhere else. Only
// the sweep engine's own metrics and the explorer's run counters and
// space gauges, which count work rather than schedules, are left out.
func TestExploreMetricsMatchLiteralRuns(t *testing.T) {
	skip := map[string]bool{
		"explore_stock_runs_total": true, "explore_rch_runs_total": true,
		"explore_frontier_next": true, "explore_space_size": true,
	}
	for _, sc := range withFixture() {
		sc := sc
		sp := SpaceFor(&sc, 2)
		shared := obs.NewRegistry()
		Explore(&sc, Options{Depth: 2, Workers: 2, Obs: shared})
		literal := obs.NewRegistry()
		sh := literal.Shard()
		for idx := uint64(0); idx < sp.Size(); idx++ {
			v := RunIndexWith(&sc, sp, idx, InstallerForObs(&sc, sh))
			foldVerdict(sh, &v)
		}
		want := literal.Snapshot()
		compared := 0
		for _, m := range shared.Snapshot().Canonical().Metrics {
			if skip[m.Name] || strings.HasPrefix(m.Name, "sweep_") {
				continue
			}
			var lit *obs.Metric
			for i := range want.Metrics {
				if want.Metrics[i].Name == m.Name {
					lit = &want.Metrics[i]
				}
			}
			if lit == nil || !reflect.DeepEqual(m, *lit) {
				t.Errorf("%s: Explore dumps %s as %+v %+v, literal runs as %+v", sc.Name, m.Name, m, m.Hist, lit)
			}
			compared++
		}
		if compared != len(want.Metrics) {
			t.Errorf("%s: Explore dumps %d of the literal runs' %d metrics", sc.Name, compared, len(want.Metrics))
		}
	}
}

// emptyViewSchedules is a small space and its schedules whose stock view
// is the empty schedule, the view's own first.
func emptyViewSchedules(t *testing.T) (Space, []Schedule) {
	sp := Space{Edges: 2, Actions: []Action{ActConfig, ActFlush}, Depth: 2}
	var scheds []Schedule
	for idx := uint64(0); idx < sp.Size(); idx++ {
		if s := sp.At(idx); len(s.stockView()) == 0 {
			scheds = append(scheds, s)
		}
	}
	if len(scheds) < 3 || len(scheds[0]) != 0 {
		t.Fatalf("want the empty schedule and several sharing its view, have %v", scheds)
	}
	return sp, scheds
}

// recovered calls the memo for s and returns its RCHDroid run, or what
// it panicked with.
func recovered(m *viewMemo, s Schedule, sh *obs.Shard, stock stockRunner, rch rchRunner) (run RunResult, val any) {
	defer func() { val = recover() }()
	_, run = m.arms(s, sh, stock, rch)
	return run, nil
}

// TestStockMemoPanicReachesEveryWaiter: a view whose stock run panics
// panics again in every schedule that needs it, whether the schedule
// waited for the run or came after it, and the run happens once.
func TestStockMemoPanicReachesEveryWaiter(t *testing.T) {
	sp, scheds := emptyViewSchedules(t)
	m := newViewMemo(sp, false)
	started, release := make(chan struct{}), make(chan struct{})
	var ran atomic.Int32
	stock := func(Schedule) RunResult {
		if ran.Add(1) == 1 {
			close(started)
		}
		<-release
		panic("stock run exploded")
	}
	rch := func(Schedule, *obs.Shard) RunResult {
		t.Error("the RCHDroid arm ran after its view's stock run panicked")
		return RunResult{}
	}

	var wg sync.WaitGroup
	vals := make([]any, len(scheds))
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, vals[0] = recovered(m, scheds[0], nil, stock, rch)
	}()
	<-started
	for i := 1; i < len(scheds); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, vals[i] = recovered(m, scheds[i], nil, stock, rch)
		}(i)
	}
	close(release)
	wg.Wait()
	_, last := recovered(m, scheds[1], nil, stock, rch)
	vals = append(vals, last)
	for i, v := range vals {
		if fmt.Sprint(v) != "stock run exploded" {
			t.Errorf("caller %d: recovered %v, want the stock run's panic", i, v)
		}
	}
	if n := ran.Load(); n != 1 {
		t.Errorf("the stock run ran %d times, want once", n)
	}
}

// panickyRCH is an RCHDroid runner that records one counter and then
// panics on the empty view, and returns a marked run for any other
// schedule; calls counts its runs per schedule.
func panickyRCH(calls *sync.Map) rchRunner {
	return func(s Schedule, into *obs.Shard) RunResult {
		n, _ := calls.LoadOrStore(s.String(), new(atomic.Int32))
		n.(*atomic.Int32).Add(1)
		into.Counter("probe_total", "", obs.Sim).Inc()
		if len(s) == 0 {
			panic("rch run exploded")
		}
		return RunResult{RunResult: oracle.RunResult{Name: s.String()}}
	}
}

// TestRCHMemoPanicReachesViewsOwnSchedule: when a view's RCHDroid run
// panics, the view's own schedule panics with its value, both as the
// schedule that ran it and on a later call, and each time its worker's
// shard receives what the run recorded before the panic. The view's run
// happens once.
func TestRCHMemoPanicReachesViewsOwnSchedule(t *testing.T) {
	sp, scheds := emptyViewSchedules(t)
	m := newViewMemo(sp, true)
	var calls sync.Map
	rch := panickyRCH(&calls)
	stock := func(Schedule) RunResult { return RunResult{} }
	for i := 0; i < 2; i++ {
		reg := obs.NewRegistry()
		if _, v := recovered(m, scheds[0], reg.Shard(), stock, rch); fmt.Sprint(v) != "rch run exploded" {
			t.Errorf("call %d of the view's own schedule: recovered %v, want the RCHDroid run's panic", i, v)
		}
		if got, _ := reg.Snapshot().Value("probe_total"); got != 1 {
			t.Errorf("call %d: the worker's shard holds probe_total=%d of the panicked run's capture, want 1", i, got)
		}
	}
	if n, _ := calls.Load("[]"); n.(*atomic.Int32).Load() != 1 {
		t.Errorf("the view's RCHDroid run ran %d times, want once", n.(*atomic.Int32).Load())
	}
}

// TestRCHMemoPanicLeavesBlindSchedulesTheirOwnRun: when a view's
// RCHDroid run panics, a schedule with stock-blind slots has no consult
// record to prove them inert, so it runs its own RCHDroid arm and does
// not panic, whether it ran the view itself or came after. Its shard
// holds its own run's metrics only.
func TestRCHMemoPanicLeavesBlindSchedulesTheirOwnRun(t *testing.T) {
	sp, scheds := emptyViewSchedules(t)
	var calls sync.Map
	rch := panickyRCH(&calls)
	stock := func(Schedule) RunResult { return RunResult{} }
	for _, first := range []bool{true, false} {
		m := newViewMemo(sp, true)
		if !first {
			recovered(m, scheds[0], nil, stock, rch)
		}
		for _, s := range scheds[1:] {
			reg := obs.NewRegistry()
			r, v := recovered(m, s, reg.Shard(), stock, rch)
			if v != nil {
				t.Fatalf("%s (ran the view: %v): panicked with %v", s, first, v)
			}
			if r.Name != s.String() {
				t.Errorf("%s (ran the view: %v): got the RCHDroid run of %q, want its own", s, first, r.Name)
			}
			if got, _ := reg.Snapshot().Value("probe_total"); got != 1 {
				t.Errorf("%s (ran the view: %v): probe_total=%d, want its own run's 1", s, first, got)
			}
		}
	}
}

// TestStockRunsCounter: explore_stock_runs_total counts one stock arm per
// stock view, and explore_rch_runs_total one RCHDroid arm per view plus
// one per schedule with a live stock-blind slot: double-rotation's 821
// depth-2 schedules have 466 views, and the corpus's 3,628 have 1,974.
// No corpus step writes to a shadow view, so every flush slot is inert
// and none fires; in the fixture some fire.
func TestStockRunsCounter(t *testing.T) {
	walk := func(scs []corpus.Scenario) (schedules, stockRuns, rchRuns, fired int64) {
		reg := obs.NewRegistry()
		for i := range scs {
			Explore(&scs[i], Options{Depth: 2, Workers: 3, Obs: reg})
		}
		snap := reg.Snapshot()
		schedules, _ = snap.Value("explore_schedules_total")
		stockRuns, _ = snap.Value("explore_stock_runs_total")
		rchRuns, _ = snap.Value("explore_rch_runs_total")
		fired, ok := snap.Value("explore_flush_fired_total")
		if !ok {
			t.Error("the dump does not define explore_flush_fired_total")
		}
		return schedules, stockRuns, rchRuns, fired
	}
	sc, ok := corpus.ByName("double-rotation")
	if !ok {
		t.Fatal("corpus lost double-rotation")
	}
	if n, stock, rch, fired := walk([]corpus.Scenario{sc}); n != 821 || stock != 466 || rch != 466 || fired != 0 {
		t.Errorf("double-rotation depth 2: %d schedules, %d stock runs, %d RCHDroid runs, %d flushes fired; want 821, 466, 466, 0",
			n, stock, rch, fired)
	}
	if n, stock, rch, fired := walk(corpus.All()); n != 3628 || stock != 1974 || rch != 1974 || fired != 0 {
		t.Errorf("corpus depth 2: %d schedules, %d stock runs, %d RCHDroid runs, %d flushes fired; want 3628, 1974, 1974, 0",
			n, stock, rch, fired)
	}
	n, stock, rch, fired := walk([]corpus.Scenario{lazyMigration()})
	if fired == 0 || rch <= stock || rch >= n {
		t.Errorf("fixture depth 2: %d schedules, %d stock runs, %d RCHDroid runs, %d flushes fired; want some fired and stock < RCHDroid < schedules",
			n, stock, rch, fired)
	}
	t.Logf("fixture depth 2: %d schedules, %d stock runs, %d RCHDroid runs, %d flushes fired", n, stock, rch, fired)
}
