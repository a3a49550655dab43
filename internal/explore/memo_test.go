package explore

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"rchdroid/internal/obs"
	"rchdroid/internal/oracle/corpus"
)

// TestStockBlindSlotsLeaveStockUnchanged: for every depth-2 schedule
// with a stock-blind slot, in every scenario, the full stock run equals
// the stock run of its view. This is what lets Explore share one stock
// run per view; an action marked stock-blind that stock does consult
// changes some stock run and fails here.
func TestStockBlindSlotsLeaveStockUnchanged(t *testing.T) {
	checked := 0
	for _, sc := range corpus.All() {
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

// TestExploreAgreesWithRunIndex: at four workers, Explore's verdicts,
// which share stock runs, equal the literal single-schedule replay index
// by index, for every scenario.
func TestExploreAgreesWithRunIndex(t *testing.T) {
	depth := 2
	if testing.Short() {
		depth = 1
	}
	for _, sc := range corpus.All() {
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

// TestStockMemoPanicReachesEveryWaiter: a view whose stock run panics
// panics again in every schedule that needs it, whether the schedule
// waited for the run or came after it, and the run happens once.
func TestStockMemoPanicReachesEveryWaiter(t *testing.T) {
	sp := Space{Edges: 2, Actions: []Action{ActConfig, ActFlush}, Depth: 2}
	// Every schedule below has the empty view.
	var scheds []Schedule
	for idx := uint64(0); idx < sp.Size(); idx++ {
		if s := sp.At(idx); len(s.stockView()) == 0 {
			scheds = append(scheds, s)
		}
	}
	if len(scheds) < 3 {
		t.Fatalf("want several schedules sharing the empty view, have %v", scheds)
	}
	m := newStockMemo(sp)
	started, release := make(chan struct{}), make(chan struct{})
	var ran atomic.Int32
	run := func(Schedule) RunResult {
		if ran.Add(1) == 1 {
			close(started)
		}
		<-release
		panic("stock run exploded")
	}
	call := func(s Schedule) (val any) {
		defer func() { val = recover() }()
		m.stock(s, run)
		return nil
	}

	var wg sync.WaitGroup
	vals := make([]any, len(scheds))
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0] = call(scheds[0])
	}()
	<-started
	for i := 1; i < len(scheds); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i] = call(scheds[i])
		}(i)
	}
	close(release)
	wg.Wait()
	vals = append(vals, call(scheds[1]))
	for i, v := range vals {
		if fmt.Sprint(v) != "stock run exploded" {
			t.Errorf("caller %d: recovered %v, want the stock run's panic", i, v)
		}
	}
	if n := ran.Load(); n != 1 {
		t.Errorf("the stock run ran %d times, want once", n)
	}
}

// TestStockRunsCounter: explore_stock_runs_total counts one stock arm per
// stock view: double-rotation's 821 depth-2 schedules have 466 views,
// and the corpus's 3,628 have 1,974.
func TestStockRunsCounter(t *testing.T) {
	walk := func(scs []corpus.Scenario) (schedules, stockRuns int64) {
		reg := obs.NewRegistry()
		for i := range scs {
			Explore(&scs[i], Options{Depth: 2, Workers: 3, Obs: reg})
		}
		snap := reg.Snapshot()
		schedules, _ = snap.Value("explore_schedules_total")
		stockRuns, _ = snap.Value("explore_stock_runs_total")
		return schedules, stockRuns
	}
	sc, ok := corpus.ByName("double-rotation")
	if !ok {
		t.Fatal("corpus lost double-rotation")
	}
	if n, runs := walk([]corpus.Scenario{sc}); n != 821 || runs != 466 {
		t.Errorf("double-rotation depth 2: %d schedules, %d stock runs; want 821, 466", n, runs)
	}
	if n, runs := walk(corpus.All()); n != 3628 || runs != 1974 {
		t.Errorf("corpus depth 2: %d schedules, %d stock runs; want 3628, 1974", n, runs)
	}
}
