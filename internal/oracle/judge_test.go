package oracle

import (
	"strings"
	"testing"

	"rchdroid/internal/app"
	"rchdroid/internal/device"
)

// TestJudgeAsyncClauses pins the judge's two async clauses: every task
// RCHDroid started is delivered exactly once unless the plan dropped it
// (skipped when the arm crashed), and stock never delivers one twice.
func TestJudgeAsyncClauses(t *testing.T) {
	sc := &Scenario{StockMayCrash: true, StockMayLose: allBuckets}
	arm := func(name string, crashed bool, tasks ...Task) *RunResult {
		return &RunResult{Name: name, Crashed: crashed, Tasks: tasks}
	}
	cases := []struct {
		name       string
		stock, rch *RunResult
		want       string // "" means the pair passes
	}{
		{"delivered once", arm("stock", false, Task{Index: 0, Delivered: 1}), arm("rch", false, Task{Index: 0, Delivered: 1}), ""},
		{"never delivered", arm("stock", false), arm("rch", false, Task{Index: 3}), "rch: task3 delivered 0 times, want 1 (droppedByPlan=false)"},
		{"dropped by plan", arm("stock", false), arm("rch", false, Task{Index: 0, DroppedByPlan: true}), ""},
		{"dropped yet delivered", arm("stock", false), arm("rch", false, Task{Index: 1, Delivered: 1, DroppedByPlan: true}), "rch: task1 delivered 1 times, want 0 (droppedByPlan=true)"},
		{"delivered twice", arm("stock", false), arm("rch", false, Task{Index: 2, Delivered: 2}), "rch: task2 delivered 2 times, want 1 (droppedByPlan=false)"},
		{"crashed arm skips the clause", arm("stock", false), arm("rch", true, Task{Index: 0}), "rch crashed: "},
		{"stock delivers twice", arm("stock", true, Task{Index: 4, Delivered: 2}), arm("rch", false), "stock: task4 delivered 2 times, want ≤ 1"},
		{"stock may miss a delivery", arm("stock", true, Task{Index: 0}), arm("rch", false), ""},
	}
	for _, c := range cases {
		got := sc.Judge(c.stock, c.rch)
		switch {
		case c.want == "" && len(got) != 0:
			t.Errorf("%s: judge failed the pair: %q", c.name, got)
		case c.want != "" && (len(got) != 1 || got[0] != c.want):
			t.Errorf("%s: judge says %q, want exactly %q", c.name, got, c.want)
		}
	}
}

// TestJudgeComparesFinalConfig: two arms with equal essences but
// different final configurations diverge, and the line names both.
func TestJudgeComparesFinalConfig(t *testing.T) {
	sc := &Scenario{}
	w := device.New(device.Spec{App: func() *app.App { return OracleApp(1) }}, 0, nil)
	cfg := w.Sys.GlobalConfig()
	stock := &RunResult{Name: "stock", Essence: "e", Config: cfg}
	rch := &RunResult{Name: "rch", Essence: "e", Config: cfg.Rotated()}
	got := strings.Join(sc.Judge(stock, rch), "\n")
	if !strings.Contains(got, "essence diverged") || !strings.Contains(got, "cfg:"+cfg.String()) || !strings.Contains(got, "cfg:"+cfg.Rotated().String()) {
		t.Fatalf("judge missed the configuration divergence: %q", got)
	}
	rch.Config = cfg
	if got := sc.Judge(stock, rch); len(got) != 0 {
		t.Fatalf("judge failed equal arms: %q", got)
	}
}

// TestCounterFieldNamesCorruption: an absent or mistyped counter reads as
// an explicit value, never as 0.
func TestCounterFieldNamesCorruption(t *testing.T) {
	w := device.New(device.Spec{App: func() *app.App { return OracleApp(1) }}, 0, nil)
	fg := w.Proc.Thread().ForegroundActivity()
	for _, c := range []struct {
		val  any
		want string
	}{
		{int64(7), "7"},
		{nil, "counter extra absent"},
		{"x", "counter extra mistyped: string(x)"},
		{7, "counter extra mistyped: int(7)"},
	} {
		fg.PutExtra(CounterKey, c.val)
		f := CounterField(fg, CounterKey, "Oracle.counter", true)
		if f.Value != c.want || f.Bucket() != LossNonViewSaved {
			t.Errorf("counter %#v probes as %q in %s, want %q in %s", c.val, f.Value, f.Bucket(), c.want, LossNonViewSaved)
		}
	}
}
