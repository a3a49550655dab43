package metrics_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/chaos"
	"rchdroid/internal/config"
	"rchdroid/internal/core"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/guard"
	"rchdroid/internal/metrics"
	"rchdroid/internal/obs"
	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
)

// guardRun is one traced, guarded chaos run with its metrics shard
// attached, plus every rendered report the run feeds: the trace
// summary, the ATMS stack dump and the guard's own report.
type guardRun struct {
	tracer                 *trace.Tracer
	guard                  *guard.Guard
	reg                    *obs.Registry
	rendered, dump, report string
}

// guardedRun drives the seed-77 guarded chaos scenario.
func guardedRun(t *testing.T) guardRun {
	t.Helper()
	reg := obs.NewRegistry()
	sched := sim.NewScheduler()
	model := costmodel.Default()
	tracer := trace.New(sched)
	sys := atms.New(sched, model)
	sys.SetTracer(tracer)
	proc := app.NewProcess(sched, model, benchapp.New(benchapp.Config{
		Images:    2,
		TaskDelay: 100 * time.Millisecond,
	}))
	proc.SetTracer(tracer)
	plan := chaos.NewPlan(77, chaos.Guarded())
	plan.BindClock(sched)
	plan.SetTracer(tracer)
	opts := core.DefaultOptions()
	opts.Chaos = plan
	cfg := guard.DefaultConfig()
	opts.Guard = &cfg
	opts.Obs = reg.Shard()
	rch := core.Install(sys, proc, opts)
	plan.Install(sys, proc)
	sys.LaunchApp(proc)
	sched.Advance(2 * time.Second)
	c := config.Default()
	for i := 0; i < 6; i++ {
		c = c.Rotated()
		sys.PushConfiguration(c)
		sched.Advance(3 * time.Second)
	}
	st := metrics.AnalyzeTrace(tracer.Events())
	return guardRun{tracer: tracer, guard: rch.Guard, reg: reg,
		rendered: st.Render(0), dump: sys.DumpStack(), report: rch.Guard.Report()}
}

// TestAnalyzeTraceGuardCounters checks the guard section of the trace
// summary: watchdog margins for the phases a healthy handling disarms,
// and counters consistent between the in-memory trace and the guard.
func TestAnalyzeTraceGuardCounters(t *testing.T) {
	run := guardedRun(t)
	st := metrics.AnalyzeTrace(run.tracer.Events())

	if len(st.GuardMargins) == 0 {
		t.Fatal("no guard deadline margins collected")
	}
	for phase, margins := range st.GuardMargins {
		for _, m := range margins {
			if m <= 0 {
				t.Fatalf("phase %s recorded non-positive margin %v", phase, m)
			}
		}
	}
	if st.Guard["anr"]+st.Guard["retry"]+st.Guard["quarantine"]+st.Guard["recover"]+st.Guard["stockRoute"] == 0 {
		t.Fatal("Guarded preset produced no guard activity in the trace")
	}
	if !strings.Contains(run.rendered, "guard:") {
		t.Fatalf("rendered summary misses the guard section:\n%s", run.rendered)
	}
	if !strings.Contains(run.rendered, "guard deadline margin") {
		t.Fatalf("rendered summary misses the margin table:\n%s", run.rendered)
	}
	if run.report == "guard: disabled\n" {
		t.Fatal("guard report claims disabled")
	}
}

// TestGuardRecordsAgree checks that every record of a guard decision
// tells the same story: for each kind, the run's count, the shard's
// canonical counter (absent when the kind never fired) and the number
// of guard:<kind> trace instants agree, and the escalation log holds
// exactly the trace's escalation instants, in order.
func TestGuardRecordsAgree(t *testing.T) {
	run := guardedRun(t)
	st := metrics.AnalyzeTrace(run.tracer.Events())
	counters := make(map[string]int64)
	for _, m := range run.reg.Snapshot().Metrics {
		counters[m.Name] = m.Value
	}
	byName := make(map[string]guard.Kind)
	fired := 0
	for k := guard.Kind(0); k < guard.NumKinds; k++ {
		byName[k.String()] = k
		n := run.guard.Count(k)
		v, dumped := counters[k.Metric()]
		if n == 0 && dumped {
			t.Errorf("%s never fired but %s is in the dump", k, k.Metric())
		}
		if int64(n) != v || st.Guard[k.String()] != n {
			t.Errorf("%s: count %d, %s = %d, guard:%s instants %d", k, n, k.Metric(), v, k, st.Guard[k.String()])
		}
		if n > 0 {
			fired++
		}
	}
	if fired < 2 {
		t.Fatalf("only %d decision kinds fired; the scenario no longer exercises the guard", fired)
	}

	var want []string
	for _, e := range run.tracer.Events() {
		if e.Ph != trace.PhaseInstant || e.Cat != "guard" {
			continue
		}
		k, ok := byName[strings.TrimPrefix(e.Name, "guard:")]
		if !ok {
			t.Fatalf("trace carries an unknown guard instant %q", e.Name)
		}
		if !k.Escalation() {
			continue
		}
		class := ""
		for _, a := range e.Args {
			if a.Key == "class" {
				class, _ = a.Val.(string)
			}
		}
		want = append(want, fmt.Sprintf("%d %s %s", e.TS, k, class))
	}
	var got []string
	for _, d := range run.guard.Decisions() {
		got = append(got, fmt.Sprintf("%d %s %s", d.At, d.Kind, d.Class))
	}
	if len(want) == 0 {
		t.Fatal("no escalation instants in the trace")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("escalation log differs from the trace's escalation instants:\nlog:\n%s\ntrace:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestGuardStatsSurviveJSONRoundTrip re-reads the exported trace (where
// durations become formatted strings) and requires the same guard
// counters and margins — the path rchtrace takes.
func TestGuardStatsSurviveJSONRoundTrip(t *testing.T) {
	tracer := guardedRun(t).tracer
	direct := metrics.AnalyzeTrace(tracer.Events())

	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	evs, _, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	reread := metrics.AnalyzeTrace(evs)

	if !reflect.DeepEqual(direct.Guard, reread.Guard) {
		t.Fatalf("guard counts changed across JSON round trip:\ndirect %v\nreread %v", direct.Guard, reread.Guard)
	}
	if len(direct.GuardMargins) != len(reread.GuardMargins) {
		t.Fatalf("margin phases changed: %d vs %d", len(direct.GuardMargins), len(reread.GuardMargins))
	}
	for phase, ms := range direct.GuardMargins {
		if len(reread.GuardMargins[phase]) != len(ms) {
			t.Fatalf("phase %s margins: %d vs %d", phase, len(ms), len(reread.GuardMargins[phase]))
		}
	}
}

// TestReportsByteIdenticalAcrossRuns re-runs the identical guarded
// scenario and compares every rendered report byte for byte — the
// export-determinism contract for the summaries the CLI prints.
func TestReportsByteIdenticalAcrossRuns(t *testing.T) {
	a, b := guardedRun(t), guardedRun(t)
	if a.rendered != b.rendered {
		t.Fatalf("trace summaries differ between identical runs:\n%s----\n%s", a.rendered, b.rendered)
	}
	if a.dump != b.dump {
		t.Fatalf("stack dumps differ between identical runs:\n%s----\n%s", a.dump, b.dump)
	}
	if a.report != b.report {
		t.Fatalf("guard reports differ between identical runs:\n%s----\n%s", a.report, b.report)
	}
}
