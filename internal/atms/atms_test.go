package atms

import (
	"strings"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/bundle"
	"rchdroid/internal/config"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/logcat"
	"rchdroid/internal/resources"
	"rchdroid/internal/sim"
	"rchdroid/internal/view"
)

func demoApp(name string) *app.App {
	res := resources.NewTable()
	res.PutDefault("layout/main", view.Linear(1, view.Text(2, "x")))
	cls := &app.ActivityClass{Name: "Main"}
	cls.Callbacks.OnCreate = func(a *app.Activity, saved *bundle.Bundle) {
		a.SetContentView("layout/main")
	}
	return &app.App{Name: name, Resources: res, Main: cls}
}

func boot(t *testing.T) (*sim.Scheduler, *ATMS, *app.Process, int) {
	t.Helper()
	sched := sim.NewScheduler()
	model := costmodel.Default()
	sys := New(sched, model)
	proc := app.NewProcess(sched, model, demoApp("demo"))
	token := sys.LaunchApp(proc)
	sched.Advance(time.Second)
	return sched, sys, proc, token
}

func TestLaunchAppBuildsStackAndResumes(t *testing.T) {
	_, sys, proc, token := boot(t)
	if sys.Stack().Len() != 1 {
		t.Fatalf("tasks = %d", sys.Stack().Len())
	}
	task := sys.Stack().TopTask()
	if task.Name != "demo" || task.Len() != 1 {
		t.Fatalf("task = %+v", task)
	}
	rec := task.Top()
	if rec.Token != token || !rec.Resumed() {
		t.Fatalf("record = %v", rec)
	}
	if rec.String() == "" {
		t.Fatal("record String empty")
	}
	act := proc.Thread().Activity(token)
	if act == nil || act.State() != app.StateResumed {
		t.Fatalf("instance = %v", act)
	}
}

func TestPushConfigurationMeasuresHandling(t *testing.T) {
	sched, sys, proc, token := boot(t)
	sys.PushConfiguration(config.Portrait())
	sched.Advance(time.Second)
	times := sys.HandlingTimes()
	if len(times) != 1 {
		t.Fatalf("handling times = %v", times)
	}
	if times[0] <= 0 || times[0] > 500*time.Millisecond {
		t.Fatalf("implausible handling time %v", times[0])
	}
	if sys.LastHandlingTime() != times[0] {
		t.Fatal("LastHandlingTime mismatch")
	}
	act := proc.Thread().Activity(token)
	if act.Config().Orientation != config.OrientationPortrait {
		t.Fatal("instance not reconfigured")
	}
	rec := sys.Stack().TopTask().Top()
	if !rec.Config.Equal(config.Portrait()) {
		t.Fatal("record config not refreshed on resume")
	}
	if sys.GlobalConfig().Orientation != config.OrientationPortrait {
		t.Fatal("global config not updated")
	}
}

func TestOnHandledCallback(t *testing.T) {
	sched, sys, _, _ := boot(t)
	var seen []time.Duration
	sys.OnHandled = func(d time.Duration) { seen = append(seen, d) }
	sys.PushConfiguration(config.Portrait())
	sched.Advance(time.Second)
	sys.PushConfiguration(config.Default())
	sched.Advance(time.Second)
	if len(seen) != 2 {
		t.Fatalf("OnHandled calls = %d", len(seen))
	}
}

func TestPushConfigurationWithEmptyStack(t *testing.T) {
	sched := sim.NewScheduler()
	sys := New(sched, costmodel.Default())
	sys.PushConfiguration(config.Portrait()) // must not panic
	sched.Advance(time.Second)
	if len(sys.HandlingTimes()) != 0 {
		t.Fatal("no handling should be recorded")
	}
}

func TestStarterSuppressesSameActivityDefaultStart(t *testing.T) {
	sched, sys, _, token := boot(t)
	// Default-flag start of the activity already on top creates nothing.
	sys.RunOnServer("atms:inject", 0, func() {
		sys.Starter().StartActivity(app.NewIntent("demo", "Main"), token)
	})
	sched.Advance(time.Second)
	if sys.Starter().Suppressed() != 1 {
		t.Fatalf("suppressed = %d", sys.Starter().Suppressed())
	}
	if sys.Starter().CreatedRecords() != 0 {
		t.Fatalf("created = %d", sys.Starter().CreatedRecords())
	}
	if sys.Stack().TopTask().Len() != 1 {
		t.Fatal("record count changed")
	}
}

func TestStarterUnknownTokenIgnored(t *testing.T) {
	sched, sys, _, _ := boot(t)
	sys.RunOnServer("atms:inject", 0, func() {
		sys.Starter().StartActivity(app.NewIntent("demo", "Main"), 999)
	})
	sched.Advance(time.Second)
	if sys.Starter().CreatedRecords() != 0 {
		t.Fatal("start from unknown token created a record")
	}
}

func TestStackOperations(t *testing.T) {
	s := NewStack()
	if s.TopTask() != nil || s.Len() != 0 {
		t.Fatal("empty stack wrong")
	}
	t1 := &TaskRecord{Name: "a"}
	t2 := &TaskRecord{Name: "b"}
	s.PushTask(t1)
	s.PushTask(t2)
	if s.TopTask() != t2 || s.Len() != 2 {
		t.Fatal("push/top wrong")
	}
	s.MoveTaskToTop(t1)
	if s.TopTask() != t1 {
		t.Fatal("MoveTaskToTop failed")
	}
	if s.TaskByName("b") != t2 || s.TaskByName("zzz") != nil {
		t.Fatal("TaskByName wrong")
	}
	s.RemoveTask(t2)
	if s.Len() != 1 {
		t.Fatal("RemoveTask failed")
	}
	if len(s.Tasks()) != 1 {
		t.Fatal("Tasks() wrong")
	}
}

func TestTaskRecordOperations(t *testing.T) {
	task := &TaskRecord{Name: "t"}
	if task.Top() != nil || task.FindShadow() != nil || task.FindToken(1) != nil {
		t.Fatal("empty task wrong")
	}
	cls := &app.ActivityClass{Name: "A"}
	r1 := &ActivityRecord{Token: 1, Class: cls}
	r2 := &ActivityRecord{Token: 2, Class: cls}
	r3 := &ActivityRecord{Token: 3, Class: cls}
	task.Push(r1)
	task.Push(r2)
	task.Push(r3)
	if task.Top() != r3 || task.Len() != 3 {
		t.Fatal("push/top wrong")
	}
	r1.SetShadow(true)
	r2.SetShadow(true)
	// FindShadow returns the topmost shadow record.
	if task.FindShadow() != r2 {
		t.Fatal("FindShadow must return topmost shadow")
	}
	task.MoveToTop(r1)
	if task.Top() != r1 || task.FindShadow() != r1 {
		t.Fatal("MoveToTop failed")
	}
	task.Remove(r2)
	if task.Len() != 2 || task.FindToken(2) != nil {
		t.Fatal("Remove failed")
	}
	if task.FindToken(3) != r3 {
		t.Fatal("FindToken failed")
	}
	if len(task.Records()) != 2 {
		t.Fatal("Records() wrong")
	}
}

func TestTaskOfToken(t *testing.T) {
	s := NewStack()
	cls := &app.ActivityClass{Name: "A"}
	task := &TaskRecord{Name: "t"}
	rec := &ActivityRecord{Token: 5, Class: cls}
	task.Push(rec)
	s.PushTask(task)
	gotTask, gotRec := s.TaskOfToken(5)
	if gotTask != task || gotRec != rec {
		t.Fatal("TaskOfToken failed")
	}
	gotTask, gotRec = s.TaskOfToken(99)
	if gotTask != nil || gotRec != nil {
		t.Fatal("TaskOfToken(99) should be nil")
	}
}

func TestTwoAppsIndependentTasks(t *testing.T) {
	sched := sim.NewScheduler()
	model := costmodel.Default()
	sys := New(sched, model)
	p1 := app.NewProcess(sched, model, demoApp("app1"))
	p2 := app.NewProcess(sched, model, demoApp("app2"))
	sys.LaunchApp(p1)
	sched.Advance(time.Second)
	sys.LaunchApp(p2)
	sched.Advance(time.Second)
	if sys.Stack().Len() != 2 {
		t.Fatalf("tasks = %d", sys.Stack().Len())
	}
	// Launching app2 backgrounds app1 (pause → stop).
	a1 := p1.Thread().Activity(1)
	if a1 == nil || a1.State() != app.StateStopped {
		t.Fatalf("app1 state = %v, want Stopped after app2 launch", a1.State())
	}
	// The change goes to the foreground app only (app2).
	sys.PushConfiguration(config.Portrait())
	sched.Advance(time.Second)
	if p2.Thread().Activity(2) == nil {
		t.Fatal("app2 record/token mismatch")
	}
	if a1.Config().Orientation != config.OrientationLandscape {
		t.Fatal("background app must keep its configuration")
	}
	// Bring app1 back to the front: it resumes, app2 stops.
	sys.MoveTaskToFront("app1")
	sched.Advance(time.Second)
	if a1.State() != app.StateResumed {
		t.Fatalf("app1 state = %v after MoveTaskToFront", a1.State())
	}
	if a2 := p2.Thread().Activity(2); a2.State() != app.StateStopped {
		t.Fatalf("app2 state = %v, want Stopped", a2.State())
	}
	// Moving the already-front task is a no-op.
	sys.MoveTaskToFront("app1")
	sched.Advance(time.Second)
	if a1.State() != app.StateResumed {
		t.Fatal("no-op front move changed state")
	}
}

func TestLogcatRecordsHandlingUnderZizhanTag(t *testing.T) {
	sched, sys, _, _ := boot(t)
	lc := logcat.New(sched, 128)
	sys.SetLogcat(lc)
	if sys.Logcat() != lc {
		t.Fatal("Logcat() accessor wrong")
	}
	sys.PushConfiguration(config.Portrait())
	sched.Advance(time.Second)
	// The artifact workflow: logcat | grep "zizhan".
	hits := lc.Grep("zizhan")
	if len(hits) != 1 {
		t.Fatalf("grep zizhan = %d entries:\n%s", len(hits), lc.Dump())
	}
	if !strings.Contains(hits[0].Message, "runtime change handling time") {
		t.Fatalf("entry = %v", hits[0])
	}
}

func TestDumpStackRendersTasksAndRecords(t *testing.T) {
	sched, sys, _, _ := boot(t)
	out := sys.DumpStack()
	for _, want := range []string{"dumpsys activity", "Task demo", "record(Main#1", "resumed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	p2 := app.NewProcess(sched, costmodel.Default(), demoApp("second"))
	sys.LaunchApp(p2)
	sched.Advance(time.Second)
	out = sys.DumpStack()
	if !strings.Contains(out, "* Task second") {
		t.Fatalf("foreground marker missing:\n%s", out)
	}
}

func TestShadowReleasedRemovesRecord(t *testing.T) {
	sched, sys, proc, token := boot(t)
	// Manufacture a shadow record, then notify its release through the
	// facade as the activity thread would.
	task := sys.Stack().TopTask()
	rec := task.FindToken(token)
	rec.SetShadow(true)
	facade := &threadFacade{atms: sys}
	facade.NotifyShadowReleased(token)
	sched.Advance(time.Second)
	if task.FindToken(token) != nil {
		t.Fatal("record not removed")
	}
	// Releasing an unknown token is harmless.
	facade.NotifyShadowReleased(999)
	sched.Advance(time.Second)
	_ = proc
}

func TestMoveTaskToFrontUnknownTaskIsNoop(t *testing.T) {
	sched, sys, proc, token := boot(t)
	sys.MoveTaskToFront("nope")
	sched.Advance(time.Second)
	if got := proc.Thread().Activity(token).State(); got != app.StateResumed {
		t.Fatalf("state = %v", got)
	}
}

func TestFinishTopActivitySingleRecord(t *testing.T) {
	sched, sys, proc, token := boot(t)
	sys.FinishTopActivity()
	sched.Advance(time.Second)
	if sys.Stack().Len() != 0 {
		t.Fatal("task not removed")
	}
	if proc.Thread().Activity(token) != nil {
		t.Fatal("instance not destroyed")
	}
	// Finishing with an empty stack is a no-op.
	sys.FinishTopActivity()
	sched.Advance(time.Second)
}

func TestRequestStartActivityRoundTrip(t *testing.T) {
	sched, sys, proc, token := boot(t)
	facade := &threadFacade{atms: sys}
	// A default-flag same-activity start is suppressed end to end.
	facade.RequestStartActivity(app.NewIntent("demo", "Main"), token)
	sched.Advance(time.Second)
	if sys.Starter().Suppressed() != 1 {
		t.Fatalf("suppressed = %d", sys.Starter().Suppressed())
	}
	_ = proc
}
