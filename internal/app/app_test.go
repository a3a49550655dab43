package app

import (
	"strings"
	"testing"
	"time"

	"rchdroid/internal/bundle"
	"rchdroid/internal/config"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/resources"
	"rchdroid/internal/sim"
	"rchdroid/internal/view"
)

// fakeSystem records calls from the activity thread without any IPC.
type fakeSystem struct {
	started  []Intent
	resumed  []int
	released []int
}

func (f *fakeSystem) RequestStartActivity(i Intent, from int) { f.started = append(f.started, i) }
func (f *fakeSystem) NotifyResumed(token int)                 { f.resumed = append(f.resumed, token) }
func (f *fakeSystem) NotifyShadowReleased(token int)          { f.released = append(f.released, token) }

func testApp(name string, extraViews int) *App {
	res := resources.NewTable()
	children := []*view.Spec{view.Edit(10, "seed")}
	for i := 0; i < extraViews; i++ {
		children = append(children, view.Text(view.ID(20+i), "t"))
	}
	res.PutDefault("layout/main", view.Linear(1, children...))
	res.PutDefault("string/title", "Title")
	res.Put("string/title", resources.Qualifiers{Locale: "fr-FR"}, "Titre")
	cls := &ActivityClass{Name: "Main"}
	cls.Callbacks.OnCreate = func(a *Activity, saved *bundle.Bundle) {
		a.SetContentView("layout/main")
	}
	return &App{Name: name, Resources: res, Main: cls}
}

func launchOne(t *testing.T, a *App) (*sim.Scheduler, *Process, *fakeSystem, *Activity) {
	t.Helper()
	sched := sim.NewScheduler()
	proc := NewProcess(sched, costmodel.Default(), a)
	sys := &fakeSystem{}
	proc.Thread().BindSystem(sys)
	proc.Thread().ScheduleLaunch(a.Main, 1, config.Default(), LaunchOptions{})
	sched.Advance(time.Second)
	act := proc.Thread().Activity(1)
	if act == nil {
		t.Fatal("activity not launched")
	}
	return sched, proc, sys, act
}

func TestLaunchReachesResumed(t *testing.T) {
	_, proc, sys, act := launchOne(t, testApp("demo", 2))
	if act.State() != StateResumed {
		t.Fatalf("state = %v", act.State())
	}
	if len(sys.resumed) != 1 || sys.resumed[0] != 1 {
		t.Fatalf("resumed notifications = %v", sys.resumed)
	}
	if !act.Decor().AttachedToWindow() {
		t.Fatal("window not attached")
	}
	if act.ViewCount() != 4 {
		t.Fatalf("ViewCount = %d, want 4", act.ViewCount())
	}
	if proc.Thread().ForegroundActivity() != act {
		t.Fatal("foreground lookup failed")
	}
}

func TestLaunchTakesModeledTime(t *testing.T) {
	sched, _, _, _ := launchOne(t, testApp("demo", 2))
	// Create + resume phases must have consumed tens of milliseconds of
	// virtual time, not zero.
	if sched.Now() < sim.Time(50*time.Millisecond) {
		t.Fatalf("launch finished at %v; costs not charged", sched.Now())
	}
}

func TestGetStringFollowsConfiguration(t *testing.T) {
	_, _, _, act := launchOne(t, testApp("demo", 0))
	if got := act.GetString("string/title", ""); got != "Title" {
		t.Fatalf("default locale title = %q", got)
	}
	act.ApplyConfiguration(act.Config().WithLocale("fr-FR"))
	if got := act.GetString("string/title", ""); got != "Titre" {
		t.Fatalf("fr title = %q", got)
	}
}

func TestSaveRestoreInstanceStateWithAppCallbacks(t *testing.T) {
	a := testApp("demo", 0)
	savedCalls, restoredCalls := 0, 0
	a.Main.Callbacks.OnSaveInstanceState = func(act *Activity, out *bundle.Bundle) {
		savedCalls++
		out.PutInt("counter", 7)
	}
	a.Main.Callbacks.OnRestoreInstanceState = func(act *Activity, saved *bundle.Bundle) {
		restoredCalls++
		act.PutExtra("counter", saved.GetInt("counter", 0))
	}
	_, _, _, act := launchOne(t, a)
	et := act.FindViewByID(10).(*view.EditText)
	et.Type("-typed")
	state := act.SaveInstanceState()
	if savedCalls != 1 {
		t.Fatal("OnSaveInstanceState not called")
	}

	sched2 := sim.NewScheduler()
	proc2 := NewProcess(sched2, costmodel.Default(), a)
	proc2.Thread().BindSystem(&fakeSystem{})
	proc2.Thread().ScheduleLaunch(a.Main, 1, config.Default(), LaunchOptions{Saved: state})
	sched2.Advance(time.Second)
	act2 := proc2.Thread().Activity(1)
	if restoredCalls != 1 {
		t.Fatal("OnRestoreInstanceState not called")
	}
	if got := act2.FindViewByID(10).(*view.EditText).Text(); got != "seed-typed" {
		t.Fatalf("restored text = %q", got)
	}
	if got := act2.Extra("counter"); got != int64(7) {
		t.Fatalf("restored extra = %v", got)
	}
}

func TestRestartHandlerRelaunches(t *testing.T) {
	sched, proc, sys, act := launchOne(t, testApp("demo", 1))
	proc.Thread().ScheduleRuntimeChange(1, config.Portrait())
	sched.Advance(time.Second)
	act2 := proc.Thread().Activity(1)
	if act2 == act {
		t.Fatal("restart must replace the instance")
	}
	if act.State() != StateDestroyed || act2.State() != StateResumed {
		t.Fatalf("states: old=%v new=%v", act.State(), act2.State())
	}
	if act2.Config().Orientation != config.OrientationPortrait {
		t.Fatal("new instance has old configuration")
	}
	if len(sys.resumed) != 2 {
		t.Fatalf("resumed notifications = %v", sys.resumed)
	}
}

func TestRuntimeChangeNoDiffIsNoop(t *testing.T) {
	sched, proc, sys, act := launchOne(t, testApp("demo", 0))
	proc.Thread().ScheduleRuntimeChange(1, config.Default())
	sched.Advance(time.Second)
	if proc.Thread().Activity(1) != act {
		t.Fatal("no-diff change replaced the instance")
	}
	if len(sys.resumed) != 2 {
		t.Fatal("no-diff change must still ack resume")
	}
}

func TestRuntimeChangeOnDeadActivityIgnored(t *testing.T) {
	sched, proc, _, _ := launchOne(t, testApp("demo", 0))
	proc.Thread().ScheduleDestroy(1)
	sched.Advance(time.Second)
	proc.Thread().ScheduleRuntimeChange(1, config.Portrait()) // must not panic
	sched.Advance(time.Second)
}

func TestDeclaredChangeDeliversCallback(t *testing.T) {
	a := testApp("demo", 0)
	a.Main.DeclaredChanges = config.ChangeOrientation | config.ChangeScreenSize
	got := 0
	a.Main.Callbacks.OnConfigurationChanged = func(act *Activity, c config.Configuration) { got++ }
	sched, proc, _, act := launchOne(t, a)
	proc.Thread().ScheduleRuntimeChange(1, config.Portrait())
	sched.Advance(time.Second)
	if got != 1 {
		t.Fatalf("OnConfigurationChanged calls = %d", got)
	}
	if proc.Thread().Activity(1) != act {
		t.Fatal("declared change must keep the instance")
	}
	if act.Config().Orientation != config.OrientationPortrait {
		t.Fatal("configuration not applied")
	}
}

func TestAsyncTaskDeliversOnUIThread(t *testing.T) {
	sched, proc, _, act := launchOne(t, testApp("demo", 0))
	delivered := false
	act.StartAsyncTask("work", 100*time.Millisecond, func() { delivered = true })
	if proc.AsyncInFlight() != 1 {
		t.Fatal("task not in flight")
	}
	sched.Advance(50 * time.Millisecond)
	if delivered {
		t.Fatal("delivered too early")
	}
	sched.Advance(time.Second)
	if !delivered || proc.AsyncInFlight() != 0 {
		t.Fatalf("delivered=%v inflight=%d", delivered, proc.AsyncInFlight())
	}
}

func TestCrashReleasesEverything(t *testing.T) {
	sched, proc, _, act := launchOne(t, testApp("demo", 0))
	et := act.FindViewByID(10).(*view.EditText)
	act.Decor().Release() // simulate a destroyed tree
	act.StartAsyncTask("bad", 10*time.Millisecond, func() { et.SetText("boom") })
	sched.Advance(time.Second)
	if !proc.Crashed() {
		t.Fatal("process should have crashed")
	}
	if proc.CrashCause() == nil || proc.CrashCause().Error() == "" {
		t.Fatal("missing crash cause")
	}
	if proc.Memory().CurrentBytes() != 0 {
		t.Fatal("crashed process memory not zero")
	}
	if !proc.UILooper().Quitted() {
		t.Fatal("looper still running after crash")
	}
	// Further posts are ignored, not fatal.
	proc.PostApp("late", 0, func() { t.Fatal("ran after crash") })
	proc.StartAsyncTask(act, "late", time.Millisecond, func() {})
	sched.Advance(time.Second)
}

func TestNonViewPanicsPropagate(t *testing.T) {
	sched, proc, _, _ := launchOne(t, testApp("demo", 0))
	defer func() {
		if recover() == nil {
			t.Fatal("non-view panic must propagate (framework bug, not app crash)")
		}
		if proc.Crashed() {
			t.Fatal("framework panic must not be recorded as app crash")
		}
	}()
	proc.PostApp("bug", 0, func() { panic("framework bug") })
	sched.Advance(time.Second)
}

// npe is the app exception a body touching a released view throws.
func npe() *view.NullPointerError {
	return &view.NullPointerError{ViewID: 10, ViewType: "EditText", Op: "setText"}
}

// A NullPointerError escaping a RunCharged body crashes the process,
// and the phase charges nothing: its cost was to be the body's result.
func TestRunChargedNPECrashesAndChargesNothing(t *testing.T) {
	sched, proc, _, _ := launchOne(t, testApp("demo", 0))
	busy := proc.UILooper().TotalBusy()
	proc.Thread().RunCharged("bad", func() time.Duration { panic(npe()) })
	sched.Advance(time.Second)
	if !proc.Crashed() {
		t.Fatal("NPE in a charged phase did not crash the process")
	}
	if got := proc.UILooper().TotalBusy(); got != busy {
		t.Fatalf("crashed phase charged %v", got-busy)
	}
}

// Catching is per message: the same NullPointerError in a message
// posted straight on the UI looper is not an app callback, so it
// propagates and the process stays alive.
func TestNPEInPlainUIMessagePropagates(t *testing.T) {
	sched, proc, _, _ := launchOne(t, testApp("demo", 0))
	defer func() {
		if _, ok := recover().(*view.NullPointerError); !ok {
			t.Fatal("NPE in a plain looper message did not propagate")
		}
		if proc.Crashed() {
			t.Fatal("NPE in a plain looper message crashed the process")
		}
	}()
	proc.UILooper().Post("plain", 0, func() { panic(npe()) })
	sched.Advance(time.Second)
}

// A fork's caught messages crash the fork: ForkProcess binds the forked
// looper's uncaught handler to the forked process, not the template.
func TestForkedProcessCrashesAlone(t *testing.T) {
	sched, proc, _, _ := launchOne(t, testApp("demo", 0))
	fs, err := sched.Fork()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := ForkProcess(proc, fs)
	if err != nil {
		t.Fatal(err)
	}
	fork.Thread().BindSystem(&fakeSystem{})
	fork.PostApp("bad", 0, func() { panic(npe()) })
	fs.Advance(time.Second)
	if !fork.Crashed() {
		t.Fatal("NPE in the fork did not crash the fork")
	}
	if proc.Crashed() || proc.UILooper().Quitted() {
		t.Fatal("NPE in the fork crashed the template")
	}
}

func TestMemoryAccountingGrowsWithViews(t *testing.T) {
	_, small, _, _ := launchOne(t, testApp("small", 0))
	_, big, _, _ := launchOne(t, testApp("big", 40))
	if big.Memory().CurrentBytes() <= small.Memory().CurrentBytes() {
		t.Fatal("more views must cost more memory")
	}
	base := costmodel.Default().ProcessBaseBytes
	if small.Memory().CurrentBytes() <= base {
		t.Fatal("live activity must add to process base")
	}
}

func TestExtraBaseBytesRespected(t *testing.T) {
	a := testApp("heavy", 0)
	a.ExtraBaseBytes = 64 << 20
	_, heavy, _, _ := launchOne(t, a)
	_, light, _, _ := launchOne(t, testApp("light", 0))
	diff := heavy.Memory().CurrentBytes() - light.Memory().CurrentBytes()
	if diff != 64<<20 {
		t.Fatalf("extra base diff = %d", diff)
	}
}

func TestShadowBookkeeping(t *testing.T) {
	sched, _, _, act := launchOne(t, testApp("demo", 0))
	now := sched.Now()
	act.EnterShadow(now)
	if act.State() != StateShadow {
		t.Fatalf("state = %v", act.State())
	}
	if act.Decor().AttachedToWindow() {
		t.Fatal("shadow window still attached")
	}
	sched.Advance(10 * time.Second)
	if act.ShadowTime(sched.Now()) != 10*time.Second {
		t.Fatalf("ShadowTime = %v", act.ShadowTime(sched.Now()))
	}
	if act.ShadowFrequency(sched.Now(), time.Minute) != 1 {
		t.Fatal("frequency != 1")
	}
	if act.ShadowFrequency(sched.Now(), 5*time.Second) != 0 {
		t.Fatal("stale entry counted inside short window")
	}
	act.FlipToSunny()
	if act.State() != StateSunny || !act.Decor().AttachedToWindow() {
		t.Fatal("flip to sunny failed")
	}
	act.SettleToResumed()
	if act.State() != StateResumed {
		t.Fatal("settle failed")
	}
}

func TestActivityStringAndAccessors(t *testing.T) {
	_, proc, _, act := launchOne(t, testApp("demo", 0))
	if act.String() == "" || act.Token() != 1 || act.Class().Name != "Main" {
		t.Fatal("accessors wrong")
	}
	if act.Process() != proc {
		t.Fatal("Process() wrong")
	}
	if act.Content() == nil {
		t.Fatal("Content() nil after SetContentView")
	}
	if proc.App().Name != "demo" || proc.Thread().String() == "" {
		t.Fatal("process accessors wrong")
	}
}

func TestSetContentViewRejectsNonLayout(t *testing.T) {
	a := testApp("demo", 0)
	a.Resources.PutDefault("layout/bogus", 42)
	_, _, _, act := launchOne(t, a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-layout resource")
		}
	}()
	act.SetContentView("layout/bogus")
}

func TestSetContentSpecDynamicViews(t *testing.T) {
	a := testApp("demo", 0)
	a.Main.Callbacks.OnCreate = func(act *Activity, saved *bundle.Bundle) {
		act.SetContentSpec(view.Linear(1, view.Text(2, "dynamic")))
	}
	_, _, _, act := launchOne(t, a)
	if act.FindViewByID(2) == nil {
		t.Fatal("dynamic content missing")
	}
}

func TestUITimerTicksAndStopsOnDestroy(t *testing.T) {
	sched, proc, _, act := launchOne(t, testApp("demo", 0))
	count := 0
	timer := act.StartUITimer("tick", 100*time.Millisecond, func() { count++ })
	sched.Advance(550 * time.Millisecond)
	if count != 5 || timer.Ticks() != 5 {
		t.Fatalf("ticks = %d/%d, want 5", count, timer.Ticks())
	}
	if len(act.Timers()) != 1 {
		t.Fatal("Timers() wrong")
	}
	proc.Thread().ScheduleDestroy(1)
	sched.Advance(time.Second)
	after := count
	sched.Advance(time.Second)
	if count != after {
		t.Fatal("timer ticked after owner destroyed")
	}
	if timer.Active() {
		t.Fatal("timer still active")
	}
}

func TestUITimerCancel(t *testing.T) {
	sched, _, _, act := launchOne(t, testApp("demo", 0))
	count := 0
	timer := act.StartUITimer("tick", 100*time.Millisecond, func() { count++ })
	sched.Advance(250 * time.Millisecond)
	timer.Cancel()
	sched.Advance(time.Second)
	if count != 2 {
		t.Fatalf("ticks after cancel = %d, want 2", count)
	}
}

func TestUITimerStopsOnCrash(t *testing.T) {
	sched, proc, _, act := launchOne(t, testApp("demo", 0))
	et := act.FindViewByID(10).(*view.EditText)
	act.StartUITimer("bad", 50*time.Millisecond, func() { et.SetText("x") })
	act.Decor().Release()
	sched.Advance(time.Second)
	if !proc.Crashed() {
		t.Fatal("timer touching released views must crash the app")
	}
	// No further panics after the crash; the chain went quiet.
	sched.Advance(time.Second)
}

func TestFullLifecycleCallbackSequence(t *testing.T) {
	a := testApp("demo", 0)
	var calls []string
	log := func(name string) func(*Activity) {
		return func(*Activity) { calls = append(calls, name) }
	}
	a.Main.Callbacks.OnStart = log("start")
	a.Main.Callbacks.OnResume = log("resume")
	a.Main.Callbacks.OnPause = log("pause")
	a.Main.Callbacks.OnStop = log("stop")
	a.Main.Callbacks.OnDestroy = log("destroy")

	sched, proc, _, _ := launchOne(t, a)
	proc.Thread().ScheduleMoveToBackground(1)
	sched.Advance(time.Second)
	proc.Thread().ScheduleMoveToForeground(1)
	sched.Advance(time.Second)
	proc.Thread().ScheduleRuntimeChange(1, config.Portrait())
	sched.Advance(time.Second)

	want := []string{
		"start", "resume", // launch
		"pause", "stop", // background
		"start", "resume", // foreground
		"pause", "stop", "destroy", // relaunch teardown
		"start", "resume", // relaunch bring-up
	}
	if len(calls) != len(want) {
		t.Fatalf("calls = %v", calls)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("calls = %v, want %v", calls, want)
		}
	}
}

func TestServiceLifecycle(t *testing.T) {
	_, proc, _, _ := launchOne(t, testApp("demo", 0))
	started, stopped := 0, 0
	cls := &ServiceClass{
		Name:    "sync",
		OnStart: func(s *Service) { started++ },
		OnStop:  func(s *Service) { stopped++ },
	}
	s := proc.StartService(cls)
	if !s.Running() || started != 1 || !proc.ServiceRunning("sync") {
		t.Fatal("service did not start")
	}
	proc.StartService(cls) // idempotent start
	if started != 1 || s.Starts() != 2 {
		t.Fatalf("starts=%d callback=%d", s.Starts(), started)
	}
	if proc.RunningServices() != 1 {
		t.Fatal("running count wrong")
	}
	if !proc.StopService("sync") || stopped != 1 || s.Running() {
		t.Fatal("stop failed")
	}
	if proc.StopService("sync") {
		t.Fatal("double stop succeeded")
	}
	if proc.StopService("missing") {
		t.Fatal("stopping unknown service succeeded")
	}
	if proc.Service("sync") != s || s.Stops() != 1 {
		t.Fatal("accessors wrong")
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestServicesStopOnCrash(t *testing.T) {
	sched, proc, _, act := launchOne(t, testApp("demo", 0))
	proc.StartService(&ServiceClass{Name: "bg"})
	et := act.FindViewByID(10).(*view.EditText)
	act.Decor().Release()
	act.StartAsyncTask("boom", 10*time.Millisecond, func() { et.SetText("x") })
	sched.Advance(time.Second)
	if !proc.Crashed() {
		t.Fatal("no crash")
	}
	if proc.ServiceRunning("bg") {
		t.Fatal("service survived process death")
	}
}

func TestAccessorsAndHelpers(t *testing.T) {
	sched, proc, _, act := launchOne(t, testApp("demo", 0))
	if proc.Scheduler() != sched || proc.Model() == nil {
		t.Fatal("process accessors wrong")
	}
	// The CPU meter exists only once the process is profiled.
	if proc.CPU() != nil {
		t.Fatal("unprofiled process has a CPU meter")
	}
	proc.Profile()
	cpu := proc.CPU()
	proc.Profile()
	if cpu == nil || proc.CPU() != cpu {
		t.Fatal("Profile did not attach one CPU meter")
	}
	if proc.Endpoint() == nil || proc.Endpoint() != proc.Endpoint() {
		t.Fatal("endpoint not cached")
	}
	if proc.Thread().Process() != proc || proc.Thread().System() == nil {
		t.Fatal("thread accessors wrong")
	}
	if act.AsyncInFlight() != 0 {
		t.Fatal("fresh activity has in-flight tasks")
	}
	act.StartAsyncTask("t", time.Second, func() {})
	if act.AsyncInFlight() != 1 {
		t.Fatal("in-flight not counted")
	}
	sched.Advance(2 * time.Second)
	if act.AsyncInFlight() != 0 {
		t.Fatal("in-flight not drained")
	}
	act.SetShadowSnapshot(bundle.New())
	if act.ShadowSnapshot() == nil {
		t.Fatal("snapshot accessor wrong")
	}
}

func TestBusyLogAndMatching(t *testing.T) {
	sched, proc, _, _ := launchOne(t, testApp("demo", 0))
	proc.Profile()
	proc.EnableBusyLog()
	proc.PostApp("special:probe", 3*time.Millisecond, func() {})
	sched.Advance(time.Second)
	log := proc.BusyLog()
	found := false
	for _, l := range log {
		if strings.Contains(l, "special:probe") {
			found = true
		}
	}
	if !found {
		t.Fatalf("busy log missing entry: %v", log)
	}
	if proc.BusyMatching("special:probe") != 3*time.Millisecond {
		t.Fatalf("BusyMatching = %v", proc.BusyMatching("special:probe"))
	}
	if proc.BusyMatching("nonexistent") != 0 {
		t.Fatal("BusyMatching should be zero for unknown names")
	}
}

func TestClassByName(t *testing.T) {
	a := testApp("demo", 0)
	second := &ActivityClass{Name: "Second"}
	a.Activities = map[string]*ActivityClass{"Second": second}
	if a.ClassByName("Main") != a.Main {
		t.Fatal("main lookup failed")
	}
	if a.ClassByName("Second") != second {
		t.Fatal("secondary lookup failed")
	}
	if a.ClassByName("Nope") != nil {
		t.Fatal("unknown lookup should be nil")
	}
}

func TestDemoteShadowToStopped(t *testing.T) {
	sched, _, _, act := launchOne(t, testApp("demo", 0))
	act.EnterShadow(sched.Now())
	act.DemoteShadowToStopped()
	if act.State() != StateStopped {
		t.Fatalf("state = %v", act.State())
	}
	if act.Decor().Children()[0].Base().Shadow() {
		t.Fatal("shadow flags not cleared on demotion")
	}
}

func TestIllegalTransitionPanics(t *testing.T) {
	_, _, _, act := launchOne(t, testApp("demo", 0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected lifecycle panic")
		}
	}()
	act.setState(StateCreated) // Resumed → Created is illegal
}

func TestFragmentAccessors(t *testing.T) {
	_, _, act := launchFragmentApp(t)
	cls := act.Class().FragmentClasses["DetailFragment"]
	f := act.Fragments().Add(cls, "d", 50)
	if f.Class() != cls || f.Root() == nil {
		t.Fatal("fragment accessors wrong")
	}
	all := act.Fragments().All()
	if len(all) != 1 || all[0] != f {
		t.Fatal("All() wrong")
	}
	var detached *Fragment = &Fragment{class: cls}
	if detached.FindViewByID(60) != nil {
		t.Fatal("detached fragment lookup should be nil")
	}
	d := act.ShowDialog("x", nil)
	if d.Decor() == nil {
		t.Fatal("dialog decor accessor wrong")
	}
}

func TestServiceClassAccessor(t *testing.T) {
	_, proc, _, _ := launchOne(t, testApp("demo", 0))
	cls := &ServiceClass{Name: "svc"}
	s := proc.StartService(cls)
	if s.Class() != cls {
		t.Fatal("service class accessor wrong")
	}
}

func TestStartActivityRequiresSystem(t *testing.T) {
	_, proc, sys, act := launchOne(t, testApp("demo", 0))
	act.StartActivity("Main")
	if len(sys.started) != 1 || sys.started[0].Activity != "Main" {
		t.Fatalf("started = %v", sys.started)
	}
	_ = proc
}
