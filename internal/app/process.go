package app

import (
	"fmt"
	"time"

	"rchdroid/internal/costmodel"
	"rchdroid/internal/ipc"
	"rchdroid/internal/looper"
	"rchdroid/internal/metrics"
	"rchdroid/internal/resources"
	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
	"rchdroid/internal/view"
)

// App is an installed application: its resources, its main activity class
// and its baseline memory footprint (apps differ widely; the app-set
// models set this per app).
type App struct {
	// Name is the package name.
	Name string
	// Resources is the app's configuration-qualified resource table.
	Resources *resources.Table
	// Main is the launcher activity class.
	Main *ActivityClass
	// Activities holds the app's non-launcher activity classes by name
	// (multi-activity apps: Main → Detail → …).
	Activities map[string]*ActivityClass
	// ExtraBaseBytes adds to the cost model's process base, modelling
	// app-specific heap (caches, libraries). Zero is a minimal app.
	ExtraBaseBytes int64
}

// ClassByName resolves an activity class by name, checking the launcher
// first.
func (a *App) ClassByName(name string) *ActivityClass {
	if a.Main != nil && a.Main.Name == name {
		return a.Main
	}
	return a.Activities[name]
}

// CrashError wraps the exception that killed a process.
type CrashError struct {
	App   string
	Cause error
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("app %s crashed: %v", e.App, e.Cause)
}

func (e *CrashError) Unwrap() error { return e.Cause }

// Process is a running app process: one UI looper, an activity thread,
// memory accounting and crash state.
type Process struct {
	app      *App
	sched    *sim.Scheduler
	model    *costmodel.Model
	uiLooper *looper.Looper
	endpoint *ipc.Endpoint
	thread   *ActivityThread
	mem      *metrics.MemoryMeter

	crashed  bool
	crashErr *CrashError

	services map[string]*Service

	asyncInFlight int

	asyncFault AsyncFaultInjector

	tracer     *trace.Tracer
	uiTrack    trace.TrackID
	asyncTrack trace.TrackID
}

// AsyncFault is a per-task fault decision. The zero value delivers the
// result normally.
type AsyncFault struct {
	// ExtraDelay lengthens the background work, pushing the result past
	// whatever the app expected (often across the next runtime change).
	ExtraDelay time.Duration
	// DropResult loses the result in flight: the task completes (in-flight
	// counters drain) but the UI callback never runs.
	DropResult bool
}

// AsyncFaultInjector is consulted once per StartAsyncTask with the task
// name.
type AsyncFaultInjector func(name string) AsyncFault

// SetAsyncFaultInjector installs (or, with nil, removes) the async-task
// fault injector.
func (p *Process) SetAsyncFaultInjector(fn AsyncFaultInjector) { p.asyncFault = fn }

// NewProcess boots a process for app on the given scheduler and cost
// model. The activity thread is created alongside; wire it to a system
// server before launching activities. The process keeps only its current
// memory count; Profile arms the profiler records.
func NewProcess(sched *sim.Scheduler, model *costmodel.Model, app *App) *Process {
	p := &Process{
		app:      app,
		sched:    sched,
		model:    model,
		uiLooper: looper.New(sched, app.Name+":ui"),
		mem:      metrics.NewMemoryMeter(sched, app.Name+":mem"),
	}
	p.thread = newActivityThread(p)
	p.uiLooper.SetUncaughtHandler(p.uncaught)
	p.mem.Set(model.ProcessBaseBytes + app.ExtraBaseBytes)
	return p
}

// Profile arms the profiler records that Fig 9, Fig 11 and the Anatomy
// table read: an unbounded tracer on the process, unless it is already
// traced, whose UI-thread work (looper.Work over Thread().Trace()) gives
// the CPU windows and busy times, and the memory step series, which
// starts at the current level. Only what runs after the call is
// recorded, so profile before launching (device.New does when its Spec
// sets Profile). A second call is a no-op.
func (p *Process) Profile() {
	if p.tracer == nil {
		p.SetTracer(trace.New(p.sched))
	}
	p.mem.Record()
}

// App returns the installed application.
func (p *Process) App() *App { return p.app }

// Scheduler returns the simulation scheduler.
func (p *Process) Scheduler() *sim.Scheduler { return p.sched }

// Model returns the cost model in effect.
func (p *Process) Model() *costmodel.Model { return p.model }

// UILooper returns the process's UI looper.
func (p *Process) UILooper() *looper.Looper { return p.uiLooper }

// Endpoint returns the binder endpoint targeting this process's UI
// looper; the system server transacts lifecycle commands against it.
func (p *Process) Endpoint() *ipc.Endpoint {
	if p.endpoint == nil {
		p.endpoint = ipc.NewEndpoint(p.app.Name, p.uiLooper)
	}
	return p.endpoint
}

// Thread returns the activity thread.
func (p *Process) Thread() *ActivityThread { return p.thread }

// SetTracer arms structured tracing for this process: a process row for
// the app, a thread row for the UI looper (wired into the looper's own
// instrumentation) and a second row for background task spans.
func (p *Process) SetTracer(tr *trace.Tracer) {
	p.tracer = tr
	if tr == nil {
		p.uiLooper.SetTracer(nil, trace.TrackID{})
		return
	}
	pid := tr.RegisterProcess(p.app.Name)
	p.uiTrack = tr.RegisterThread(pid, p.app.Name+":ui")
	p.asyncTrack = tr.RegisterThread(pid, p.app.Name+":async")
	p.uiLooper.SetTracer(tr, p.uiTrack)
}

// Memory returns the memory meter. Its series records only in a
// profiled process.
func (p *Process) Memory() *metrics.MemoryMeter { return p.mem }

// Crashed reports whether the process has died.
func (p *Process) Crashed() bool { return p.crashed }

// CrashCause returns the fatal exception, or nil.
func (p *Process) CrashCause() *CrashError { return p.crashErr }

// Crash kills the process: the looper stops, activities are released and
// reported memory drops to zero — the Fig 9 Android-10 trace at 117 ms.
func (p *Process) Crash(cause error) {
	if p.crashed {
		return
	}
	p.crashed = true
	p.crashErr = &CrashError{App: p.app.Name, Cause: cause}
	if p.tracer.Enabled() {
		p.tracer.Instant(p.uiTrack, "crash", "process",
			trace.Arg{Key: "cause", Val: p.crashErr.Error()})
	}
	p.uiLooper.Quit()
	for _, a := range p.thread.Activities() {
		if a.State().Alive() {
			a.releaseDialogs()
			a.decor.Release()
			a.state = StateDestroyed
		}
	}
	for _, s := range p.services {
		s.running = false
	}
	p.mem.Set(0)
}

// UpdateMemory recomputes the process footprint from live activities.
func (p *Process) UpdateMemory() {
	if p.crashed {
		return
	}
	total := p.model.ProcessBaseBytes + p.app.ExtraBaseBytes
	for _, a := range p.thread.Activities() {
		total += a.MemoryBytes()
	}
	p.mem.Set(total)
}

// PostApp runs app-level code on the UI thread with crash-on-exception
// semantics: it posts fn as a caught message, so a NullPointerError or
// WindowLeakedError escaping it kills the process, exactly like an
// uncaught exception on the Android main thread.
func (p *Process) PostApp(name string, cost time.Duration, fn func()) {
	p.uiLooper.PostCaught(name, cost, fn)
}

// uncaught is the UI looper's uncaught handler, run with whatever a
// caught message panicked with. Anything but an app exception is a bug
// in the simulator and propagates.
func (p *Process) uncaught(r any) {
	switch err := r.(type) {
	case *view.NullPointerError:
		p.Crash(err)
	case *view.WindowLeakedError:
		p.Crash(err)
	default:
		panic(r)
	}
}

// StartAsyncTask runs a background task for owner. After d of background
// work the result event is delivered to the UI thread; the delivery
// callback runs the app closure and then gives the runtime-change handler
// its post-callback hook (where RCHDroid's lazy migration flushes).
func (p *Process) StartAsyncTask(owner *Activity, name string, d time.Duration, onPost func()) {
	if p.crashed {
		return
	}
	var fault AsyncFault
	if p.asyncFault != nil {
		fault = p.asyncFault(name)
	}
	if fault.ExtraDelay > 0 {
		d += fault.ExtraDelay
	}
	p.asyncInFlight++
	owner.asyncInFlight++
	// The background work is a span on the async track, tied to its UI
	// start and result delivery by a flow arrow, so a late result landing
	// after a flip reads as one connected line in the viewer.
	var flowID uint64
	if p.tracer.Enabled() {
		flowID = p.tracer.NextID()
		p.tracer.FlowStart(p.uiTrack, "async:"+name, "async", flowID)
		p.tracer.Complete(p.asyncTrack, name, "async", p.sched.Now(), d,
			trace.Arg{Key: "owner", Val: owner.class.Name})
	}
	p.sched.After(d, p.app.Name+":async:"+name, func() {
		// The in-flight counters drain even when the result is dropped:
		// the background work finished, only its delivery was lost. A
		// demoted shadow "zombie" waiting on this task must still be
		// reaped.
		p.asyncInFlight--
		owner.asyncInFlight--
		if p.crashed || fault.DropResult {
			if fault.DropResult && !p.crashed {
				p.tracer.Instant(p.asyncTrack, "asyncDropped:"+name, "async")
			}
			return
		}
		p.tracer.FlowFinish(p.uiTrack, "async:"+name, "async", flowID)
		p.PostApp("asyncResult:"+name, p.model.AsyncCallback, func() {
			onPost()
			p.thread.afterUICallback(owner)
		})
	})
}

// TrimMemory delivers a low-memory pressure signal to the process (the
// onTrimMemory path): the change handler gets a chance to give up
// reclaimable instances — RCHDroid releases its shadow activity.
func (p *Process) TrimMemory() {
	if p.crashed {
		return
	}
	p.thread.ScheduleTrimMemory()
}

// AsyncInFlight returns the number of background tasks still running.
func (p *Process) AsyncInFlight() int { return p.asyncInFlight }
