package atms

import (
	"fmt"
	"strings"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/bundle"
	"rchdroid/internal/config"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/ipc"
	"rchdroid/internal/logcat"
	"rchdroid/internal/looper"
	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
)

// ATMS is the ActivityTaskManagerService: it owns the activity stack,
// drives lifecycle transitions over binder, and is the clock-start point
// for the paper's "runtime change handling time" (config change arriving
// at the ATMS → activity resumed).
type ATMS struct {
	sched     *sim.Scheduler
	model     *costmodel.Model
	bus       *ipc.Bus
	sysLooper *looper.Looper
	endpoint  *ipc.Endpoint
	stack     *ActivityStack
	starter   *ActivityStarter

	globalConfig config.Configuration
	nextToken    int

	measuring     bool
	handlingStart sim.Time
	handlingTimes []time.Duration

	log *logcat.Log

	tracer     *trace.Tracer
	track      trace.TrackID
	handlingID uint64

	// OnHandled, if set, observes each completed runtime-change handling
	// with its latency.
	OnHandled func(d time.Duration)

	// configFault, if set, is consulted on every pushed configuration and
	// may request a duplicate (echo) delivery after a delay — landing
	// mid-transition when the delay is short. See SetConfigChangeFault.
	configFault func(cfg config.Configuration) (echo bool, delay time.Duration)

	// handlingObservers see each handling-clock start (class + token of
	// the activity being changed); resumeObservers see every resume
	// notification, including ones outside a measurement. The guard arms
	// and disarms its watchdogs on these seams.
	handlingObservers []func(class string, token int)
	resumeObservers   []func(token int)
}

// New boots a system server on sched with the given cost model. The bus
// models binder with the model's hop latency.
func New(sched *sim.Scheduler, model *costmodel.Model) *ATMS {
	a := &ATMS{
		sched:        sched,
		model:        model,
		bus:          ipc.NewBus(model.IPCHop),
		sysLooper:    looper.New(sched, "system_server"),
		stack:        NewStack(),
		globalConfig: config.Default(),
		nextToken:    1,
	}
	a.endpoint = ipc.NewEndpoint("atms", a.sysLooper)
	a.starter = newStarter(a)
	return a
}

// Scheduler returns the simulation scheduler.
func (a *ATMS) Scheduler() *sim.Scheduler { return a.sched }

// Model returns the cost model in effect.
func (a *ATMS) Model() *costmodel.Model { return a.model }

// SetLogcat attaches a system log; the ATMS then writes configuration
// changes and handling times to it under the "zizhan" tag, matching the
// artifact's `logcat | grep "zizhan"` workflow.
func (a *ATMS) SetLogcat(l *logcat.Log) { a.log = l }

// Logcat returns the attached system log, or nil.
func (a *ATMS) Logcat() *logcat.Log { return a.log }

// SetTracer arms structured tracing for the system server: one process
// row with a thread for the server looper. The ATMS then emits the
// runtime-change async span (configuration arrival → resume
// notification), the systrace equivalent of the paper's handling-time
// measurement.
func (a *ATMS) SetTracer(tr *trace.Tracer) {
	a.tracer = tr
	if tr == nil {
		a.sysLooper.SetTracer(nil, trace.TrackID{})
		return
	}
	pid := tr.RegisterProcess("system_server")
	a.track = tr.RegisterThread(pid, "atms")
	a.sysLooper.SetTracer(tr, a.track)
}

// Tracer returns the armed tracer (nil when tracing is off). Policy
// code on the server side (coin flip, shadow GC) emits through this.
func (a *ATMS) Tracer() *trace.Tracer { return a.tracer }

// Track returns the system-server trace track.
func (a *ATMS) Track() trace.TrackID { return a.track }

// ServerLooper exposes the system-server looper (for test observers).
func (a *ATMS) ServerLooper() *looper.Looper { return a.sysLooper }

// Bus returns the binder bus.
func (a *ATMS) Bus() *ipc.Bus { return a.bus }

// Stack returns the global activity stack.
func (a *ATMS) Stack() *ActivityStack { return a.stack }

// Starter returns the activity starter.
func (a *ATMS) Starter() *ActivityStarter { return a.starter }

// GlobalConfig returns the device configuration currently in force.
func (a *ATMS) GlobalConfig() config.Configuration { return a.globalConfig }

// HandlingTimes returns the latency of every completed runtime change.
func (a *ATMS) HandlingTimes() []time.Duration {
	out := make([]time.Duration, len(a.handlingTimes))
	copy(out, a.handlingTimes)
	return out
}

// HandlingCount returns how many runtime changes completed, without
// copying the log HandlingTimes returns.
func (a *ATMS) HandlingCount() int { return len(a.handlingTimes) }

// LastHandlingTime returns the latency of the most recent completed
// runtime change, or 0.
func (a *ATMS) LastHandlingTime() time.Duration {
	if len(a.handlingTimes) == 0 {
		return 0
	}
	return a.handlingTimes[len(a.handlingTimes)-1]
}

// RunOnServer posts work onto the system-server looper with a cost,
// under its full message name ("atms:launchApp").
func (a *ATMS) RunOnServer(name string, cost time.Duration, fn func()) {
	a.sysLooper.Post(name, cost, fn)
}

// ChargeServer extends the currently-executing server message by d — used
// for stack walks and record setup whose cost must delay the reply
// transaction.
func (a *ATMS) ChargeServer(d time.Duration) { a.sysLooper.Charge(d) }

// LaunchApp installs the app's task, binds its activity thread to this
// server and schedules the initial launch of its main activity. It
// returns the token of the root record.
func (a *ATMS) LaunchApp(proc *app.Process) int {
	return a.LaunchAppWithState(proc, nil)
}

// LaunchAppWithState is LaunchApp for the relaunch-after-process-death
// path: the system server still holds the instance-state bundle the
// dead process produced at its last stock save, and hands it to the
// fresh main instance — a user returning to an app the low-memory
// killer evicted. A nil bundle is a cold start.
func (a *ATMS) LaunchAppWithState(proc *app.Process, saved *bundle.Bundle) int {
	token := a.nextToken
	a.nextToken++
	proc.Thread().BindSystem(&threadFacade{atms: a})
	a.RunOnServer("atms:launchApp", a.model.ATMSRecordSetup, func() {
		a.backgroundTopTask()
		// Relaunching an app (e.g. after a crash) replaces its task; a
		// dead task's records point at released instances.
		if old := a.stack.TaskByName(proc.App().Name); old != nil {
			a.stack.RemoveTask(old)
		}
		task := &TaskRecord{Name: proc.App().Name}
		rec := &ActivityRecord{
			Token:  token,
			Class:  proc.App().Main,
			Proc:   proc,
			Config: a.globalConfig,
		}
		task.Push(rec)
		a.stack.PushTask(task)
		cfg := a.globalConfig
		a.bus.Transact(proc.Endpoint(), ipc.ScheduleLaunch, 256, 0, func() {
			proc.Thread().ScheduleLaunch(rec.Class, token, cfg, app.LaunchOptions{Saved: saved})
		})
	})
	return token
}

// PushConfiguration injects a runtime configuration change (the `wm size`
// command of the artifact appendix). The handling-time clock starts when
// the change reaches the server looper.
func (a *ATMS) PushConfiguration(newCfg config.Configuration) {
	a.RunOnServer("atms:configChange", 0, func() {
		a.globalConfig = newCfg
		task := a.stack.TopTask()
		if task == nil || task.Top() == nil {
			return
		}
		rec := topNonShadow(task)
		if rec == nil {
			return
		}
		a.measuring = true
		a.handlingStart = a.sched.Now()
		if a.log != nil {
			a.log.I("ATMS", "configuration change arriving: %v", newCfg)
		}
		for _, fn := range a.handlingObservers {
			fn(rec.Class.Name, rec.Token)
		}
		if a.tracer.Enabled() {
			// One async span covers the whole handling: it opens here on
			// the server track and closes when the resume notification
			// lands — the interval Fig 9 plots.
			a.handlingID = a.tracer.NextID()
			a.tracer.AsyncBegin(a.track, "runtimeChange", "handling", a.handlingID,
				trace.Arg{Key: "config", Val: newCfg.String()},
				trace.Arg{Key: "app", Val: rec.Proc.App().Name})
		}
		// ensureActivityConfiguration: deliver the change and let the
		// activity thread decide restart vs. declared handling vs. the
		// installed change handler. The record's Config keeps tracking
		// the configuration its instance was actually built for; it is
		// refreshed when the instance resumes.
		rec.resumed = false
		a.bus.Transact(rec.Proc.Endpoint(), ipc.RuntimeChange, 128, 0, func() {
			rec.Proc.Thread().ScheduleRuntimeChange(rec.Token, newCfg)
		})
		if a.configFault != nil {
			if echo, delay := a.configFault(newCfg); echo {
				a.scheduleConfigEcho(newCfg, delay)
			}
		}
	})
}

// SetConfigChangeFault installs a fault hook on the configuration path:
// for each pushed change it may request a duplicate delivery after delay,
// modelling the double-dispatch a racing window manager produces. The
// echo does not restart the handling-time clock; the activity thread's
// stale-delivery guards must absorb it.
func (a *ATMS) SetConfigChangeFault(fn func(cfg config.Configuration) (echo bool, delay time.Duration)) {
	a.configFault = fn
}

// scheduleConfigEcho re-delivers cfg to the current top activity after
// delay, unless a newer change superseded it in the meantime.
func (a *ATMS) scheduleConfigEcho(cfg config.Configuration, delay time.Duration) {
	a.sched.After(delay, "chaos:configEcho", func() {
		a.RunOnServer("atms:configEcho", 0, func() {
			if !cfg.Equal(a.globalConfig) {
				return // a later change superseded the echoed one
			}
			if a.tracer.Enabled() {
				a.tracer.Instant(a.track, "configEcho", "chaos",
					trace.Arg{Key: "config", Val: cfg.String()})
			}
			task := a.stack.TopTask()
			if task == nil {
				return
			}
			rec := topNonShadow(task)
			if rec == nil {
				return
			}
			a.bus.Transact(rec.Proc.Endpoint(), ipc.RuntimeChange, 128, 0, func() {
				rec.Proc.Thread().ScheduleRuntimeChange(rec.Token, cfg)
			})
		})
	})
}

// backgroundTopTask pauses/stops the current foreground task's visible
// activity before another task takes the screen. Runs on the server
// looper.
func (a *ATMS) backgroundTopTask() {
	task := a.stack.TopTask()
	if task == nil {
		return
	}
	rec := topNonShadow(task)
	if rec == nil {
		return
	}
	rec.resumed = false
	a.bus.Transact(rec.Proc.Endpoint(), ipc.MoveToBackground, 64, 0, func() {
		rec.Proc.Thread().ScheduleMoveToBackground(rec.Token)
	})
}

// MoveTaskToFront brings the named task to the foreground: the old
// foreground pauses and stops (releasing its shadow under RCHDroid, §3.5)
// and the target task's top activity resumes.
func (a *ATMS) MoveTaskToFront(name string) {
	a.RunOnServer("atms:moveTaskToFront", a.model.ATMSStackSearch, func() {
		task := a.stack.TaskByName(name)
		if task == nil || task == a.stack.TopTask() {
			return
		}
		a.backgroundTopTask()
		a.stack.MoveTaskToTop(task)
		rec := topNonShadow(task)
		if rec == nil {
			return
		}
		a.bus.Transact(rec.Proc.Endpoint(), ipc.MoveToForeground, 64, 0, func() {
			rec.Proc.Thread().ScheduleMoveToForeground(rec.Token)
		})
	})
}

// FinishTopActivity is the back-navigation transaction: the foreground
// activity finishes (destroying its instance, and its coupled shadow
// instance with it, §3.5) and the activity below it resumes. An emptied
// task leaves the stack and the next task's top resumes instead.
func (a *ATMS) FinishTopActivity() {
	a.RunOnServer("atms:finishTop", a.model.ATMSStackSearch, func() {
		task := a.stack.TopTask()
		if task == nil {
			return
		}
		rec := topNonShadow(task)
		if rec == nil {
			return
		}
		// The coupled shadow record (if any) dies with the activity.
		if sh := task.FindShadow(); sh != nil {
			task.Remove(sh)
			a.bus.Transact(sh.Proc.Endpoint(), ipc.DestroyShadow, 64, 0, func() {
				sh.Proc.Thread().ScheduleDestroy(sh.Token)
			})
		}
		task.Remove(rec)
		a.bus.Transact(rec.Proc.Endpoint(), ipc.DestroyFinished, 64, 0, func() {
			rec.Proc.Thread().ScheduleDestroy(rec.Token)
		})
		if task.Len() == 0 {
			a.stack.RemoveTask(task)
			task = a.stack.TopTask()
			if task == nil {
				return
			}
		}
		next := topNonShadow(task)
		if next == nil {
			return
		}
		a.bus.Transact(next.Proc.Endpoint(), ipc.MoveToForeground, 64, 0, func() {
			next.Proc.Thread().ScheduleMoveToForeground(next.Token)
		})
	})
}

// topNonShadow returns the topmost record that is not shadow-flagged: the
// activity the user actually sees.
func topNonShadow(task *TaskRecord) *ActivityRecord {
	rs := task.Records()
	for i := len(rs) - 1; i >= 0; i-- {
		if !rs[i].shadow {
			return rs[i]
		}
	}
	return nil
}

// AddHandlingObserver registers a hook called on the server looper the
// moment a runtime-change handling measurement starts, with the class
// name and token of the activity being changed.
func (a *ATMS) AddHandlingObserver(fn func(class string, token int)) {
	a.handlingObservers = append(a.handlingObservers, fn)
}

// AddResumeObserver registers a hook called on the server looper for
// every resume notification — measured or not.
func (a *ATMS) AddResumeObserver(fn func(token int)) {
	a.resumeObservers = append(a.resumeObservers, fn)
}

// ensureActivityConfiguration is the AOSP freshness check, armed after a
// measured runtime change concludes. Rapid successive changes can race
// the in-flight handling: the newest delivery lands while the foreground
// instance is mid-transition and is dropped as a stale binder
// transaction, leaving the resumed instance on a superseded
// configuration forever while the server's record claims it is current —
// the stale-foreground race the schedule-space explorer reproduces with
// [config, rotate, rotate] back to back. The check is deferred so the
// handler's own coalescing gets to finish first (an immediate re-dispatch
// would double-route changes the handler was about to coalesce), and
// re-armed a bounded number of times while the transition is still
// settling. Resumes outside a measured handling (task switches, back
// navigation) deliberately keep their stale configuration until the next
// change, matching the repo's background-activity semantics.
func (a *ATMS) ensureActivityConfiguration(tries int) {
	const (
		ensureDelay    = 150 * time.Millisecond
		ensureMaxTries = 20
	)
	if tries > ensureMaxTries {
		return
	}
	a.sched.After(ensureDelay, "atms:ensureConfig", func() {
		a.RunOnServer("atms:ensureConfig", 0, func() {
			task := a.stack.TopTask()
			if task == nil {
				return
			}
			rec := topNonShadow(task)
			if rec == nil || rec.Proc.Crashed() {
				return
			}
			inst := rec.Proc.Thread().Activity(rec.Token)
			if inst == nil || !inst.State().Visible() || !rec.resumed {
				a.ensureActivityConfiguration(tries + 1)
				return
			}
			if inst.Config().Diff(a.globalConfig) == config.None {
				return
			}
			newCfg := a.globalConfig
			if a.log != nil {
				a.log.I("ATMS", "foreground resumed stale (built for %v, global %v): re-delivering",
					inst.Config(), newCfg)
			}
			rec.resumed = false
			a.bus.Transact(rec.Proc.Endpoint(), ipc.RuntimeChange, 128, 0, func() {
				rec.Proc.Thread().ScheduleRuntimeChange(rec.Token, newCfg)
			})
		})
	})
}

// notifyResumed finalises a handling measurement.
func (a *ATMS) notifyResumed(token int) {
	a.RunOnServer("atms:notifyResumed", 0, func() {
		_, rec := a.stack.TaskOfToken(token)
		if rec != nil {
			rec.resumed = true
			rec.Config = a.globalConfig
		}
		for _, fn := range a.resumeObservers {
			fn(token)
		}
		if a.measuring {
			a.measuring = false
			a.ensureActivityConfiguration(0)
			d := a.sched.Now().Sub(a.handlingStart)
			// A resume that arrives implausibly late belongs to a later
			// launch, not to the measured change — the measured handling
			// died with its process (crash) and is discarded, as a
			// wall-clock harness would time it out.
			if d > 2*time.Second {
				if a.tracer.Enabled() {
					a.tracer.Instant(a.track, "handlingTimedOut", "handling",
						trace.Arg{Key: "elapsed", Val: d})
				}
				return
			}
			if a.tracer.Enabled() {
				a.tracer.AsyncEnd(a.track, "runtimeChange", "handling", a.handlingID,
					trace.Arg{Key: "latency", Val: d})
			}
			a.handlingTimes = append(a.handlingTimes, d)
			if a.log != nil {
				a.log.I("zizhan", "runtime change handling time: %.2f ms (token %d)",
					float64(d)/float64(time.Millisecond), token)
			}
			if a.OnHandled != nil {
				a.OnHandled(d)
			}
		}
	})
}

// notifyShadowReleased removes a garbage-collected shadow record.
func (a *ATMS) notifyShadowReleased(token int) {
	a.RunOnServer("atms:shadowReleased", 0, func() {
		task, rec := a.stack.TaskOfToken(token)
		if task != nil && rec != nil {
			task.Remove(rec)
		}
	})
}

// requestStartActivity runs the starter on the server looper.
func (a *ATMS) requestStartActivity(intent app.Intent, fromToken int) {
	a.RunOnServer("atms:startActivity", 0, func() {
		a.starter.StartActivity(intent, fromToken)
	})
}

// DumpStack renders the activity stack dumpsys-style: tasks bottom to
// top, each with its records and their shadow/resumed flags.
func (a *ATMS) DumpStack() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ACTIVITY MANAGER ACTIVITIES (dumpsys activity activities)\n")
	fmt.Fprintf(&sb, "  globalConfig: %v\n", a.globalConfig)
	tasks := a.stack.Tasks()
	for i := len(tasks) - 1; i >= 0; i-- {
		task := tasks[i]
		marker := " "
		if task == a.stack.TopTask() {
			marker = "*"
		}
		fmt.Fprintf(&sb, "%s Task %s (%d records)\n", marker, task.Name, task.Len())
		recs := task.Records()
		for j := len(recs) - 1; j >= 0; j-- {
			fmt.Fprintf(&sb, "    %v\n", recs[j])
		}
	}
	return sb.String()
}

// threadFacade adapts the ATMS to app.SystemServer, paying one binder hop
// for each upcall from an activity thread.
type threadFacade struct {
	atms *ATMS
}

// RequestStartActivity implements app.SystemServer.
func (f *threadFacade) RequestStartActivity(intent app.Intent, fromToken int) {
	f.atms.bus.Transact(f.atms.endpoint, ipc.StartActivity, 256, 0, func() {
		f.atms.requestStartActivity(intent, fromToken)
	})
}

// NotifyResumed implements app.SystemServer.
func (f *threadFacade) NotifyResumed(token int) {
	f.atms.bus.Transact(f.atms.endpoint, ipc.ActivityResumed, 64, 0, func() {
		f.atms.notifyResumed(token)
	})
}

// NotifyShadowReleased implements app.SystemServer.
func (f *threadFacade) NotifyShadowReleased(token int) {
	f.atms.bus.Transact(f.atms.endpoint, ipc.ShadowReleased, 64, 0, func() {
		f.atms.notifyShadowReleased(token)
	})
}
