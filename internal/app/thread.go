package app

import (
	"fmt"
	"time"

	"rchdroid/internal/bundle"
	"rchdroid/internal/config"
	"rchdroid/internal/trace"
)

// SystemServer is the slice of the ATMS the activity thread calls back
// into. The atms package implements it; app stays independent of it.
type SystemServer interface {
	// RequestStartActivity forwards a startActivity binder call (the
	// RCHDroid runtime-change path sets the sunny flag on the intent).
	RequestStartActivity(intent Intent, fromToken int)
	// NotifyResumed tells the server the instance for token reached the
	// foreground — the end of the runtime-change handling interval.
	NotifyResumed(token int)
	// NotifyShadowReleased tells the server the shadow instance for token
	// was garbage-collected so its record must leave the stack.
	NotifyShadowReleased(token int)
}

// ChangeHandler is the seam the paper patches in ActivityThread
// (performActivityConfigurationChanged / performLaunchActivity /
// handleResumeActivity). The stock implementation is RestartHandler; the
// core package installs RCHDroid's shadow-state handler.
type ChangeHandler interface {
	// Name labels the handler in reports ("Android-10", "RCHDroid").
	Name() string
	// HandleRuntimeChange runs on the activity thread when the ATMS
	// delivers an unhandled runtime change for a foreground activity.
	HandleRuntimeChange(t *ActivityThread, a *Activity, newCfg config.Configuration)
	// HandleSunnyLaunch runs when the ATMS answers a sunny start request
	// with a fresh record: create the sunny instance for newCfg.
	HandleSunnyLaunch(t *ActivityThread, class *ActivityClass, token int, newCfg config.Configuration)
	// HandleFlip runs when the ATMS coin-flipped an existing shadow
	// record back to the top: reuse the live shadow instance.
	HandleFlip(t *ActivityThread, shadowToken int, newCfg config.Configuration)
	// AfterUICallback runs after every app UI callback (async-task
	// delivery); RCHDroid flushes lazy migration here.
	AfterUICallback(t *ActivityThread, a *Activity)
	// HandleForegroundSwitch runs when the process's task leaves the
	// foreground (app switch, new task launched on top). RCHDroid
	// releases the coupled shadow activity immediately (§3.5).
	HandleForegroundSwitch(t *ActivityThread)
	// HandleTrimMemory runs when the system signals memory pressure
	// (onTrimMemory). RCHDroid gives up its shadow instance — the one
	// piece of reclaimable state the scheme holds.
	HandleTrimMemory(t *ActivityThread)
}

// LaunchOptions tune PerformLaunch.
type LaunchOptions struct {
	// Sunny marks the new instance as a RCHDroid sunny-state activity.
	Sunny bool
	// Saved is the instance state to restore (nil on cold start).
	Saved *bundle.Bundle
	// ExtraPhase, if non-nil, inserts a charged phase between restore and
	// resume; RCHDroid builds the essence mapping here
	// (handleResumeActivity's modification).
	ExtraPhase func(a *Activity) (name string, cost time.Duration, work func())
	// OnResumed runs after the resume phase completes.
	OnResumed func(a *Activity)
}

// ActivityThread owns a process's activity instances and executes the
// lifecycle transactions the system server schedules. The shadow/sunny
// instance pointers are the RCHDroid additions (Table 2: ActivityThread,
// 91 LoC).
type ActivityThread struct {
	proc       *Process
	system     SystemServer
	activities map[int]*Activity
	handler    ChangeHandler

	currentShadow *Activity
	currentSunny  *Activity

	// pendingShadow mirrors the handler's unresolved flip prediction: an
	// instance that entered the shadow state for a handling whose server
	// reply (flip grant, create grant, or cancel) has not arrived yet.
	// While set, two shadow-state instances legitimately coexist — the
	// committed coupling and this one — so invariant samplers excuse it;
	// every reply path clears it, restoring the strict §3.2 bound at
	// rest.
	pendingShadow *Activity

	// pendingBackground remembers tokens whose moveToBackground arrived
	// while the instance was mid-relaunch (no visible instance to stop):
	// the in-flight relaunch consumes the entry and settles into the
	// stopped state instead of resuming over the covering activity.
	pendingBackground map[int]bool
	// retired marks tokens the server has destroyed (back navigation,
	// task removal). A stock relaunch reuses its token, so a relaunch
	// racing the destroy could otherwise resurrect the instance after
	// its record left the stack; launches of retired tokens abort.
	retired map[int]bool
}

func newActivityThread(p *Process) *ActivityThread {
	return &ActivityThread{
		proc:              p,
		activities:        make(map[int]*Activity),
		handler:           RestartHandler{},
		pendingBackground: make(map[int]bool),
		retired:           make(map[int]bool),
	}
}

// Process returns the owning process.
func (t *ActivityThread) Process() *Process { return t.proc }

// BindSystem wires the thread to its system server.
func (t *ActivityThread) BindSystem(s SystemServer) { t.system = s }

// System returns the bound system server.
func (t *ActivityThread) System() SystemServer { return t.system }

// SetChangeHandler swaps the runtime-change handler (the RCHDroid patch
// point).
func (t *ActivityThread) SetChangeHandler(h ChangeHandler) { t.handler = h }

// Handler returns the active change handler.
func (t *ActivityThread) Handler() ChangeHandler { return t.handler }

// Activities returns all instances the thread manages, keyed by token.
func (t *ActivityThread) Activities() map[int]*Activity { return t.activities }

// Activity returns the instance for token, or nil.
func (t *ActivityThread) Activity(token int) *Activity { return t.activities[token] }

// ForegroundActivity returns the visible instance, or nil. When a
// transition transiently overlaps two visible instances, the newest
// (highest-token) one wins — the deterministic stand-in for the
// stack-top activity, independent of map iteration order.
func (t *ActivityThread) ForegroundActivity() *Activity {
	var fg *Activity
	for _, a := range t.activities {
		if a.State().Visible() && (fg == nil || a.token > fg.token) {
			fg = a
		}
	}
	return fg
}

// CurrentShadow returns RCHDroid's shadow-instance pointer.
func (t *ActivityThread) CurrentShadow() *Activity { return t.currentShadow }

// CurrentSunny returns RCHDroid's sunny-instance pointer.
func (t *ActivityThread) CurrentSunny() *Activity { return t.currentSunny }

// SetCurrentShadow updates the shadow pointer (core package use).
func (t *ActivityThread) SetCurrentShadow(a *Activity) { t.currentShadow = a }

// PendingShadow returns the instance shadowed for a handling whose
// server reply is still in flight, or nil.
func (t *ActivityThread) PendingShadow() *Activity { return t.pendingShadow }

// SetPendingShadow updates the in-flight prediction pointer (core
// package use).
func (t *ActivityThread) SetPendingShadow(a *Activity) { t.pendingShadow = a }

// SetCurrentSunny updates the sunny pointer (core package use).
func (t *ActivityThread) SetCurrentSunny(a *Activity) { t.currentSunny = a }

// RunCharged posts a phase that performs work immediately and then
// occupies the UI thread for the cost work reports. Charging after the
// fact lets costs depend on what the black-box app code actually did
// (e.g. how many views OnCreate inflated). Like PostApp, an app
// exception escaping fn crashes the process; it then charges nothing.
func (t *ActivityThread) RunCharged(name string, fn func() time.Duration) {
	t.proc.uiLooper.PostCharged(name, fn)
}

// ───────────────────────── transactions from the ATMS ──────────────────

// ScheduleLaunch is the launch transaction: instantiate and resume a new
// activity for token. It is also the tail of the stock relaunch.
func (t *ActivityThread) ScheduleLaunch(class *ActivityClass, token int, cfg config.Configuration, opts LaunchOptions) {
	t.PerformLaunch(class, token, cfg, opts)
}

// ScheduleRuntimeChange is the configuration-change transaction for the
// activity identified by token. Declared changes go to the app's own
// OnConfigurationChanged (no restart, both modes); undeclared changes go
// to the installed ChangeHandler.
func (t *ActivityThread) ScheduleRuntimeChange(token int, newCfg config.Configuration) {
	a := t.activities[token]
	// Only a visible activity handles a runtime change. Rapid successive
	// changes can race the previous handling: the server's record may
	// still point at an instance that already entered the Shadow state or
	// is mid-relaunch — those deliveries are dropped, exactly as a stale
	// binder transaction to a gone window would be.
	if a == nil || !a.State().Visible() {
		return
	}
	diff := a.cfg.Diff(newCfg)
	if diff == config.None {
		t.RunCharged("configNoop", func() time.Duration {
			t.system.NotifyResumed(token)
			return 0
		})
		return
	}
	if diff.HandledBy(a.class.DeclaredChanges) {
		t.DeliverConfigurationChanged(a, newCfg)
		return
	}
	t.handler.HandleRuntimeChange(t, a, newCfg)
}

// ScheduleSunnyLaunch is the ATMS's answer to a sunny start request when
// a fresh record was created (first runtime change, RCHDroid-init).
func (t *ActivityThread) ScheduleSunnyLaunch(class *ActivityClass, token int, newCfg config.Configuration) {
	t.handler.HandleSunnyLaunch(t, class, token, newCfg)
}

// ScheduleFlip is the ATMS's answer when the coin flip found a live
// shadow record to reuse.
func (t *ActivityThread) ScheduleFlip(shadowToken int, newCfg config.Configuration) {
	t.handler.HandleFlip(t, shadowToken, newCfg)
}

// ScheduleMoveToBackground is the transaction sent when another task
// takes the foreground: the visible activity pauses and stops, and the
// change handler gets its foreground-switch hook (RCHDroid releases the
// shadow instance immediately, §3.5).
func (t *ActivityThread) ScheduleMoveToBackground(token int) {
	a := t.activities[token]
	if a == nil || !a.State().Visible() {
		// The instance is mid-relaunch (or already gone): defer the
		// backgrounding so the replacement launch completes stopped
		// rather than resuming over the activity that covered it.
		t.pendingBackground[token] = true
		if t.handler != nil {
			t.handler.HandleForegroundSwitch(t)
		}
		return
	}
	m := t.proc.model
	t.RunCharged("moveToBackground:"+a.class.Name, func() time.Duration {
		a.setState(StatePaused)
		if a.class.Callbacks.OnPause != nil {
			a.class.Callbacks.OnPause(a)
		}
		a.setState(StateStopped)
		if a.class.Callbacks.OnStop != nil {
			a.class.Callbacks.OnStop(a)
		}
		a.decor.DetachFromWindow()
		a.decor.DispatchSunnyStateChanged(false)
		return m.ConfigApply / 2 // pause+stop bookkeeping
	})
	t.RunCharged("moveToBackground:switchHook", func() time.Duration {
		if t.handler != nil {
			t.handler.HandleForegroundSwitch(t)
		}
		t.proc.UpdateMemory()
		return 0
	})
}

// ScheduleMoveToForeground resumes a stopped activity when its task
// returns to the front.
func (t *ActivityThread) ScheduleMoveToForeground(token int) {
	delete(t.pendingBackground, token)
	a := t.activities[token]
	if a == nil || a.State() != StateStopped {
		return
	}
	m := t.proc.model
	t.RunCharged("moveToForeground:"+a.class.Name, func() time.Duration {
		a.setState(StateStarted)
		if a.class.Callbacks.OnStart != nil {
			a.class.Callbacks.OnStart(a)
		}
		a.setState(StateResumed)
		a.decor.AttachToWindow()
		if a.class.Callbacks.OnResume != nil {
			a.class.Callbacks.OnResume(a)
		}
		return m.ResumeBase + a.class.ExtraResumeCost + m.WindowRelayout
	})
	t.RunCharged("moveToForeground:done", func() time.Duration {
		if t.system != nil {
			t.system.NotifyResumed(token)
		}
		return 0
	})
}

// SunnyCancelHandler is implemented by change handlers whose sunny-start
// requests the server may cancel (the requester was covered by another
// activity while the request was in flight).
type SunnyCancelHandler interface {
	HandleSunnyCancel(t *ActivityThread, token int)
}

// ScheduleSunnyCancel is the server's reply to a sunny start whose
// requester is no longer the task's visible top: the handler unwinds
// the enter-shadow instead of launching a replacement over the activity
// the user navigated to.
func (t *ActivityThread) ScheduleSunnyCancel(token int) {
	t.RunCharged("rch:cancelSunny", func() time.Duration {
		if h, ok := t.handler.(SunnyCancelHandler); ok {
			h.HandleSunnyCancel(t, token)
		}
		return 0
	})
}

// ScheduleTrimMemory is the low-memory transaction: the change handler
// releases whatever it can, then the footprint is re-reported.
func (t *ActivityThread) ScheduleTrimMemory() {
	t.RunCharged("trimMemory", func() time.Duration {
		if t.handler != nil {
			t.handler.HandleTrimMemory(t)
		}
		t.proc.UpdateMemory()
		return 0
	})
}

// ScheduleDestroy is the destroy transaction (back navigation, task
// removal, or shadow GC reclaim).
func (t *ActivityThread) ScheduleDestroy(token int) {
	delete(t.pendingBackground, token)
	// The record is off the stack for good; a relaunch of the same token
	// still in flight (its old instance already torn down, its replacement
	// not yet created) must not resurrect the activity.
	t.retired[token] = true
	a := t.activities[token]
	if a == nil {
		return
	}
	t.PerformDestroy(a)
}

// ───────────────────────── lifecycle primitives ─────────────────────────

// PerformLaunch executes the create→(restore)→(extra)→resume pipeline for
// a new instance, charging each phase per the cost model.
func (t *ActivityThread) PerformLaunch(class *ActivityClass, token int, cfg config.Configuration, opts LaunchOptions) *Activity {
	a := newActivity(class, t.proc, token, cfg)
	m := t.proc.model
	aborted := false

	t.RunCharged("launch:create", func() time.Duration {
		if t.retired[token] {
			// The server destroyed this token while the launch was queued
			// (back navigation racing a relaunch): abort before creating
			// anything, so the finished activity stays gone.
			aborted = true
			return 0
		}
		t.activities[token] = a
		a.setState(StateCreated)
		if class.Callbacks.OnCreate != nil {
			class.Callbacks.OnCreate(a, opts.Saved)
		}
		n := a.ViewCount()
		return m.ActivityInstantiate + m.OnCreateBase + class.ExtraCreateCost +
			m.LoadResources(n) + m.InflateTree(n)
	})

	if opts.Saved != nil {
		t.RunCharged("launch:restore", func() time.Duration {
			if aborted {
				return 0
			}
			a.RestoreInstanceState(opts.Saved)
			t.traceBundle("bundleRestore", opts.Saved)
			return m.RestoreState(a.ViewCount())
		})
	}

	if opts.ExtraPhase != nil {
		t.RunCharged("launch:extra", func() time.Duration {
			if aborted {
				return 0
			}
			name, cost, work := opts.ExtraPhase(a)
			if work != nil {
				work()
			}
			// Attribute the charge under the phase's own name so traces
			// and CPU attribution see e.g. "rch:buildMapping".
			t.proc.uiLooper.ChargeNamed(cost, name)
			return 0
		})
	}

	t.RunCharged("launch:resume", func() time.Duration {
		if aborted {
			return 0
		}
		a.setState(StateStarted)
		if class.Callbacks.OnStart != nil {
			class.Callbacks.OnStart(a)
		}
		// A moveToBackground that raced this relaunch (another activity
		// covered this token while the old instance was being torn down)
		// was deferred to here: the replacement settles into the stopped
		// state instead of resuming over the activity the user navigated
		// to, like a server-directed relaunch-to-stopped.
		if t.pendingBackground[token] {
			delete(t.pendingBackground, token)
			a.setState(StateStopped)
			if class.Callbacks.OnStop != nil {
				class.Callbacks.OnStop(a)
			}
			return m.ConfigApply / 2
		}
		if opts.Sunny {
			a.setState(StateSunny)
			a.decor.DispatchSunnyStateChanged(true)
		} else {
			a.setState(StateResumed)
		}
		a.decor.AttachToWindow()
		if class.Callbacks.OnResume != nil {
			class.Callbacks.OnResume(a)
		}
		return m.ResumeBase + class.ExtraResumeCost + m.WindowRelayout
	})

	t.RunCharged("launch:done", func() time.Duration {
		if aborted {
			return 0
		}
		t.proc.UpdateMemory()
		if !a.State().Visible() {
			// Relaunched into the background: no resume to report.
			return 0
		}
		if opts.OnResumed != nil {
			opts.OnResumed(a)
		}
		if t.system != nil {
			t.system.NotifyResumed(token)
		}
		return 0
	})
	return a
}

// PerformSaveAndDestroy snapshots the instance state and tears the
// instance down — the first half of the stock relaunch. The snapshot is
// returned through the callback because the phases run asynchronously.
func (t *ActivityThread) PerformSaveAndDestroy(a *Activity, done func(saved *bundle.Bundle)) {
	m := t.proc.model
	var saved *bundle.Bundle
	aborted := false
	t.RunCharged("relaunch:save", func() time.Duration {
		// A back-to-back change may already have replaced this instance
		// by the time the phase runs; stale relaunches abort.
		if !a.State().Visible() {
			aborted = true
			return 0
		}
		saved = a.SaveInstanceStateStock()
		t.traceBundle("bundleSave", saved)
		return m.SaveState(a.ViewCount())
	})
	t.RunCharged("relaunch:destroy", func() time.Duration {
		if aborted {
			return 0
		}
		n := a.ViewCount()
		a.setState(StatePaused)
		if a.class.Callbacks.OnPause != nil {
			a.class.Callbacks.OnPause(a)
		}
		a.setState(StateStopped)
		if a.class.Callbacks.OnStop != nil {
			a.class.Callbacks.OnStop(a)
		}
		if a.class.Callbacks.OnDestroy != nil {
			a.class.Callbacks.OnDestroy(a)
		}
		a.setState(StateDestroyed)
		a.decor.DetachFromWindow()
		// A dialog window still attached at destruction is a leaked
		// window; the check panics with WindowLeakedError (recovered into
		// an app crash), the second §2.3 failure mode.
		a.checkWindowLeaks()
		a.releaseDialogs()
		a.decor.Release()
		// Stop tracking the dead instance immediately — the replacement
		// re-registers under the same token in launch:create, and probes
		// that land inside the relaunch window must not see a destroyed
		// instance in the thread table.
		if t.activities[a.token] == a {
			delete(t.activities, a.token)
		}
		t.proc.UpdateMemory()
		return m.DestroyTree(n)
	})
	t.RunCharged("relaunch:handoff", func() time.Duration {
		if aborted {
			return 0
		}
		done(saved)
		return 0
	})
}

// PerformDestroy tears an instance down outside the relaunch path (GC of
// a shadow instance, task removal).
func (t *ActivityThread) PerformDestroy(a *Activity) {
	m := t.proc.model
	t.RunCharged("destroy:"+a.class.Name, func() time.Duration {
		if !a.State().Alive() {
			// Already torn down (e.g. by a relaunch racing this destroy) —
			// but if the dead instance still occupies its slot, the aborted
			// relaunch will never overwrite it, so unregister it here.
			if t.activities[a.token] == a {
				delete(t.activities, a.token)
				t.proc.UpdateMemory()
			}
			return 0
		}
		n := a.ViewCount()
		if a.class.Callbacks.OnDestroy != nil {
			a.class.Callbacks.OnDestroy(a)
		}
		wasShadow := a.State() == StateShadow
		a.state = StateDestroyed
		a.decor.DetachFromWindow()
		a.releaseDialogs()
		a.decor.Release()
		if t.currentShadow == a {
			t.currentShadow = nil
		}
		if t.currentSunny == a {
			t.currentSunny = nil
		}
		if t.pendingShadow == a {
			t.pendingShadow = nil
		}
		// A stock relaunch reuses the token, so by the time a queued
		// destroy of the old instance runs the slot may already hold its
		// replacement — only unregister if it is still ours.
		if t.activities[a.token] == a {
			delete(t.activities, a.token)
		}
		t.proc.UpdateMemory()
		if wasShadow {
			// A sunny partner left behind settles into plain Resumed —
			// the coupling is gone until the next runtime change.
			if sunny := t.currentSunny; sunny != nil && sunny.State() == StateSunny {
				sunny.SettleToResumed()
			}
			t.currentSunny = nil
			if t.system != nil {
				t.system.NotifyShadowReleased(a.token)
			}
			return m.ShadowRelease
		}
		return m.DestroyTree(n)
	})
}

// DeliverConfigurationChanged handles a declared change: the instance
// keeps running and receives onConfigurationChanged.
func (t *ActivityThread) DeliverConfigurationChanged(a *Activity, newCfg config.Configuration) {
	m := t.proc.model
	t.RunCharged("configChanged:"+a.class.Name, func() time.Duration {
		a.cfg = newCfg
		if a.class.Callbacks.OnConfigurationChanged != nil {
			a.class.Callbacks.OnConfigurationChanged(a, newCfg)
		}
		return m.ConfigApply
	})
	t.RunCharged("configChanged:done", func() time.Duration {
		if t.system != nil {
			t.system.NotifyResumed(a.token)
		}
		return 0
	})
}

// traceBundle samples an instance-state bundle's size as a counter on
// the UI track — the save/restore payload the paper's relaunch path
// serialises over binder.
func (t *ActivityThread) traceBundle(name string, b *bundle.Bundle) {
	if !t.proc.tracer.Enabled() || b == nil {
		return
	}
	t.proc.tracer.Counter(t.proc.uiTrack, name, float64(b.SizeBytes()))
}

// Trace exposes the process tracer and UI track for the change handler
// (the core package instruments its phases through this seam).
func (t *ActivityThread) Trace() (*trace.Tracer, trace.TrackID) {
	return t.proc.tracer, t.proc.uiTrack
}

// afterUICallback gives the change handler its post-callback hook.
func (t *ActivityThread) afterUICallback(a *Activity) {
	if t.handler != nil {
		t.handler.AfterUICallback(t, a)
	}
}

func (t *ActivityThread) String() string {
	return fmt.Sprintf("thread(%s, %d activities)", t.proc.app.Name, len(t.activities))
}

// ───────────────────────── stock handler ────────────────────────────────

// RestartHandler is the unmodified Android 10 behaviour: destroy the
// instance and launch a replacement under the new configuration. Whatever
// state the app did not put in a view or in onSaveInstanceState is lost,
// and in-flight async tasks deliver into released views.
type RestartHandler struct{}

// Name implements ChangeHandler.
func (RestartHandler) Name() string { return "Android-10" }

// HandleRuntimeChange implements ChangeHandler with the restart scheme.
func (RestartHandler) HandleRuntimeChange(t *ActivityThread, a *Activity, newCfg config.Configuration) {
	class, token := a.class, a.token
	t.PerformSaveAndDestroy(a, func(saved *bundle.Bundle) {
		t.PerformLaunch(class, token, newCfg, LaunchOptions{Saved: saved})
	})
}

// HandleSunnyLaunch implements ChangeHandler; stock Android never issues
// sunny launches, so reaching it is a wiring bug.
func (RestartHandler) HandleSunnyLaunch(*ActivityThread, *ActivityClass, int, config.Configuration) {
	panic("app: sunny launch delivered to stock RestartHandler")
}

// HandleFlip implements ChangeHandler; see HandleSunnyLaunch.
func (RestartHandler) HandleFlip(*ActivityThread, int, config.Configuration) {
	panic("app: flip delivered to stock RestartHandler")
}

// AfterUICallback implements ChangeHandler; stock Android does nothing
// after UI callbacks.
func (RestartHandler) AfterUICallback(*ActivityThread, *Activity) {}

// HandleForegroundSwitch implements ChangeHandler; stock Android has no
// shadow instance to release.
func (RestartHandler) HandleForegroundSwitch(*ActivityThread) {}

// HandleTrimMemory implements ChangeHandler; stock Android holds no
// reclaimable framework state beyond what processes trim themselves.
func (RestartHandler) HandleTrimMemory(*ActivityThread) {}
