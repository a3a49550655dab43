package app

import (
	"fmt"

	"rchdroid/internal/bundle"
	"rchdroid/internal/sim"
	"rchdroid/internal/view"
)

// ForkProcess deep-copies a settled process onto sched: its UI looper
// (counters carried), memory count, activity thread and
// every live activity with its view tree. The app definition (resource
// table, activity classes, layout specs) and the cost model are shared
// read-only, so app callbacks must only touch the activity instance they
// are handed — true of every app in the repo.
//
// The fork's thread is left unbound: callers wire it to its own system
// server via Thread().BindSystem, exactly as construction does.
//
// Forking is only legal for a settled pre-chaos process: anything that
// entangles the process with its old world (crash state, in-flight async
// work, an armed fault injector or tracer, profiler meters or a busy log,
// services, dialogs, fragments, shadow state) is an error so callers fall
// back to a fresh build.
func ForkProcess(p *Process, sched *sim.Scheduler) (*Process, error) {
	switch {
	case p.crashed:
		return nil, fmt.Errorf("app: fork of crashed process %s", p.app.Name)
	case p.asyncInFlight != 0:
		return nil, fmt.Errorf("app: fork of %s with %d async tasks in flight", p.app.Name, p.asyncInFlight)
	case p.asyncFault != nil:
		return nil, fmt.Errorf("app: fork of %s with async fault injector armed", p.app.Name)
	case len(p.services) > 0:
		return nil, fmt.Errorf("app: fork of %s with %d services", p.app.Name, len(p.services))
	case p.tracer != nil:
		return nil, fmt.Errorf("app: fork of %s with tracer armed", p.app.Name)
	case p.cpu != nil:
		return nil, fmt.Errorf("app: fork of profiled process %s", p.app.Name)
	case p.logBusy:
		return nil, fmt.Errorf("app: fork of %s with busy log enabled", p.app.Name)
	}
	ui, err := p.uiLooper.Fork(sched)
	if err != nil {
		return nil, fmt.Errorf("app: fork of %s: %w", p.app.Name, err)
	}
	np := &Process{
		app:      p.app,
		sched:    sched,
		model:    p.model,
		uiLooper: ui,
		mem:      p.mem.Clone(sched),
	}
	// The looper fork drops the uncaught handler: an app exception in
	// the fork must crash the fork, never the template.
	ui.SetUncaughtHandler(np.uncaught)
	nt, err := forkThread(p.thread, np)
	if err != nil {
		return nil, err
	}
	np.thread = nt
	return np, nil
}

func forkThread(t *ActivityThread, np *Process) (*ActivityThread, error) {
	if _, ok := t.handler.(RestartHandler); !ok {
		return nil, fmt.Errorf("app: fork of %s with %s change handler installed", t.proc.app.Name, t.handler.Name())
	}
	if t.currentShadow != nil || t.currentSunny != nil {
		return nil, fmt.Errorf("app: fork of %s with live shadow/sunny instance", t.proc.app.Name)
	}
	nt := &ActivityThread{
		proc:              np,
		activities:        make(map[int]*Activity, len(t.activities)),
		handler:           RestartHandler{},
		pendingBackground: make(map[int]bool, len(t.pendingBackground)),
		retired:           make(map[int]bool, len(t.retired)),
	}
	for tok, v := range t.pendingBackground {
		nt.pendingBackground[tok] = v
	}
	for tok, v := range t.retired {
		nt.retired[tok] = v
	}
	for tok, a := range t.activities {
		na, err := forkActivity(a, np)
		if err != nil {
			return nil, err
		}
		nt.activities[tok] = na
	}
	return nt, nil
}

func forkActivity(a *Activity, np *Process) (*Activity, error) {
	switch {
	case a.state != StateResumed && a.state != StateStopped:
		return nil, fmt.Errorf("app: fork of %s in non-settled state %v", a, a.state)
	case a.savedShadowState != nil:
		return nil, fmt.Errorf("app: fork of %s with shadow snapshot", a)
	case len(a.shadowEntries) > 0:
		return nil, fmt.Errorf("app: fork of %s with shadow history", a)
	case a.fragmentMgr != nil:
		return nil, fmt.Errorf("app: fork of %s with fragments attached", a)
	case len(a.dialogs) > 0:
		return nil, fmt.Errorf("app: fork of %s with dialogs", a)
	case len(a.timers) > 0:
		return nil, fmt.Errorf("app: fork of %s with UI timers", a)
	case a.asyncInFlight != 0:
		return nil, fmt.Errorf("app: fork of %s with async tasks in flight", a)
	}
	decor, content, err := view.CloneDecor(a.decor, a.content)
	if err != nil {
		return nil, fmt.Errorf("app: fork of %s: %w", a, err)
	}
	na := &Activity{
		class:           a.class,
		proc:            np,
		token:           a.token,
		state:           a.state,
		cfg:             a.cfg,
		decor:           decor,
		enteredShadowAt: a.enteredShadowAt,
		extras:          make(map[string]any, len(a.extras)),
	}
	if a.content != nil {
		if content == nil {
			return nil, fmt.Errorf("app: fork of %s: content view not under decor", a)
		}
		na.content = content
	}
	for k, v := range a.extras {
		switch val := v.(type) {
		case bool, int, int64, float64, string:
			na.extras[k] = val
		case *bundle.Bundle:
			na.extras[k] = val.Clone()
		default:
			return nil, fmt.Errorf("app: fork of %s: extra %q holds unforkable %T", a, k, v)
		}
	}
	return na, nil
}
