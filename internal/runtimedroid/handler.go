package runtimedroid

import (
	"slices"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/config"
	"rchdroid/internal/core"
	"rchdroid/internal/view"
)

// PatchedHandler is a behavioural reimplementation of RuntimeDroid's
// app-level scheme (MobiSys'18), used as a measured baseline alongside
// the published numbers: the automatic patch masks the restart inside the
// app — the activity instance survives, the view tree is hot-swapped in
// place for the new configuration (HOT resource updating), recorded view
// state is re-applied, and a proxy layer redirects late asynchronous
// updates from the detached old views to their replacements.
//
// Compared with RCHDroid it skips the system-server round trip, the
// second activity instance and the full resume path, which is why it is
// faster (Fig 12) — at the price of thousands of patched LoC per app
// (Table 4) and the §2.2 failure modes on dynamic view trees.
type PatchedHandler struct {
	// holder keeps the previous view tree alive off-screen so in-flight
	// async closures can still touch it; its invalidate hook redirects.
	holder  *view.DecorView
	pending []view.View
	inSet   map[view.View]bool

	hotSwaps   int
	redirected int
}

// NewPatchedHandler returns the RuntimeDroid-style handler. Install it
// with proc.Thread().SetChangeHandler — it replaces the stock restart for
// apps that received the patch.
func NewPatchedHandler() *PatchedHandler {
	return &PatchedHandler{inSet: make(map[view.View]bool)}
}

// Name implements app.ChangeHandler.
func (h *PatchedHandler) Name() string { return "RuntimeDroid" }

// HotSwaps returns how many in-place view-tree swaps ran.
func (h *PatchedHandler) HotSwaps() int { return h.hotSwaps }

// Redirected returns how many late updates were proxied to new views.
func (h *PatchedHandler) Redirected() int { return h.redirected }

// HandleRuntimeChange implements app.ChangeHandler: the in-place
// hot-swap. No IPC, no new instance — the patched app rebuilds its own
// view tree under the new configuration.
func (h *PatchedHandler) HandleRuntimeChange(t *app.ActivityThread, a *app.Activity, newCfg config.Configuration) {
	m := t.Process().Model()
	t.RunCharged("runtimedroid:hotswap", func() time.Duration {
		h.hotSwaps++
		n := a.ViewCount()

		// 1. Record the current view state (RuntimeDroid records it at
		//    runtime rather than relying on onSaveInstanceState).
		saved := a.SaveInstanceState()

		// 2. Detach the old content into the off-screen holder so
		//    in-flight closures stay safe. RemoveChild shifts the
		//    decor's slice, so walk a copy.
		oldHolder := view.NewDecorView(-9999)
		for _, c := range slices.Clone(a.Decor().Children()) {
			a.Decor().RemoveChild(c)
			oldHolder.AddChild(c)
		}
		h.holder = oldHolder

		// 3. Re-run the app's view construction under the new
		//    configuration (the patch makes it re-entrant) and re-apply
		//    the recorded state.
		a.ApplyConfiguration(newCfg)
		if cb := a.Class().Callbacks.OnCreate; cb != nil {
			cb(a, saved)
		}
		a.RestoreInstanceState(saved)

		// 4. Proxy layer: map old views to their replacements and hook
		//    the holder so late async updates are redirected.
		core.BuildEssenceMapping(oldHolder, a.Decor())
		oldHolder.AttachInfoRef().OnInvalidate = func(v view.View) {
			if v.Base().SunnyPeer() == nil || h.inSet[v] {
				return
			}
			h.inSet[v] = true
			h.pending = append(h.pending, v)
		}

		// Cost: resource re-resolution, re-inflation and the app's own
		// view-construction logic, state re-application, proxy mapping —
		// but no instance creation and no full resume.
		return m.ConfigApply + m.LoadResources(n) + m.InflateTree(n) +
			a.Class().ExtraCreateCost + m.RestoreState(n) + m.BuildMapping(n)
	})
	t.RunCharged("runtimedroid:relayout", func() time.Duration {
		return m.WindowRelayout
	})
	t.RunCharged("runtimedroid:done", func() time.Duration {
		t.Process().UpdateMemory()
		if t.System() != nil {
			t.System().NotifyResumed(a.Token())
		}
		return 0
	})
}

// HandleSunnyLaunch implements app.ChangeHandler; RuntimeDroid never uses
// the sunny path.
func (h *PatchedHandler) HandleSunnyLaunch(*app.ActivityThread, *app.ActivityClass, int, config.Configuration) {
	panic("runtimedroid: sunny launch delivered to app-level handler")
}

// HandleFlip implements app.ChangeHandler; RuntimeDroid never flips.
func (h *PatchedHandler) HandleFlip(*app.ActivityThread, int, config.Configuration) {
	panic("runtimedroid: flip delivered to app-level handler")
}

// AfterUICallback implements app.ChangeHandler: flush the proxy layer,
// copying redirected updates onto the replacement views.
func (h *PatchedHandler) AfterUICallback(t *app.ActivityThread, a *app.Activity) {
	if len(h.pending) == 0 {
		return
	}
	batch := h.pending
	h.pending = nil
	h.inSet = make(map[view.View]bool)
	m := t.Process().Model()
	t.RunCharged("runtimedroid:redirect", func() time.Duration {
		for _, v := range batch {
			if core.MigrateView(v) != "" {
				h.redirected++
			}
			v.Base().ClearDirty()
		}
		return m.MigrateViews(len(batch))
	})
}

// HandleForegroundSwitch implements app.ChangeHandler: the app-level
// scheme has no shadow instance; the holder is simply dropped.
func (h *PatchedHandler) HandleForegroundSwitch(t *app.ActivityThread) {
	h.holder = nil
	h.pending = nil
	h.inSet = make(map[view.View]bool)
}

// HandleTrimMemory implements app.ChangeHandler: under memory pressure
// the off-screen holder tree is the only reclaimable state — drop it
// (late async updates then land on detached views, the risk the
// app-level scheme accepts).
func (h *PatchedHandler) HandleTrimMemory(t *app.ActivityThread) {
	h.HandleForegroundSwitch(t)
}
