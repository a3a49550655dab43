package core

import (
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/bundle"
	"rchdroid/internal/chaos"
	"rchdroid/internal/config"
	"rchdroid/internal/guard"
	"rchdroid/internal/trace"
	"rchdroid/internal/view"
)

// clearDirtyTree models the first frame after a launch or a flip: the draw
// pass consumes the pending invalidations, so a view's dirty flag again
// means "mutated since last shown" — the delta a later flip must carry.
func clearDirtyTree(root view.View) {
	view.Walk(root, func(v view.View) bool {
		v.Base().ClearDirty()
		return true
	})
}

// ShadowHandler is RCHDroid's activity-thread side: instead of restarting
// on a runtime change it moves the current activity into the Shadow state
// and asks the ATMS for a sunny-state instance (Fig 3, steps ①–③).
type ShadowHandler struct {
	migrator *Migrator
	gc       *ThresholdGC

	// quadraticMapping selects the O(n²) matcher (ablation only).
	quadraticMapping bool

	// pendingShadow is the activity that entered the shadow state for the
	// change currently in flight, until the ATMS answers with a flip or a
	// fresh record. It reconciles the thread's flip prediction with the
	// server's actual decision.
	pendingShadow *app.Activity

	// flipPending is the shadow partner a scheduled flip-likely handling
	// has committed to bringing back, from the moment the handling is
	// scheduled until the server's reply (flip grant, create grant, or
	// cancel) — or the handling's own abort — resolves the prediction.
	// While set, the partner must not be released: a back-to-back change
	// taking the non-flip path would otherwise destroy the instance the
	// queued flip reply is about to promote, leaving the process with a
	// shadow-only thread no resume can ever reach.
	flipPending *app.Activity

	// changesInFlight counts RCHDroid handlings between the enter-shadow
	// transition and their settling point (flipDone, or the sunny launch's
	// resume). While non-zero the guard's deferred shadow release must
	// wait: a stale resume notification can arrive mid-handling, and
	// releasing then would destroy the instance the queued flip is about
	// to bring back.
	changesInFlight int

	// handlingGen increments at every scheduled handling. The stock-routed
	// phases capture it at schedule time and fizzle if a newer handling
	// has been scheduled since: the save/teardown/relaunch messages sit on
	// the looper, and a back-to-back change delivered in between (e.g. the
	// moment the guard recovers a quarantined class) owns the screen from
	// its own path — letting the stale relaunch run anyway resurrects the
	// old token as a second visible activity.
	handlingGen int

	// disableSupersession turns the generation guard off (ablation; see
	// core.Options.DisableSupersession).
	disableSupersession bool

	// disableFlipPinning turns the flip-prediction pin off (ablation; see
	// core.Options.DisableFlipPinning): flipPending is never set, so a
	// concurrent non-flip handling releases the partner an in-flight flip
	// reply is about to promote.
	disableFlipPinning bool

	// zombies are former shadow activities kept alive only because they
	// still have asynchronous tasks in flight; they are destroyed as soon
	// as those tasks drain.
	zombies []*app.Activity

	// stall, if set, injects extra occupancy into named handling phases
	// (the chaos layer's "interrupt the handling mid-flight" knob).
	stall func(phase string) time.Duration

	// guard, when non-nil, supervises the handler: watchdog deadlines
	// around each phase, checksummed snapshot transfer, quarantine
	// gating. All call sites tolerate nil.
	guard *guard.Guard

	// xfer, if set, is the chaos fault model for the shadow-snapshot
	// bundle transfer (consulted once per attempt).
	xfer func(attempt int) chaos.TransferFault

	// Counters for reports.
	initLaunches     int
	flips            int
	zombiesReaped    int
	stockRouted      int
	supersededRoutes int

	// obs mirrors the counters (plus per-phase sim-duration histograms)
	// into the aggregate metrics shard; nil handles no-op.
	obs handlerObs
}

// NewShadowHandler returns a handler using the given migrator and GC.
func NewShadowHandler(m *Migrator, gc *ThresholdGC) *ShadowHandler {
	return &ShadowHandler{migrator: m, gc: gc}
}

// Name implements app.ChangeHandler.
func (h *ShadowHandler) Name() string { return "RCHDroid" }

// InitLaunches returns how many first-time (RCHDroid-init) handlings ran.
func (h *ShadowHandler) InitLaunches() int { return h.initLaunches }

// Flips returns how many coin-flip handlings ran.
func (h *ShadowHandler) Flips() int { return h.flips }

// ZombiesReaped returns how many demoted shadows were destroyed after
// their asynchronous work drained.
func (h *ShadowHandler) ZombiesReaped() int { return h.zombiesReaped }

// StockRouted returns how many runtime changes the guard routed through
// the stock restart path.
func (h *ShadowHandler) StockRouted() int { return h.stockRouted }

// SupersededStockRoutes returns how many queued stock-routed relaunches
// fizzled because a newer handling was scheduled before their phases ran
// — each one is an averted instance of the guarded-seed-613 stale-relaunch
// race.
func (h *ShadowHandler) SupersededStockRoutes() int { return h.supersededRoutes }

// Migrator returns the lazy-migration engine.
func (h *ShadowHandler) Migrator() *Migrator { return h.migrator }

// SetPhaseStall installs a fault hook consulted once per executed
// handling phase; a non-zero return stretches that phase's occupancy,
// delaying everything queued behind it (e.g. the restore that follows a
// shadow save). Install nil to remove.
func (h *ShadowHandler) SetPhaseStall(fn func(phase string) time.Duration) { h.stall = fn }

// stallFor returns the injected stall for a phase, or 0.
func (h *ShadowHandler) stallFor(phase string) time.Duration {
	if h.stall == nil {
		return 0
	}
	return h.stall(phase)
}

// HandleRuntimeChange implements app.ChangeHandler: step ① of Fig 3. The
// current activity enters the Shadow state — with a full snapshot when no
// live partner exists (the ATMS will have to create a sunny instance), or
// with the cheap flip transition when the coupled shadow instance already
// matches the new configuration (the ATMS will coin-flip it back).
func (h *ShadowHandler) HandleRuntimeChange(t *app.ActivityThread, a *app.Activity, newCfg config.Configuration) {
	class := a.Class().Name
	h.handlingGen++
	gen := h.handlingGen
	h.obs.handlings.Inc()
	if !h.guard.Allow(class) {
		// Degraded: the guard quarantined this class (or opened the
		// process breaker), so the change takes the stock restart path.
		// Any leftover shadow coupling for the class goes first — a
		// quarantined activity must not keep a shadow partner.
		h.guard.NoteStockRoute(class)
		if sh := t.CurrentShadow(); sh != nil && sh.Class() == a.Class() {
			h.releaseShadow(t, sh)
		}
		h.handleStockRouted(t, a, newCfg, gen)
		return
	}
	h.guard.ArmPhase(class, "runtimeChange")
	m := t.Process().Model()
	partner := t.CurrentShadow()
	flipLikely := partner != nil && partner != a &&
		partner.State() == app.StateShadow && partner.Config().Equal(newCfg)

	// The phases below are queued messages; a second change delivered
	// back-to-back may already have moved this activity out of the
	// foreground by the time they run. Such a stale handling aborts at
	// the first phase and never contacts the ATMS. stockFallback marks
	// the aborts that must degrade to the stock path instead of simply
	// fizzling (the snapshot transfer failed every retry).
	aborted := false
	stockFallback := false

	if flipLikely {
		// Commit to the prediction now, at schedule time: changes
		// delivered back-to-back run their synchronous prologue before any
		// of this handling's phases, and must see the partner as spoken
		// for.
		if !h.disableFlipPinning {
			h.flipPending = partner
		}
		t.RunCharged("rch:enterShadow(flip)", func() time.Duration {
			if !a.State().Visible() {
				aborted = true
				return 0
			}
			// The flip reuses the partner's live tree, so the state the
			// user accumulated on THIS instance must be carried over:
			// snapshot it here, HandleFlip re-applies it. Skipping the
			// snapshot would resurface whatever the partner showed when
			// it left the screen. Recording piggybacks on the dirty
			// tracking RCHDroid already patches into View.invalidate, so
			// the flip transition's fixed cost covers it; the flip later
			// pays only for the views actually mutated this tenure.
			snap, extra, ok := h.guard.Transfer(class, a.SaveInstanceState, h.xfer)
			if !ok {
				h.guard.Quarantine(class, "transfer:failed")
				aborted, stockFallback = true, true
				return extra
			}
			a.SetShadowSnapshot(snap)
			a.EnterShadow(t.Process().Scheduler().Now())
			h.migrator.InstallHook(a)
			h.setPendingShadow(t, a)
			h.changesInFlight++
			cost := m.ShadowFlipTransition + extra + h.stallFor("enterShadow(flip)")
			observePhase(h.obs.phaseEnterShadow, cost)
			return cost
		})
	} else {
		// A stale shadow instance (configuration mismatch or post-GC
		// leftover) cannot be flipped; release it first — at most one
		// shadow instance exists system-wide (§3.2). Exception: a partner
		// an earlier queued handling has already committed to flipping
		// (h.flipPending) must survive — releasing it here would destroy
		// the very instance the in-flight flip reply is about to bring
		// back, stranding the process with a shadow-only thread and no
		// foreground (theme-switch schedule [e3:config e5:config]). If
		// this handling still runs (it usually aborts as superseded), the
		// enter-shadow phase below re-checks once the prediction resolves.
		if partner != nil && partner != a && partner != h.flipPending {
			h.releaseShadow(t, partner)
		}
		t.RunCharged("rch:enterShadow", func() time.Duration {
			if !a.State().Visible() {
				aborted = true
				return 0
			}
			// The deferred release: a partner spared at schedule time only
			// because a flip prediction was in flight. By now the
			// prediction may have resolved (aborted or granted); a shadow
			// still coupled here would leak past the one-shadow bound when
			// this instance takes its place.
			if sh := t.CurrentShadow(); sh != nil && sh != a && sh != h.flipPending {
				h.releaseShadow(t, sh)
			}
			n := a.ViewCount()
			snap, extra, ok := h.guard.Transfer(class, a.SaveInstanceState, h.xfer)
			if !ok {
				h.guard.Quarantine(class, "transfer:failed")
				aborted, stockFallback = true, true
				return extra
			}
			a.SetShadowSnapshot(snap)
			a.EnterShadow(t.Process().Scheduler().Now())
			t.SetCurrentShadow(a)
			h.migrator.InstallHook(a)
			h.setPendingShadow(t, a)
			h.changesInFlight++
			cost := m.ShadowTransition + m.SaveState(n) + extra + h.stallFor("enterShadow")
			observePhase(h.obs.phaseEnterShadow, cost)
			return cost
		})
	}

	// Step ②: request a sunny-state start from the ATMS.
	t.RunCharged("rch:requestSunny", func() time.Duration {
		if aborted {
			// An aborted flip-likely handling never asks the server, so no
			// reply will come to resolve its prediction; release the claim
			// on the partner here.
			if flipLikely && h.flipPending == partner {
				h.flipPending = nil
			}
			if stockFallback {
				h.guard.NoteStockRoute(class)
				h.handleStockRouted(t, a, newCfg, gen)
			} else {
				// A stale handling never reaches the ATMS, so no resume
				// of its own will come back to disarm the watchdog; the
				// newer in-flight handling owns the class's deadline now.
				h.guard.DisarmPhase(class, "runtimeChange")
			}
			return 0
		}
		intent := app.NewIntent(t.Process().App().Name, a.Class().Name).WithFlags(app.FlagSunny)
		t.System().RequestStartActivity(intent, a.Token())
		return 0
	})
}

// handleStockRouted replays the Android-10 save/destroy/relaunch path
// for a change the guard refused to hand to the shadow machinery. The
// phases mirror PerformSaveAndDestroy cost-for-cost, with one deliberate
// deviation: an instance with asynchronous work still in flight is
// demoted to a stopped zombie instead of destroyed — tearing it down
// would re-create the very §2.2 crash the guard exists to contain, and
// "strictly better than stock" is the one asymmetry the transparency
// oracle permits.
//
// gen is the handling generation captured at schedule time. The phases
// run as queued looper messages; by the time they execute, a newer
// handling for the class may have been scheduled (a back-to-back change,
// or a chaos config echo landing right as the guard recovers the class
// from quarantine). That newer handling — whichever path it takes — owns
// the screen, so a superseded stock route must fizzle entirely: tearing
// down and relaunching the old token anyway would put a second visible
// activity next to the one the newer handling produces.
func (h *ShadowHandler) handleStockRouted(t *app.ActivityThread, a *app.Activity, newCfg config.Configuration, gen int) {
	h.stockRouted++
	h.obs.stockRouted.Inc()
	m := t.Process().Model()
	class, token := a.Class(), a.Token()
	var saved *bundle.Bundle
	aborted := false
	counted := false
	superseded := func() bool {
		if h.disableSupersession || h.handlingGen == gen {
			return false
		}
		if !counted {
			counted = true
			h.supersededRoutes++
			h.obs.superseded.Inc()
		}
		return true
	}
	t.RunCharged("stock:save", func() time.Duration {
		if superseded() || !a.State().Visible() {
			aborted = true
			return 0
		}
		saved = a.SaveInstanceStateStock()
		return m.SaveState(a.ViewCount())
	})
	t.RunCharged("stock:teardown", func() time.Duration {
		if aborted || superseded() || !a.State().Visible() {
			aborted = true
			return 0
		}
		// The async check must run in-phase: a task started by a message
		// queued ahead of this one would be missed at schedule time.
		if a.AsyncInFlight() > 0 {
			n := a.ViewCount()
			a.DemoteToStopped()
			h.zombies = append(h.zombies, a)
			t.Process().UpdateMemory()
			return m.DestroyTree(n)
		}
		// PerformDestroy queues its own charged message, so the teardown
		// cost lands one hop later; the serial looper makes the total
		// latency identical to the stock relaunch:destroy phase.
		t.PerformDestroy(a)
		return 0
	})
	t.RunCharged("stock:relaunch", func() time.Duration {
		if aborted || superseded() {
			return 0
		}
		t.PerformLaunch(class, token, newCfg, app.LaunchOptions{Saved: saved})
		return 0
	})
}

// settleChange marks the in-flight handling that reached its settling
// point as done. Floored at zero: a flip reply that arrives after its
// handling aborted never incremented the counter.
func (h *ShadowHandler) settleChange() {
	if h.changesInFlight > 0 {
		h.changesInFlight--
	}
}

// setPendingShadow updates the in-flight flip-prediction pointer and
// mirrors it onto the thread, where invariant samplers can see it.
func (h *ShadowHandler) setPendingShadow(t *app.ActivityThread, a *app.Activity) {
	h.pendingShadow = a
	t.SetPendingShadow(a)
}

// releaseShadow removes the shadow coupling of a and either destroys the
// instance or, when asynchronous work started by it is still in flight,
// demotes it to a stopped "zombie" that stays alive until the tasks
// drain — destroying it immediately would re-create the very crash
// RCHDroid exists to prevent.
func (h *ShadowHandler) releaseShadow(t *app.ActivityThread, a *app.Activity) {
	if a == nil || a.State() != app.StateShadow {
		return
	}
	h.migrator.RemoveHook(a)
	if a.AsyncInFlight() == 0 {
		t.PerformDestroy(a)
		return
	}
	a.DemoteShadowToStopped()
	if t.CurrentShadow() == a {
		t.SetCurrentShadow(nil)
	}
	h.zombies = append(h.zombies, a)
	if t.System() != nil {
		t.System().NotifyShadowReleased(a.Token())
	}
}

// reapZombies destroys demoted shadows whose async work has drained.
func (h *ShadowHandler) reapZombies(t *app.ActivityThread) {
	remaining := h.zombies[:0]
	for _, z := range h.zombies {
		if z.State() != app.StateStopped {
			continue // already destroyed elsewhere
		}
		if z.AsyncInFlight() == 0 {
			t.PerformDestroy(z)
			h.zombiesReaped++
			h.obs.zombieReaps.Inc()
			continue
		}
		remaining = append(remaining, z)
	}
	h.zombies = remaining
}

// Zombies reports how many demoted shadows are awaiting their tasks.
func (h *ShadowHandler) Zombies() int { return len(h.zombies) }

// HandleSunnyLaunch implements app.ChangeHandler: the RCHDroid-init path.
// A new sunny instance is created under the new configuration, restored
// from the shadow snapshot, and the essence mapping is built before the
// resume (the handleResumeActivity modification).
func (h *ShadowHandler) HandleSunnyLaunch(t *app.ActivityThread, class *app.ActivityClass, token int, newCfg config.Configuration) {
	h.initLaunches++
	h.obs.initLaunches.Inc()
	// The server answered with a record, not a flip; replies arrive in
	// request order, so any flip prediction still outstanding is resolved
	// by now and the partner is releasable again.
	h.flipPending = nil
	h.guard.ArmPhase(class.Name, "sunnyLaunch")
	m := t.Process().Model()
	// Reconcile a mispredicted flip: the thread expected the server to
	// reuse its shadow partner, but the server created a record instead
	// (coin flip disabled, or the shadow record raced away). The previous
	// partner is released — at most one shadow instance exists — and the
	// activity that just entered the shadow state becomes the snapshot
	// source.
	if pending := h.pendingShadow; pending != nil {
		h.setPendingShadow(t, nil)
		if prev := t.CurrentShadow(); prev != nil && prev != pending {
			h.releaseShadow(t, prev)
		}
		if pending.State() == app.StateShadow {
			if pending.ShadowSnapshot() == nil {
				pending.SetShadowSnapshot(pending.SaveInstanceState())
			}
			t.SetCurrentShadow(pending)
		}
	}
	shadow := t.CurrentShadow()
	var saved *bundle.Bundle
	if shadow != nil {
		saved = shadow.ShadowSnapshot()
	}

	t.PerformLaunch(class, token, newCfg, app.LaunchOptions{
		Sunny: true,
		Saved: saved,
		ExtraPhase: func(sunny *app.Activity) (string, time.Duration, func()) {
			n := sunny.ViewCount()
			cost := m.SunnySetup + m.BuildMapping(n)
			if h.quadraticMapping {
				cost = m.SunnySetup + m.BuildMappingQuadratic(n)
			}
			cost += h.stallFor("buildMapping")
			observePhase(h.obs.phaseBuildMap, cost)
			return "rch:buildMapping", cost, func() {
				if shadow == nil {
					return
				}
				var mapped int
				if h.quadraticMapping {
					mapped = BuildEssenceMappingQuadratic(shadow.Decor(), sunny.Decor())
				} else {
					mapped = BuildEssenceMapping(shadow.Decor(), sunny.Decor())
				}
				if tr, track := t.Trace(); tr.Enabled() {
					tr.Instant(track, "rch:mappingBuilt", "rch",
						trace.Arg{Key: "mapped", Val: mapped},
						trace.Arg{Key: "views", Val: n})
				}
			}
		},
		OnResumed: func(sunny *app.Activity) {
			h.settleChange()
			t.SetCurrentSunny(sunny)
			clearDirtyTree(sunny.Decor())
			if h.gc != nil {
				h.gc.Arm(t)
			}
			if h.guard.Enabled() {
				h.guard.SelfCheck(sunny.Class().Name)
			}
		},
	})
}

// HandleFlip implements app.ChangeHandler: the coin-flip path. The live
// shadow instance is brought back to the foreground under the new
// configuration; no inflation, no restore, no mapping build (§3.4).
func (h *ShadowHandler) HandleFlip(t *app.ActivityThread, shadowToken int, newCfg config.Configuration) {
	h.flips++
	h.obs.flips.Inc()
	m := t.Process().Model()
	incoming := t.Activity(shadowToken)
	if incoming == nil || h.flipPending == incoming {
		// The grant the prediction was waiting for has arrived (or its
		// target is already gone); the partner claim lifts either way.
		h.flipPending = nil
	}
	if incoming != nil {
		h.guard.ArmPhase(incoming.Class().Name, "flip")
	}
	outgoing := t.CurrentSunny()
	if h.pendingShadow != nil {
		outgoing = h.pendingShadow
		h.setPendingShadow(t, nil)
	}

	t.RunCharged("rch:flip", func() time.Duration {
		if incoming == nil || incoming.State() != app.StateShadow {
			return 0
		}
		h.migrator.RemoveHook(incoming)
		incoming.ApplyConfiguration(newCfg)
		incoming.FlipToSunny()
		restoreCost := time.Duration(0)
		if outgoing != nil {
			// The outgoing activity already entered the shadow state in
			// HandleRuntimeChange; re-aim the essence mapping at it.
			InvertMapping(incoming.Decor())
			// Carry the outgoing tenure's state onto the reused tree.
			// Only views the user (or an app callback) actually mutated
			// since the outgoing instance's last frame are out of sync —
			// its dirty set — so the sync is charged as a migration batch
			// over that delta: zero in change-only workloads, which keeps
			// the flip at its fixed §4 latency. The simulator realises
			// the same end state by re-applying the snapshot bundle.
			if saved := outgoing.ShadowSnapshot(); saved != nil {
				delta := len(view.DirtyViews(outgoing.Decor()))
				incoming.RestoreInstanceState(saved)
				if delta > 0 {
					restoreCost = m.MigrateViews(delta)
				}
			}
		}
		// The first frame after the flip consumes the invalidations the
		// re-applied state raised.
		clearDirtyTree(incoming.Decor())
		t.SetCurrentShadow(outgoing)
		t.SetCurrentSunny(incoming)
		cost := m.ConfigApply + m.SunnySetup + restoreCost + h.stallFor("flip")
		observePhase(h.obs.phaseFlip, cost)
		return cost
	})
	t.RunCharged("rch:flipResume", func() time.Duration {
		extra := time.Duration(0)
		if incoming != nil {
			extra = incoming.Class().ExtraResumeCost
		}
		cost := m.ResumeBase + extra + m.WindowRelayout
		observePhase(h.obs.phaseFlipResume, cost)
		return cost
	})
	t.RunCharged("rch:flipDone", func() time.Duration {
		h.settleChange()
		t.Process().UpdateMemory()
		if h.gc != nil {
			h.gc.Arm(t)
		}
		if t.System() != nil {
			t.System().NotifyResumed(shadowToken)
		}
		return 0
	})
	if h.guard.Enabled() && incoming != nil {
		// Zero-cost by construction: with the guard disabled the flip
		// timeline is tick-identical.
		t.RunCharged("guard:selfCheck", func() time.Duration {
			h.guard.SelfCheck(incoming.Class().Name)
			return 0
		})
	}
}

// AfterUICallback implements app.ChangeHandler: the lazy-migration flush
// point (§3.3). Any views the callback dirtied on the shadow tree are
// migrated to their sunny peers now.
func (h *ShadowHandler) AfterUICallback(t *app.ActivityThread, a *app.Activity) {
	h.migrator.Flush()
	if len(h.zombies) > 0 {
		h.reapZombies(t)
	}
}

// HandleForegroundSwitch implements app.ChangeHandler: when the
// foreground activity is switched away, the coupled shadow activity is
// released immediately (§3.5) — shadow instances only ever back the
// activity the user is looking at.
func (h *ShadowHandler) HandleForegroundSwitch(t *app.ActivityThread) {
	if sh := t.CurrentShadow(); sh != nil && sh == h.pendingShadow {
		// The shadow is the data source of a sunny request still in
		// flight to the server. Releasing it here would strand the
		// requester with no instance at all; the server resolves the
		// race instead — it either grants the launch (which consumes the
		// shadow normally) or cancels it (HandleSunnyCancel demotes the
		// shadow back to a stopped live instance).
		return
	}
	h.releaseShadow(t, t.CurrentShadow())
}

// HandleSunnyCancel unwinds an enter-shadow whose sunny start the server
// cancelled: another activity covered the requester while its request
// was in flight, so a replacement launch would steal the foreground and
// invert the back stack. The shadow demotes back to a plain stopped
// instance — the user's live state survives intact, better than a
// snapshot round-trip — and the activity re-handles its stale
// configuration whenever the next change reaches it in the foreground.
func (h *ShadowHandler) HandleSunnyCancel(t *app.ActivityThread, token int) {
	a := t.Activity(token)
	if a == nil || a.State() != app.StateShadow {
		return
	}
	if h.pendingShadow == a {
		h.setPendingShadow(t, nil)
	}
	// The cancel resolves the cancelled request's prediction; replies and
	// cancels arrive in request order, so nothing earlier is still
	// waiting on the partner.
	h.flipPending = nil
	a.DemoteShadowToStopped()
	if t.CurrentShadow() == a {
		t.SetCurrentShadow(nil)
	}
	h.settleChange()
	h.guard.DisarmPhase(a.Class().Name, "runtimeChange")
	t.Process().UpdateMemory()
}

// HandleTrimMemory implements app.ChangeHandler: under memory pressure
// the shadow instance is the reclaimable state RCHDroid holds — release
// it (zombie demotion still protects in-flight async work) and reap any
// drained zombies while we are at it.
func (h *ShadowHandler) HandleTrimMemory(t *app.ActivityThread) {
	h.releaseShadow(t, t.CurrentShadow())
	if len(h.zombies) > 0 {
		h.reapZombies(t)
	}
}
