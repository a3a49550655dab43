package core

import (
	"rchdroid/internal/atms"
	"rchdroid/internal/config"
	"rchdroid/internal/ipc"
	"rchdroid/internal/trace"
)

// CoinFlipPolicy is RCHDroid's ATMS side (§3.4): on a sunny start request
// it searches the task stack for a still-alive shadow record. If one
// matches the new configuration it is reordered to the top and its state
// flipped with the requester's; otherwise a second record for the same
// activity is created — the modification that relaxes the stock
// "same-activity start creates nothing" rule.
type CoinFlipPolicy struct {
	// Counters for reports.
	searches int
	flips    int
	creates  int
}

// NewCoinFlipPolicy returns the RCHDroid starter policy.
func NewCoinFlipPolicy() *CoinFlipPolicy { return &CoinFlipPolicy{} }

// Searches returns how many shadow-record stack searches ran.
func (p *CoinFlipPolicy) Searches() int { return p.searches }

// Flips returns how many requests were served by a coin flip.
func (p *CoinFlipPolicy) Flips() int { return p.flips }

// Creates returns how many requests needed a fresh record.
func (p *CoinFlipPolicy) Creates() int { return p.creates }

// HandleSunnyStart implements atms.StarterPolicy.
func (p *CoinFlipPolicy) HandleSunnyStart(a *atms.ATMS, task *atms.TaskRecord, from *atms.ActivityRecord, newCfg config.Configuration) {
	p.searches++
	shadowRec := task.FindShadow()
	model := a.Model()

	if top := topNonShadowOf(task); top != nil && top != from {
		// The requester was covered by another activity start while its
		// sunny request was in flight. Granting it would push the
		// replacement over the activity the user just navigated to and
		// invert the back stack (back would then finish the wrong
		// activity), so the start is cancelled; the app side demotes the
		// waiting shadow back to a stopped live instance.
		a.Tracer().Instant(a.Track(), "coinFlip", "rch",
			trace.Arg{Key: "decision", Val: "cancel"},
			trace.Arg{Key: "reason", Val: "covered"})
		a.ChargeServer(model.ATMSStackSearch)
		a.RunOnServer("atms:sunnyCancelReply", 0, func() {
			a.Bus().Transact(from.Proc.Endpoint(), ipc.CancelSunny, 64, 0, func() {
				from.Proc.Thread().ScheduleSunnyCancel(from.Token)
			})
		})
		return
	}

	if shadowRec != nil && shadowRec.Config.Equal(newCfg) {
		// Coin flip: reorder the shadow record to the top, clear its
		// shadow state, and push the requester into the shadow state.
		p.flips++
		if a.Tracer().Enabled() {
			a.Tracer().Instant(a.Track(), "coinFlip", "rch",
				trace.Arg{Key: "decision", Val: "flip"},
				trace.Arg{Key: "shadowConfig", Val: shadowRec.Config.String()},
				trace.Arg{Key: "newConfig", Val: newCfg.String()})
		}
		task.MoveToTop(shadowRec)
		shadowRec.SetShadow(false)
		from.SetShadow(true)
		// Charge the stack search, then answer in a follow-up server
		// message so the charge delays the reply.
		a.ChargeServer(model.ATMSStackSearch)
		a.RunOnServer("atms:flipReply", 0, func() {
			a.Bus().Transact(shadowRec.Proc.Endpoint(), ipc.ScheduleFlip, 128, 0, func() {
				shadowRec.Proc.Thread().ScheduleFlip(shadowRec.Token, newCfg)
			})
		})
		return
	}

	// First-time change (or stale/missing shadow): create a second record
	// for the same activity class and mark the requester shadow.
	p.creates++
	if a.Tracer().Enabled() {
		reason := "noShadow"
		if shadowRec != nil {
			reason = "staleShadow"
		}
		a.Tracer().Instant(a.Track(), "coinFlip", "rch",
			trace.Arg{Key: "decision", Val: "create"},
			trace.Arg{Key: "reason", Val: reason},
			trace.Arg{Key: "newConfig", Val: newCfg.String()})
	}
	a.ChargeServer(model.ATMSStackSearch)
	rec := a.Starter().CreateRecord(from.Class, from.Proc, task)
	from.SetShadow(true)
	a.RunOnServer("atms:sunnyLaunchReply", 0, func() {
		a.Bus().Transact(from.Proc.Endpoint(), ipc.ScheduleSunnyLaunch, 256, 0, func() {
			from.Proc.Thread().ScheduleSunnyLaunch(rec.Class, rec.Token, newCfg)
		})
	})
}

// topNonShadowOf returns the topmost record that is not shadow-flagged —
// the activity the user actually sees.
func topNonShadowOf(task *atms.TaskRecord) *atms.ActivityRecord {
	rs := task.Records()
	for i := len(rs) - 1; i >= 0; i-- {
		if !rs[i].Shadow() {
			return rs[i]
		}
	}
	return nil
}

// alwaysCreatePolicy is the coin-flip ablation: every sunny start creates
// a fresh record, so every runtime change pays the RCHDroid-init cost.
type alwaysCreatePolicy struct{}

// HandleSunnyStart implements atms.StarterPolicy.
func (alwaysCreatePolicy) HandleSunnyStart(a *atms.ATMS, task *atms.TaskRecord, from *atms.ActivityRecord, newCfg config.Configuration) {
	a.ChargeServer(a.Model().ATMSStackSearch)
	rec := a.Starter().CreateRecord(from.Class, from.Proc, task)
	from.SetShadow(true)
	a.RunOnServer("atms:sunnyLaunchReply", 0, func() {
		a.Bus().Transact(from.Proc.Endpoint(), ipc.ScheduleSunnyLaunch, 256, 0, func() {
			from.Proc.Thread().ScheduleSunnyLaunch(rec.Class, rec.Token, newCfg)
		})
	})
}
