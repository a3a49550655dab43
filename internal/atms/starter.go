package atms

import (
	"rchdroid/internal/app"
	"rchdroid/internal/config"
	"rchdroid/internal/ipc"
)

// StarterPolicy is the seam the RCHDroid patch adds to ActivityStarter
// (startActivityUnchecked / setTaskFromIntentActivity): it receives start
// requests carrying the sunny flag. The core package installs the
// coin-flipping policy; with no policy installed, sunny requests fall
// back to stock semantics.
type StarterPolicy interface {
	// HandleSunnyStart processes a runtime-change creation request for
	// the task's top activity, under the configuration now in force.
	HandleSunnyStart(a *ATMS, task *TaskRecord, from *ActivityRecord, newCfg config.Configuration)
}

// ActivityStarter resolves start requests against the activity stack.
type ActivityStarter struct {
	atms   *ATMS
	policy StarterPolicy

	// Counters for reports and tests.
	createdRecords int
	suppressed     int
}

func newStarter(a *ATMS) *ActivityStarter {
	return &ActivityStarter{atms: a}
}

// SetPolicy installs the RCHDroid starter policy.
func (s *ActivityStarter) SetPolicy(p StarterPolicy) { s.policy = p }

// Policy returns the installed starter policy, or nil.
func (s *ActivityStarter) Policy() StarterPolicy { return s.policy }

// CreatedRecords returns how many new records the starter made.
func (s *ActivityStarter) CreatedRecords() int { return s.createdRecords }

// Suppressed returns how many same-activity default starts were dropped
// (the stock "creating one activity that is the same as itself will
// finish with creating nothing" rule).
func (s *ActivityStarter) Suppressed() int { return s.suppressed }

// StartActivity is startActivityUnchecked: resolve the intent against the
// stack and either reuse, suppress, or create a record.
func (s *ActivityStarter) StartActivity(intent app.Intent, fromToken int) {
	task, from := s.atms.stack.TaskOfToken(fromToken)
	if task == nil || from == nil {
		return
	}
	top := task.Top()

	if intent.Sunny() && s.policy != nil {
		// RCHDroid path: the modified starter knows this request may
		// legally create a second instance of the top activity.
		s.policy.HandleSunnyStart(s.atms, task, from, s.atms.globalConfig)
		return
	}

	// Stock rule: with default flags, starting the activity already on
	// top creates nothing.
	if intent.Flags == 0 && top != nil && top.Class.Name == intent.Activity {
		s.suppressed++
		return
	}

	class := s.resolveClass(from.Proc, intent.Activity)
	if class == nil {
		return
	}
	// The activity being covered pauses and stops; under RCHDroid its
	// shadow partner is released at the same time (§3.5).
	if prev := topNonShadow(task); prev != nil {
		s.atms.bus.Transact(prev.Proc.Endpoint(), ipc.MoveToBackground, 64, 0, func() {
			prev.Proc.Thread().ScheduleMoveToBackground(prev.Token)
		})
		prev.resumed = false
	}
	rec := s.CreateRecord(class, from.Proc, task)
	cfg := s.atms.globalConfig
	// Reply in a follow-up server message so the record-setup charge
	// delays the launch transaction, as the real stack walk would.
	s.atms.RunOnServer("atms:launchReply", 0, func() {
		s.atms.bus.Transact(from.Proc.Endpoint(), ipc.ScheduleLaunch, 256, 0, func() {
			from.Proc.Thread().ScheduleLaunch(rec.Class, rec.Token, cfg, app.LaunchOptions{})
		})
	})
}

// resolveClass finds the activity class by name within the app.
func (s *ActivityStarter) resolveClass(proc *app.Process, name string) *app.ActivityClass {
	return proc.App().ClassByName(name)
}

// CreateRecord allocates a fresh activity record on top of task, charging
// the record-setup cost. Exposed for the starter policy.
func (s *ActivityStarter) CreateRecord(class *app.ActivityClass, proc *app.Process, task *TaskRecord) *ActivityRecord {
	s.createdRecords++
	rec := &ActivityRecord{
		Token:  s.atms.nextToken,
		Class:  class,
		Proc:   proc,
		Config: s.atms.globalConfig,
	}
	s.atms.nextToken++
	task.Push(rec)
	s.atms.ChargeServer(s.atms.model.ATMSRecordSetup)
	return rec
}
