package core

import (
	"strings"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/config"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/guard"
	"rchdroid/internal/logcat"
	"rchdroid/internal/sim"
)

// foreignPolicy is a starter policy that is not a *CoinFlipPolicy — the
// mismatch Install must refuse to silently degrade around.
type foreignPolicy struct{}

func (foreignPolicy) HandleSunnyStart(a *atms.ATMS, task *atms.TaskRecord, from *atms.ActivityRecord, newCfg config.Configuration) {
}

// TestInstallPolicyMismatchIsLoud covers the former silent path: a
// foreign policy already wired into the starter used to be degraded to a
// nil *CoinFlipPolicy with no signal. Now Install must keep the foreign
// policy in place, report the mismatch on the returned RCHDroid, write a
// logcat warning, and keep failing the guard self-check.
func TestInstallPolicyMismatchIsLoud(t *testing.T) {
	sched := sim.NewScheduler()
	model := costmodel.Default()
	sys := atms.New(sched, model)
	lc := logcat.New(sched, 256)
	sys.SetLogcat(lc)
	proc := app.NewProcess(sched, model, benchapp.New(benchapp.Config{Images: 1}))

	sys.Starter().SetPolicy(foreignPolicy{})

	opts := DefaultOptions()
	cfg := guard.DefaultConfig()
	opts.Guard = &cfg
	rch := Install(sys, proc, opts)

	if rch.PolicyMismatch == "" {
		t.Fatal("Install with a foreign starter policy reported no mismatch")
	}
	if !strings.Contains(rch.PolicyMismatch, "core.foreignPolicy") {
		t.Fatalf("mismatch does not name the foreign type: %q", rch.PolicyMismatch)
	}
	if rch.Policy != nil {
		t.Fatalf("Policy = %v, want nil on mismatch", rch.Policy)
	}
	if _, ok := sys.Starter().Policy().(foreignPolicy); !ok {
		t.Fatalf("foreign policy was clobbered: starter now holds %T", sys.Starter().Policy())
	}
	if got := lc.Grep("coin flip disabled"); len(got) == 0 {
		t.Fatalf("no logcat warning about the mismatch; log:\n%s", lc.Dump())
	}

	sys.LaunchApp(proc)
	sched.Advance(2 * time.Second)
	issues := rch.Guard.SelfCheck("Main")
	found := false
	for _, issue := range issues {
		if strings.Contains(issue, "coin flip disabled") {
			found = true
		}
	}
	if !found {
		t.Fatalf("guard self-check does not surface the policy mismatch: %v", issues)
	}
	if rch.Guard.Count(guard.KindSelfCheckFail) == 0 {
		t.Fatal("self-check failure counter did not move on policy mismatch")
	}
}

// TestInstallReusesSharedPolicy pins the intended sharing semantics: a
// second install on the same system reuses the CoinFlipPolicy the first
// one wired in, and a fresh system gets a fresh policy installed.
func TestInstallReusesSharedPolicy(t *testing.T) {
	sched := sim.NewScheduler()
	model := costmodel.Default()
	sys := atms.New(sched, model)
	a := Install(sys, app.NewProcess(sched, model, benchapp.New(benchapp.Config{Images: 1})), DefaultOptions())
	b := Install(sys, app.NewProcess(sched, model, benchapp.New(benchapp.Config{Images: 1})), DefaultOptions())
	if a.Policy == nil || a.Policy != b.Policy {
		t.Fatalf("second install did not reuse the shared policy: %p vs %p", a.Policy, b.Policy)
	}
	if a.PolicyMismatch != "" || b.PolicyMismatch != "" {
		t.Fatalf("spurious mismatch on matching installs: %q / %q", a.PolicyMismatch, b.PolicyMismatch)
	}
}
