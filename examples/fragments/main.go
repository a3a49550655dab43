// Fragments demonstrates the dynamic-UI case that defeats static app
// patching (§2.2): a host activity attaches a fragment at runtime, shows
// a progress dialog, and keeps a background service running. One rotation
// under stock Android loses the fragment's typed text and crashes on the
// leaked dialog window; under RCHDroid everything survives untouched.
package main

import (
	"fmt"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/bundle"
	"rchdroid/internal/config"
	"rchdroid/internal/core"
	"rchdroid/internal/device"
	"rchdroid/internal/resources"
	"rchdroid/internal/view"
)

func buildApp() *app.App {
	res := resources.NewTable()
	layout := func() *view.Spec {
		return view.Linear(1,
			view.Text(2, "Mail"),
			view.Group("FrameLayout", 50), // fragment container
		)
	}
	res.Put("layout/main", resources.Qualifiers{Orientation: config.OrientationLandscape}, layout())
	res.Put("layout/main", resources.Qualifiers{Orientation: config.OrientationPortrait}, layout())

	composer := &app.FragmentClass{
		Name: "ComposeFragment",
		OnCreateView: func(f *app.Fragment, host *app.Activity) *view.Spec {
			return view.Linear(55,
				view.Text(56, "To:"),
				&view.Spec{Type: "CustomTextView", ID: 57}, // recipient field
				&view.Spec{Type: "CustomTextView", ID: 58}, // body field
			)
		},
	}
	cls := &app.ActivityClass{
		Name:            "MailActivity",
		FragmentClasses: map[string]*app.FragmentClass{"ComposeFragment": composer},
	}
	cls.Callbacks.OnCreate = func(a *app.Activity, saved *bundle.Bundle) {
		a.SetContentView("layout/main")
	}
	return &app.App{Name: "com.example.mail", Resources: res, Main: cls}
}

func run(label string, install bool) {
	w := device.New(device.Spec{App: buildApp, Settle: time.Second}, 0, func(w *device.World) {
		if install {
			core.Install(w.Sys, w.Proc, core.DefaultOptions())
		}
	})
	sched, system, proc := w.Sched, w.Sys, w.Proc

	fg := proc.Thread().ForegroundActivity()
	proc.PostApp("compose", 2*time.Millisecond, func() {
		// The user opens the composer (a dynamically attached fragment),
		// types a draft, and a sync dialog pops up — while a background
		// sync service runs.
		fg.Fragments().Add(fg.Class().FragmentClasses["ComposeFragment"], "compose", 50)
		fg.FindViewByID(57).(*view.CustomTextView).SetText("reviewer2@asplos.org")
		fg.FindViewByID(58).(*view.CustomTextView).SetText("Dear Reviewer 2, please reconsider…")
		fg.ShowDialog("Syncing drafts…", nil)
		proc.StartService(&app.ServiceClass{Name: "sync"})
	})
	sched.Advance(100 * time.Millisecond)

	fmt.Printf("── %s ──\n", label)
	fmt.Println("rotating with fragment + dialog + service active…")
	system.PushConfiguration(config.Portrait())
	sched.Advance(2 * time.Second)

	if proc.Crashed() {
		fmt.Printf("✗ CRASHED: %v\n\n", proc.CrashCause())
		return
	}
	now := proc.Thread().ForegroundActivity()
	frag := now.Fragments().FindByTag("compose")
	fmt.Printf("✓ alive; fragment=%v, draft to %q, body %q\n",
		frag != nil,
		now.FindViewByID(57).(*view.CustomTextView).Text(),
		now.FindViewByID(58).(*view.CustomTextView).Text())
	fmt.Printf("  sync service running: %v; dialogs showing: %d\n\n",
		proc.ServiceRunning("sync"), now.ShowingDialogs()+shadowDialogs(proc))
}

func shadowDialogs(proc *app.Process) int {
	if sh := proc.Thread().CurrentShadow(); sh != nil {
		return sh.ShowingDialogs()
	}
	return 0
}

func main() {
	run("Android-10 (restart-based)", false)
	run("RCHDroid (shadow-state)", true)
}
