// Quickstart: build a small note-taking app against the simulated
// Android framework, install RCHDroid, rotate the screen, and watch the
// typed state survive with no app-side handling code at all — the
// paper's headline property.
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

// View ids, like R.id.* constants.
const (
	idRoot  view.ID = 1
	idTitle view.ID = 2
	idNote  view.ID = 3
	idDone  view.ID = 4
)

func buildNotesApp() *app.App {
	res := resources.NewTable()
	// Landscape and portrait layouts, like res/layout-land and
	// res/layout-port. The note widget is a custom view — state that
	// stock Android's restart would NOT preserve.
	layout := func(title string) *view.Spec {
		return view.Linear(idRoot,
			view.Text(idTitle, title),
			&view.Spec{Type: "CustomTextView", ID: idNote},
			&view.Spec{Type: "CheckBox", ID: idDone, Text: "done"},
		)
	}
	res.Put("layout/main", resources.Qualifiers{Orientation: config.OrientationLandscape}, layout("Notes (wide)"))
	res.Put("layout/main", resources.Qualifiers{Orientation: config.OrientationPortrait}, layout("Notes"))

	cls := &app.ActivityClass{Name: "NotesActivity"}
	cls.Callbacks.OnCreate = func(a *app.Activity, saved *bundle.Bundle) {
		a.SetContentView("layout/main")
		// Note: no onSaveInstanceState, no configChanges declaration —
		// this is the 92.4% of apps that never think about restarts.
	}
	return &app.App{Name: "com.example.notes", Resources: res, Main: cls}
}

func main() {
	// 1. Boot a simulated device (virtual clock, system server, app
	//    process), launch the app and let it settle; 2. install RCHDroid
	//    at that point — the only line that differs from stock.
	w := device.New(device.Spec{App: buildNotesApp, Settle: time.Second}, 0, func(w *device.World) {
		core.Install(w.Sys, w.Proc, core.DefaultOptions())
	})
	sched, system, proc := w.Sched, w.Sys, w.Proc

	// 3. Let the user type a note.
	fg := proc.Thread().ForegroundActivity()
	proc.PostApp("user types", 2*time.Millisecond, func() {
		fg.FindViewByID(idNote).(*view.CustomTextView).SetText("buy milk, call mom")
		fg.FindViewByID(idDone).(*view.CheckBox).SetChecked(true)
	})
	sched.Advance(100 * time.Millisecond)
	show(proc, "before rotation")

	// 4. Rotate the screen (adb shell wm size 1080x1920).
	system.PushConfiguration(config.Portrait())
	sched.Advance(2 * time.Second)
	fmt.Printf("\nruntime change handled in %.2f ms — no restart, no state loss\n\n",
		float64(system.LastHandlingTime())/float64(time.Millisecond))
	show(proc, "after rotation")

	// 5. Rotate back — this one is a coin flip, reusing the live shadow
	//    instance.
	system.PushConfiguration(config.Default())
	sched.Advance(2 * time.Second)
	fmt.Printf("\nrotated back via coin flip in %.2f ms\n",
		float64(system.LastHandlingTime())/float64(time.Millisecond))
}

func show(proc *app.Process, when string) {
	fg := proc.Thread().ForegroundActivity()
	title := fg.FindViewByID(idTitle).(*view.TextView).Text()
	note := fg.FindViewByID(idNote).(*view.CustomTextView).Text()
	done := fg.FindViewByID(idDone).(*view.CheckBox).Checked()
	fmt.Printf("%s: title=%q note=%q done=%v (%v, %s)\n",
		when, title, note, done, fg.State(), fg.Config().Orientation)
}
