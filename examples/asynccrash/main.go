// Asynccrash replays the paper's Figure 1 scenario side by side: an app
// starts an asynchronous task, the user rotates the screen before it
// finishes, and the task's callback then updates the view tree.
//
// Under stock Android the restart released the old views, so the callback
// hits a NullPointerException and the process dies. Under RCHDroid the old
// activity is alive in the Shadow state; the callback lands safely and
// lazy migration forwards the update to the Sunny tree.
package main

import (
	"fmt"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/config"
	"rchdroid/internal/core"
	"rchdroid/internal/device"
)

func main() {
	fmt.Println("Figure 1 scenario: AsyncTask in flight across a rotation")
	fmt.Println()
	runScenario("Android-10 (restart-based)", false)
	fmt.Println()
	runScenario("RCHDroid (shadow-state)", true)
}

func runScenario(label string, installRCHDroid bool) {
	w := device.New(device.Spec{
		App: func() *app.App {
			return benchapp.New(benchapp.Config{
				Images:    4,
				TaskDelay: 400 * time.Millisecond, // "loads an image from the network"
			})
		},
		Settle: time.Second,
	}, 0, func(w *device.World) {
		if installRCHDroid {
			core.Install(w.Sys, w.Proc, core.DefaultOptions())
		}
	})
	sched, system, proc := w.Sched, w.Sys, w.Proc

	fmt.Printf("── %s ──\n", label)
	fmt.Println("user taps the refresh button; AsyncTask starts (400 ms)")
	benchapp.TouchButton(proc)
	sched.Advance(100 * time.Millisecond)

	fmt.Println("user rotates the device while the task is running…")
	system.PushConfiguration(config.Portrait())
	sched.Advance(2 * time.Second) // task returns in here

	if proc.Crashed() {
		fmt.Printf("✗ APP CRASHED: %v\n", proc.CrashCause())
		return
	}
	fg := proc.Thread().ForegroundActivity()
	fmt.Printf("✓ app alive; foreground is %v under %v; %d/4 images show the fresh drawable\n",
		fg.State(), fg.Config().Orientation, benchapp.ImagesLoaded(fg))
}
