// Gcpolicy explores the threshold-based shadow-activity GC of §3.5: it
// sweeps THRESH_T over the paper's burst workload (six changes per
// minute, Fig 11) and prints the latency / CPU / memory trade-off, then
// demonstrates a single collection live.
package main

import (
	"fmt"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/core"
	"rchdroid/internal/device"
	"rchdroid/internal/experiments"
)

func main() {
	fmt.Println(experiments.FormatResult(experiments.Fig11()))

	fmt.Println("live demonstration of one collection (THRESH_T = 50 s):")
	var rch *core.RCHDroid
	spec := device.Shared(benchapp.New(benchapp.Config{Images: 8}))
	spec.Settle = time.Second
	w := device.New(spec, 0, func(w *device.World) {
		rch = core.Install(w.Sys, w.Proc, core.DefaultOptions())
		rch.GC.OnCollected = func(a *app.Activity) {
			fmt.Printf("  [%v] GC reclaimed shadow activity #%d (%d sweeps so far)\n",
				w.Sched.Now(), a.Token(), rch.GC.Sweeps())
		}
	})
	sched, system, proc := w.Sched, w.Sys, w.Proc

	system.PushConfiguration(system.GlobalConfig().Rotated())
	sched.Advance(time.Second)
	fmt.Printf("  [%v] after one change: shadow alive, memory %.2f MB\n",
		sched.Now(), proc.Memory().CurrentMB())

	sched.Advance(80 * time.Second) // idle: age passes THRESH_T, frequency decays
	fmt.Printf("  [%v] after 80 s idle: shadow=%v, memory %.2f MB\n",
		sched.Now(), rch.Handler.Migrator() != nil && proc.Thread().CurrentShadow() != nil,
		proc.Memory().CurrentMB())

	system.PushConfiguration(system.GlobalConfig().Rotated())
	sched.Advance(time.Second)
	fmt.Printf("  [%v] next change after GC pays the init path again: %.2f ms "+
		"(init launches: %d, flips: %d)\n",
		sched.Now(),
		float64(system.LastHandlingTime())/float64(time.Millisecond),
		rch.Handler.InitLaunches(), rch.Handler.Flips())
}
