// Coinflip demonstrates §3.4: after the first runtime change has created
// a sunny instance, every later change that returns to a configuration
// the coupled shadow instance was built for is served by flipping the two
// live instances — no allocation, no inflation, no mapping rebuild — and
// the handling time drops accordingly.
package main

import (
	"fmt"
	"time"

	"rchdroid/internal/benchapp"
	"rchdroid/internal/core"
	"rchdroid/internal/device"
)

func main() {
	var rch *core.RCHDroid
	spec := device.Shared(benchapp.New(benchapp.Config{Images: 16}))
	spec.Settle = time.Second
	w := device.New(spec, 0, func(w *device.World) {
		rch = core.Install(w.Sys, w.Proc, core.DefaultOptions())
	})
	sched, system, proc := w.Sched, w.Sys, w.Proc

	fmt.Println("rotating eight times; watch the first change pay for instance")
	fmt.Println("creation (RCHDroid-init) and every later one ride the coin flip:")
	fmt.Println()
	for i := 1; i <= 8; i++ {
		system.PushConfiguration(system.GlobalConfig().Rotated())
		sched.Advance(2 * time.Second)
		path := "coin flip"
		if rch.Handler.Flips()+rch.Handler.InitLaunches() == rch.Handler.InitLaunches() || i == 1 {
			path = "init (new sunny instance)"
		}
		fmt.Printf("  change %d: %6.2f ms  [%s]\n", i,
			float64(system.LastHandlingTime())/float64(time.Millisecond), path)
	}

	fmt.Println()
	fmt.Printf("instances alive: %d (they swap roles instead of being recreated)\n",
		len(proc.Thread().Activities()))
	fmt.Printf("starter stats: %d record created, %d coin flips, %d stack searches\n",
		rch.Policy.Creates(), rch.Policy.Flips(), rch.Policy.Searches())
	shadow, sunny := proc.Thread().CurrentShadow(), proc.Thread().CurrentSunny()
	fmt.Printf("current roles: #%d is Shadow (%v), #%d is Sunny (%v)\n",
		shadow.Token(), shadow.Config().Orientation,
		sunny.Token(), sunny.Config().Orientation)
}
