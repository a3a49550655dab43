// Package core implements RCHDroid, the paper's contribution: transparent
// runtime-change handling for Android apps at the system level.
//
// The package plugs into the two seams the substrates expose, mirroring
// where the 348-LoC Android patch lands (Table 2):
//
//   - the activity thread's ChangeHandler (ActivityThread's
//     performActivityConfigurationChanged / performLaunchActivity /
//     handleResumeActivity modifications) — ShadowHandler here;
//   - the ATMS starter's StarterPolicy (ActivityStarter's
//     startActivityUnchecked / setTaskFromIntentActivity modifications) —
//     CoinFlipPolicy here;
//   - the View invalidate hook (View.invalidate modification) — Migrator
//     here;
//   - the activity thread's GC routine (doGcForShadowIfNeeded) —
//     ThresholdGC here.
//
// Install wires all four onto a process and its system server, at the
// post-settle arming point of a world device.New builds:
//
//	var rch *core.RCHDroid
//	w := device.New(device.Shared(myApp), 0, func(w *device.World) {
//		rch = core.Install(w.Sys, w.Proc, core.DefaultOptions())
//	})
//	w.Sys.PushConfiguration(config.Portrait()) // no restart, no state loss
package core
