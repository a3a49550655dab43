package serve

import (
	"fmt"

	"rchdroid/internal/app"
	"rchdroid/internal/bundle"
	"rchdroid/internal/config"
	"rchdroid/internal/device"
	"rchdroid/internal/oracle"
	"rchdroid/internal/resources"
	"rchdroid/internal/sweep"
	"rchdroid/internal/view"
)

// Device spec names accepted on the wire.
const (
	// SpecOracle is the full probe app (default).
	SpecOracle = "oracle"
	// SpecPanicRelaunch is the chaos-storm spec: it boots and settles
	// cleanly, then panics (a real Go panic, not a simulated crash) the
	// first time it is re-created with saved state — which is exactly
	// what a stock-handled rotation does. It exists to prove shard
	// containment: one of these must never take its shard down.
	SpecPanicRelaunch = "panic-on-relaunch"
)

// Handler names accepted on the wire.
const (
	HandlerRCH     = "rch"
	HandlerGuarded = "guarded"
	HandlerStock   = "stock"
)

// specTable maps each wire spec name to the device spec a boot builds
// from. Each spec's app is built once, with the table, and every device
// booted from the spec installs that read-only definition, so a fleet
// holds one app per spec rather than one per device. Each Server owns
// its table: the package keeps no package-level state (forksafety).
type specTable map[string]device.Spec

func newSpecTable() specTable {
	return specTable{
		SpecOracle:        device.Shared(oracle.OracleApp(4)),
		SpecPanicRelaunch: device.Shared(panicRelaunchApp()),
	}
}

// spec resolves a wire spec name; empty means SpecOracle.
func (t specTable) spec(name string) (device.Spec, error) {
	if spec, ok := t[orDefault(name, SpecOracle)]; ok {
		return spec, nil
	}
	return device.Spec{}, fmt.Errorf("unknown device spec %q (want %s or %s)", name, SpecOracle, SpecPanicRelaunch)
}

// installerFor resolves a wire handler name to a fresh installer from
// the sweeps' handler table; a stock installer arms nothing. Resident
// devices arm with a nil obs shard and a nil chaos plan on purpose:
// their metrics would be request-stream-derived, and the canonical
// (sim-domain) dump must carry only what canary seeds record — that is
// what keeps it byte-identical to an rchsweep dump. Fleet-level guard
// visibility comes from the installer's Guard getter instead: the shard
// folds guard degradation deltas into wall-domain counters after each
// drive. Installers are stateful (the getter), so each boot needs its
// own.
func installerFor(handler string) (oracle.Installer, error) {
	switch handler {
	case "", HandlerRCH:
		return sweep.RCHInstallerObs(nil), nil
	case HandlerGuarded:
		return sweep.GuardedInstallerObs(nil), nil
	case HandlerStock:
		return oracle.Installer{Name: "Android-10"}, nil
	}
	return oracle.Installer{}, fmt.Errorf("unknown handler %q (want %s, %s or %s)", handler, HandlerRCH, HandlerGuarded, HandlerStock)
}

// panicRelaunchApp builds the deliberately faulty app: a minimal layout
// plus an OnCreate that panics when handed saved state. The cold launch
// passes nil, so boot settles clean; the first stock-routed relaunch
// (rotation under HandlerStock) re-creates with a non-nil bundle and
// blows up with a plain Go panic that unwinds through the scheduler into
// the shard's containment recover.
func panicRelaunchApp() *app.App {
	res := resources.NewTable()
	layout := func() *view.Spec {
		return view.Linear(1, view.Edit(11, ""))
	}
	res.Put("layout/main", resources.Qualifiers{Orientation: config.OrientationLandscape}, layout())
	res.Put("layout/main", resources.Qualifiers{Orientation: config.OrientationPortrait}, layout())

	cls := &app.ActivityClass{Name: "PanicOnRelaunch"}
	cls.Callbacks.OnCreate = func(a *app.Activity, saved *bundle.Bundle) {
		if saved != nil {
			panic("panic-on-relaunch: OnCreate with saved state")
		}
		a.SetContentView("layout/main")
	}
	return &app.App{Name: "panicapp", Resources: res, Main: cls}
}
