// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5 and §6). Each driver builds the workload, runs
// it on the discrete-event simulator under both handling schemes, and
// returns a typed result whose Rows/Summary render the same series the
// paper reports. The cmd/rchbench binary and the repository's benchmarks
// are thin wrappers over these drivers.
package experiments

import (
	"fmt"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/config"
	"rchdroid/internal/core"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/device"
	"rchdroid/internal/sim"
)

// Mode selects the runtime-change handling scheme under test.
type Mode int

// Modes.
const (
	// ModeStock is unmodified Android 10 (restart-based handling).
	ModeStock Mode = iota
	// ModeRCHDroid is the paper's system.
	ModeRCHDroid
)

func (m Mode) String() string {
	if m == ModeRCHDroid {
		return "RCHDroid"
	}
	return "Android-10"
}

// RigSpec describes one booted experiment device. It folds what used to
// be NewRigWithOptions's positional arguments (application, mode, cost
// model, core options) into the device.Spec shape, so every experiment
// builds its world the same way the oracle and sweeps do.
type RigSpec struct {
	// App is the application to install.
	App *app.App
	// Mode selects the change-handling scheme (ModeStock default).
	Mode Mode
	// Model is the cost model (nil uses costmodel.Default()).
	Model *costmodel.Model
	// Core overrides RCHDroid's options (nil uses core.DefaultOptions());
	// only consulted in ModeRCHDroid.
	Core *core.Options
	// Profile arms the profiler records from boot (device.Spec.Profile):
	// the process's trace, whose UI-thread work (looper.Work) gives the
	// CPU windows and busy times, and the memory series. Only the figures
	// that read them set it.
	Profile bool
}

// Rig is one booted device: the world plus the RCHDroid handle when the
// mode installed one.
type Rig struct {
	*device.World
	RCH *core.RCHDroid // nil in stock mode
}

// NewRig boots a device running application under the given mode with
// the default cost model and options.
func NewRig(application *app.App, mode Mode) *Rig {
	return BootRig(RigSpec{App: application, Mode: mode})
}

// BootRig builds, launches and settles the spec's device through the
// device builder, installing RCHDroid at the post-settle arming point in
// ModeRCHDroid.
func BootRig(s RigSpec) *Rig {
	opts := core.DefaultOptions()
	if s.Core != nil {
		opts = *s.Core
	}
	r := &Rig{}
	r.World = device.New(device.Spec{
		App:     func() *app.App { return s.App },
		Model:   s.Model,
		Settle:  3 * time.Second,
		Profile: s.Profile,
	}, 0, func(w *device.World) {
		if s.Mode == ModeRCHDroid {
			r.RCH = core.Install(w.Sys, w.Proc, opts)
		}
	})
	return r
}

// Change pushes a configuration change and runs the simulation until the
// handling completes, returning its latency.
func (r *Rig) Change(cfg config.Configuration) (time.Duration, error) {
	before := r.Sys.HandlingCount()
	r.Sys.PushConfiguration(cfg)
	r.Sched.Advance(3 * time.Second)
	if r.Sys.HandlingCount() != before+1 {
		if r.Proc.Crashed() {
			return 0, fmt.Errorf("experiments: app crashed during handling: %w", r.Proc.CrashCause())
		}
		return 0, fmt.Errorf("experiments: handling did not complete")
	}
	return r.Sys.LastHandlingTime(), nil
}

// Rotate alternates between landscape and portrait starting from the
// current global configuration.
func (r *Rig) Rotate() (time.Duration, error) {
	return r.Change(r.Sys.GlobalConfig().Rotated())
}

// MemoryMB samples the app's reported memory footprint.
func (r *Rig) MemoryMB() float64 { return r.Proc.Memory().CurrentMB() }

// ms converts to the float milliseconds used in reports.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// simTime converts a duration-since-start into a point on the virtual
// timeline.
func simTime(d time.Duration) sim.Time { return sim.Time(d) }

// mean averages a float slice (0 for empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Result is the common shape every experiment driver returns.
type Result interface {
	// Title names the table/figure ("Figure 7", …).
	Title() string
	// Header returns the column names.
	Header() []string
	// Rows returns the data rows, formatted.
	Rows() [][]string
	// Summary returns the headline comparison the paper states in prose.
	Summary() string
}

// FormatResult renders a result as an aligned text table.
func FormatResult(r Result) string {
	head := r.Header()
	rows := r.Rows()
	widths := make([]int, len(head))
	for i, h := range head {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	out := "== " + r.Title() + " ==\n"
	line := ""
	for i, h := range head {
		line += pad(h, widths[i]) + "  "
	}
	out += line + "\n"
	for _, row := range rows {
		line = ""
		for i, cell := range row {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			line += pad(cell, w) + "  "
		}
		out += line + "\n"
	}
	out += r.Summary() + "\n"
	return out
}

func pad(s string, w int) string {
	for len(s) < w {
		s += " "
	}
	return s
}
