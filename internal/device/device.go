// Package device is the one way to build a simulated device world:
// scheduler, cost model, system server, app process, launched and
// settled. Every runner (oracle, experiments, explore, monkey, sweeps,
// the fleet) constructs worlds through New, so the pre-chaos world is
// defined once: built, launched and settled with nothing armed. Chaos,
// change handlers, guards and tracers arm at exactly that post-settle
// point, through ArmFunc. Worlds share only what is read-only: the cost
// model and, when a Spec's App factory returns the same app each time
// (Shared), the app definition.
package device

import (
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/bundle"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/sim"
)

// Spec describes the pre-chaos world: which app to install, under which
// cost model, and how long to let the cold launch settle. Specs must be
// reusable: the App factory is called once per build and must return a
// self-contained app whose callbacks touch only the activity instance
// they are handed — true of every app in this repo. The factory may
// return one shared app to every world it builds: an app is read-only
// once constructed (relaunches and concurrent workers resolve through
// the same resource table and activity classes), so nobody may mutate an
// app after its factory returns it.
type Spec struct {
	// App returns the application to install, freshly built or shared.
	App func() *app.App
	// Model is the cost model (nil uses costmodel.Default()). Shared
	// read-only across every world built from the spec.
	Model *costmodel.Model
	// Settle is how long to advance the clock after the cold launch
	// (default 2s — launch plus drain for every app in the repo).
	Settle time.Duration
	// Profile arms the process's profiler records (app.Process.Profile):
	// a tracer whose UI-thread work gives the CPU series, and the memory
	// series. It runs before the launch, so both cover the boot. Only
	// rigs that read those records set it; a process Launch boots later
	// is not profiled.
	Profile bool
}

// Shared returns the spec whose every world installs def, an app its
// caller built once. An app is read-only once built, so the worlds of
// any number of seeds, arms, relaunches, workers and shards may share it.
func Shared(def *app.App) Spec {
	return Spec{App: func() *app.App { return def }}
}

func (s Spec) settle() time.Duration {
	if s.Settle > 0 {
		return s.Settle
	}
	return 2 * time.Second
}

func (s Spec) model() *costmodel.Model {
	if s.Model != nil {
		return s.Model
	}
	return costmodel.Default()
}

// ArmFunc arms a settled world for its run: chaos plan, change handler
// (core.Install), guard, tracer, metrics. It runs once the cold launch
// has settled, before anything else touches the world. The device
// package cannot import internal/core (core's own tests reach the
// oracle, which builds worlds here), so handler installation always
// arrives through this closure.
type ArmFunc func(*World)

// World is one booted device: the wired handles every runner needs.
type World struct {
	Sched *sim.Scheduler
	Model *costmodel.Model
	Sys   *atms.ATMS
	Proc  *app.Process
	// Token is the root activity record's token.
	Token int
	// Seed is the seed this world was built for (0 for seedless rigs).
	Seed uint64
}

// New builds, launches and settles a fresh world, then arms it.
func New(spec Spec, seed uint64, arm ArmFunc) *World {
	sched := sim.NewScheduler()
	model := spec.model()
	sys := atms.New(sched, model)
	proc := app.NewProcess(sched, model, spec.App())
	if spec.Profile {
		proc.Profile()
	}
	token := sys.LaunchApp(proc)
	sched.Advance(spec.settle())
	w := &World{Sched: sched, Model: model, Sys: sys, Proc: proc, Token: token, Seed: seed}
	if arm != nil {
		arm(w)
	}
	return w
}

// Launch boots a fresh process for def and schedules its launch with the
// system-held instance state (nil = cold start): a relaunch after a kill
// passes the killed process's own app, a second app on the device its
// definition. arm runs before the launch is scheduled — the same point
// the kill paths re-install handlers and fault injectors. The world's
// Proc becomes the new process.
func (w *World) Launch(def *app.App, saved *bundle.Bundle, arm func(*app.Process)) *app.Process {
	p := app.NewProcess(w.Sched, w.Model, def)
	if arm != nil {
		arm(p)
	}
	w.Sys.LaunchAppWithState(p, saved)
	w.Proc = p
	return p
}

// TemplateCache exists only for perfbench, which still calls it. It is
// stateless, and Fork is a fresh New. ROADMAP item 4's benchmark change
// removes perfbench's calls, and with them device.fork_us_p50, which
// until then times a second fresh build; it then deletes this shim.
// Nothing else may call it.
type TemplateCache struct{}

// NewTemplateCache returns the stateless shim; see TemplateCache.
func NewTemplateCache() *TemplateCache { return &TemplateCache{} }

// Fork returns New(spec, seed, arm) and ignores key; see TemplateCache.
func (*TemplateCache) Fork(_ string, spec Spec, seed uint64, arm ArmFunc) *World {
	return New(spec, seed, arm)
}
