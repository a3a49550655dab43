// Package device is the one way to build a simulated device world:
// scheduler, cost model, system server, app process — launched and
// settled. Every runner (oracle, experiments, explore, monkey, sweeps)
// constructs worlds through it, which is what makes the snapshot/fork
// facility sound: the pre-chaos world is defined as "built + launched +
// settled with nothing armed", and both the fresh-build path (New) and
// the fork path (NewTemplate + Template.Fork) arm chaos/handlers/tracers
// at exactly the same post-settle point, through the same ArmFunc. A
// forked world is therefore indistinguishable — event order, looper
// sequence numbers, RNG streams, counters — from a freshly built one,
// and per-seed cost is proportional to the chaos, not the world.
package device

import (
	"sync"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/bundle"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/sim"
)

// Spec describes the pre-chaos world: which app to install, under which
// cost model, and how long to let the cold launch settle. Specs must be
// reusable: the App factory is called once per fresh build (and once per
// template) and must return a self-contained app whose callbacks touch
// only the activity instance they are handed — true of every app in this
// repo. The factory may return one shared app to every world it builds:
// an app is read-only once constructed (forks, relaunches and concurrent
// workers resolve through the same resource table and activity classes),
// so nobody may mutate an app after its factory returns it.
type Spec struct {
	// App returns the application to install, freshly built or shared.
	App func() *app.App
	// Model is the cost model (nil uses costmodel.Default()). Shared
	// read-only across every world built from the spec.
	Model *costmodel.Model
	// Settle is how long to advance the clock after the cold launch
	// (default 2s — launch plus drain for every app in the repo).
	Settle time.Duration
	// Profile attaches the process's profiler meters (app.Process.Profile)
	// before the launch, so the CPU and memory series cover the boot.
	// Only rigs that read those series set it; a profiled world cannot be
	// forked, and a process Relaunch boots after a kill is not profiled.
	Profile bool
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
// (core.Install), guard, tracer, metrics. It runs at the same point on
// both the fresh and the fork path. The device package cannot import
// internal/core (core's own tests reach the oracle, which builds worlds
// here), so handler installation always arrives through this closure.
type ArmFunc func(*World)

// World is one booted device: the wired handles every runner needs.
type World struct {
	Sched *sim.Scheduler
	Model *costmodel.Model
	Sys   *atms.ATMS
	Proc  *app.Process
	// Token is the root activity record's token.
	Token int
	// Seed is the seed this world was built or forked for (0 for
	// templates and seedless rigs).
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

// Relaunch boots a fresh process for the world's app after a kill and
// schedules its launch with the system-held instance state (nil = cold
// start). rearm runs before the launch is scheduled — the same point the
// kill paths re-install handlers and fault injectors today. The world's
// Proc is updated to the new process.
func (w *World) Relaunch(saved *bundle.Bundle, rearm func(*app.Process)) *app.Process {
	p := app.NewProcess(w.Sched, w.Model, w.Proc.App())
	if rearm != nil {
		rearm(p)
	}
	w.Sys.LaunchAppWithState(p, saved)
	w.Proc = p
	return p
}

// Template is an immutable snapshot of a settled pre-chaos world. It is
// produced by NewTemplate and never advanced again; Fork stamps out
// isolated copies. Templates are safe for concurrent Fork calls — every
// fork only reads the base world.
type Template struct {
	base *World
}

// NewTemplate builds and settles the spec's world once and validates it
// is forkable (quiescent scheduler and loopers, no pending async work,
// no armed hooks, every view and extra deep-copyable). An error means
// worlds of this spec must be built fresh per seed.
func NewTemplate(spec Spec) (*Template, error) {
	t := &Template{base: New(spec, 0, nil)}
	// A trial fork exercises every copy precondition up front; the base
	// world never runs again, so later forks cannot fail differently.
	if _, err := t.Fork(0, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// Fork stamps out an isolated world for seed and arms it. Mutable state
// — scheduler counters, loopers, process, activity instances, view
// trees, the memory count, stack records — is deep-copied; the cost
// model and the app definition are shared read-only.
func (t *Template) Fork(seed uint64, arm ArmFunc) (*World, error) {
	sched, err := t.base.Sched.Fork()
	if err != nil {
		return nil, err
	}
	proc, err := app.ForkProcess(t.base.Proc, sched)
	if err != nil {
		return nil, err
	}
	sys, err := t.base.Sys.Fork(sched, map[*app.Process]*app.Process{t.base.Proc: proc})
	if err != nil {
		return nil, err
	}
	w := &World{Sched: sched, Model: t.base.Model, Sys: sys, Proc: proc, Token: t.base.Token, Seed: seed}
	if arm != nil {
		arm(w)
	}
	return w, nil
}

// TemplateCache builds at most one template per key and forks per-seed
// worlds from it, falling back to fresh builds for specs that turn out
// unforkable. It is safe for concurrent use by sweep workers and serve
// shards.
type TemplateCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

// cacheEntry is one key's build slot. The once gate means exactly one
// caller builds the template while same-key callers wait on it — and,
// unlike holding the cache lock across the build, callers for *other*
// keys are never serialized behind it. tpl stays nil when the spec is
// unforkable, which doubles as the don't-retry marker.
type cacheEntry struct {
	once sync.Once
	tpl  *Template
}

// NewTemplateCache returns an empty cache.
func NewTemplateCache() *TemplateCache {
	return &TemplateCache{entries: make(map[string]*cacheEntry)}
}

// Fork returns a world for (key, seed): forked from the key's template
// when the spec is forkable, built fresh otherwise. The first call for a
// key builds and settles the template; concurrent callers for the same
// key wait for it rather than building twice, and callers for other
// keys proceed independently.
func (c *TemplateCache) Fork(key string, spec Spec, seed uint64, arm ArmFunc) *World {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		if t, err := NewTemplate(spec); err == nil {
			e.tpl = t
		}
	})
	if e.tpl == nil {
		return New(spec, seed, arm)
	}
	w, err := e.tpl.Fork(seed, arm)
	if err != nil {
		// Cannot happen after NewTemplate's trial fork, but stay honest.
		return New(spec, seed, arm)
	}
	return w
}
