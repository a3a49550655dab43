package core

import (
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/trace"
)

// GCConfig holds the threshold-based garbage-collection parameters of
// §3.5 / Algorithm 1.
type GCConfig struct {
	// ThreshT is THRESH_T: a shadow activity must have been in the shadow
	// state at least this long to be collectable. The paper's sweep
	// (Fig 11) picks 50 s as the optimal trade-off.
	ThreshT time.Duration
	// ThreshF is THRESH_F: a shadow activity entering the shadow state at
	// least this many times within Window is considered hot and kept.
	// The paper sets 4 per minute.
	ThreshF int
	// Window is the trailing period ("the last k seconds") over which
	// shadow_frequency is counted.
	Window time.Duration
	// Interval is how often the GC routine runs in the activity thread.
	Interval time.Duration
}

// DefaultGCConfig returns the paper's chosen parameters.
func DefaultGCConfig() GCConfig {
	return GCConfig{
		ThreshT:  50 * time.Second,
		ThreshF:  4,
		Window:   12 * time.Second,
		Interval: 5 * time.Second,
	}
}

// ThresholdGC implements doGcForShadowIfNeeded: a periodic routine in the
// activity thread that reclaims the shadow activity once it is both old
// (shadow_time > THRESH_T) and cold (shadow_frequency < THRESH_F).
type ThresholdGC struct {
	cfg      GCConfig
	migrator *Migrator
	armed    bool

	sweeps    int
	collected int

	// OnCollected, if set, observes each reclaimed shadow activity.
	OnCollected func(a *app.Activity)
}

// NewThresholdGC returns a GC with the given parameters.
func NewThresholdGC(cfg GCConfig, m *Migrator) *ThresholdGC {
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	return &ThresholdGC{cfg: cfg, migrator: m}
}

// Sweeps returns how many GC passes have run.
func (g *ThresholdGC) Sweeps() int { return g.sweeps }

// Collected returns how many shadow activities were reclaimed.
func (g *ThresholdGC) Collected() int { return g.collected }

// Arm starts the periodic routine if it is not already running. It is
// called whenever an activity enters the shadow state; the routine
// disarms itself when no shadow activity remains.
func (g *ThresholdGC) Arm(t *app.ActivityThread) {
	if g.armed {
		return
	}
	g.armed = true
	g.schedule(t)
}

func (g *ThresholdGC) schedule(t *app.ActivityThread) {
	sched := t.Process().Scheduler()
	sched.After(g.cfg.Interval, "rch:gcRoutine", func() {
		if t.Process().Crashed() {
			g.armed = false
			return
		}
		t.RunCharged("rch:doGcForShadowIfNeeded", func() time.Duration {
			g.sweep(t)
			return t.Process().Model().GCSweep
		})
		if g.armed {
			g.schedule(t)
		}
	})
}

// sweep is Algorithm 1: compare shadow_time and shadow_frequency against
// the thresholds and reclaim when both conditions hold.
func (g *ThresholdGC) sweep(t *app.ActivityThread) {
	g.sweeps++
	shadow := t.CurrentShadow()
	if shadow == nil || shadow.State() != app.StateShadow {
		g.armed = false
		return
	}
	now := t.Process().Scheduler().Now()
	shadowTime := shadow.ShadowTime(now)
	// shadow_frequency is expressed per minute (THRESH_F = 4/min in the
	// paper) but counted over the trailing Window, so short windows see
	// recent behaviour rather than a full stale minute.
	count := shadow.ShadowFrequency(now, g.cfg.Window)
	ratePerMin := float64(count) * float64(time.Minute) / float64(g.cfg.Window)
	collect := shadowTime > g.cfg.ThreshT && ratePerMin < float64(g.cfg.ThreshF)
	if tr, track := t.Trace(); tr.Enabled() {
		// Every Algorithm 1 evaluation lands on the timeline with its
		// inputs, so a missed (or premature) collection is diagnosable
		// from the trace alone.
		decision := "keep"
		switch {
		case shadow.AsyncInFlight() > 0:
			decision = "deferAsync"
		case collect:
			decision = "collect"
		}
		tr.Instant(track, "shadowGCEval", "rch",
			trace.Arg{Key: "decision", Val: decision},
			trace.Arg{Key: "shadowTime", Val: shadowTime},
			trace.Arg{Key: "threshT", Val: g.cfg.ThreshT},
			trace.Arg{Key: "ratePerMin", Val: ratePerMin},
			trace.Arg{Key: "threshF", Val: g.cfg.ThreshF})
	}
	if shadow.AsyncInFlight() > 0 {
		return // never reclaim under an in-flight task; retry next sweep
	}
	if collect {
		g.collected++
		if g.migrator != nil {
			g.migrator.RemoveHook(shadow)
		}
		// PerformDestroy clears the shadow pointer, settles the sunny
		// partner to Resumed and notifies the ATMS.
		t.PerformDestroy(shadow)
		if g.OnCollected != nil {
			g.OnCollected(shadow)
		}
		g.armed = false
	}
}
