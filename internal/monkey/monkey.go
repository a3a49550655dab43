// Package monkey is an event-injection tester in the spirit of the §7.1
// related work (AppDoctor, Dynodroid, Adamsen et al.): it drives an app
// with pseudo-random UI events interleaved with runtime configuration
// changes and watches for the restart-based failure modes — crashes and
// GUI state divergence. Pointed at stock Android it *finds* the issues;
// pointed at RCHDroid it serves as a robustness harness that must come
// back clean.
package monkey

import (
	"fmt"
	"strconv"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/config"
	"rchdroid/internal/sim"
	"rchdroid/internal/view"
)

// Options tune a monkey run.
type Options struct {
	// Events is how many events to inject (default 100).
	Events int
	// Seed drives the deterministic event stream.
	Seed uint64
	// ChangeBias is the per-event probability (in percent) of injecting a
	// configuration change instead of a UI event (default 25).
	ChangeBias int
}

// Outcome describes what a run observed.
type Outcome struct {
	// EventsInjected counts delivered events.
	EventsInjected int
	// ChangesInjected counts configuration changes among them.
	ChangesInjected int
	// Crashed reports whether the app process died.
	Crashed bool
	// CrashCause carries the fatal exception when Crashed.
	CrashCause error
	// CrashAfterEvents is the event index at death (-1 if alive).
	CrashAfterEvents int
}

// String renders the outcome as the fleet's burst replies carry it:
// "clean: N events (C changes)" or "CRASH after N events (C changes):
// cause".
func (o Outcome) String() string {
	var buf [96]byte
	b := buf[:0]
	n := o.EventsInjected
	if o.Crashed {
		b = append(b, "CRASH after "...)
		n = o.CrashAfterEvents
	} else {
		b = append(b, "clean: "...)
	}
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, " events ("...)
	b = strconv.AppendInt(b, int64(o.ChangesInjected), 10)
	b = append(b, " changes)"...)
	if o.Crashed {
		b = fmt.Append(append(b, ": "...), o.CrashCause)
	}
	return string(b)
}

// Run injects events into the foreground app of sys until the budget is
// spent or the app dies.
func Run(sched *sim.Scheduler, sys *atms.ATMS, proc *app.Process, opts Options) Outcome {
	if opts.Events <= 0 {
		opts.Events = 100
	}
	if opts.ChangeBias <= 0 {
		opts.ChangeBias = 25
	}
	return run(sched, sys, proc, opts, sim.NewRNG(opts.Seed*0x9E3779B9+1))
}

// run is Run with its defaults applied and its event stream's generator
// made.
func run(sched *sim.Scheduler, sys *atms.ATMS, proc *app.Process, opts Options, rng *sim.RNG) Outcome {
	out := Outcome{CrashAfterEvents: -1}

	for i := 0; i < opts.Events; i++ {
		if proc.Crashed() {
			out.Crashed = true
			out.CrashCause = proc.CrashCause()
			out.CrashAfterEvents = i
			return out
		}
		out.EventsInjected++
		if rng.Intn(100) < opts.ChangeBias {
			out.ChangesInjected++
			injectChange(sched, sys, rng)
			continue
		}
		injectUIEvent(sched, proc, rng)
	}
	sched.Advance(2 * time.Second)
	if proc.Crashed() {
		out.Crashed = true
		out.CrashCause = proc.CrashCause()
		out.CrashAfterEvents = out.EventsInjected
	}
	return out
}

func injectChange(sched *sim.Scheduler, sys *atms.ATMS, rng *sim.RNG) {
	cfg := sys.GlobalConfig()
	switch rng.Intn(4) {
	case 0:
		cfg = cfg.Rotated()
	case 1:
		cfg = cfg.Resized(800+rng.Intn(1600), 600+rng.Intn(1400))
	case 2:
		locales := []string{"en-US", "fr-FR", "ja-JP"}
		cfg = cfg.WithLocale(locales[rng.Intn(len(locales))])
	case 3:
		if cfg.UIMode == config.UIModeDay {
			cfg = cfg.WithUIMode(config.UIModeNight)
		} else {
			cfg = cfg.WithUIMode(config.UIModeDay)
		}
	}
	sys.PushConfiguration(cfg)
	// Deliberately small settles: some changes land while handling or
	// async work is still in flight, which is where the bugs live.
	sched.Advance(time.Duration(20+rng.Intn(400)) * time.Millisecond)
}

// injectUIEvent taps one widget of the foreground activity. It draws
// the widget kind first (0 Button, 1 EditText, 2 CheckBox, 3 SeekBar,
// 4 ListView) and collects only the widgets of that kind — fresh each
// time, since instances change across restarts. The tap is posted to the
// app's looper and taps the instances collected here, so one that lands
// after a relaunch hits a released view, as a real stale tap would.
func injectUIEvent(sched *sim.Scheduler, proc *app.Process, rng *sim.RNG) {
	fg := proc.Thread().ForegroundActivity()
	if fg == nil {
		sched.Advance(100 * time.Millisecond)
		return
	}
	var tap func()
	switch rng.Intn(5) {
	case 0:
		buttons := collect[*view.Button](fg.Decor())
		tap = func() {
			if len(buttons) > 0 {
				buttons[rng.Intn(len(buttons))].Click()
			}
		}
	case 1:
		edits := collect[*view.EditText](fg.Decor())
		tap = func() {
			if len(edits) > 0 {
				edits[rng.Intn(len(edits))].Type("x")
			}
		}
	case 2:
		checks := collect[*view.CheckBox](fg.Decor())
		tap = func() {
			if len(checks) > 0 {
				c := checks[rng.Intn(len(checks))]
				c.SetChecked(!c.Checked())
			}
		}
	case 3:
		seeks := collect[*view.SeekBar](fg.Decor())
		tap = func() {
			if len(seeks) > 0 {
				seeks[rng.Intn(len(seeks))].SetProgress(rng.Intn(101))
			}
		}
	default:
		lists := collect[*view.ListView](fg.Decor())
		tap = func() {
			if len(lists) > 0 {
				l := lists[rng.Intn(len(lists))]
				if len(l.Items()) > 0 {
					l.PositionSelector(rng.Intn(len(l.Items())))
				}
			}
		}
	}
	proc.PostApp("monkey:event", time.Millisecond, tap)
	sched.Advance(time.Duration(10+rng.Intn(100)) * time.Millisecond)
}

// collect returns the views of type T in root's tree, in tree order, in
// a slice of exactly their number (nil when there are none).
func collect[T view.View](root view.View) []T {
	n := 0
	view.Walk(root, func(v view.View) bool {
		if _, ok := v.(T); ok {
			n++
		}
		return true
	})
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	view.Walk(root, func(v view.View) bool {
		if w, ok := v.(T); ok {
			out = append(out, w)
		}
		return true
	})
	return out
}
