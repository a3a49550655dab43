// Package script provides a tiny scenario language for driving the
// simulated device from text — the reproduction's `adb shell` session.
// One command per line; '#' starts a comment. Commands:
//
//	wm size <W>x<H>      push a screen-size change (artifact appendix)
//	wm size reset        restore the default 1920x1080
//	rotate               rotate the current configuration
//	locale <tag>         switch language
//	night on|off         switch UI mode
//	touch                tap the benchmark app's update button
//	wait <dur>           advance virtual time (Go duration, e.g. 500ms)
//	back                 finish the top activity
//	front <package>      bring an app's task to the foreground
//	expect alive         fail if the foreground app crashed
//	expect crashed       fail unless the foreground app crashed
//	expect handled <n>   fail unless exactly n changes completed
//
// Scripts are deterministic: the same script always produces the same
// trace and the same measurements.
package script

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/config"
	"rchdroid/internal/sim"
)

// Env is the device a script runs against.
type Env struct {
	Sched *sim.Scheduler
	Sys   *atms.ATMS
	// Procs maps package names to their processes; Default is used by
	// commands that target "the app" (touch, expect).
	Procs   map[string]*app.Process
	Default *app.Process
}

// Step is one parsed command.
type Step struct {
	Line int
	Text string
	run  func(*Env) error
}

// Parse compiles a script into steps. Unknown commands are errors at
// parse time, carrying the line number.
func Parse(src string) ([]Step, error) {
	var steps []Step
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		text := strings.TrimSpace(raw)
		if idx := strings.IndexByte(text, '#'); idx >= 0 {
			text = strings.TrimSpace(text[:idx])
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		run, err := compile(fields)
		if err != nil {
			return nil, fmt.Errorf("script line %d: %w", line, err)
		}
		steps = append(steps, Step{Line: line, Text: text, run: run})
	}
	return steps, nil
}

func compile(fields []string) (func(*Env) error, error) {
	settle := func(e *Env) { e.Sched.Advance(2 * time.Second) }
	switch fields[0] {
	case "wm":
		if len(fields) != 3 || fields[1] != "size" {
			return nil, fmt.Errorf("usage: wm size <W>x<H> | wm size reset")
		}
		if fields[2] == "reset" {
			return func(e *Env) error {
				e.Sys.PushConfiguration(config.Default())
				settle(e)
				return nil
			}, nil
		}
		parts := strings.SplitN(fields[2], "x", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad size %q", fields[2])
		}
		w, errW := strconv.Atoi(parts[0])
		h, errH := strconv.Atoi(parts[1])
		if errW != nil || errH != nil || w <= 0 || h <= 0 {
			return nil, fmt.Errorf("bad size %q", fields[2])
		}
		return func(e *Env) error {
			e.Sys.PushConfiguration(e.Sys.GlobalConfig().Resized(w, h))
			settle(e)
			return nil
		}, nil
	case "rotate":
		return func(e *Env) error {
			e.Sys.PushConfiguration(e.Sys.GlobalConfig().Rotated())
			settle(e)
			return nil
		}, nil
	case "locale":
		if len(fields) != 2 {
			return nil, fmt.Errorf("usage: locale <tag>")
		}
		tag := fields[1]
		return func(e *Env) error {
			e.Sys.PushConfiguration(e.Sys.GlobalConfig().WithLocale(tag))
			settle(e)
			return nil
		}, nil
	case "night":
		if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
			return nil, fmt.Errorf("usage: night on|off")
		}
		mode := config.UIModeDay
		if fields[1] == "on" {
			mode = config.UIModeNight
		}
		return func(e *Env) error {
			e.Sys.PushConfiguration(e.Sys.GlobalConfig().WithUIMode(mode))
			settle(e)
			return nil
		}, nil
	case "touch":
		return func(e *Env) error {
			if e.Default == nil {
				return fmt.Errorf("no default app to touch")
			}
			benchapp.TouchButton(e.Default)
			e.Sched.Advance(50 * time.Millisecond)
			return nil
		}, nil
	case "wait":
		if len(fields) != 2 {
			return nil, fmt.Errorf("usage: wait <duration>")
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			return nil, fmt.Errorf("bad duration %q", fields[1])
		}
		return func(e *Env) error {
			e.Sched.Advance(d)
			return nil
		}, nil
	case "back":
		return func(e *Env) error {
			e.Sys.FinishTopActivity()
			settle(e)
			return nil
		}, nil
	case "front":
		if len(fields) != 2 {
			return nil, fmt.Errorf("usage: front <package>")
		}
		pkg := fields[1]
		return func(e *Env) error {
			e.Sys.MoveTaskToFront(pkg)
			settle(e)
			return nil
		}, nil
	case "expect":
		if len(fields) < 2 {
			return nil, fmt.Errorf("usage: expect alive|crashed|handled <n>")
		}
		switch fields[1] {
		case "alive":
			return func(e *Env) error {
				if e.Default != nil && e.Default.Crashed() {
					return fmt.Errorf("expected alive, but app crashed: %v", e.Default.CrashCause())
				}
				return nil
			}, nil
		case "crashed":
			return func(e *Env) error {
				if e.Default == nil || !e.Default.Crashed() {
					return fmt.Errorf("expected a crash, app is alive")
				}
				return nil
			}, nil
		case "handled":
			if len(fields) != 3 {
				return nil, fmt.Errorf("usage: expect handled <n>")
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("bad count %q", fields[2])
			}
			return func(e *Env) error {
				if got := e.Sys.HandlingCount(); got != n {
					return fmt.Errorf("expected %d handled changes, have %d", n, got)
				}
				return nil
			}, nil
		default:
			return nil, fmt.Errorf("unknown expectation %q", fields[1])
		}
	default:
		return nil, fmt.Errorf("unknown command %q", fields[0])
	}
}

// Run executes steps in order, stopping at the first failure; the error
// names the offending line.
func Run(env *Env, steps []Step) error {
	for _, s := range steps {
		if err := s.run(env); err != nil {
			return fmt.Errorf("script line %d (%s): %w", s.Line, s.Text, err)
		}
	}
	return nil
}
