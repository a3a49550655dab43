package oracle

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/config"
)

// ScriptLine is one command of a .rch script: its source line, its text
// (comment and surrounding blanks stripped) and the step it runs. An
// expect line also carries the check its caller makes at its edge.
type ScriptLine struct {
	Line int
	Text string
	Step Step
	// check and n are an expect line's assertion and handled count.
	check checkKind
	n     int
}

// checkKind is what an expect line asserts; the zero value asserts
// nothing.
type checkKind uint8

const (
	checkAlive checkKind = iota + 1
	checkCrashed
	checkHandled
)

// ParseScript parses a .rch scenario script — the reproduction's `adb
// shell` session, replayed by rchsim — into steps of the scenario
// language. One command per line; '#' starts a comment and blank lines
// are skipped:
//
//	wm size <W>x<H>      push a screen size of the resize table
//	wm size reset        push the default size 1920x1080 (size only)
//	rotate               rotate the current configuration
//	locale <tag>         switch language
//	night on|off         switch UI mode
//	touch                click the benchmark app's update button
//	wait <dur>           advance virtual time (Go duration, e.g. 500ms)
//	back                 finish the top activity
//	expect alive         fail if the app crashed
//	expect crashed       fail unless the app crashed
//	expect handled <n>   fail unless exactly n changes completed
//
// Runtime changes and back settle 2 s, a touch 50 ms. An expect line is
// an idle step with no settle; its caller makes the check (Check) at the
// line's edge. An error names its line: "script line N: ...".
func ParseScript(src string) ([]ScriptLine, error) {
	var lines []ScriptLine
	for i, raw := range strings.Split(src, "\n") {
		text, _, _ := strings.Cut(raw, "#")
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		l := ScriptLine{Line: i + 1, Text: text}
		if err := l.parse(strings.Fields(text)); err != nil {
			return nil, fmt.Errorf("script line %d: %w", l.Line, err)
		}
		lines = append(lines, l)
	}
	return lines, nil
}

func (l *ScriptLine) parse(f []string) error {
	const settle = 2 * time.Second
	switch f[0] {
	case "rotate":
		l.Step = Step{Kind: StepRotate, Settle: settle}
	case "back":
		l.Step = Step{Kind: StepBack, Settle: settle}
	case "touch":
		l.Step = Step{Kind: StepClick, ID: benchapp.ButtonID, Settle: 50 * time.Millisecond}
	case "wm":
		if len(f) != 3 || f[1] != "size" {
			return errors.New("usage: wm size <W>x<H> | wm size reset")
		}
		sizes := make([]string, len(resizeTable))
		for i, sz := range resizeTable {
			sizes[i] = strconv.Itoa(sz[0]) + "x" + strconv.Itoa(sz[1])
		}
		n := slices.Index(sizes, f[2])
		if f[2] == "reset" {
			n = slices.Index(sizes, "1920x1080")
		}
		if n < 0 {
			return fmt.Errorf("unknown size %q (known: %s)", f[2], strings.Join(sizes, ", "))
		}
		l.Step = Step{Kind: StepResize, N: n, Settle: settle}
	case "locale":
		if len(f) != 2 {
			return errors.New("usage: locale <tag>")
		}
		l.Step = Step{Kind: StepLocale, Text: f[1], Settle: settle}
	case "night":
		if len(f) != 2 || (f[1] != "on" && f[1] != "off") {
			return errors.New("usage: night on|off")
		}
		mode := config.UIModeDay
		if f[1] == "on" {
			mode = config.UIModeNight
		}
		l.Step = Step{Kind: StepNight, N: int(mode), Settle: settle}
	case "wait":
		if len(f) != 2 {
			return errors.New("usage: wait <duration>")
		}
		d, err := time.ParseDuration(f[1])
		if err != nil || d < 0 {
			return fmt.Errorf("bad duration %q", f[1])
		}
		l.Step = Step{Kind: StepIdle, Settle: d}
	case "expect":
		l.Step = Step{Kind: StepIdle}
		switch {
		case len(f) == 2 && f[1] == "alive":
			l.check = checkAlive
		case len(f) == 2 && f[1] == "crashed":
			l.check = checkCrashed
		case len(f) == 3 && f[1] == "handled":
			n, err := strconv.Atoi(f[2])
			if err != nil || n < 0 {
				return fmt.Errorf("bad count %q", f[2])
			}
			l.check, l.n = checkHandled, n
		default:
			return errors.New("usage: expect alive|crashed|handled <n>")
		}
	default:
		return fmt.Errorf("unknown command %q", f[0])
	}
	return nil
}

// Check makes an expect line's check against the app's process and its
// system server; any other line passes. The error names the line.
func (l *ScriptLine) Check(sys *atms.ATMS, proc *app.Process) error {
	var err error
	switch {
	case l.check == checkAlive && proc.Crashed():
		err = fmt.Errorf("expected alive, but app crashed: %v", proc.CrashCause())
	case l.check == checkCrashed && !proc.Crashed():
		err = errors.New("expected a crash, app is alive")
	case l.check == checkHandled && sys.HandlingCount() != l.n:
		err = fmt.Errorf("expected %d handled changes, have %d", l.n, sys.HandlingCount())
	default:
		return nil
	}
	return fmt.Errorf("script line %d (%s): %w", l.Line, l.Text, err)
}
