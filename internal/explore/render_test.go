package explore

import (
	"fmt"
	"strings"
	"testing"

	"rchdroid/internal/guard"
	"rchdroid/internal/oracle"
)

// fmtSummary is Verdict.Summary's fmt rendering, the reference the
// strconv renderer must reproduce byte for byte.
func fmtSummary(v *Verdict) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "idx=%d sched=%s stock[crashed=%v loss=%d] rch[crashed=%v applied=%d handlings=%d inj=%d]",
		v.Index, fmtSchedule(v.Schedule), v.Stock.Crashed, len(v.Stock.Losses),
		v.RCH.Crashed, v.RCH.Applied, v.RCH.Handlings, v.RCH.Injections)
	if len(v.Stock.Losses) > 0 {
		fmt.Fprintf(&sb, " stockLoss{%s}", oracle.FormatTally(oracle.TallyLosses(v.Stock.Losses)))
	}
	if g := v.RCH.Guard; g.Enabled {
		fmt.Fprintf(&sb, " guard[quarantines=%d recoveries=%d]", g.Quarantines, g.Recoveries)
	}
	return sb.String()
}

// fmtSchedule is Schedule.String's fmt rendering.
func fmtSchedule(s Schedule) string {
	parts := make([]string, len(s))
	for i, sl := range s {
		parts[i] = fmt.Sprintf("e%d:%s", sl.Edge, sl.Action)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func TestScheduleStringMatchesFmt(t *testing.T) {
	for _, s := range []Schedule{
		nil,
		{},
		{{Edge: 0, Action: ActConfig}},
		{{Edge: 1, Action: ActKill}, {Edge: 4, Action: ActAsync}, {Edge: 9, Action: ActFlush}},
		{{Edge: 12, Action: ActConfig}, {Edge: 305, Action: ActKill}},
		{{Edge: 3, Action: Action(7)}},
	} {
		if got, want := s.String(), fmtSchedule(s); got != want {
			t.Errorf("Schedule%v.String() = %q, fmt renders %q", []Slot(s), got, want)
		}
		for _, sl := range s {
			if got, want := sl.String(), fmt.Sprintf("e%d:%s", sl.Edge, sl.Action); got != want {
				t.Errorf("Slot.String() = %q, fmt renders %q", got, want)
			}
		}
	}
}

func TestVerdictSummaryMatchesFmt(t *testing.T) {
	losses := []oracle.Loss{
		{Field: "Editor.draft", Bucket: oracle.LossNonViewUnsaved},
		{Field: "Editor.row", Bucket: oracle.LossViewUnsaved},
		{Field: "Editor.volume", Bucket: oracle.LossViewUnsaved},
	}
	arm := func(crashed bool, applied, handlings, inj int, g guard.Summary) RunResult {
		return RunResult{RunResult: oracle.RunResult{Crashed: crashed, Applied: applied, Handlings: handlings, Injections: inj, Guard: g}}
	}
	cases := []struct {
		name string
		v    Verdict
	}{
		{"empty schedule, clean", Verdict{Index: 0, Schedule: Schedule{}}},
		{"stock losses, multi-digit index", Verdict{
			Index:    10700,
			Schedule: Schedule{{Edge: 1, Action: ActKill}, {Edge: 4, Action: ActAsync}, {Edge: 9, Action: ActFlush}},
			Stock:    RunResult{RunResult: oracle.RunResult{Losses: losses}},
			RCH:      arm(false, 7, 1, 3, guard.Summary{}),
		}},
		{"stock crashed, guard enabled", Verdict{
			Index:    3303,
			Schedule: Schedule{{Edge: 2, Action: ActConfig}},
			Stock:    arm(true, 4, 2, 0, guard.Summary{}),
			RCH:      arm(false, 9, 12, 41, guard.Summary{Enabled: true, Quarantines: 1, Recoveries: 10}),
		}},
		{"rch crashed, guard enabled and idle", Verdict{
			Index:    42,
			Schedule: Schedule{{Edge: 0, Action: ActFlush}, {Edge: 8, Action: ActConfig}},
			Stock:    RunResult{RunResult: oracle.RunResult{Crashed: true, Losses: losses[:1]}},
			RCH:      arm(true, 0, 0, 2, guard.Summary{Enabled: true}),
		}},
	}
	for _, c := range cases {
		if got, want := c.v.Summary(), fmtSummary(&c.v); got != want {
			t.Errorf("%s:\n  Summary() = %q\n  fmt       = %q", c.name, got, want)
		}
	}
}
