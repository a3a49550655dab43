package oracle

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"rchdroid/internal/app"
	"rchdroid/internal/device"
	"rchdroid/internal/guard"
	"rchdroid/internal/view"
)

// fmtSummary, fmtTally and fmtEssence are the fmt renderings the strconv
// renderers replaced; each must be reproduced byte for byte.
func fmtSummary(v *Verdict) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed=%d stock[crashed=%v applied=%d handlings=%d] rch[crashed=%v applied=%d handlings=%d inj=%d]",
		v.Seed, v.Stock.Crashed, v.Stock.Applied, v.Stock.Handlings,
		v.RCH.Crashed, v.RCH.Applied, v.RCH.Handlings, v.RCH.Injections)
	if g := v.RCH.Guard; g.Enabled {
		fmt.Fprintf(&sb, " guard[anrs=%d retries=%d xferFail=%d quarantines=%d recoveries=%d breaker=%d]",
			g.ANRs, g.Retries, g.TransferFailures, g.Quarantines, g.Recoveries, g.BreakerOpens)
	}
	return sb.String()
}

func fmtTally(t [NumLossBuckets]int) string {
	s := ""
	for b := LossBucket(0); b < NumLossBuckets; b++ {
		if b > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", b, t[b])
	}
	return s
}

func fmtEssence(a *app.Activity) string {
	counts := view.CountByType(a.Decor())
	types := make([]string, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Strings(types)
	var sb strings.Builder
	sb.WriteString(a.SaveInstanceStateStock().String())
	sb.WriteString(" tree:")
	for _, t := range types {
		fmt.Fprintf(&sb, " %s×%d", t, counts[t])
	}
	return sb.String()
}

func TestVerdictSummaryMatchesFmt(t *testing.T) {
	arm := func(crashed bool, applied, handlings, inj int, g guard.Summary) RunResult {
		return RunResult{Crashed: crashed, Applied: applied, Handlings: handlings, Injections: inj, Guard: g}
	}
	for _, v := range []Verdict{
		{Seed: 0},
		{Seed: 7, Stock: arm(false, 12, 3, 0, guard.Summary{}), RCH: arm(false, 12, 3, 5, guard.Summary{})},
		{Seed: 18446744073709551615, Stock: arm(true, 1, 0, 0, guard.Summary{}), RCH: arm(false, 20, 14, 103, guard.Summary{})},
		{Seed: 3039, Stock: arm(false, 9, 4, 0, guard.Summary{}), RCH: arm(true, 9, 4, 17, guard.Summary{
			Enabled: true, ANRs: 2, Retries: 11, TransferFailures: 1, Quarantines: 3, Recoveries: 1, BreakerOpens: 10,
		})},
		{Seed: 613, RCH: arm(false, 0, 0, 0, guard.Summary{Enabled: true})},
	} {
		if got, want := v.Summary(), fmtSummary(&v); got != want {
			t.Errorf("Summary() = %q\n   fmt renders %q", got, want)
		}
	}
}

func TestFormatTallyMatchesFmt(t *testing.T) {
	for _, tally := range [][NumLossBuckets]int{
		{},
		{1, 0, 0, 2},
		{10, 205, 3, 99999},
	} {
		if got, want := FormatTally(tally), fmtTally(tally); got != want {
			t.Errorf("FormatTally(%v) = %q, fmt renders %q", tally, got, want)
		}
		prefix := []byte("stockLoss{")
		if got, want := string(AppendTally(prefix, tally)), "stockLoss{"+fmtTally(tally); got != want {
			t.Errorf("AppendTally(%v) = %q, want %q", tally, got, want)
		}
	}
}

func TestTaskNameMatchesFmt(t *testing.T) {
	for _, idx := range []int{0, 7, 12, 305} {
		if got, want := taskName(idx), fmt.Sprintf("task%d", idx); got != want {
			t.Errorf("taskName(%d) = %q, want %q", idx, got, want)
		}
	}
}

// TestEssenceMatchesFmt renders the essence of a live OracleApp instance,
// whose tree holds several widget types, one of them many times over.
func TestEssenceMatchesFmt(t *testing.T) {
	for _, images := range []int{0, 4, 12} {
		w := device.New(device.Spec{App: func() *app.App { return OracleApp(images) }}, 0, nil)
		fg := w.Proc.Thread().ForegroundActivity()
		if fg == nil {
			t.Fatalf("OracleApp(%d) has no foreground activity", images)
		}
		if et, ok := fg.FindViewByID(EditID).(*view.EditText); ok {
			et.Type("draft")
		}
		if got, want := essenceOf(fg), fmtEssence(fg); got != want {
			t.Errorf("OracleApp(%d) essence:\n  got  %q\n  fmt  %q", images, got, want)
		}
	}
}
