package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rchdroid/internal/trace"
)

// PhaseStats is the latency distribution of one named span — one
// lifecycle phase, one message class — derived from a trace's complete
// events.
type PhaseStats struct {
	Name  string
	Count int
	Total time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// TraceStats is the summary derived from a structured trace: per-phase
// latency histograms plus the counters a run report leads with. It is
// what `rchtrace` and `rchsim -trace` print under the JSON export.
type TraceStats struct {
	Events   int
	Spans    int
	Instants int

	// Phases holds per-name span statistics, ordered by total time
	// descending (the profiler's "heaviest first" view).
	Phases []PhaseStats

	// Handling latencies of completed runtime changes (async
	// "runtimeChange" spans, begin→end per id).
	Handling []time.Duration

	// Decision and fault counters read off instants.
	CoinFlips   int
	CoinCreates int
	GCEvals     int
	GCCollects  int
	Migrations  int
	Chaos       int
	ChaosByKind map[string]int
	Crashes     int
	LogcatLines int

	// Guard counts the supervision decisions read off guard-category
	// instants, keyed by decision kind (the suffix of "guard:<kind>").
	Guard map[string]int

	// GuardMargins collects, per watchdog phase, how much headroom each
	// disarmed deadline had left — the margin histograms that show how
	// close a healthy run sails to its ANR deadlines.
	GuardMargins map[string][]time.Duration
}

// AnalyzeTrace derives the summary from events (as recorded by a
// trace.Tracer or re-read from an exported file).
// asDuration coerces an instant argument to a duration: in-memory
// traces carry time.Duration values, re-read JSON exports carry their
// formatted strings.
func asDuration(v any) (time.Duration, bool) {
	switch x := v.(type) {
	case time.Duration:
		return x, true
	case string:
		if d, err := time.ParseDuration(x); err == nil {
			return d, true
		}
	}
	return 0, false
}

func AnalyzeTrace(events []trace.Event) TraceStats {
	st := TraceStats{
		Events:       len(events),
		ChaosByKind:  make(map[string]int),
		Guard:        make(map[string]int),
		GuardMargins: make(map[string][]time.Duration),
	}
	durs := make(map[string][]float64)
	asyncOpen := make(map[uint64]trace.Event)
	argOf := func(e trace.Event, key string) any {
		for _, a := range e.Args {
			if a.Key == key {
				return a.Val
			}
		}
		return nil
	}
	for _, e := range events {
		switch e.Ph {
		case trace.PhaseComplete:
			st.Spans++
			durs[e.Name] = append(durs[e.Name], float64(e.Dur))
		case trace.PhaseInstant:
			st.Instants++
			switch e.Cat {
			case "chaos":
				st.Chaos++
				kind := e.Name
				if i := strings.IndexByte(kind, ':'); i >= 0 {
					kind = kind[:i]
				}
				st.ChaosByKind[kind]++
			case "logcat":
				st.LogcatLines++
			case "guard":
				st.Guard[strings.TrimPrefix(e.Name, "guard:")]++
			}
			switch e.Name {
			case "coinFlip":
				if argOf(e, "decision") == "flip" {
					st.CoinFlips++
				} else {
					st.CoinCreates++
				}
			case "shadowGCEval":
				st.GCEvals++
				if argOf(e, "decision") == "collect" {
					st.GCCollects++
				}
			case "rch:migrateFlush":
				st.Migrations++
			case "crash":
				st.Crashes++
			case "guard:disarm":
				phase, _ := argOf(e, "phase").(string)
				if m, ok := asDuration(argOf(e, "margin")); ok && phase != "" {
					st.GuardMargins[phase] = append(st.GuardMargins[phase], m)
				}
			}
		case trace.PhaseAsyncBegin:
			if e.Name == "runtimeChange" {
				asyncOpen[e.ID] = e
			}
		case trace.PhaseAsyncEnd:
			if b, ok := asyncOpen[e.ID]; ok && e.Name == "runtimeChange" {
				delete(asyncOpen, e.ID)
				st.Handling = append(st.Handling, e.TS.Sub(b.TS))
			}
		}
	}
	for name, xs := range durs {
		ps := PhaseStats{
			Name:  name,
			Count: len(xs),
			P50:   time.Duration(Percentile(xs, 50)),
			P95:   time.Duration(Percentile(xs, 95)),
			P99:   time.Duration(Percentile(xs, 99)),
		}
		for _, x := range xs {
			ps.Total += time.Duration(x)
			if d := time.Duration(x); d > ps.Max {
				ps.Max = d
			}
		}
		st.Phases = append(st.Phases, ps)
	}
	sort.Slice(st.Phases, func(i, j int) bool {
		if st.Phases[i].Total != st.Phases[j].Total {
			return st.Phases[i].Total > st.Phases[j].Total
		}
		return st.Phases[i].Name < st.Phases[j].Name
	})
	return st
}

// ms renders a duration in milliseconds with fixed precision, keeping
// the summary columns aligned and diff-stable.
func ms(d time.Duration) string {
	return fmt.Sprintf("%8.3f", float64(d)/float64(time.Millisecond))
}

// Render formats the summary as the compact text report. Limit bounds
// the phase table (0 = all).
func (st TraceStats) Render(limit int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: %d events (%d spans, %d instants)\n",
		st.Events, st.Spans, st.Instants)
	if len(st.Handling) > 0 {
		xs := make([]float64, len(st.Handling))
		for i, d := range st.Handling {
			xs[i] = float64(d)
		}
		fmt.Fprintf(&sb, "runtime changes handled: %d  p50=%sms p95=%sms p99=%sms\n",
			len(st.Handling),
			strings.TrimSpace(ms(time.Duration(Percentile(xs, 50)))),
			strings.TrimSpace(ms(time.Duration(Percentile(xs, 95)))),
			strings.TrimSpace(ms(time.Duration(Percentile(xs, 99)))))
	}
	if st.CoinFlips+st.CoinCreates > 0 {
		fmt.Fprintf(&sb, "coin flips: %d flip / %d create\n", st.CoinFlips, st.CoinCreates)
	}
	if st.GCEvals > 0 {
		fmt.Fprintf(&sb, "shadow GC: %d evals, %d collected\n", st.GCEvals, st.GCCollects)
	}
	if st.Migrations > 0 {
		fmt.Fprintf(&sb, "lazy migrations: %d flushes\n", st.Migrations)
	}
	if st.Crashes > 0 {
		fmt.Fprintf(&sb, "crashes: %d\n", st.Crashes)
	}
	if st.Chaos > 0 {
		kinds := make([]string, 0, len(st.ChaosByKind))
		for k := range st.ChaosByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, 0, len(kinds))
		for _, k := range kinds {
			parts = append(parts, fmt.Sprintf("%s=%d", k, st.ChaosByKind[k]))
		}
		fmt.Fprintf(&sb, "chaos injections: %d (%s)\n", st.Chaos, strings.Join(parts, " "))
	}
	if st.LogcatLines > 0 {
		fmt.Fprintf(&sb, "logcat lines: %d\n", st.LogcatLines)
	}
	if g := st.Guard; g["anr"]+g["retry"]+g["quarantine"]+g["recover"]+
		g["breakerOpen"]+g["stockRoute"]+g["selfCheckFail"] > 0 {
		fmt.Fprintf(&sb, "guard: %d ANRs, %d transfer retries, %d quarantines, %d recoveries, %d breaker opens, %d stock routes, %d self-check failures\n",
			g["anr"], g["retry"], g["quarantine"], g["recover"],
			g["breakerOpen"], g["stockRoute"], g["selfCheckFail"])
	}
	if len(st.GuardMargins) > 0 {
		phases := make([]string, 0, len(st.GuardMargins))
		for p := range st.GuardMargins {
			phases = append(phases, p)
		}
		sort.Strings(phases)
		fmt.Fprintf(&sb, "%-32s %6s %10s %10s %10s\n",
			"guard deadline margin", "count", "p50 ms", "p95 ms", "min ms")
		for _, p := range phases {
			margins := st.GuardMargins[p]
			xs := make([]float64, len(margins))
			min := margins[0]
			for i, m := range margins {
				xs[i] = float64(m)
				if m < min {
					min = m
				}
			}
			fmt.Fprintf(&sb, "%-32s %6d %s %s %s\n", p, len(margins),
				ms(time.Duration(Percentile(xs, 50))),
				ms(time.Duration(Percentile(xs, 95))),
				ms(min))
		}
	}
	if len(st.Phases) > 0 {
		fmt.Fprintf(&sb, "%-32s %6s %10s %10s %10s %10s\n",
			"phase", "count", "p50 ms", "p95 ms", "p99 ms", "total ms")
		phases := st.Phases
		if limit > 0 && len(phases) > limit {
			phases = phases[:limit]
		}
		for _, p := range phases {
			fmt.Fprintf(&sb, "%-32s %6d %s %s %s %s\n",
				p.Name, p.Count, ms(p.P50), ms(p.P95), ms(p.P99), ms(p.Total))
		}
		if limit > 0 && len(st.Phases) > limit {
			fmt.Fprintf(&sb, "… %d more phases\n", len(st.Phases)-limit)
		}
	}
	return sb.String()
}
