package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rchdroid/internal/benchapp"
	"rchdroid/internal/looper"
	"rchdroid/internal/trace"
)

// AnatomyPhase is one named slice of a handling's critical path.
type AnatomyPhase struct {
	Phase string
	MS    float64
}

// AnatomyResult decomposes one restart, one RCHDroid-init and one coin
// flip into their UI-thread phases, taken from the profiled process's
// trace. It is the explanatory companion to the cost model: every headline
// number in Fig 10a is the sum of the rows shown here.
type AnatomyResult struct {
	Stock []AnatomyPhase
	Init  []AnatomyPhase
	Flip  []AnatomyPhase
}

// Anatomy measures the decomposition on the 4-ImageView benchmark.
func Anatomy() *AnatomyResult {
	res := &AnatomyResult{}

	capture := func(mode Mode, changes int) [][]AnatomyPhase {
		rig := NewRig(benchapp.New(benchapp.Config{Images: 4, TaskDelay: time.Hour}), mode)
		rig.Proc.Profile()
		seen := 0
		var out [][]AnatomyPhase
		for i := 0; i < changes; i++ {
			rig.Rotate()
			work := looper.Work(rig.Proc.Thread().Trace())
			out = append(out, foldPhases(work[seen:]))
			seen = len(work)
		}
		return out
	}

	stockRuns := capture(ModeStock, 1)
	res.Stock = stockRuns[0]
	rchRuns := capture(ModeRCHDroid, 2)
	res.Init, res.Flip = rchRuns[0], rchRuns[1]
	return res
}

// foldPhases aggregates one handling's UI-thread work events into named
// phase durations. An event's phase time runs from its start to the next
// event's start, so a phase also holds the wait that follows it inside
// the handling; the final event adds nothing.
func foldPhases(work []trace.Event) []AnatomyPhase {
	if len(work) == 0 {
		return nil
	}
	totals := map[string]time.Duration{}
	order := []string{}
	for i, e := range work {
		var dur time.Duration
		if i+1 < len(work) {
			dur = work[i+1].TS.Sub(e.TS)
		}
		// Idle gaps (the settle between the handling and unrelated later
		// messages such as GC sweeps) are not phase time.
		if dur > 500*time.Millisecond {
			dur = 0
		}
		name := canonicalPhase(e.Name)
		if _, ok := totals[name]; !ok {
			order = append(order, name)
		}
		totals[name] += dur
	}
	out := make([]AnatomyPhase, 0, len(order))
	for _, name := range order {
		if totals[name] <= 0 {
			continue
		}
		out = append(out, AnatomyPhase{Phase: name, MS: float64(totals[name]) / float64(time.Millisecond)})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].MS > out[j].MS })
	return out
}

// canonicalPhase strips per-app suffixes so phases group cleanly.
func canonicalPhase(name string) string {
	if i := strings.IndexByte(name, '('); i > 0 {
		name = name[:i]
	}
	for _, prefix := range []string{"relaunch:", "launch:", "rch:", "binder:", "moveTo"} {
		if strings.HasPrefix(name, prefix) {
			return name
		}
	}
	if i := strings.IndexByte(name, ':'); i > 0 {
		return name[:i+1] + "…"
	}
	return name
}

// Title implements Result.
func (r *AnatomyResult) Title() string {
	return "Anatomy — UI-thread phase decomposition of one handling (4-ImageView benchmark)"
}

// Header implements Result.
func (r *AnatomyResult) Header() []string {
	return []string{"path", "phase", "ms"}
}

// Rows implements Result.
func (r *AnatomyResult) Rows() [][]string {
	var out [][]string
	emit := func(path string, phases []AnatomyPhase) {
		for _, p := range phases {
			out = append(out, []string{path, p.Phase, fmt.Sprintf("%.2f", p.MS)})
		}
	}
	emit("Android-10 restart", r.Stock)
	emit("RCHDroid-init", r.Init)
	emit("RCHDroid flip", r.Flip)
	return out
}

// Summary implements Result.
func (r *AnatomyResult) Summary() string {
	total := func(ps []AnatomyPhase) float64 {
		t := 0.0
		for _, p := range ps {
			t += p.MS
		}
		return t
	}
	return fmt.Sprintf(
		"on-thread totals: restart %.1f ms, init %.1f ms, flip %.1f ms — the flip path has no create/inflate/restore phases at all",
		total(r.Stock), total(r.Init), total(r.Flip))
}
