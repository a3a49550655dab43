package experiments

import (
	"testing"
	"testing/quick"
	"time"

	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
)

// work is a UI-thread work event starting at start and costing dur.
func work(start, dur time.Duration) trace.Event {
	return trace.Event{TS: sim.Time(start), Dur: dur, Ph: trace.PhaseComplete, Name: "w"}
}

// Fig 9's CPU track bins work as the profiler does: an interval inside
// one window lands there whole, and busyPct reads the second after t.
func TestCPUWindowsHoldWorkInOneWindow(t *testing.T) {
	ms := time.Millisecond
	busy := cpuWindows([]trace.Event{work(2*ms, 5*ms)})
	if got := usageAt(busy, 5*ms); got != 50 {
		t.Fatalf("usage = %v, want 50", got)
	}
	if got := usageAt(busy, 15*ms); got != 0 {
		t.Fatalf("next window = %v, want 0", got)
	}

	// 100 ms of work inside the second after t reads as 10 %.
	busy = cpuWindows([]trace.Event{work(time.Second+300*ms, 100*ms)})
	if got := busyPct(busy, time.Second); got != 10 {
		t.Fatalf("busyPct = %v, want 10", got)
	}
}

// An interval crossing window edges splits at each edge, and the series
// runs from zero to the last window touched.
func TestCPUWindowsSplitAtEdges(t *testing.T) {
	ms := time.Millisecond
	// Busy from 5 ms to 25 ms: 5 ms in window 0, 10 ms in window 1, 5 ms
	// in window 2. A zero-cost dispatch adds nothing.
	busy := cpuWindows([]trace.Event{work(5*ms, 20*ms), work(40*ms, 0)})
	for i, want := range []float64{50, 100, 50} {
		if got := usageAt(busy, time.Duration(i)*cpuWindow); got != want {
			t.Fatalf("window %d = %v, want %v", i, got, want)
		}
	}
	if pts := cpuSeries("cpu", busy).Points; len(pts) != 3 || pts[2].At != sim.Time(20*ms) {
		t.Fatalf("series = %v, want windows 0..2", pts)
	}
	if pts := cpuSeries("cpu", cpuWindows(nil)).Points; len(pts) != 1 || pts[0].Value != 0 {
		t.Fatalf("idle series = %v, want one empty window", pts)
	}
}

// Property: binning conserves busy time, and no window holds more than
// its own length.
func TestCPUWindowsConserveBusyTime(t *testing.T) {
	f := func(startMicros, costMicros uint16) bool {
		cost := time.Duration(costMicros) * time.Microsecond * 3
		busy := cpuWindows([]trace.Event{work(time.Duration(startMicros)*time.Microsecond, cost)})
		var total time.Duration
		for _, d := range busy {
			if d < 0 || d > cpuWindow {
				return false
			}
			total += d
		}
		return total == cost
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
