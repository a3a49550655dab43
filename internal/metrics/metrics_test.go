package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"rchdroid/internal/sim"
)

func TestSeriesAddAndQuery(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(sim.Time(10*time.Millisecond), 1)
	s.Add(sim.Time(20*time.Millisecond), 5)
	s.Add(sim.Time(30*time.Millisecond), 3)

	if s.Last(0) != 3 {
		t.Fatalf("Last = %v", s.Last(0))
	}
	if got := s.At(sim.Time(25*time.Millisecond), -1); got != 5 {
		t.Fatalf("At(25ms) = %v", got)
	}
	if got := s.At(sim.Time(5*time.Millisecond), -1); got != -1 {
		t.Fatalf("At(5ms) = %v, want default", got)
	}
}

func TestEmptySeries(t *testing.T) {
	s := &Series{}
	if s.Last(7) != 7 || s.At(0, 9) != 9 {
		t.Fatal("empty series defaults wrong")
	}
}

func TestCPUMeterSingleWindow(t *testing.T) {
	m := NewCPUMeter(10 * time.Millisecond)
	m.OnBusy(sim.Time(2*time.Millisecond), 5*time.Millisecond, "work")
	if got := m.UsageAt(sim.Time(5 * time.Millisecond)); got != 50 {
		t.Fatalf("UsageAt = %v, want 50", got)
	}
	if got := m.UsageAt(sim.Time(15 * time.Millisecond)); got != 0 {
		t.Fatalf("next window = %v, want 0", got)
	}
}

func TestCPUMeterSplitsAcrossWindows(t *testing.T) {
	m := NewCPUMeter(10 * time.Millisecond)
	// Busy from 5ms to 25ms: 5ms in window 0, 10ms in window 1, 5ms in window 2.
	m.OnBusy(sim.Time(5*time.Millisecond), 20*time.Millisecond, "w")
	if m.UsageAt(0) != 50 {
		t.Fatalf("w0 = %v", m.UsageAt(0))
	}
	if m.UsageAt(sim.Time(10*time.Millisecond)) != 100 {
		t.Fatalf("w1 = %v", m.UsageAt(sim.Time(10*time.Millisecond)))
	}
	if m.UsageAt(sim.Time(20*time.Millisecond)) != 50 {
		t.Fatalf("w2 = %v", m.UsageAt(sim.Time(20*time.Millisecond)))
	}
	tr := m.TraceSeries("cpu")
	if len(tr.Points) != 3 {
		t.Fatalf("trace points = %d", len(tr.Points))
	}
}

func TestCPUMeterDefaultWindow(t *testing.T) {
	m := NewCPUMeter(0)
	if m.Window() != 10*time.Millisecond {
		t.Fatalf("default window = %v", m.Window())
	}
}

// The meter always tracks the current count, but samples it only while
// recording: Record starts the series at the current level, and later
// Sets append to it.
func TestMemoryMeter(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMemoryMeter(sched, "app")
	m.Set(16 << 20)
	m.Set(64 << 20)
	if m.CurrentMB() != 64 {
		t.Fatalf("CurrentMB = %v", m.CurrentMB())
	}
	if tr := m.TraceSeries(); len(tr.Points) != 0 {
		t.Fatalf("trace before Record = %v, want empty", tr.Points)
	}
	sched.Advance(time.Second)
	m.Record()
	m.Record() // idempotent: no second starting sample
	sched.Advance(time.Second)
	m.Set(32 << 20)
	if m.CurrentBytes() != 32<<20 {
		t.Fatalf("CurrentBytes = %d", m.CurrentBytes())
	}
	want := []Point{{At: sim.Time(time.Second), Value: 64}, {At: sim.Time(2 * time.Second), Value: 32}}
	tr := m.TraceSeries()
	if len(tr.Points) != len(want) || tr.Points[0] != want[0] || tr.Points[1] != want[1] {
		t.Fatalf("trace = %v, want %v", tr.Points, want)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-2.138) > 0.01 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	one := Summarize([]float64{3})
	if one.StdDev != 0 || one.Mean != 3 {
		t.Fatalf("single summary = %+v", one)
	}
	if (Summary{}).RelStdDev() != 0 {
		t.Fatal("RelStdDev of zero mean should be 0")
	}
}

func TestRelStdDev(t *testing.T) {
	s := Summary{Mean: 100, StdDev: 4}
	if s.RelStdDev() != 0.04 {
		t.Fatalf("RelStdDev = %v", s.RelStdDev())
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Fatal("extremes wrong")
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile mutated input")
	}
}

// Property: total busy time recorded by the CPU meter is conserved across
// window splitting.
func TestCPUMeterConservationProperty(t *testing.T) {
	f := func(startMicros uint16, costMicros uint16) bool {
		m := NewCPUMeter(time.Millisecond)
		start := sim.Time(time.Duration(startMicros) * time.Microsecond)
		cost := time.Duration(costMicros) * time.Microsecond
		m.OnBusy(start, cost, "w")
		var total time.Duration
		for slot, d := range m.busy {
			if d < 0 || d > time.Millisecond || slot < 0 {
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

// Property: Summarize bounds — min ≤ mean ≤ max for any non-empty input.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.StdDev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
