// Package metrics provides the measurement machinery of the evaluation:
// the time series the figures plot, the memory meter fed by the app
// process model (whose history is kept only for processes that profile;
// Fig 9's CPU track is binned from the profiled process's trace instead),
// the summary statistics the paper reports (means over ≥5 runs with
// σ < 5%), and the per-phase statistics derived from structured traces.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"rchdroid/internal/sim"
)

// Point is one sample of a series.
type Point struct {
	At    sim.Time
	Value float64
}

// Series is a named time series.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample. Samples must be appended in time order.
func (s *Series) Add(at sim.Time, v float64) {
	s.Points = append(s.Points, Point{At: at, Value: v})
}

// Last returns the most recent value, or def when empty.
func (s *Series) Last(def float64) float64 {
	if len(s.Points) == 0 {
		return def
	}
	return s.Points[len(s.Points)-1].Value
}

// At returns the value in effect at time t (step interpolation), or def
// before the first sample.
func (s *Series) At(t sim.Time, def float64) float64 {
	v := def
	for _, p := range s.Points {
		if p.At > t {
			break
		}
		v = p.Value
	}
	return v
}

// MemoryMeter tracks a byte count. Once Record is called it also keeps
// the count's history as a step series in MB; until then it holds only
// the current count.
type MemoryMeter struct {
	sched     *sim.Scheduler
	current   int64
	recording bool
	series    Series
}

// NewMemoryMeter returns a meter stamping changes with sched's clock.
func NewMemoryMeter(sched *sim.Scheduler, name string) *MemoryMeter {
	m := &MemoryMeter{sched: sched}
	m.series.Name = name
	return m
}

// Record starts the step series at the current count; every later Set
// appends a sample. Calling it again is a no-op.
func (m *MemoryMeter) Record() {
	if m.recording {
		return
	}
	m.recording = true
	m.series.Add(m.sched.Now(), m.CurrentMB())
}

// Set replaces the current byte count, sampling it while recording.
func (m *MemoryMeter) Set(bytes int64) {
	m.current = bytes
	if m.recording {
		m.series.Add(m.sched.Now(), m.CurrentMB())
	}
}

// CurrentBytes returns the tracked byte count.
func (m *MemoryMeter) CurrentBytes() int64 { return m.current }

// CurrentMB returns the tracked count in MiB.
func (m *MemoryMeter) CurrentMB() float64 { return float64(m.current) / (1 << 20) }

// TraceSeries returns the recorded MB series, empty unless Record was
// called.
func (m *MemoryMeter) TraceSeries() *Series { return &m.series }

// Summary holds the statistics the paper reports per measurement: the mean of at
// least five runs with the standard deviation below 5% of the mean.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes summary statistics of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		varSum := 0.0
		for _, x := range xs {
			d := x - s.Mean
			varSum += d * d
		}
		s.StdDev = math.Sqrt(varSum / float64(len(xs)-1))
	}
	return s
}

// RelStdDev returns σ/mean, the paper's <5% reporting criterion. It
// returns 0 for a zero mean.
func (s Summary) RelStdDev() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.StdDev / s.Mean
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f σ=%.2f min=%.2f max=%.2f", s.N, s.Mean, s.StdDev, s.Min, s.Max)
}

// Mean is a convenience over Summarize.
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// Percentile returns the p-th percentile (0..100) using nearest-rank on a
// sorted copy of xs; it returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(cp)))) - 1
	if rank < 0 {
		rank = 0
	}
	return cp[rank]
}
