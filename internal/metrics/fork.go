package metrics

import "rchdroid/internal/sim"

// Clone returns an independent meter at m's current count, stamping
// future changes with sched's clock. The clone does not record: the
// device fork facility refuses a profiled process, so there is never a
// history to carry.
func (m *MemoryMeter) Clone(sched *sim.Scheduler) *MemoryMeter {
	out := NewMemoryMeter(sched, m.series.Name)
	out.current = m.current
	return out
}
