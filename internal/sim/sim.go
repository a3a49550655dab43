// Package sim provides the discrete-event simulation core that every other
// substrate runs on: a virtual clock, an event scheduler with deterministic
// FIFO tie-breaking, and a lightweight trace facility.
//
// All "time" in the reproduction is virtual. Loopers, asynchronous tasks,
// IPC transactions and GC sweeps are events on a single scheduler, which
// makes every test and benchmark exactly reproducible regardless of host
// load. Durations use time.Duration so cost models read naturally
// (e.g. 3*time.Millisecond).
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a point on the virtual timeline, expressed as the duration since
// the scheduler was created. The zero Time is the moment the simulation
// starts.
type Time time.Duration

// Duration converts t to the time.Duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Milliseconds reports t as a float64 millisecond count, the unit used by
// the paper's figures.
func (t Time) Milliseconds() float64 {
	return float64(time.Duration(t)) / float64(time.Millisecond)
}

// Add returns the Time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier.
func (t Time) Sub(earlier Time) time.Duration { return time.Duration(t - earlier) }

func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback. Events are single-shot: At allocates a
// new one, and only the event's owner may put it back in the queue with
// Rearm. An Event can be cancelled until it has fired.
type Event struct {
	// At is the virtual time the event fires.
	At Time
	// Name labels the event in traces.
	Name string

	fn        func()
	seq       uint64
	index     int // heap index; -1 once fired or cancelled
	cancelled bool
}

// Cancelled reports whether Cancel was called on the event before it fired.
func (e *Event) Cancelled() bool { return e.cancelled }

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e.index >= 0 }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Scheduler owns the virtual clock and the pending-event queue. It is not
// safe for concurrent use; the whole simulation is single-threaded by
// design (determinism is the point).
type Scheduler struct {
	now    Time
	events eventHeap
	seq    uint64
	fired  uint64
	tracer Tracer
}

// NewScheduler returns a scheduler with the clock at zero and no events.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// SetTracer installs a tracer that observes every fired event. A nil tracer
// disables tracing.
func (s *Scheduler) SetTracer(t Tracer) { s.tracer = t }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.events) }

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// At schedules fn to run at virtual time t. Scheduling in the past is an
// error because it would reorder causality; it panics, as that is always a
// harness bug rather than a runtime condition.
func (s *Scheduler) At(t Time, name string, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", name, t, s.now))
	}
	e := &Event{At: t, Name: name, fn: fn, seq: s.seq}
	s.seq++
	heap.Push(&s.events, e)
	return e
}

// After schedules fn to run d after the current time. Negative d is treated
// as zero (run on the next step).
func (s *Scheduler) After(d time.Duration, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), name, fn)
}

// Post schedules fn at the current time, after any events already queued
// for this instant (FIFO within a timestamp).
func (s *Scheduler) Post(name string, fn func()) *Event {
	return s.At(s.now, name, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&s.events, e.index)
	e.cancelled = true
}

// Rearm reschedules e, an event its caller owns, to fire at t with its
// name and callback unchanged; a still-pending e moves in the queue
// rather than firing twice. It takes the next sequence number exactly as
// a fresh At would, so tie-breaks, Fired() and traces are those of Cancel
// followed by At; it only saves the allocation. The owner must never hand
// e out: whoever else held it would see it fire again.
func (s *Scheduler) Rearm(e *Event, t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: re-arming %q at %v, before now %v", e.Name, t, s.now))
	}
	e.At = t
	e.seq = s.seq
	s.seq++
	e.cancelled = false
	if e.index >= 0 {
		heap.Fix(&s.events, e.index)
		return
	}
	heap.Push(&s.events, e)
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event fired.
func (s *Scheduler) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*Event)
	s.now = e.At
	s.fired++
	if s.tracer != nil {
		s.tracer.Trace(s.now, e.Name)
	}
	e.fn()
	return true
}

// Run fires events until the queue is empty. The clock rests at the
// timestamp of the last event fired.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil fires all events with timestamps <= t, then sets the clock to t.
// Events scheduled during execution are honoured if they fall within the
// window.
func (s *Scheduler) RunUntil(t Time) {
	for len(s.events) > 0 && s.events[0].At <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// Advance is RunUntil relative to the current clock.
func (s *Scheduler) Advance(d time.Duration) {
	s.RunUntil(s.now.Add(d))
}

// Tracer observes fired events.
type Tracer interface {
	Trace(at Time, name string)
}

// TraceEntry is one record captured by RecordingTracer.
type TraceEntry struct {
	At   Time
	Name string
}

// RecordingTracer appends every fired event to Entries. Useful in tests
// that assert on event ordering.
type RecordingTracer struct {
	Entries []TraceEntry
}

// Trace implements Tracer.
func (r *RecordingTracer) Trace(at Time, name string) {
	r.Entries = append(r.Entries, TraceEntry{At: at, Name: name})
}

// Names returns just the event names, in firing order.
func (r *RecordingTracer) Names() []string {
	out := make([]string, len(r.Entries))
	for i, e := range r.Entries {
		out[i] = e.Name
	}
	return out
}
