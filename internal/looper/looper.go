// Package looper reimplements Android's Looper/MessageQueue/Handler trio
// on the virtual clock. Every app process has one UI looper (the activity
// thread); only code running on it may touch the view tree, exactly as on
// Android. Asynchronous tasks run elsewhere and deliver their results by
// posting messages here — the delivery point where RCHDroid's lazy
// migration intercepts late view updates.
//
// Messages carry an execution cost. The looper serialises them: a message
// begins no earlier than its delivery time and no earlier than the end of
// the previous message, and occupies the (virtual) thread for its cost.
// The accumulated busy time drives the CPU-usage traces of Fig 9.
package looper

import (
	"fmt"
	"time"

	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
)

// Message is one unit of work queued on a looper.
type Message struct {
	// Name labels the message in traces.
	Name string
	// When is the earliest virtual time the message may run.
	When sim.Time
	// Cost is how long the message occupies the thread.
	Cost time.Duration
	// Run is the message body.
	Run func()

	seq       uint64
	cancelled bool
}

// Cancel prevents a queued message from running. Cancelling a message that
// already ran is a no-op.
func (m *Message) Cancel() { m.cancelled = true }

// Cancelled reports whether Cancel was called.
func (m *Message) Cancelled() bool { return m.cancelled }

// Fault is a per-message fault decision returned by a FaultInjector.
// The zero value means "deliver normally".
type Fault struct {
	// Stall occupies the thread before the message may run — an injected
	// hiccup (GC pause, scheduler preemption). It is order-preserving:
	// every queued message simply runs later.
	Stall time.Duration
	// Delay shifts this message's delivery time alone, which may reorder
	// it against messages posted after it. Callers must only delay
	// messages whose ordering contract allows it (async results, input
	// events) — delaying one phase of a lifecycle chain reorders the
	// chain.
	Delay time.Duration
	// Drop swallows the message: it is returned to the poster as an
	// already-cancelled message and never runs.
	Drop bool
}

// FaultInjector is consulted on every post with the message's name and
// cost; it returns the fault (if any) to apply. Injectors must be
// deterministic functions of their own state — the looper calls them
// exactly once per post, in posting order.
type FaultInjector func(name string, cost time.Duration) Fault

// SetFaultInjector installs (or, with nil, removes) the fault injector.
func (l *Looper) SetFaultInjector(fn FaultInjector) { l.fault = fn }

// SetDispatchObserver installs (or, with nil, removes) a completion
// observer called after every dispatched message with the message name,
// its start time and its final occupancy.
func (l *Looper) SetDispatchObserver(fn func(name string, start sim.Time, occupancy time.Duration)) {
	l.onDispatch = fn
}

// Looper is a single-threaded message processor.
type Looper struct {
	name      string
	sched     *sim.Scheduler
	queue     []*Message
	seq       uint64
	busyUntil sim.Time
	totalBusy time.Duration
	processed uint64
	quit      bool
	current   *Message
	fault     FaultInjector

	// pump is the looper's one wakeup event, allocated on the first arm
	// and re-armed in place for the looper's whole life. Only the looper
	// holds it, which is what makes sim.Scheduler.Rearm safe here.
	pump *sim.Event

	// onDispatch, if set, observes every completed dispatch with its
	// total occupancy (cost plus charges plus stalls). The guard's
	// ANR-style watchdog hangs off this seam.
	onDispatch func(name string, start sim.Time, occupancy time.Duration)

	// onBusy, if set, observes every executed message and charge (the
	// profiler meters of a profiled process hang off it).
	onBusy func(start sim.Time, cost time.Duration, name string)

	// tracer, if set, records every dispatch, charge, stall and drop on
	// track as structured trace events. A nil tracer costs one branch.
	tracer *trace.Tracer
	track  trace.TrackID
}

// New returns a looper named name driving its messages on sched.
func New(sched *sim.Scheduler, name string) *Looper {
	return &Looper{name: name, sched: sched}
}

// Name returns the looper's label.
func (l *Looper) Name() string { return l.name }

// Scheduler exposes the underlying scheduler, for components that need to
// schedule raw events (e.g. async task completion).
func (l *Looper) Scheduler() *sim.Scheduler { return l.sched }

// SetTracer points the looper's structured instrumentation at tr,
// emitting onto track: executed messages become spans (instants when
// zero-cost), charges become spans under their attributed name, and
// stalls and drops become instants. A nil tracer disables it.
func (l *Looper) SetTracer(tr *trace.Tracer, track trace.TrackID) {
	l.tracer = tr
	l.track = track
}

// SetBusyObserver installs (or, with nil, removes) a callback invoked
// for each executed message and each charge with its start time and cost.
func (l *Looper) SetBusyObserver(fn func(start sim.Time, cost time.Duration, name string)) {
	l.onBusy = fn
}

// TotalBusy returns the cumulative virtual time spent executing messages.
func (l *Looper) TotalBusy() time.Duration { return l.totalBusy }

// Processed returns how many messages have been executed.
func (l *Looper) Processed() uint64 { return l.processed }

// QueueLen returns the number of queued (not yet executed) messages.
func (l *Looper) QueueLen() int { return len(l.queue) }

// Quit stops the looper; queued messages are dropped and future posts are
// rejected.
func (l *Looper) Quit() {
	l.quit = true
	l.queue = nil
	l.sched.Cancel(l.pump)
}

// Quitted reports whether Quit was called.
func (l *Looper) Quitted() bool { return l.quit }

// Post enqueues a message to run as soon as the thread is free.
func (l *Looper) Post(name string, cost time.Duration, fn func()) *Message {
	return l.PostDelayed(0, name, cost, fn)
}

// PostDelayed enqueues a message that becomes runnable after delay.
// Posting to a quit looper returns nil, mirroring Handler.post returning
// false after Looper.quit.
func (l *Looper) PostDelayed(delay time.Duration, name string, cost time.Duration, fn func()) *Message {
	if l.quit {
		return nil
	}
	if delay < 0 {
		delay = 0
	}
	if l.fault != nil {
		f := l.fault(name, cost)
		if f.Drop {
			l.tracer.Instant(l.track, name, "looper", trace.Arg{Key: "dropped", Val: true})
			return &Message{Name: name, Cost: cost, Run: fn, cancelled: true}
		}
		if f.Delay > 0 {
			l.tracer.Instant(l.track, name, "looper", trace.Arg{Key: "delayed", Val: f.Delay})
			delay += f.Delay
		}
		if f.Stall > 0 {
			l.Stall(f.Stall)
		}
	}
	m := &Message{
		Name: name,
		When: l.sched.Now().Add(delay),
		Cost: cost,
		Run:  fn,
		seq:  l.seq,
	}
	l.seq++
	l.insert(m)
	l.schedulePump()
	return m
}

// Stall occupies the thread for d without doing work: queued messages keep
// their relative order but everything runs later. Unlike Charge it adds
// nothing to TotalBusy and is invisible to the busy observer — a stall
// models lost time (GC pause, preemption), not attributed work.
func (l *Looper) Stall(d time.Duration) {
	if d <= 0 || l.quit {
		return
	}
	l.tracer.Instant(l.track, "stall", "looper", trace.Arg{Key: "dur", Val: d})
	start := l.busyUntil
	if now := l.sched.Now(); start < now {
		start = now
	}
	l.busyUntil = start.Add(d)
	l.schedulePump()
}

// insert keeps the queue ordered by (When, seq).
func (l *Looper) insert(m *Message) {
	i := len(l.queue)
	for i > 0 {
		p := l.queue[i-1]
		if p.When < m.When || (p.When == m.When && p.seq < m.seq) {
			break
		}
		i--
	}
	l.queue = append(l.queue, nil)
	copy(l.queue[i+1:], l.queue[i:])
	l.queue[i] = m
}

// schedulePump (re)arms the wakeup event for the head of the queue.
func (l *Looper) schedulePump() {
	if l.quit || len(l.queue) == 0 {
		return
	}
	at := l.queue[0].When
	if l.busyUntil > at {
		at = l.busyUntil
	}
	switch {
	case l.pump == nil:
		l.pump = l.sched.At(at, l.name+":pump", l.dispatch)
	case l.pump.Pending() && l.pump.At <= at:
		// The armed pump fires at or before the needed time.
	default:
		l.sched.Rearm(l.pump, at)
	}
}

// dispatch runs the first eligible message at the current instant and
// re-arms the pump.
func (l *Looper) dispatch() {
	if l.quit {
		return
	}
	now := l.sched.Now()
	if now < l.busyUntil {
		l.schedulePump()
		return
	}
	// Pop the first non-cancelled eligible message.
	for len(l.queue) > 0 {
		m := l.queue[0]
		if m.When > now {
			break
		}
		// Pop by shifting down in place: reslicing past the head would
		// shed a slot of capacity per pop and make insert reallocate.
		n := copy(l.queue, l.queue[1:])
		l.queue[n] = nil
		l.queue = l.queue[:n]
		if m.cancelled {
			continue
		}
		l.busyUntil = now.Add(m.Cost)
		l.totalBusy += m.Cost
		l.processed++
		if l.onBusy != nil {
			l.onBusy(now, m.Cost, m.Name)
		}
		if l.tracer.Enabled() {
			// Dispatch with a real cost is a span; a zero-cost control
			// message is a point on the timeline. The wait argument is the
			// queueing delay past the message's earliest runnable time.
			if m.Cost > 0 {
				l.tracer.Complete(l.track, m.Name, "looper", now, m.Cost,
					trace.Arg{Key: "wait", Val: now.Sub(m.When)})
			} else {
				l.tracer.Instant(l.track, m.Name, "looper")
			}
		}
		l.current = m
		m.Run()
		l.current = nil
		if l.onDispatch != nil {
			// Occupancy measured after Run so it includes every Charge
			// and injected stall folded into the message.
			l.onDispatch(m.Name, now, l.busyUntil.Sub(now))
		}
		break
	}
	l.schedulePump()
}

// BusyUntil returns the virtual time the thread becomes free again.
func (l *Looper) BusyUntil() sim.Time { return l.busyUntil }

// Charge extends the currently-executing message's occupancy by cost.
// It exists for work whose cost is only known after the fact — e.g. a
// lifecycle phase whose cost depends on how many views the app's own
// OnCreate inflated. Messages already queued at this instant wait for the
// extended busy window. Charging outside a message occupies the thread
// starting now.
func (l *Looper) Charge(cost time.Duration) {
	name := "charge"
	if l.current != nil {
		name = l.current.Name
	}
	l.ChargeNamed(cost, name)
}

// ChargeNamed is Charge with an explicit name reported to the busy
// observer — used when one message performs work that should be
// attributed under a more specific label (e.g. the launch pipeline's
// pluggable extra phase).
func (l *Looper) ChargeNamed(cost time.Duration, name string) {
	if cost <= 0 || l.quit {
		return
	}
	start := l.busyUntil
	if now := l.sched.Now(); start < now {
		start = now
	}
	l.busyUntil = start.Add(cost)
	l.totalBusy += cost
	if l.onBusy != nil {
		l.onBusy(start, cost, name)
	}
	l.tracer.Complete(l.track, name, "looper", start, cost)
}

func (l *Looper) String() string {
	return fmt.Sprintf("looper(%s, queued=%d, busy=%v)", l.name, len(l.queue), l.totalBusy)
}

// Handler mirrors android.os.Handler: a named front-end to a looper.
type Handler struct {
	looper *Looper
	tag    string
}

// NewHandler returns a handler posting to l with names prefixed by tag.
func NewHandler(l *Looper, tag string) *Handler {
	return &Handler{looper: l, tag: tag}
}

// Looper returns the underlying looper.
func (h *Handler) Looper() *Looper { return h.looper }

// Post enqueues fn with the given cost.
func (h *Handler) Post(name string, cost time.Duration, fn func()) *Message {
	return h.looper.Post(h.tag+":"+name, cost, fn)
}

// PostDelayed enqueues fn to become runnable after delay.
func (h *Handler) PostDelayed(delay time.Duration, name string, cost time.Duration, fn func()) *Message {
	return h.looper.PostDelayed(delay, h.tag+":"+name, cost, fn)
}
