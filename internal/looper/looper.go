// Package looper reimplements Android's Looper and MessageQueue on the
// virtual clock. Every app process has one UI looper (the activity
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

// message is one unit of work queued on a looper. The queue holds
// messages by value, so a post allocates nothing of its own.
type message struct {
	name string
	// when is the earliest virtual time the message may run.
	when sim.Time
	// cost is how long the message occupies the thread.
	cost time.Duration
	seq  uint64
	// run is the body; a charged message has charged instead, whose
	// result is charged to the message once it returns.
	run     func()
	charged func() time.Duration
	// caught runs the body under the looper's uncaught handler.
	caught bool
}

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
	// Drop swallows the message: the post reports it was not queued and
	// it never runs.
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
	queue     []message
	seq       uint64
	busyUntil sim.Time
	totalBusy time.Duration
	processed uint64
	quit      bool
	fault     FaultInjector

	// dispatching is set while a message body runs; running is that
	// message's name, the label Charge attributes to.
	dispatching bool
	running     string

	// uncaught, if set, receives whatever a caught message's body panics
	// with; it re-panics what it does not handle.
	uncaught func(r any)

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

// SetUncaughtHandler installs (or, with nil, removes) the handler a
// caught message's panic is recovered into, the looper's equivalent of
// Thread.UncaughtExceptionHandler. fn re-panics values it does not
// handle. Without a handler a caught message runs like any other and
// its panic propagates.
func (l *Looper) SetUncaughtHandler(fn func(r any)) { l.uncaught = fn }

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

// Post enqueues a message to run as soon as the thread is free. It
// reports whether the message was queued.
func (l *Looper) Post(name string, cost time.Duration, fn func()) bool {
	return l.post(0, message{name: name, cost: cost, run: fn})
}

// PostDelayed enqueues a message that becomes runnable after delay. It
// reports whether the message was queued: posting to a quit looper
// returns false, mirroring Handler.post after Looper.quit, and so does
// an injected drop.
func (l *Looper) PostDelayed(delay time.Duration, name string, cost time.Duration, fn func()) bool {
	return l.post(delay, message{name: name, cost: cost, run: fn})
}

// PostCaught is Post for a caught message: a panic escaping fn is
// recovered into the uncaught handler instead of unwinding the
// scheduler.
func (l *Looper) PostCaught(name string, cost time.Duration, fn func()) bool {
	return l.post(0, message{name: name, cost: cost, run: fn, caught: true})
}

// PostCharged enqueues a caught, zero-cost message whose body reports
// its own cost: fn runs at dispatch and the duration it returns is
// charged to the message, as Charge would. A body that panics charges
// nothing.
func (l *Looper) PostCharged(name string, fn func() time.Duration) bool {
	return l.post(0, message{name: name, charged: fn, caught: true})
}

// post consults the fault injector and queues m after delay.
func (l *Looper) post(delay time.Duration, m message) bool {
	if l.quit {
		return false
	}
	if delay < 0 {
		delay = 0
	}
	if l.fault != nil {
		f := l.fault(m.name, m.cost)
		if f.Drop {
			if l.tracer.Enabled() {
				l.tracer.Instant(l.track, m.name, "looper", trace.Arg{Key: "dropped", Val: true})
			}
			return false
		}
		if f.Delay > 0 {
			if l.tracer.Enabled() {
				l.tracer.Instant(l.track, m.name, "looper", trace.Arg{Key: "delayed", Val: f.Delay})
			}
			delay += f.Delay
		}
		if f.Stall > 0 {
			l.Stall(f.Stall)
		}
	}
	m.when = l.sched.Now().Add(delay)
	m.seq = l.seq
	l.seq++
	l.insert(m)
	l.schedulePump()
	return true
}

// Stall occupies the thread for d without doing work: queued messages keep
// their relative order but everything runs later. Unlike Charge it adds
// nothing to TotalBusy and is invisible to the busy observer — a stall
// models lost time (GC pause, preemption), not attributed work.
func (l *Looper) Stall(d time.Duration) {
	if d <= 0 || l.quit {
		return
	}
	if l.tracer.Enabled() {
		l.tracer.Instant(l.track, "stall", "looper", trace.Arg{Key: "dur", Val: d})
	}
	start := l.busyUntil
	if now := l.sched.Now(); start < now {
		start = now
	}
	l.busyUntil = start.Add(d)
	l.schedulePump()
}

// insert keeps the queue ordered by (when, seq).
func (l *Looper) insert(m message) {
	i := len(l.queue)
	for i > 0 {
		p := &l.queue[i-1]
		if p.when < m.when || (p.when == m.when && p.seq < m.seq) {
			break
		}
		i--
	}
	l.queue = append(l.queue, message{})
	copy(l.queue[i+1:], l.queue[i:])
	l.queue[i] = m
}

// schedulePump (re)arms the wakeup event for the head of the queue.
func (l *Looper) schedulePump() {
	if l.quit || len(l.queue) == 0 {
		return
	}
	at := l.queue[0].when
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
	if now < l.busyUntil || len(l.queue) == 0 || l.queue[0].when > now {
		l.schedulePump()
		return
	}
	m := l.queue[0]
	// Pop by shifting down in place: reslicing past the head would shed a
	// slot of capacity per pop and make insert reallocate.
	n := copy(l.queue, l.queue[1:])
	l.queue[n] = message{}
	l.queue = l.queue[:n]
	l.busyUntil = now.Add(m.cost)
	l.totalBusy += m.cost
	l.processed++
	if l.onBusy != nil {
		l.onBusy(now, m.cost, m.name)
	}
	if l.tracer.Enabled() {
		// Dispatch with a real cost is a span; a zero-cost control
		// message is a point on the timeline. The wait argument is the
		// queueing delay past the message's earliest runnable time.
		if m.cost > 0 {
			l.tracer.Complete(l.track, m.name, "looper", now, m.cost,
				trace.Arg{Key: "wait", Val: now.Sub(m.when)})
		} else {
			l.tracer.Instant(l.track, m.name, "looper")
		}
	}
	l.dispatching, l.running = true, m.name
	if m.caught && l.uncaught != nil {
		l.runCaught(&m)
	} else {
		l.run(&m)
	}
	l.dispatching, l.running = false, ""
	if l.onDispatch != nil {
		// Occupancy measured after the body so it includes every Charge
		// and injected stall folded into the message.
		l.onDispatch(m.name, now, l.busyUntil.Sub(now))
	}
	l.schedulePump()
}

// run executes m's body, charging a charged message what it reports.
func (l *Looper) run(m *message) {
	if m.charged != nil {
		l.ChargeNamed(m.charged(), m.name)
		return
	}
	m.run()
}

// runCaught runs m's body, recovering a panic into the uncaught handler.
func (l *Looper) runCaught(m *message) {
	defer func() {
		if r := recover(); r != nil {
			l.uncaught(r)
		}
	}()
	l.run(m)
}

// Charge extends the currently-executing message's occupancy by cost.
// It exists for work whose cost is only known after the fact — e.g. a
// lifecycle phase whose cost depends on how many views the app's own
// OnCreate inflated. Messages already queued at this instant wait for the
// extended busy window. Charging outside a message occupies the thread
// starting now.
func (l *Looper) Charge(cost time.Duration) {
	name := "charge"
	if l.dispatching {
		name = l.running
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
