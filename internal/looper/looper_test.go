package looper

import (
	"testing"
	"testing/quick"
	"time"

	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
)

func newTestLooper() (*sim.Scheduler, *Looper) {
	s := sim.NewScheduler()
	return s, New(s, "ui")
}

// testTrack is the track a traced test looper writes on.
var testTrack = trace.TrackID{Pid: 1, Tid: 1}

// newTracedLooper returns a looper recording on an unbounded tracer, as
// a profiled process's UI looper does.
func newTracedLooper() (*sim.Scheduler, *Looper, *trace.Tracer) {
	s, l := newTestLooper()
	tr := trace.New(s)
	l.SetTracer(tr, testTrack)
	return s, l, tr
}

// busyTime sums the costs of work events.
func busyTime(work []trace.Event) time.Duration {
	var total time.Duration
	for _, e := range work {
		total += e.Dur
	}
	return total
}

func TestPostRunsMessage(t *testing.T) {
	s, l, tr := newTracedLooper()
	ran := false
	l.Post("m", time.Millisecond, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("message did not run")
	}
	work := Work(tr, testTrack)
	if len(work) != 1 || work[0].Name != "m" || work[0].Dur != time.Millisecond {
		t.Fatalf("work = %+v, want one 1ms dispatch of m", work)
	}
}

func TestMessagesSerializeByCost(t *testing.T) {
	s, l := newTestLooper()
	var starts []sim.Time
	for i := 0; i < 3; i++ {
		l.Post("m", 10*time.Millisecond, func() { starts = append(starts, s.Now()) })
	}
	s.Run()
	want := []sim.Time{0, sim.Time(10 * time.Millisecond), sim.Time(20 * time.Millisecond)}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("starts = %v, want %v", starts, want)
		}
	}
}

func TestDelayedMessageWaits(t *testing.T) {
	s, l := newTestLooper()
	var at sim.Time
	l.PostDelayed(50*time.Millisecond, "late", time.Millisecond, func() { at = s.Now() })
	s.Run()
	if at != sim.Time(50*time.Millisecond) {
		t.Fatalf("ran at %v, want 50ms", at)
	}
}

func TestImmediateMessageOvertakesDelayed(t *testing.T) {
	s, l := newTestLooper()
	var order []string
	l.PostDelayed(100*time.Millisecond, "late", time.Millisecond, func() { order = append(order, "late") })
	l.Post("now", time.Millisecond, func() { order = append(order, "now") })
	s.Run()
	if len(order) != 2 || order[0] != "now" || order[1] != "late" {
		t.Fatalf("order = %v", order)
	}
}

func TestSameTimeIsFIFO(t *testing.T) {
	s, l := newTestLooper()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		l.Post("m", 0, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestNestedPostRunsAfterCurrent(t *testing.T) {
	s, l := newTestLooper()
	var order []string
	l.Post("outer", 5*time.Millisecond, func() {
		l.Post("inner", time.Millisecond, func() {
			order = append(order, "inner")
			if s.Now() != sim.Time(5*time.Millisecond) {
				t.Errorf("inner ran at %v, want 5ms (after outer's cost)", s.Now())
			}
		})
		order = append(order, "outer")
	})
	s.Run()
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order = %v", order)
	}
}

func TestQuitDropsQueueAndRejectsPosts(t *testing.T) {
	s, l := newTestLooper()
	ran := false
	l.Post("m", time.Millisecond, func() { ran = true })
	l.Quit()
	if l.Post("rejected", 0, func() {}) {
		t.Fatal("post after quit reported the message queued")
	}
	s.Run()
	if ran {
		t.Fatal("message ran after quit")
	}
	if !l.Quitted() {
		t.Fatal("Quitted = false")
	}
	if l.QueueLen() != 0 {
		t.Fatal("queue not dropped")
	}
}

// The trace, the looper's one record of work, sees every dispatched
// message in dispatch order.
func TestBusyObserverSeesEveryMessage(t *testing.T) {
	s, l, tr := newTracedLooper()
	l.Post("a", time.Millisecond, func() {})
	l.Post("b", 2*time.Millisecond, func() {})
	s.Run()
	work := Work(tr, testTrack)
	if len(work) != 2 || work[0].Name != "a" || work[1].Name != "b" {
		t.Fatalf("work = %+v", work)
	}
	if work[0].TS != 0 || work[1].TS != sim.Time(time.Millisecond) {
		t.Fatalf("starts = %v, %v; want 0, 1ms", work[0].TS, work[1].TS)
	}
	if total := busyTime(work); total != 3*time.Millisecond {
		t.Fatalf("total = %v", total)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s, l := newTestLooper()
	ran := false
	l.PostDelayed(-time.Second, "m", 0, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("did not run")
	}
}

func TestStringDescribes(t *testing.T) {
	_, l := newTestLooper()
	l.Post("m", 0, func() {})
	if got := l.String(); got != "looper(ui, queued=1)" || l.Name() != "ui" {
		t.Fatalf("String/Name wrong: %q %q", got, l.Name())
	}
}

// Property: with k messages of equal cost c posted at time zero, message i
// starts exactly at i*c, and total busy time is k*c.
func TestSerializationProperty(t *testing.T) {
	f := func(k, cMicros uint8) bool {
		n := int(k%16) + 1
		c := time.Duration(int(cMicros)+1) * time.Microsecond
		s, l, tr := newTracedLooper()
		var starts []sim.Time
		for i := 0; i < n; i++ {
			l.Post("m", c, func() { starts = append(starts, s.Now()) })
		}
		s.Run()
		if len(starts) != n {
			return false
		}
		for i, st := range starts {
			if st != sim.Time(time.Duration(i)*c) {
				return false
			}
		}
		return busyTime(Work(tr, testTrack)) == time.Duration(n)*c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: messages never start before their delivery time.
func TestDeliveryTimeProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s, l := newTestLooper()
		ok := true
		for _, d := range delays {
			when := time.Duration(d) * time.Microsecond
			deadline := s.Now().Add(when)
			l.PostDelayed(when, "m", 10*time.Microsecond, func() {
				if s.Now() < deadline {
					ok = false
				}
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChargeExtendsCurrentMessage(t *testing.T) {
	s, l, tr := newTracedLooper()
	var second sim.Time
	l.Post("first", 0, func() { l.Charge(8 * time.Millisecond) })
	l.Post("second", 0, func() { second = s.Now() })
	s.Run()
	if second != sim.Time(8*time.Millisecond) {
		t.Fatalf("second ran at %v, want 8ms (after charge)", second)
	}
	if busy := busyTime(Work(tr, testTrack)); busy != 8*time.Millisecond {
		t.Fatalf("busy = %v", busy)
	}
}

func TestChargeObservedByBusyObserver(t *testing.T) {
	s, l, tr := newTracedLooper()
	l.Post("phase", 0, func() { l.Charge(3 * time.Millisecond) })
	s.Run()
	// The zero-cost dispatch and the charge both record under the
	// message's name.
	work := Work(tr, testTrack)
	if len(work) != 2 || work[0].Name != "phase" || work[0].Dur != 0 ||
		work[1].Name != "phase" || work[1].Dur != 3*time.Millisecond {
		t.Fatalf("work = %+v", work)
	}
}

func TestChargeOutsideMessageOccupiesFromNow(t *testing.T) {
	s, l := newTestLooper()
	l.Charge(5 * time.Millisecond)
	var at sim.Time
	l.Post("after", 0, func() { at = s.Now() })
	s.Run()
	if at != sim.Time(5*time.Millisecond) {
		t.Fatalf("ran at %v, want 5ms", at)
	}
}

func TestChargeIgnoredWhenQuitOrNonPositive(t *testing.T) {
	_, l, tr := newTracedLooper()
	l.Charge(-time.Second)
	if work := Work(tr, testTrack); len(work) != 0 {
		t.Fatalf("negative charge recorded: %+v", work)
	}
	l.Quit()
	l.Charge(time.Second)
	if work := Work(tr, testTrack); len(work) != 0 {
		t.Fatalf("charge after quit recorded: %+v", work)
	}
}

// Re-arming the pump allocates nothing: the looper's one pump event, with
// its name and dispatch callback, is built on the first arm and re-armed
// in place from then on.
func TestPumpRearmAllocatesNothing(t *testing.T) {
	s, l := newTestLooper()
	l.Post("m", time.Millisecond, func() {})
	pump := l.pump
	allocs := testing.AllocsPerRun(100, func() {
		s.Cancel(l.pump)
		l.schedulePump()
	})
	if allocs != 0 {
		t.Fatalf("pump re-arm made %.0f allocations, want 0", allocs)
	}
	if l.pump != pump || !pump.Pending() {
		t.Fatal("pump re-arm replaced the looper's event or left it unarmed")
	}
}

// Posting and dispatching allocate nothing: the queue holds messages by
// value and reuses the slots it pops, and a charged message carries its
// cost function itself, not a wrapper closure. The looper is untraced,
// as on every unprofiled process: a tracer appends an event per message.
func TestQueuePopKeepsCapacity(t *testing.T) {
	s, l := newTestLooper()
	l.SetUncaughtHandler(func(r any) { panic(r) })
	noop := func() {}
	charges := 0
	charge := func() time.Duration { charges++; return time.Millisecond }
	l.Post("warm", 0, noop)
	l.PostCharged("warm", charge)
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		l.Post("m", 0, noop)
		l.PostCharged("c", charge)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("post+dispatch made %.0f allocations, want 0", allocs)
	}
	// The warm-up, AllocsPerRun's own warm-up run and the 100 measured
	// runs each charged once.
	if charges != 102 {
		t.Fatalf("charged %d times, want 102", charges)
	}
}
