package looper

import (
	"testing"
	"testing/quick"
	"time"

	"rchdroid/internal/sim"
)

func newTestLooper() (*sim.Scheduler, *Looper) {
	s := sim.NewScheduler()
	return s, New(s, "ui")
}

func TestPostRunsMessage(t *testing.T) {
	s, l := newTestLooper()
	ran := false
	l.Post("m", time.Millisecond, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("message did not run")
	}
	if l.Processed() != 1 {
		t.Fatalf("Processed = %d", l.Processed())
	}
	if l.TotalBusy() != time.Millisecond {
		t.Fatalf("TotalBusy = %v", l.TotalBusy())
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

func TestBusyObserverSeesEveryMessage(t *testing.T) {
	s, l := newTestLooper()
	var seen []string
	var total time.Duration
	l.SetBusyObserver(func(_ sim.Time, cost time.Duration, name string) {
		seen = append(seen, name)
		total += cost
	})
	l.Post("a", time.Millisecond, func() {})
	l.Post("b", 2*time.Millisecond, func() {})
	s.Run()
	if len(seen) != 2 || seen[0] != "a" || seen[1] != "b" {
		t.Fatalf("seen = %v", seen)
	}
	if total != 3*time.Millisecond {
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
	if got := l.String(); got == "" || l.Name() != "ui" {
		t.Fatalf("String/Name wrong: %q %q", got, l.Name())
	}
}

// Property: with k messages of equal cost c posted at time zero, message i
// starts exactly at i*c, and total busy time is k*c.
func TestSerializationProperty(t *testing.T) {
	f := func(k, cMicros uint8) bool {
		n := int(k%16) + 1
		c := time.Duration(int(cMicros)+1) * time.Microsecond
		s, l := newTestLooper()
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
		return l.TotalBusy() == time.Duration(n)*c
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
	s, l := newTestLooper()
	var second sim.Time
	l.Post("first", 0, func() { l.Charge(8 * time.Millisecond) })
	l.Post("second", 0, func() { second = s.Now() })
	s.Run()
	if second != sim.Time(8*time.Millisecond) {
		t.Fatalf("second ran at %v, want 8ms (after charge)", second)
	}
	if l.TotalBusy() != 8*time.Millisecond {
		t.Fatalf("TotalBusy = %v", l.TotalBusy())
	}
}

func TestChargeObservedByBusyObserver(t *testing.T) {
	s, l := newTestLooper()
	var names []string
	var costs []time.Duration
	l.SetBusyObserver(func(_ sim.Time, c time.Duration, n string) {
		names = append(names, n)
		costs = append(costs, c)
	})
	l.Post("phase", 0, func() { l.Charge(3 * time.Millisecond) })
	s.Run()
	// The zero-cost dispatch and the charge both report under the
	// message's name.
	if len(names) != 2 || names[1] != "phase" || costs[1] != 3*time.Millisecond {
		t.Fatalf("observer saw %v %v", names, costs)
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
	_, l := newTestLooper()
	l.Charge(-time.Second)
	if l.TotalBusy() != 0 {
		t.Fatal("negative charge recorded")
	}
	l.Quit()
	l.Charge(time.Second)
	if l.TotalBusy() != 0 {
		t.Fatal("charge after quit recorded")
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
// cost function itself, not a wrapper closure.
func TestQueuePopKeepsCapacity(t *testing.T) {
	s, l := newTestLooper()
	l.SetUncaughtHandler(func(r any) { panic(r) })
	noop := func() {}
	charge := func() time.Duration { return time.Millisecond }
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
	// runs each charged 1ms.
	if l.TotalBusy() != 102*time.Millisecond {
		t.Fatalf("TotalBusy = %v, want 102ms of charges", l.TotalBusy())
	}
}

// A forked looper's pump keeps the event name and dispatches the fork's
// own queue, never the looper it was forked from.
func TestForkPumpDispatchesFork(t *testing.T) {
	s, l := newTestLooper()
	l.Post("warm", time.Millisecond, func() {})
	s.Run()
	fs, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	f, err := l.Fork(fs)
	if err != nil {
		t.Fatal(err)
	}
	rec := &sim.RecordingTracer{}
	fs.SetTracer(rec)
	ran := false
	f.Post("m", time.Millisecond, func() { ran = true })
	fs.Run()
	if !ran || f.Processed() != 2 || l.Processed() != 1 {
		t.Fatalf("ran=%v fork processed=%d original processed=%d, want true/2/1", ran, f.Processed(), l.Processed())
	}
	if names := rec.Names(); len(names) != 1 || names[0] != "ui:pump" {
		t.Fatalf("fork fired %v, want [ui:pump]", names)
	}
}
