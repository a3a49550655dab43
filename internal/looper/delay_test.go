package looper

import (
	"testing"
	"time"

	"rchdroid/internal/sim"
)

// These tests cover the looper under injected faults — the previously
// fault-free timer and ordering guarantees must degrade exactly as the
// Fault contract promises: stalls shift everything uniformly, delays
// shift one message, drops lose one message, and nothing else moves.

func TestInjectedStallShiftsAllMessagesUniformly(t *testing.T) {
	s, l := newTestLooper()
	l.SetFaultInjector(func(name string, cost time.Duration) Fault {
		if name == "first" {
			return Fault{Stall: 30 * time.Millisecond}
		}
		return Fault{}
	})
	var order []string
	var at []sim.Time
	run := func(name string) func() {
		return func() { order = append(order, name); at = append(at, s.Now()) }
	}
	l.Post("first", 10*time.Millisecond, run("first"))
	l.Post("second", 10*time.Millisecond, run("second"))
	s.Run()
	if order[0] != "first" || order[1] != "second" {
		t.Fatalf("stall reordered messages: %v", order)
	}
	// Both start 30 ms later than the fault-free schedule (0 and 10 ms).
	if at[0] != sim.Time(30*time.Millisecond) || at[1] != sim.Time(40*time.Millisecond) {
		t.Fatalf("starts = %v, want [30ms 40ms]", at)
	}
}

func TestInjectedStallIsInvisibleToBusyAccounting(t *testing.T) {
	s, l := newTestLooper()
	l.SetFaultInjector(func(string, time.Duration) Fault {
		return Fault{Stall: 25 * time.Millisecond}
	})
	var observed []time.Duration
	l.SetBusyObserver(func(_ sim.Time, cost time.Duration, _ string) { observed = append(observed, cost) })
	l.Post("m", 5*time.Millisecond, func() {})
	s.Run()
	// The stall occupies the thread but is not message work: TotalBusy
	// and the busy observer see only the message's own cost.
	if l.TotalBusy() != 5*time.Millisecond {
		t.Fatalf("TotalBusy = %v, want 5ms", l.TotalBusy())
	}
	if len(observed) != 1 || observed[0] != 5*time.Millisecond {
		t.Fatalf("busy observer saw %v, want [5ms]", observed)
	}
}

func TestInjectedDelayShiftsOnlyTheFaultedMessage(t *testing.T) {
	s, l := newTestLooper()
	l.SetFaultInjector(func(name string, cost time.Duration) Fault {
		if name == "victim" {
			return Fault{Delay: 40 * time.Millisecond}
		}
		return Fault{}
	})
	var order []string
	l.Post("victim", time.Millisecond, func() { order = append(order, "victim") })
	l.Post("bystander", time.Millisecond, func() { order = append(order, "bystander") })
	s.Run()
	// The delayed message is overtaken — exactly the reordering hazard
	// the Fault doc warns about, and why only droppable names get it.
	if len(order) != 2 || order[0] != "bystander" || order[1] != "victim" {
		t.Fatalf("order = %v, want [bystander victim]", order)
	}
}

func TestInjectedDelayAddsToTimerDelay(t *testing.T) {
	s, l := newTestLooper()
	l.SetFaultInjector(func(string, time.Duration) Fault {
		return Fault{Delay: 15 * time.Millisecond}
	})
	var at sim.Time
	l.PostDelayed(50*time.Millisecond, "late", time.Millisecond, func() { at = s.Now() })
	s.Run()
	if at != sim.Time(65*time.Millisecond) {
		t.Fatalf("ran at %v, want 65ms", at)
	}
}

func TestInjectedDropNeverRunsAndReportsCancelled(t *testing.T) {
	s, l := newTestLooper()
	l.SetFaultInjector(func(name string, cost time.Duration) Fault {
		return Fault{Drop: name == "doomed"}
	})
	ran := false
	survived := false
	queued := l.Post("doomed", time.Millisecond, func() { ran = true })
	l.Post("other", time.Millisecond, func() { survived = true })
	s.Run()
	if ran {
		t.Fatal("dropped message ran")
	}
	if queued {
		t.Fatal("dropped message reported queued to the poster")
	}
	if !survived {
		t.Fatal("drop of one message lost another")
	}
	if l.Processed() != 1 {
		t.Fatalf("Processed = %d, want 1 (drops are not processed)", l.Processed())
	}
}

func TestStallExtendsOccupancyFromNow(t *testing.T) {
	s, l := newTestLooper()
	l.Stall(20 * time.Millisecond)
	var at sim.Time
	l.Post("m", time.Millisecond, func() { at = s.Now() })
	s.Run()
	if at != sim.Time(20*time.Millisecond) {
		t.Fatalf("message started at %v, want 20ms (behind the stall)", at)
	}
	if l.TotalBusy() != time.Millisecond {
		t.Fatalf("TotalBusy = %v, want 1ms (stall not counted as work)", l.TotalBusy())
	}
}

func TestFaultInjectorConsultedOncePerPost(t *testing.T) {
	s, l := newTestLooper()
	calls := 0
	l.SetFaultInjector(func(string, time.Duration) Fault { calls++; return Fault{} })
	for i := 0; i < 5; i++ {
		l.Post("m", time.Millisecond, func() {})
	}
	s.Run()
	if calls != 5 {
		t.Fatalf("injector called %d times for 5 posts", calls)
	}
	l.SetFaultInjector(nil)
	l.Post("m", time.Millisecond, func() {})
	s.Run()
	if calls != 5 {
		t.Fatal("removed injector still consulted")
	}
}
