package ipc

import (
	"testing"
	"time"

	"rchdroid/internal/looper"
	"rchdroid/internal/sim"
)

func setup() (*sim.Scheduler, *Endpoint, *Bus) {
	s := sim.NewScheduler()
	l := looper.New(s, "system")
	return s, NewEndpoint("atms", l), NewBus(1200 * time.Microsecond)
}

func TestTransactPaysHopLatency(t *testing.T) {
	s, ep, bus := setup()
	var at sim.Time
	bus.Transact(ep, StartActivity, 128, 500*time.Microsecond, func() { at = s.Now() })
	s.Run()
	if at != sim.Time(1200*time.Microsecond) {
		t.Fatalf("delivered at %v, want 1.2ms", at)
	}
	if bus.HopLatency() != 1200*time.Microsecond {
		t.Fatalf("HopLatency = %v", bus.HopLatency())
	}
}

func TestTransactionAccounting(t *testing.T) {
	s, ep, bus := setup()
	for i := 0; i < 3; i++ {
		bus.Transact(ep, ActivityResumed, 100, 0, func() {})
	}
	s.Run()
	if bus.Transactions() != 3 {
		t.Fatalf("Transactions = %d", bus.Transactions())
	}
	if bus.BytesTransferred() != 300 {
		t.Fatalf("Bytes = %d", bus.BytesTransferred())
	}
}

func TestTransactionsSerializeOnTargetLooper(t *testing.T) {
	s, ep, bus := setup()
	var starts []sim.Time
	bus.Transact(ep, ScheduleLaunch, 0, 10*time.Millisecond, func() { starts = append(starts, s.Now()) })
	bus.Transact(ep, RuntimeChange, 0, 10*time.Millisecond, func() { starts = append(starts, s.Now()) })
	s.Run()
	if len(starts) != 2 {
		t.Fatalf("delivered %d", len(starts))
	}
	if starts[1].Sub(starts[0]) != 10*time.Millisecond {
		t.Fatalf("second start %v after first; want 10ms (serialized)", starts[1].Sub(starts[0]))
	}
}

func TestRoundTripCostsTwoHops(t *testing.T) {
	s := sim.NewScheduler()
	appL := looper.New(s, "app")
	sysL := looper.New(s, "system")
	app := NewEndpoint("app", appL)
	system := NewEndpoint("system", sysL)
	bus := NewBus(time.Millisecond)

	var done sim.Time
	// app -> system -> app, as in a startActivity round trip.
	bus.Transact(system, StartActivity, 0, 0, func() {
		bus.Transact(app, ScheduleLaunch, 0, 0, func() { done = s.Now() })
	})
	s.Run()
	if done != sim.Time(2*time.Millisecond) {
		t.Fatalf("round trip = %v, want 2ms", done)
	}
}

func TestTransactAtDelaysDispatch(t *testing.T) {
	s, ep, bus := setup()
	var at sim.Time
	bus.TransactAt(sim.Time(10*time.Millisecond), ep, RuntimeChange, 0, 0, func() { at = s.Now() })
	s.Run()
	want := sim.Time(10*time.Millisecond + 1200*time.Microsecond)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestTransactAtInPastBehavesLikeTransact(t *testing.T) {
	s, ep, bus := setup()
	s.Advance(5 * time.Millisecond)
	var at sim.Time
	bus.TransactAt(sim.Time(time.Millisecond), ep, RuntimeChange, 0, 0, func() { at = s.Now() })
	s.Run()
	want := sim.Time(5*time.Millisecond + 1200*time.Microsecond)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

// A transaction runs as "binder:<endpoint>:<txn>", a name each endpoint
// builds once per transaction code rather than on every call.
func TestTransactNameBuiltOnce(t *testing.T) {
	s, ep, bus := setup()
	var got string
	ep.Looper.SetBusyObserver(func(_ sim.Time, _ time.Duration, name string) { got = name })
	noop := func() {}
	bus.Transact(ep, StartActivity, 0, 0, noop)
	s.Run()
	if got != "binder:atms:startActivity" {
		t.Fatalf("message name = %q, want binder:atms:startActivity", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		bus.Transact(ep, StartActivity, 0, 0, noop)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("transact+dispatch made %.0f allocations, want 0", allocs)
	}
}
