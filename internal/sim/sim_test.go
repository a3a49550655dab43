package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerStartsAtZero(t *testing.T) {
	s := NewScheduler()
	if s.Now() != 0 {
		t.Fatalf("new scheduler clock = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("new scheduler pending = %d, want 0", s.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []string
	s.After(30*time.Millisecond, "c", func() { got = append(got, "c") })
	s.After(10*time.Millisecond, "a", func() { got = append(got, "a") })
	s.After(20*time.Millisecond, "b", func() { got = append(got, "b") })
	s.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	}
	if s.Now() != Time(30*time.Millisecond) {
		t.Fatalf("clock after Run = %v, want 30ms", s.Now())
	}
}

func TestSameTimestampIsFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5*time.Millisecond, "e", func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %v", i, got)
		}
	}
}

func TestPostRunsAtCurrentInstant(t *testing.T) {
	s := NewScheduler()
	var at Time
	s.After(7*time.Millisecond, "outer", func() {
		s.Post("inner", func() { at = s.Now() })
	})
	s.Run()
	if at != Time(7*time.Millisecond) {
		t.Fatalf("posted event ran at %v, want 7ms", at)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.After(time.Millisecond, "x", func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("event does not report cancelled")
	}
	// Double-cancel is a no-op.
	s.Cancel(e)
}

func TestCancelOneOfMany(t *testing.T) {
	s := NewScheduler()
	var got []string
	a := s.After(1*time.Millisecond, "a", func() { got = append(got, "a") })
	s.After(2*time.Millisecond, "b", func() { got = append(got, "b") })
	s.After(3*time.Millisecond, "c", func() { got = append(got, "c") })
	s.Cancel(a)
	s.Run()
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("got %v, want [b c]", got)
	}
}

func TestRunUntilHonoursWindow(t *testing.T) {
	s := NewScheduler()
	var got []string
	s.After(10*time.Millisecond, "in", func() {
		got = append(got, "in")
		s.After(5*time.Millisecond, "chained", func() { got = append(got, "chained") })
	})
	s.After(100*time.Millisecond, "out", func() { got = append(got, "out") })
	s.RunUntil(Time(20 * time.Millisecond))
	if len(got) != 2 || got[0] != "in" || got[1] != "chained" {
		t.Fatalf("got %v, want [in chained]", got)
	}
	if s.Now() != Time(20*time.Millisecond) {
		t.Fatalf("clock = %v, want 20ms", s.Now())
	}
	s.Run()
	if len(got) != 3 || got[2] != "out" {
		t.Fatalf("after Run got %v", got)
	}
}

func TestAdvanceMovesClockEvenWithoutEvents(t *testing.T) {
	s := NewScheduler()
	s.Advance(42 * time.Millisecond)
	if s.Now() != Time(42*time.Millisecond) {
		t.Fatalf("clock = %v, want 42ms", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler()
	e := s.At(Time(time.Millisecond), "owned", func() {})
	s.Advance(10 * time.Millisecond)
	for name, schedule := range map[string]func(){
		"At":    func() { s.At(Time(5*time.Millisecond), "past", func() {}) },
		"Rearm": func() { s.Rearm(e, Time(5*time.Millisecond)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic scheduling in the past", name)
				}
			}()
			schedule()
		}()
	}
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	s := NewScheduler()
	s.Advance(time.Millisecond)
	fired := false
	s.After(-time.Second, "neg", func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("event with negative delay did not fire")
	}
	if s.Now() != Time(time.Millisecond) {
		t.Fatalf("clock moved to %v", s.Now())
	}
}

func TestTracerSeesEvents(t *testing.T) {
	s := NewScheduler()
	tr := &RecordingTracer{}
	s.SetTracer(tr)
	s.After(time.Millisecond, "one", func() {})
	s.After(2*time.Millisecond, "two", func() {})
	s.Run()
	names := tr.Names()
	if len(names) != 2 || names[0] != "one" || names[1] != "two" {
		t.Fatalf("trace = %v", names)
	}
	if tr.Entries[1].At != Time(2*time.Millisecond) {
		t.Fatalf("second entry at %v", tr.Entries[1].At)
	}
	if s.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", s.Fired())
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * time.Microsecond)
	if tm.Milliseconds() != 1.5 {
		t.Fatalf("Milliseconds = %v, want 1.5", tm.Milliseconds())
	}
	if tm.Add(500*time.Microsecond) != Time(2*time.Millisecond) {
		t.Fatalf("Add wrong")
	}
	if tm.Sub(Time(time.Millisecond)) != 500*time.Microsecond {
		t.Fatalf("Sub wrong")
	}
	if tm.String() != "1.5ms" {
		t.Fatalf("String = %q", tm.String())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler()
		var fired []Time
		var max Time
		for _, d := range delays {
			dur := time.Duration(d) * time.Microsecond
			if Time(dur) > max {
				max = Time(dur)
			}
			s.After(dur, "e", func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || s.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: re-arming an owned event fires exactly what cancelling it
// and scheduling a fresh one would: the same names at the same times in
// the same order, with the same fired count. Each op byte re-arms one of
// three owned events (pending, fired or cancelled alike) or posts a
// bystander event, so same-instant tie-breaks against other events are
// exercised too.
func TestRearmMatchesCancelThenAt(t *testing.T) {
	run := func(ops []byte, rearm bool) ([]TraceEntry, uint64) {
		s := NewScheduler()
		tr := &RecordingTracer{}
		s.SetTracer(tr)
		names := [3]string{"a", "b", "c"}
		var owned [3]*Event
		for i, op := range ops {
			at := s.Now().Add(time.Duration(op>>3) * time.Millisecond)
			switch k := int(op & 3); {
			case k == 3:
				s.At(at, "other", func() {})
			case owned[k] == nil:
				owned[k] = s.At(at, names[k], func() {})
			case rearm:
				s.Rearm(owned[k], at)
			default:
				s.Cancel(owned[k])
				owned[k] = s.At(at, names[k], func() {})
			}
			if op&4 != 0 {
				if k := int(op & 3); k < 3 && owned[k] != nil {
					s.Cancel(owned[k])
				}
			}
			if i%3 == 2 {
				s.Step()
			}
		}
		s.Run()
		return tr.Entries, s.Fired()
	}
	f := func(ops []byte) bool {
		want, wantFired := run(ops, false)
		got, gotFired := run(ops, true)
		if gotFired != wantFired || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Re-arming reuses the caller's event: a pending, a cancelled and a fired
// event all go back in the queue without an allocation, and a cancelled
// one stops reporting Cancelled.
func TestRearmReusesTheEvent(t *testing.T) {
	s := NewScheduler()
	fired := 0
	e := s.At(Time(time.Millisecond), "e", func() { fired++ })
	allocs := testing.AllocsPerRun(100, func() {
		s.Rearm(e, s.Now().Add(2*time.Millisecond)) // pending
		s.Cancel(e)
		s.Rearm(e, s.Now().Add(time.Millisecond)) // cancelled
		s.Step()
		s.Rearm(e, s.Now()) // fired
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("Rearm made %.0f allocations, want 0", allocs)
	}
	if e.Cancelled() || e.Pending() || fired != 202 {
		t.Fatalf("cancelled=%v pending=%v fired=%d, want false/false/202", e.Cancelled(), e.Pending(), fired)
	}
}

// Property: RNG streams are deterministic per seed and Intn stays in range.
func TestRNGProperties(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		m := int(n%100) + 1
		v := NewRNG(seed).Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		j := r.Jitter(0.05)
		if j < 0.95 || j > 1.05 {
			t.Fatalf("jitter out of bounds: %v", j)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}
