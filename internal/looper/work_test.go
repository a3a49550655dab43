package looper

import (
	"testing"
	"time"

	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
)

// These tests pin the looper's trace encoding at its source: the trace
// is the only record of UI-thread work, and Work its one decoder.

// argOf returns the value of e's argument key, and whether it has one.
func argOf(e trace.Event, key string) (any, bool) {
	for _, a := range e.Args {
		if a.Key == key {
			return a.Val, true
		}
	}
	return nil, false
}

// A dispatch span carries its queueing delay past the message's earliest
// runnable time as the wait argument.
func TestDispatchSpanCarriesWait(t *testing.T) {
	s, l, tr := newTracedLooper()
	l.Post("first", 10*time.Millisecond, func() {})
	l.Post("second", 10*time.Millisecond, func() {})
	s.Run()
	work := Work(tr, testTrack)
	if len(work) != 2 {
		t.Fatalf("work = %+v", work)
	}
	for i, want := range []time.Duration{0, 10 * time.Millisecond} {
		if got, ok := argOf(work[i], "wait"); !ok || got != want {
			t.Fatalf("%s wait = %v (present %v), want %v", work[i].Name, got, ok, want)
		}
	}
}

// A charge outside any message occupies the thread from now and is
// recorded under the name "charge".
func TestChargeOutsideMessageNamedCharge(t *testing.T) {
	s, l, tr := newTracedLooper()
	s.Advance(2 * time.Millisecond)
	l.Charge(5 * time.Millisecond)
	work := Work(tr, testTrack)
	if len(work) != 1 || work[0].Name != "charge" || work[0].TS != sim.Time(2*time.Millisecond) ||
		work[0].Dur != 5*time.Millisecond {
		t.Fatalf("work = %+v, want one 5ms charge at 2ms", work)
	}
}

// Stall, drop and delay instants carry their arguments and are not work;
// a dropped message leaves no work event at all.
func TestFaultInstantsCarryArgumentsAndAreNotWork(t *testing.T) {
	s, l, tr := newTracedLooper()
	l.SetFaultInjector(func(name string, _ time.Duration) Fault {
		switch name {
		case "stalled":
			return Fault{Stall: 4 * time.Millisecond}
		case "late":
			return Fault{Delay: 3 * time.Millisecond}
		case "doomed":
			return Fault{Drop: true}
		}
		return Fault{}
	})
	l.Post("stalled", time.Millisecond, func() {})
	l.Post("late", time.Millisecond, func() {})
	l.Post("doomed", time.Millisecond, func() {})
	s.Run()

	want := map[string]trace.Arg{
		"stall":  {Key: "dur", Val: 4 * time.Millisecond},
		"late":   {Key: "delayed", Val: 3 * time.Millisecond},
		"doomed": {Key: "dropped", Val: true},
	}
	for _, e := range tr.Events() {
		if e.Ph != trace.PhaseInstant {
			continue
		}
		arg, ok := want[e.Name]
		if !ok {
			t.Fatalf("unexpected instant %+v", e)
		}
		if got, present := argOf(e, arg.Key); !present || got != arg.Val || e.Cat != "looper" {
			t.Fatalf("%s instant = %+v, want %s=%v in category looper", e.Name, e, arg.Key, arg.Val)
		}
		delete(want, e.Name)
	}
	if len(want) != 0 {
		t.Fatalf("instants missing: %v", want)
	}
	work := Work(tr, testTrack)
	if len(work) != 2 || work[0].Name != "stalled" || work[1].Name != "late" {
		t.Fatalf("work = %+v, want the stalled and the late message only", work)
	}
	if busyTime(work) != 2*time.Millisecond {
		t.Fatalf("busy = %v, want the two messages' 2ms", busyTime(work))
	}
}

// Work reads only the looper encoding on its own track: another
// looper's track, and other writers' events on the same track, are not
// this looper's work.
func TestWorkReadsOnlyTheLoopersTrack(t *testing.T) {
	s, l, tr := newTracedLooper()
	other := New(s, "system")
	other.SetTracer(tr, trace.TrackID{Pid: 2, Tid: 1})
	other.Post("elsewhere", time.Millisecond, func() {})
	l.Post("m", 0, func() {
		tr.Instant(testTrack, "crash", "process")
		tr.Counter(testTrack, "bundle", 64)
		tr.Complete(testTrack, "phase", "lifecycle", s.Now(), time.Millisecond)
	})
	s.Run()
	work := Work(tr, testTrack)
	if len(work) != 1 || work[0].Name != "m" || work[0].Ph != trace.PhaseInstant {
		t.Fatalf("work = %+v, want m's zero-cost dispatch alone", work)
	}
	if got := Work(tr, trace.TrackID{Pid: 2, Tid: 1}); len(got) != 1 || got[0].Name != "elsewhere" {
		t.Fatalf("other track's work = %+v", got)
	}
	if Work(nil, testTrack) != nil {
		t.Fatal("an untraced looper has work")
	}
}
