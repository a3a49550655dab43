package experiments

import (
	"runtime"
	"testing"
	"time"

	"rchdroid/internal/benchapp"
)

// maxRetainedPerRotation bounds the heap a resident RCHDroid device may
// keep per runtime change. What must stay is the handling-time log the
// oracle reads (8 bytes a change, up to twice that while the slice
// doubles). Metering every UI dispatch into 10 ms CPU windows and every
// memory change into a series kept ≈300 bytes a change.
const maxRetainedPerRotation = 100

// TestRetainedHeapStaysFlat rotates one device thousands of times and
// checks that its retained heap grows only by what the run must keep.
// It reads the process-wide heap, so it must not run in parallel.
func TestRetainedHeapStaysFlat(t *testing.T) {
	rig := NewRig(benchapp.New(benchapp.Config{Images: 4, TaskDelay: time.Hour}), ModeRCHDroid)
	rotate := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := rig.Rotate(); err != nil {
				t.Fatalf("rotation %d: %v", i, err)
			}
		}
	}
	retained := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const rounds = 2000
	rotate(200) // warm: caches, maps and the first slice growths
	prev := retained()
	for round := 1; round <= 2; round++ {
		rotate(rounds)
		now := retained()
		per := (float64(now) - float64(prev)) / rounds
		t.Logf("round %d: %+.1f KB retained over %d rotations (%.1f B a rotation)",
			round, (float64(now)-float64(prev))/1024, rounds, per)
		if per > maxRetainedPerRotation {
			t.Errorf("round %d: retained %.1f B a rotation, want ≤ %d", round, per, maxRetainedPerRotation)
		}
		prev = now
	}
	runtime.KeepAlive(rig)
}
