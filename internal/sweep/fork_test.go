package sweep

import (
	"testing"

	"rchdroid/internal/obs"
)

// sweepBytes runs one mode over [1, count] at the given worker count and
// returns everything the byte-identity contract covers: the merged
// report, the failure output, and the canonical metrics dump.
func sweepBytes(t *testing.T, mode string, count, workers int, fork bool) (string, string, string) {
	t.Helper()
	fn, replay, err := ForModeForked(mode, fork)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rep := RunObs(Config{Mode: mode, Start: 1, Count: count, Replay: replay, Workers: workers, Obs: reg}, fn)
	return rep.String(), rep.FailureOutput(), string(reg.Snapshot().MarshalCanonical())
}

// TestForkSweepByteIdentical is the fork facility's acceptance gate: a
// 64-seed sweep through forked worlds produces the same merged report,
// failure output, and canonical metrics dump — byte for byte — as the
// fresh-build sweep, for both differential modes, sequentially and
// under a worker pool (which also makes this the race-detector pass
// over concurrent Template.Fork calls).
func TestForkSweepByteIdentical(t *testing.T) {
	const seeds = 64
	for _, mode := range []string{"oracle", "guard"} {
		t.Run(mode, func(t *testing.T) {
			freshRep, freshFail, freshCanon := sweepBytes(t, mode, seeds, 1, false)
			for _, workers := range []int{1, 8} {
				forkRep, forkFail, forkCanon := sweepBytes(t, mode, seeds, workers, true)
				if forkRep != freshRep {
					t.Fatalf("workers=%d: forked report differs from fresh build:\n--- fresh\n%s--- fork\n%s",
						workers, freshRep, forkRep)
				}
				if forkFail != freshFail {
					t.Fatalf("workers=%d: forked failure output differs from fresh build:\n--- fresh\n%s--- fork\n%s",
						workers, freshFail, forkFail)
				}
				if forkCanon != freshCanon {
					t.Fatalf("workers=%d: forked canonical metrics differ from fresh build:\n--- fresh\n%s\n--- fork\n%s",
						workers, freshCanon, forkCanon)
				}
			}
		})
	}
}
