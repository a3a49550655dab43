package oracle_test

import (
	"strings"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/chaos"
	"rchdroid/internal/core"
	"rchdroid/internal/oracle"
	"rchdroid/internal/sweep"
)

// corruptingInstaller wires genuine RCHDroid, then keeps planting a bad
// value into the foreground activity's counter extra on a repeating app
// task — the quiet state corruption that a `v, _ := x.(int64)` read
// launders into 0. Corrupting the live instance (not
// the outgoing one) matters: anything routed through the save/restore
// bundle is re-typed to a well-formed int64 on the way.
func corruptingInstaller(name string, bad any) oracle.Installer {
	return oracle.Installer{
		Name: name,
		Install: func(sys *atms.ATMS, proc *app.Process, plan *chaos.Plan) {
			opts := core.DefaultOptions()
			opts.Chaos = plan
			core.Install(sys, proc, opts)
			var tick func()
			tick = func() {
				if fg := proc.Thread().ForegroundActivity(); fg != nil {
					fg.PutExtra(oracle.CounterKey, bad)
				}
				proc.PostApp("corruptCounter", 300*time.Millisecond, tick)
			}
			proc.PostApp("corruptCounter", 300*time.Millisecond, tick)
		},
	}
}

// TestOracleRejectsCorruptedCounter is the regression for a former
// silent drop in the oracle's state read: a run whose counter extra ends
// up mistyped or absent must fail the sweep with an explicit "counter
// extra" violation (the bump step's invariant or the probe's explicit
// value), never pass vacuously by reading 0.
func TestOracleRejectsCorruptedCounter(t *testing.T) {
	cases := []struct {
		name string
		bad  any
		want string
	}{
		{"mistyped", "not-an-int64", "mistyped"},
		{"absent", nil, "absent"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := corruptingInstaller("RCHDroid-"+tc.name, tc.bad)
			rep := sweep.Run(sweep.Config{Mode: "regression", Start: 1, Count: 16, Workers: 4},
				func(seed uint64) sweep.Outcome {
					v := oracle.DifferentialWith(seed, inst, chaos.Light(), nil)
					return sweep.Outcome{OK: v.OK(), Detail: v.Summary(), Failures: v.Failures}
				})
			if rep.OK() {
				t.Fatalf("sweep passed with a counter-%s corruptor: the oracle is blind to dropped counter state again", tc.name)
			}
			found := false
			for _, res := range rep.Failed() {
				joined := strings.Join(res.Failures, "\n")
				if strings.Contains(joined, "counter extra") && strings.Contains(joined, tc.want) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("sweep failed but never with an explicit counter-extra (%s) violation:\n%s",
					tc.want, rep.FailureOutput())
			}
		})
	}
}
