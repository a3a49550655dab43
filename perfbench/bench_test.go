package main

import (
	"bytes"
	"flag"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rchdroid/internal/explore"
	"rchdroid/internal/oracle/corpus"
	"rchdroid/internal/serve"
	"rchdroid/internal/workload"
)

var update = flag.Bool("update", false, "rewrite summary_measured.txt from the current code")

// TestSummaryMeasured pins the recorded copy of experiments.Summary()'s
// measured column. Run with -update only when a change to the simulated
// numbers is intended.
func TestSummaryMeasured(t *testing.T) {
	if *update {
		if err := os.WriteFile("summary_measured.txt", []byte(summaryText()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := checkSummary(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepCountsRepeat runs small ci-sweep and explore-depth3 traced
// passes twice: the per-op counts a later change may claim a gain on
// (sim events, core handlings, chaos injections, guard retries) and the
// merged reports must repeat exactly.
func TestSweepCountsRepeat(t *testing.T) {
	ci := func() (opCounts, [][]byte) {
		var tally opTally
		reports, _ := ciTracedPass(newTracer(), &tally, 1, 1, 16, 32)
		return tally.counts(), reports
	}
	c1, r1 := ci()
	c2, r2 := ci()
	if c1 != c2 || !reflect.DeepEqual(r1, r2) {
		t.Fatalf("ci-sweep counts differ between runs: %+v vs %+v", c1, c2)
	}
	if c1.ops != 48 || c1.guardOps != 32 || c1.simEvents == 0 || c1.handlings == 0 {
		t.Fatalf("ci-sweep counts implausible: %+v", c1)
	}

	var plan []exploreChunk
	for _, sc := range corpus.All()[:2] {
		sc := sc
		plan = append(plan, exploreChunk{sc: &sc, sp: explore.SpaceFor(&sc, exploreDepth), start: 100, count: 24})
	}
	ex := func() (opCounts, []string) {
		var tally opTally
		reports, _ := exploreTracedPass(newTracer(), &tally, plan)
		return tally.counts(), reports
	}
	e1, s1 := ex()
	e2, s2 := ex()
	if e1 != e2 || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("explore counts differ between runs: %+v vs %+v", e1, e2)
	}
	if e1.ops != 48 || e1.simEvents == 0 {
		t.Fatalf("explore counts implausible: %+v", e1)
	}
}

// testLog is a small fixed fleet log.
func testLog() *workload.Log {
	return workload.Generate(workload.GenSpec{Seed: 7, Devices: fleetDevices, EventsPerDevice: 12})
}

// TestFleetCountsRepeat replays a fixed log twice over TCP and twice
// through Server.Submit: wire bytes per op, steps per batch and the
// ordered per-step results must repeat exactly. The live heap the
// resident devices hold must repeat within 1%: Go seeds every map's hash
// per process, so map layouts, and with them the heap, are not
// byte-identical between runs.
func TestFleetCountsRepeat(t *testing.T) {
	plan := planFleet(testLog(), concurrency)
	check := checkSet(7)
	wire := func() (string, int64, int64) {
		out, req, resp, _, err := fleetWirePass(newTracer(), plan, check)
		if err != nil {
			t.Fatal(err)
		}
		return out.digest(), req, resp
	}
	d1, q1, p1 := wire()
	d2, q2, p2 := wire()
	if d1 != d2 || q1 != q2 || p1 != p2 {
		t.Fatalf("wire pass differs: results %v, request bytes %d vs %d, response bytes %d vs %d", d1 == d2, q1, q2, p1, p2)
	}
	submit := func() (string, int64, int64) {
		out, snap, err := fleetSubmitPass(newTracer(), plan, check)
		if err != nil {
			t.Fatal(err)
		}
		return out.digest(), counter(snap, "serve_batches_total"), counter(snap, "serve_batch_steps_total")
	}
	s1, b1, st1 := submit()
	s2, b2, st2 := submit()
	if s1 != s2 || s1 != d1 || b1 != b2 || st1 != st2 || b1 == 0 {
		t.Fatalf("submit pass differs: results %v/%v, batches %d vs %d, steps %d vs %d", s1 == s2, s1 == d1, b1, b2, st1, st2)
	}
	var sent int64
	for _, lane := range plan.lanes {
		for _, op := range lane {
			if op.class == opBatch {
				sent++
			}
		}
	}
	if sent != b1 {
		t.Fatalf("server counted %d batches, the plan sends %d", b1, sent)
	}

	resident := func() float64 {
		base := liveHeapMB()
		srv := serve.New(serve.Config{Shards: concurrency})
		if _, err := drive(plan, check, func(_ int, op *fleetOp) (serve.Response, error) {
			return srv.Submit(op.req), nil
		}); err != nil {
			t.Fatal(err)
		}
		mb := liveHeapMB() - base
		runtime.KeepAlive(srv)
		if err := srv.Drain(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		return mb
	}
	resident() // the first fleet of the process also fills lazily built tables
	h1, h2 := resident(), resident()
	runtime.KeepAlive(plan) // counted in both baselines, never in a delta
	if math.Abs(h1-h2) > 0.01*h1 {
		t.Fatalf("live heap held by resident devices differs between runs of one log: %.6f vs %.6f MB", h1, h2)
	}
}

// TestFleetMixExact checks that every seed's log boots the same handler
// mix, and that the mix is a pure function of the seed.
func TestFleetMixExact(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		lg := fleetLog(seed, 1)
		mix := map[string]int{}
		for _, ev := range lg.Events {
			if ev.Kind == workload.EvBoot {
				mix[ev.Handler]++
			}
		}
		want := map[string]int{serve.HandlerGuarded: fleetGuarded, serve.HandlerStock: fleetStock,
			serve.HandlerRCH: fleetDevices - fleetGuarded - fleetStock}
		if !reflect.DeepEqual(mix, want) {
			t.Fatalf("seed %d: handler mix %v, want %v", seed, mix, want)
		}
		if !bytes.Equal(lg.Encode(), fleetLog(seed, 1).Encode()) {
			t.Fatalf("seed %d: log differs between two generations", seed)
		}
	}
}

// TestFleetPlanPure checks that the client's lane and batch split is a
// pure function of the log: the same log, re-encoded and decoded, gives
// the same plan, and the plan keeps every event once, in log order per
// lane, with each lane owning the devices that hash to it and each
// batch a maximal run of burst-class events of at most fleetMaxBatch.
func TestFleetPlanPure(t *testing.T) {
	lg := testLog()
	p1 := planFleet(lg, concurrency)
	again, err := workload.Decode(bytes.NewReader(lg.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	if p2 := planFleet(again, concurrency); !reflect.DeepEqual(p1, p2) {
		t.Fatal("plan differs for the same log")
	}

	want := make([][]workload.Event, concurrency)
	for _, ev := range lg.Events {
		l := fleetLane(ev.Device, concurrency)
		want[l] = append(want[l], ev)
	}
	total := 0
	for l, ops := range p1.lanes {
		k := 0
		for i, op := range ops {
			if op.class == opBatch {
				if n := len(op.req.Batch); n < 1 || n > fleetMaxBatch {
					t.Fatalf("lane %d op %d: batch of %d steps", l, i, n)
				}
				if i+1 < len(ops) && ops[i+1].class == opBatch && len(op.req.Batch) < fleetMaxBatch {
					t.Fatalf("lane %d op %d: a short batch is followed by another batch", l, i)
				}
			}
			for j, d := range op.devices {
				ev := want[l][k]
				k++
				if fleetLane(d, concurrency) != l || d != ev.Device {
					t.Fatalf("lane %d op %d step %d: device %s, log has %s", l, i, j, d, ev.Device)
				}
				if (op.class == opBatch) != burstClass(ev.Kind) || (op.class == opBoot) != (ev.Kind == workload.EvBoot) {
					t.Fatalf("lane %d op %d step %d: %s event in a %s op", l, i, j, ev.Kind, classNames[op.class])
				}
			}
		}
		if k != len(want[l]) {
			t.Fatalf("lane %d carries %d of its %d events", l, k, len(want[l]))
		}
		total += k
	}
	if total != len(lg.Events) || p1.events != total {
		t.Fatalf("plan carries %d events, log has %d", total, len(lg.Events))
	}
}
