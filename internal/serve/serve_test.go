package serve

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rchdroid/internal/obs"
	"rchdroid/internal/sweep"
)

// submit is a test shorthand.
func submit(s *Server, req Request) Response { return s.Submit(req) }

// TestBootAndDrive: the happy path — a device boots, survives config
// changes and a monkey burst, and health reports it resident.
func TestBootAndDrive(t *testing.T) {
	s := New(Config{Shards: 2})
	defer s.Drain(5 * time.Second)

	r := submit(s, Request{Op: OpBoot, Device: "dev-1", Seed: 7})
	if !r.OK || r.Token == 0 {
		t.Fatalf("boot failed: %+v", r)
	}
	for _, kind := range []string{KindRotate, KindNight, KindDay} {
		if r := submit(s, Request{Op: OpDrive, Device: "dev-1", Kind: kind}); !r.OK {
			t.Fatalf("drive %s failed: %+v", kind, r)
		}
	}
	if r := submit(s, Request{Op: OpDrive, Device: "dev-1", Kind: KindMonkey, Events: 40, Seed: 3}); !r.OK {
		t.Fatalf("monkey failed: %+v", r)
	}
	if r := submit(s, Request{Op: OpDrive, Device: "nope", Kind: KindRotate}); r.OK || r.Code != CodeUnknownDevice {
		t.Fatalf("drive on unknown device: %+v", r)
	}
	h := submit(s, Request{Op: OpHealth})
	if !h.OK || len(h.Shards) != 2 {
		t.Fatalf("health: %+v", h)
	}
	total := 0
	for _, sh := range h.Shards {
		total += sh.Devices
	}
	if total != 1 {
		t.Fatalf("health reports %d devices, want 1", total)
	}
}

// TestBootsShareSpecApp: every device booted from one spec installs the
// app the server built for that spec, on any shard, while each device
// keeps its own process; different specs keep different apps.
func TestBootsShareSpecApp(t *testing.T) {
	s := New(Config{Shards: 2})
	defer s.Drain(5 * time.Second)
	boot := func(device, spec string) *session {
		t.Helper()
		if r := submit(s, Request{Op: OpBoot, Device: device, Spec: spec, Seed: 1}); !r.OK {
			t.Fatalf("boot %s: %+v", device, r)
		}
		// The shard goroutine touches the session only while it serves a
		// request, and each Submit orders it against this goroutine.
		return s.shards[ShardIndex(device, len(s.shards))].sessions[device]
	}
	a, b := boot("dev-a", ""), boot("dev-b", SpecOracle)
	if a.world.Proc == b.world.Proc {
		t.Fatal("two devices share one process")
	}
	if a.world.Proc.App() != b.world.Proc.App() {
		t.Fatal("two devices booted from the oracle spec hold different apps, want the spec's one app")
	}
	p, q := boot("panic-a", SpecPanicRelaunch), boot("panic-b", SpecPanicRelaunch)
	if p.world.Proc.App() != q.world.Proc.App() {
		t.Fatal("two devices booted from the panic-on-relaunch spec hold different apps")
	}
	if p.world.Proc.App() == a.world.Proc.App() {
		t.Fatal("two specs share one app")
	}
}

// TestPanicContainment: a panic-on-relaunch device under the stock
// handler blows up on its first rotation with a real Go panic; the
// shard contains it, tears the device down, counts it, and keeps
// serving other devices.
func TestPanicContainment(t *testing.T) {
	s := New(Config{Shards: 1, Breaker: BreakerConfig{Threshold: 100}})
	defer s.Drain(5 * time.Second)

	if r := submit(s, Request{Op: OpBoot, Device: "healthy", Seed: 1}); !r.OK {
		t.Fatalf("healthy boot: %+v", r)
	}
	if r := submit(s, Request{Op: OpBoot, Device: "bomb", Spec: SpecPanicRelaunch, Handler: HandlerStock, Seed: 2}); !r.OK {
		t.Fatalf("panic spec must boot clean: %+v", r)
	}
	r := submit(s, Request{Op: OpDrive, Device: "bomb", Kind: KindRotate})
	if r.OK || r.Code != CodeDevicePanic {
		t.Fatalf("rotate of panic spec: want contained device_panic, got %+v", r)
	}
	if !strings.Contains(r.Detail, "torn down") {
		t.Fatalf("panic detail missing teardown note: %q", r.Detail)
	}
	// The panicking device is gone; the shard and its other device are
	// not.
	if r := submit(s, Request{Op: OpDrive, Device: "bomb", Kind: KindRotate}); r.Code != CodeUnknownDevice {
		t.Fatalf("panicked device should be torn down: %+v", r)
	}
	if r := submit(s, Request{Op: OpDrive, Device: "healthy", Kind: KindRotate}); !r.OK {
		t.Fatalf("shard stopped serving after a contained panic: %+v", r)
	}
	snap, err := s.MergedSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, snap, "serve_device_panics_total"); got != 1 {
		t.Fatalf("serve_device_panics_total = %d, want 1", got)
	}
}

// TestPanicRespawn: with RespawnPanicked set the device comes back
// under its name after containment.
func TestPanicRespawn(t *testing.T) {
	s := New(Config{Shards: 1, RespawnPanicked: true, Breaker: BreakerConfig{Threshold: 100}})
	defer s.Drain(5 * time.Second)

	if r := submit(s, Request{Op: OpBoot, Device: "bomb", Spec: SpecPanicRelaunch, Handler: HandlerStock, Seed: 2}); !r.OK {
		t.Fatalf("boot: %+v", r)
	}
	r := submit(s, Request{Op: OpDrive, Device: "bomb", Kind: KindRotate})
	if r.OK || r.Code != CodeDevicePanic || !strings.Contains(r.Detail, "respawned") {
		t.Fatalf("want contained panic with respawn, got %+v", r)
	}
	// The respawned instance serves again (and panics again on rotate —
	// it is the same spec — proving the respawn really booted it).
	if r := submit(s, Request{Op: OpDrive, Device: "bomb", Kind: KindRotate}); r.Code != CodeDevicePanic {
		t.Fatalf("respawned device not resident: %+v", r)
	}
	snap, err := s.MergedSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, snap, "serve_device_respawns_total"); got < 1 {
		t.Fatalf("serve_device_respawns_total = %d, want >= 1", got)
	}
}

// TestAdmissionControl: a stalled shard sheds excess load with explicit
// CodeOverloaded errors instead of queueing without bound or hanging.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 2})
	defer s.Drain(5 * time.Second)

	var wg sync.WaitGroup
	results := make(chan Response, 16)
	// One long stall occupies the shard; the flood behind it can keep at
	// most QueueDepth waiting.
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- submit(s, Request{Op: OpDrive, Kind: KindSleep, Millis: 60})
		}()
	}
	wg.Wait()
	close(results)
	shed, served := 0, 0
	for r := range results {
		switch {
		case r.OK:
			served++
		case r.Code == CodeOverloaded:
			shed++
		default:
			t.Fatalf("unexpected response: %+v", r)
		}
	}
	if shed == 0 {
		t.Fatalf("no request shed (served=%d) — queue grew beyond its bound", served)
	}
	if served == 0 {
		t.Fatal("every request shed — admission admitted nothing")
	}
	snap, err := s.MergedSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, snap, "serve_shed_overload_total"); got != int64(shed) {
		t.Fatalf("serve_shed_overload_total = %d, want %d", got, shed)
	}
}

// TestRequestDeadline: requests that overstay the wall deadline in the
// queue are shed with CodeDeadline before running.
func TestRequestDeadline(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 8, RequestDeadline: 10 * time.Millisecond})
	defer s.Drain(5 * time.Second)

	var wg sync.WaitGroup
	results := make(chan Response, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- submit(s, Request{Op: OpDrive, Kind: KindSleep, Millis: 40})
		}()
	}
	wg.Wait()
	close(results)
	deadline := 0
	for r := range results {
		if !r.OK && r.Code == CodeDeadline {
			deadline++
		}
	}
	if deadline == 0 {
		t.Fatal("no request hit the wall deadline")
	}
	snap, err := s.MergedSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, snap, "serve_shed_deadline_total"); got != int64(deadline) {
		t.Fatalf("serve_shed_deadline_total = %d, want %d", got, deadline)
	}
	if got := metricValue(t, snap, "serve_deadline_overruns_total"); got == 0 {
		t.Fatal("the 40ms sleep should have been counted as a deadline overrun")
	}
}

// TestBreakerLadder walks the full shard-scope ladder: repeated device
// panics quarantine the shard (admission sheds a request, and each step
// of a batch, with CodeQuarantined), the OpenFor window expires into
// probation, probe successes recover it, and a probe failure re-opens
// it.
func TestBreakerLadder(t *testing.T) {
	s := New(Config{Shards: 1, Breaker: BreakerConfig{
		Threshold: 2, OpenFor: 30 * time.Millisecond, ProbationSuccesses: 2,
	}})
	defer s.Drain(5 * time.Second)

	// Boot the bombs first, then blow them back to back: the failure
	// count is *consecutive*, so a boot success in between would reset
	// it (deliberately — a shard that still boots devices fine is not
	// sick).
	boot := func(name string) {
		t.Helper()
		if r := submit(s, Request{Op: OpBoot, Device: name, Spec: SpecPanicRelaunch, Handler: HandlerStock, Seed: 9}); !r.OK {
			t.Fatalf("boot %s: %+v", name, r)
		}
	}
	blow := func(name string) Response {
		return submit(s, Request{Op: OpDrive, Device: name, Kind: KindRotate})
	}
	boot("b1")
	boot("b2")
	if r := blow("b1"); r.Code != CodeDevicePanic {
		t.Fatalf("first panic: %+v", r)
	}
	if r := blow("b2"); r.Code != CodeDevicePanic {
		t.Fatalf("second panic: %+v", r)
	}
	// Two consecutive device failures at Threshold=2: open.
	r := submit(s, Request{Op: OpBoot, Device: "later", Seed: 1})
	if r.OK || r.Code != CodeQuarantined {
		t.Fatalf("quarantined shard admitted a request: %+v", r)
	}
	if h := submit(s, Request{Op: OpHealth}); h.OK || h.Shards[0].State != "quarantined" {
		t.Fatalf("health during quarantine: %+v", h)
	}
	// A batch meets the same gate: every step is refused and counted.
	r = submit(s, Request{Op: OpBatch, Batch: []BatchStep{
		{Device: "b1", Kind: KindRotate},
		{Device: "b2", Kind: KindTrim},
	}})
	if r.OK || len(r.Results) != 2 {
		t.Fatalf("quarantined shard admitted a batch: %+v", r)
	}
	for _, res := range r.Results {
		if res.OK || res.Code != CodeQuarantined || res.Detail != "shard quarantined by its circuit breaker" {
			t.Fatalf("batch step not refused by the breaker: %+v", res)
		}
	}
	snap, err := s.MergedSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, snap, "serve_shed_quarantined_total"); got != 3 {
		t.Fatalf("serve_shed_quarantined_total = %d, want 3 (one request, two batch steps)", got)
	}
	// Past the window: probes flow; two successes recover the shard.
	time.Sleep(40 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if r := submit(s, Request{Op: OpBoot, Device: fmt.Sprintf("probe-%d", i), Seed: uint64(i + 1)}); !r.OK {
			t.Fatalf("probe %d rejected: %+v", i, r)
		}
	}
	if h := submit(s, Request{Op: OpHealth}); !h.OK || h.Shards[0].State != "serving" {
		t.Fatalf("shard did not recover: %+v", h)
	}
	// A fresh failure run re-opens from serving; then a probe that
	// fails (b5's rotate right after the window) re-opens immediately.
	boot("b3")
	boot("b4")
	if r := blow("b3"); r.Code != CodeDevicePanic {
		t.Fatalf("b3: %+v", r)
	}
	if r := blow("b4"); r.Code != CodeDevicePanic {
		t.Fatalf("b4: %+v", r)
	}
	time.Sleep(40 * time.Millisecond)
	boot("b5")                                      // probe success
	if r := blow("b5"); r.Code != CodeDevicePanic { // probe failure
		t.Fatalf("b5: %+v", r)
	}
	if r := submit(s, Request{Op: OpBoot, Device: "again", Seed: 1}); r.Code != CodeQuarantined {
		t.Fatalf("failed probe must re-quarantine: %+v", r)
	}
	snap, err = s.MergedSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, snap, "serve_breaker_opens_total"); got != 3 {
		t.Fatalf("serve_breaker_opens_total = %d, want 3", got)
	}
}

// TestGuardFoldByDelta: each drive folds only what a guarded session's
// guard decided since the last fold. A forced quarantine recovers after
// ProbationK (2) stock-routed rotations, and the two rotations after
// that fold nothing; a second quarantine adds one, not a re-fold of
// both.
func TestGuardFoldByDelta(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Drain(5 * time.Second)
	if r := submit(s, Request{Op: OpBoot, Device: "g", Handler: HandlerGuarded, Seed: 5}); !r.OK {
		t.Fatalf("boot: %+v", r)
	}
	// The shard goroutine touches the session only while it serves a
	// request, and each Submit orders it against this goroutine.
	sess := s.shards[0].sessions["g"]
	quarantine := func() {
		fg := sess.world.Proc.Thread().ForegroundActivity()
		sess.guard().Quarantine(fg.Class().Name, "test: forced")
	}
	rotate := func(n int) {
		for i := 0; i < n; i++ {
			if r := submit(s, Request{Op: OpDrive, Device: "g", Kind: KindRotate}); !r.OK {
				t.Fatalf("rotate: %+v", r)
			}
		}
	}
	expect := func(quarantines, recoveries int64) {
		t.Helper()
		snap, err := s.MergedSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		q := metricValue(t, snap, "serve_guard_quarantines_total")
		r := metricValue(t, snap, "serve_guard_recoveries_total")
		if q != quarantines || r != recoveries {
			t.Fatalf("folded %d quarantines and %d recoveries, want %d and %d", q, r, quarantines, recoveries)
		}
	}

	quarantine()
	rotate(4)
	expect(1, 1)
	quarantine()
	rotate(2)
	expect(2, 2)
}

// TestCanaryCanonicalMatchesSweep is the fleet half of the determinism
// contract: the same canary seeds, partitioned across shards by
// round-robin, must merge to a canonical metrics dump byte-identical to
// an rchsweep oracle sweep over the same range — serve's own metrics
// are wall-domain by design and leave no trace in the canonical bytes.
func TestCanaryCanonicalMatchesSweep(t *testing.T) {
	const seeds = 12
	s := New(Config{Shards: 3, QueueDepth: seeds})
	canaryFailures := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for seed := uint64(1); seed <= seeds; seed++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := submit(s, Request{Op: OpCanary, Seed: seed})
			mu.Lock()
			if !r.OK {
				canaryFailures++
			}
			mu.Unlock()
		}(seed)
	}
	wg.Wait()
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if canaryFailures != 0 {
		t.Fatalf("%d canary seeds failed", canaryFailures)
	}
	snap, err := s.MergedSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	rep := sweep.RunObs(sweep.Config{Mode: "oracle", Start: 1, Count: seeds, Workers: 2, Obs: reg},
		sweep.OracleRunner())
	if !rep.OK() {
		t.Fatalf("sweep failed:\n%s", rep.FailureOutput())
	}
	want := string(reg.Snapshot().MarshalCanonical())
	got := string(snap.MarshalCanonical())
	if got != want {
		t.Fatalf("fleet canonical dump differs from rchsweep over the same seeds:\n--- serve\n%s\n--- sweep\n%s", got, want)
	}
}

// TestDrain: draining stops admission with CodeDraining, finishes
// queued work cleanly, and an expired deadline forces an abort that
// unblocks parked callers.
func TestDrain(t *testing.T) {
	s := New(Config{Shards: 1})
	if r := submit(s, Request{Op: OpBoot, Device: "d", Seed: 1}); !r.OK {
		t.Fatalf("boot: %+v", r)
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("clean drain errored: %v", err)
	}
	if r := submit(s, Request{Op: OpBoot, Device: "late", Seed: 2}); r.OK || r.Code != CodeDraining {
		t.Fatalf("draining server admitted work: %+v", r)
	}

	// Forced abort: a stalled shard cannot finish before the deadline.
	s2 := New(Config{Shards: 1, QueueDepth: 4})
	done := make(chan Response, 2)
	go func() { done <- submit(s2, Request{Op: OpDrive, Kind: KindSleep, Millis: 300}) }()
	go func() { done <- submit(s2, Request{Op: OpDrive, Kind: KindSleep, Millis: 300}) }()
	time.Sleep(20 * time.Millisecond) // let both land (one running, one queued)
	err := s2.Drain(30 * time.Millisecond)
	if err == nil || !ForcedAbort(err) {
		t.Fatalf("want forced abort, got %v", err)
	}
	// Parked callers unblock promptly with CodeAborted (the one already
	// running may still return its real reply).
	aborted := 0
	for i := 0; i < 2; i++ {
		select {
		case r := <-done:
			if r.Code == CodeAborted {
				aborted++
			}
		case <-time.After(2 * time.Second):
			t.Fatal("caller still parked after forced abort")
		}
	}
	if aborted == 0 {
		t.Fatal("no caller saw CodeAborted after the forced abort")
	}
}

// metricValue reads one metric's value from a snapshot, failing the
// test when the snapshot lacks it.
func metricValue(t *testing.T, snap *obs.Snapshot, name string) int64 {
	t.Helper()
	v, ok := snap.Value(name)
	if !ok {
		t.Fatalf("%s absent from the snapshot", name)
	}
	return v
}
