package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// bootOnDistinctShards boots devices until at least want shards host
// one, returning one device name per covered shard.
func bootOnDistinctShards(t *testing.T, s *Server, want int) map[int]string {
	t.Helper()
	byShard := make(map[int]string)
	for i := 0; len(byShard) < want && i < 64; i++ {
		name := fmt.Sprintf("bd-%d", i)
		r := submit(s, Request{Op: OpBoot, Device: name, Seed: uint64(i + 1)})
		if !r.OK {
			t.Fatalf("boot %s: %+v", name, r)
		}
		if _, ok := byShard[r.Shard]; !ok {
			byShard[r.Shard] = name
		}
	}
	if len(byShard) < want {
		t.Fatalf("devices never covered %d shards: %v", want, byShard)
	}
	return byShard
}

// TestBatchCrossShard: one OpBatch whose steps land on different shards
// comes back as a single reply with per-step results in request order,
// each attributed to the shard its device name routes to.
func TestBatchCrossShard(t *testing.T) {
	s := New(Config{Shards: 4})
	defer s.Drain(5 * time.Second)

	byShard := bootOnDistinctShards(t, s, 2)
	var devices []string
	for _, name := range byShard {
		devices = append(devices, name)
	}
	var steps []BatchStep
	for _, name := range devices {
		steps = append(steps,
			BatchStep{Device: name, Kind: KindRotate},
			BatchStep{Device: name, Kind: KindSwitch},
			BatchStep{Device: name, Kind: KindTrim},
			BatchStep{Device: name, Kind: KindMonkey, Events: 10, Seed: 5},
		)
	}
	r := submit(s, Request{ID: "b1", Op: OpBatch, Batch: steps})
	if !r.OK {
		t.Fatalf("batch failed: %+v", r)
	}
	if r.ID != "b1" {
		t.Fatalf("batch reply dropped the pipeline ID: %+v", r)
	}
	if len(r.Results) != len(steps) {
		t.Fatalf("batch returned %d results for %d steps", len(r.Results), len(steps))
	}
	for i, res := range r.Results {
		if res.Index != i {
			t.Fatalf("results out of request order at %d: %+v", i, r.Results)
		}
		if !res.OK {
			t.Fatalf("step %d failed: %+v", i, res)
		}
		want := s.route(Request{Device: steps[i].Device}).idx
		if res.Shard != want {
			t.Fatalf("step %d ran on shard %d, routes to %d", i, res.Shard, want)
		}
	}
	snap, err := s.MergedSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, snap, "serve_batch_steps_total"); got != int64(len(steps)) {
		t.Fatalf("serve_batch_steps_total = %d, want %d", got, len(steps))
	}
	// One sub-batch per covered shard.
	if got := metricValue(t, snap, "serve_batches_total"); got != int64(len(byShard)) {
		t.Fatalf("serve_batches_total = %d, want %d", got, len(byShard))
	}
}

// TestBatchPartialFailure: a step on an unknown device fails with its
// own code while the rest of the burst still runs; the reply-level OK
// is the conjunction and Code surfaces the first failure.
func TestBatchPartialFailure(t *testing.T) {
	s := New(Config{Shards: 2})
	defer s.Drain(5 * time.Second)

	if r := submit(s, Request{Op: OpBoot, Device: "real", Seed: 3}); !r.OK {
		t.Fatalf("boot: %+v", r)
	}
	r := submit(s, Request{Op: OpBatch, Batch: []BatchStep{
		{Device: "real", Kind: KindRotate},
		{Device: "ghost", Kind: KindRotate},
		{Device: "real", Kind: KindNight},
	}})
	if r.OK {
		t.Fatalf("batch with a failing step reported OK: %+v", r)
	}
	if r.Code != CodeUnknownDevice {
		t.Fatalf("reply code = %q, want first failure %q", r.Code, CodeUnknownDevice)
	}
	if len(r.Results) != 3 {
		t.Fatalf("want 3 results: %+v", r.Results)
	}
	if !r.Results[0].OK || !r.Results[2].OK {
		t.Fatalf("healthy steps did not run: %+v", r.Results)
	}
	if r.Results[1].OK || r.Results[1].Code != CodeUnknownDevice {
		t.Fatalf("ghost step: %+v", r.Results[1])
	}
}

// TestBatchEmptyAndBadStep: an empty batch is a bad request; an unknown
// kind fails its step with CodeBadRequest.
func TestBatchEmptyAndBadStep(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Drain(5 * time.Second)

	if r := submit(s, Request{Op: OpBatch}); r.OK || r.Code != CodeBadRequest {
		t.Fatalf("empty batch: %+v", r)
	}
	if r := submit(s, Request{Op: OpBoot, Device: "d", Seed: 1}); !r.OK {
		t.Fatalf("boot: %+v", r)
	}
	if r := submit(s, Request{Op: OpBatch, Batch: []BatchStep{{Device: "d", Kind: "warp"}}}); r.OK ||
		r.Results[0].Code != CodeBadRequest {
		t.Fatalf("unknown kind: %+v", r)
	}
}

// TestBurstBounds: a monkey burst or a sleep outside [0, bound] is
// refused bad_request at admission, before it takes a queue slot: the
// shard runs nothing for it. In a batch only the offending steps are
// refused; the others still run.
func TestBurstBounds(t *testing.T) {
	s := New(Config{Shards: 2})
	defer s.Drain(5 * time.Second)

	if r := submit(s, Request{Op: OpBoot, Device: "d", Seed: 1}); !r.OK {
		t.Fatalf("boot: %+v", r)
	}
	for _, req := range []Request{
		{Op: OpDrive, Device: "d", Kind: KindMonkey, Events: -5},
		{Op: OpDrive, Device: "d", Kind: KindMonkey, Events: MaxBurstEvents + 1},
		{Op: OpDrive, Device: "d", Kind: KindSleep, Millis: -1},
		{Op: OpDrive, Device: "d", Kind: KindSleep, Millis: MaxSleepMillis + 1},
	} {
		if r := submit(s, req); r.OK || r.Code != CodeBadRequest {
			t.Fatalf("events=%d millis=%d: %+v, want bad_request", req.Events, req.Millis, r)
		}
	}
	snap, _ := s.MergedSnapshot()
	if got := metricValue(t, snap, "serve_requests_total"); got != 1 {
		t.Fatalf("serve_requests_total = %d, want only the boot: refused bursts reached a shard", got)
	}

	r := submit(s, Request{Op: OpBatch, Batch: []BatchStep{
		{Device: "d", Kind: KindRotate},
		{Device: "d", Kind: KindMonkey, Events: -5},
		{Device: "d", Kind: KindSleep, Millis: 1000000000},
		{Device: "d", Kind: KindMonkey, Events: 10, Seed: 2},
		{Device: "d", Kind: KindSleep},
	}})
	if r.OK || r.Code != CodeBadRequest || len(r.Results) != 5 {
		t.Fatalf("batch with out-of-bounds steps: %+v", r)
	}
	for i, res := range r.Results {
		bad := i == 1 || i == 2
		if res.Index != i || res.OK == bad || (bad && res.Code != CodeBadRequest) {
			t.Errorf("step %d: %+v", i, res)
		}
	}
	snap, _ = s.MergedSnapshot()
	if got := metricValue(t, snap, "serve_batch_steps_total"); got != 3 {
		t.Errorf("serve_batch_steps_total = %d, want the 3 in-bounds steps", got)
	}
}

// TestBatchOverloadShed: a batch aimed at a jammed shard sheds every
// step with the explicit overload code instead of blocking past the
// queue bound.
func TestBatchOverloadShed(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 1})
	defer s.Drain(10 * time.Second)

	// Jam the single shard: one sleep running, one queued. The second
	// sleep is submitted only once the shard has taken the first off its
	// queue; submitted together, the second could find the queue still
	// full and be shed, leaving nothing queued.
	sh := s.shards[0]
	var wg sync.WaitGroup
	jam := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			submit(s, Request{Op: OpDrive, Kind: KindSleep, Millis: 120})
		}()
	}
	waitFor := func(what string, cond func() bool) {
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal(what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	jam()
	waitFor("shard never took the first sleep", func() bool {
		n, _ := s.reg.Snapshot().Value("serve_requests_total")
		return n == 1
	})
	jam()
	// Wait until the queue is actually full so the batch's non-blocking
	// enqueue must refuse.
	waitFor("queue never filled", func() bool { return len(sh.queue) == 1 })
	r := submit(s, Request{Op: OpBatch, Batch: []BatchStep{
		{Device: "any", Kind: KindRotate},
		{Device: "other", Kind: KindTrim},
	}})
	wg.Wait()
	if r.OK || r.Code != CodeOverloaded {
		t.Fatalf("batch against a jammed shard: %+v", r)
	}
	for _, res := range r.Results {
		if res.OK || res.Code != CodeOverloaded {
			t.Fatalf("step not shed with overloaded: %+v", res)
		}
	}
	snap, err := s.MergedSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, snap, "serve_shed_overload_total"); got != 2 {
		t.Fatalf("serve_shed_overload_total = %d, want 2 (one per shed step)", got)
	}
}

// TestBatchPanicContainmentPerStep: a detonating step inside a batch is
// contained like an individual request — the following steps in the
// same sub-batch still run.
func TestBatchPanicContainmentPerStep(t *testing.T) {
	s := New(Config{Shards: 1, Breaker: BreakerConfig{Threshold: 100}})
	defer s.Drain(5 * time.Second)

	if r := submit(s, Request{Op: OpBoot, Device: "bomb", Spec: SpecPanicRelaunch, Handler: HandlerStock, Seed: 2}); !r.OK {
		t.Fatalf("boot bomb: %+v", r)
	}
	if r := submit(s, Request{Op: OpBoot, Device: "ok", Seed: 3}); !r.OK {
		t.Fatalf("boot ok: %+v", r)
	}
	r := submit(s, Request{Op: OpBatch, Batch: []BatchStep{
		{Device: "bomb", Kind: KindRotate}, // detonates
		{Device: "ok", Kind: KindRotate},   // must still run
	}})
	if r.OK {
		t.Fatalf("batch with a detonating step reported OK: %+v", r)
	}
	if r.Results[0].Code != CodeDevicePanic {
		t.Fatalf("bomb step: %+v", r.Results[0])
	}
	if !r.Results[1].OK {
		t.Fatalf("step after the contained panic did not run: %+v", r.Results[1])
	}
}

// TestBatchDraining: a draining server refuses the whole batch with the
// draining code.
func TestBatchDraining(t *testing.T) {
	s := New(Config{Shards: 2})
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	r := submit(s, Request{Op: OpBatch, Batch: []BatchStep{{Device: "d", Kind: KindRotate}}})
	if r.OK || r.Code != CodeDraining {
		t.Fatalf("draining batch: %+v", r)
	}
}

// TestBatchRaceHammer floods a multi-shard server with concurrent
// cross-shard batches while boots and individual drives interleave —
// the -race pass over the batched dispatch path.
func TestBatchRaceHammer(t *testing.T) {
	s := New(Config{Shards: 4, QueueDepth: 32})
	defer s.Drain(10 * time.Second)

	devices := make([]string, 6)
	for i := range devices {
		devices[i] = fmt.Sprintf("h-%d", i)
		if r := submit(s, Request{Op: OpBoot, Device: devices[i], Seed: uint64(i + 1)}); !r.OK {
			t.Fatalf("boot %s: %+v", devices[i], r)
		}
	}
	clients := 8
	rounds := 10
	if testing.Short() {
		clients, rounds = 4, 5
	}
	var wg sync.WaitGroup
	errs := make(chan string, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				var steps []BatchStep
				for _, d := range devices {
					kind := []string{KindRotate, KindSwitch, KindTrim, KindNight, KindDay}[(c+round)%5]
					steps = append(steps, BatchStep{Device: d, Kind: kind})
				}
				r := submit(s, Request{Op: OpBatch, Batch: steps})
				for _, res := range r.Results {
					if !res.OK && res.Code != CodeOverloaded {
						errs <- fmt.Sprintf("client %d round %d: %+v", c, round, res)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
