package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"rchdroid/internal/chaos"
	"rchdroid/internal/config"
	"rchdroid/internal/device"
	"rchdroid/internal/guard"
	"rchdroid/internal/monkey"
	"rchdroid/internal/obs"
	"rchdroid/internal/sweep"
)

// session is one resident device. Sessions live in the shard's map and
// are touched only by the shard goroutine — per-shard single ownership
// is the concurrency model, so device worlds need no locks.
type session struct {
	name    string
	spec    string
	handler string
	world   *device.World
	// guard is the installer's getter for the guard it armed (nil unless
	// the handler is guarded); the shard mirrors that guard's
	// degradations into fleet-level counters.
	guard func() *guard.Guard
	// guardSeen holds the guard counts already folded into the fleet
	// counters, by kind, so each drive contributes only its delta.
	guardSeen [guard.NumKinds]int
}

// pending is one admitted request waiting in a shard queue.
type pending struct {
	req      Request
	admitted time.Time
	// batchIdx maps the sub-batch's steps back to their positions in the
	// client's OpBatch request (nil outside the batch path).
	batchIdx []int
	// reply is buffered (1) so the shard never blocks on a slow reader.
	reply chan Response
}

// shard owns a slice of the fleet: its device sessions, its bounded
// queue, its breaker, and its obs.Shard of the server's registry, whose
// instruments are lock-free atomics. One goroutine per shard runs the
// loop; everything the admission path reads (breaker state, queue
// capacity) is atomic or channel-based.
type shard struct {
	idx    int
	srv    *Server
	queue  chan *pending
	brk    breaker
	sh     *obs.Shard
	seed   *sweep.SeedObs
	canary sweep.ObsRunner
	// devices mirrors len(sessions) for off-goroutine health reads.
	devices atomic.Int64

	// Owned by the shard goroutine.
	sessions map[string]*session
}

func newShard(idx int, srv *Server) *shard {
	sh := srv.reg.Shard()
	s := &shard{
		idx:      idx,
		srv:      srv,
		queue:    make(chan *pending, srv.cfg.queueDepth()),
		brk:      breaker{cfg: srv.cfg.Breaker},
		sh:       sh,
		seed:     sweep.NewSeedObs(sh),
		canary:   sweep.OracleRunner(),
		sessions: make(map[string]*session),
	}
	// Define the wall-domain serve counters up front so an idle shard
	// still dumps them at zero — absence and "nothing happened" must
	// render differently.
	for _, name := range []string{
		"serve_requests_total", "serve_shed_overload_total",
		"serve_shed_quarantined_total", "serve_shed_draining_total",
		"serve_shed_deadline_total", "serve_device_panics_total",
		"serve_device_respawns_total", "serve_boot_failures_total",
		"serve_breaker_opens_total", "serve_deadline_overruns_total",
		"serve_batches_total", "serve_batch_steps_total",
		"serve_guard_quarantines_total", "serve_guard_recoveries_total",
		"serve_guard_breaker_opens_total",
	} {
		s.counter(name)
	}
	return s
}

// admit is the admission gate for a request of n steps: the breaker
// first, then a non-blocking enqueue of p. A refusal counts n shed
// steps and returns the code and detail each refused step carries; an
// empty code means p is queued.
func (s *shard) admit(p *pending, n int) (ErrCode, string) {
	if !s.brk.allow(time.Now()) {
		s.counter("serve_shed_quarantined_total").Add(int64(n))
		return CodeQuarantined, "shard quarantined by its circuit breaker"
	}
	select {
	case s.queue <- p:
		return "", ""
	default:
		s.counter("serve_shed_overload_total").Add(int64(n))
		return CodeOverloaded, "shard queue full; request shed"
	}
}

// counter returns the shard's wall-domain serve counter. Help strings
// key off the name suffix so call sites stay one-liners.
func (s *shard) counter(name string) *obs.Counter {
	return s.sh.Counter(name, "serve: "+name, obs.Wall)
}

// loop is the shard goroutine: it drains the queue until the server
// closes it (drain), then exits. Every request runs contained.
func (s *shard) loop() {
	defer s.srv.wg.Done()
	for p := range s.queue {
		s.counter("serve_requests_total").Inc()
		if d := s.srv.cfg.RequestDeadline; d > 0 && time.Since(p.admitted) > d {
			// The wall deadline expired while the request sat in the
			// queue: shed it now rather than serve a reply nobody is
			// waiting for. This is the wall-clock complement of the
			// guard's sim-clock watchdog.
			s.counter("serve_shed_deadline_total").Inc()
			p.reply <- Response{ID: p.req.ID, OK: false, Code: CodeDeadline, Shard: s.idx,
				Detail: fmt.Sprintf("queued past the %v request deadline", d)}
			continue
		}
		t0 := time.Now()
		if p.req.Op == OpBatch {
			p.reply <- s.dispatchBatch(p)
		} else {
			p.reply <- s.dispatchContained(p.req)
		}
		if d := s.srv.cfg.RequestDeadline; d > 0 && time.Since(t0) > d {
			// A goroutine cannot be preempted mid-run; overruns are
			// counted so operators see deadline pressure even when
			// nothing was shed.
			s.counter("serve_deadline_overruns_total").Inc()
		}
	}
}

// dispatchContained runs one request with panic containment — the
// seed-attributed recover pattern from the sweep engine, extended with
// teardown: a panicking device is removed (optionally respawned), the
// failure feeds the breaker, and the shard keeps serving.
func (s *shard) dispatchContained(req Request) (resp Response) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.counter("serve_device_panics_total").Inc()
		s.deviceFailure()
		detail := fmt.Sprintf("panic: %v", r)
		if req.Op == OpCanary {
			// Mirror what the sweep engine records for a panicking seed,
			// so the canonical counters stay comparable.
			res := sweep.SeedResult{Seed: req.Seed, Done: true, Panicked: true}
			res.OK = false
			res.Failures = []string{detail}
			s.seed.Record(&res)
		}
		if sess := s.sessions[req.Device]; sess != nil {
			delete(s.sessions, req.Device)
			s.devices.Store(int64(len(s.sessions)))
			if s.srv.cfg.RespawnPanicked {
				if w, g, ok := s.bootWorld(sess.spec, sess.handler, req.Seed); ok {
					s.sessions[sess.name] = &session{name: sess.name, spec: sess.spec, handler: sess.handler, world: w, guard: g}
					s.devices.Store(int64(len(s.sessions)))
					s.counter("serve_device_respawns_total").Inc()
					detail += " (device torn down and respawned)"
				} else {
					detail += " (device torn down; respawn failed)"
				}
			} else {
				detail += " (device torn down)"
			}
		}
		resp = Response{ID: req.ID, OK: false, Code: CodeDevicePanic, Shard: s.idx, Detail: detail}
	}()
	return s.dispatch(req)
}

// dispatchBatch runs one sub-batch of drive steps on this shard, each
// step individually panic-contained — one detonating device must not
// take the rest of the burst with it. Results carry the client-side
// step indices so the server can merge sub-batches from several shards
// back into request order.
func (s *shard) dispatchBatch(p *pending) Response {
	s.counter("serve_batches_total").Inc()
	results := make([]BatchResult, 0, len(p.req.Batch))
	for j, st := range p.req.Batch {
		s.counter("serve_batch_steps_total").Inc()
		r := s.dispatchContained(Request{
			ID: p.req.ID, Op: OpDrive,
			Device: st.Device, Kind: st.Kind,
			Seed: st.Seed, Events: st.Events, Millis: st.Millis,
		})
		results = append(results, BatchResult{
			Index: p.batchIdx[j], OK: r.OK, Code: r.Code, Detail: r.Detail, Shard: s.idx,
		})
	}
	return Response{ID: p.req.ID, OK: true, Shard: s.idx, Results: results}
}

// dispatch routes one admitted request.
func (s *shard) dispatch(req Request) Response {
	switch req.Op {
	case OpBoot:
		return s.boot(req)
	case OpDrive:
		return s.drive(req)
	case OpCanary:
		return s.runCanary(req)
	}
	return Response{ID: req.ID, OK: false, Code: CodeBadRequest, Shard: s.idx,
		Detail: fmt.Sprintf("unknown op %q", req.Op)}
}

// boot admits a new resident device, built fresh on its spec's shared
// app.
func (s *shard) boot(req Request) Response {
	if req.Device == "" {
		return Response{ID: req.ID, OK: false, Code: CodeBadRequest, Shard: s.idx, Detail: "boot needs a device name"}
	}
	if max := s.srv.cfg.maxDevices(); len(s.sessions) >= max {
		s.counter("serve_shed_overload_total").Inc()
		return Response{ID: req.ID, OK: false, Code: CodeOverloaded, Shard: s.idx,
			Detail: fmt.Sprintf("shard at its %d-device limit", max)}
	}
	if _, err := s.srv.specs.spec(req.Spec); err != nil {
		return Response{ID: req.ID, OK: false, Code: CodeBadRequest, Shard: s.idx, Detail: err.Error()}
	}
	if _, err := installerFor(req.Handler); err != nil {
		return Response{ID: req.ID, OK: false, Code: CodeBadRequest, Shard: s.idx, Detail: err.Error()}
	}
	w, g, ok := s.bootWorld(req.Spec, req.Handler, req.Seed)
	if !ok {
		s.deviceFailure()
		return Response{ID: req.ID, OK: false, Code: CodeBootFailed, Shard: s.idx,
			Detail: "world failed to settle"}
	}
	s.sessions[req.Device] = &session{name: req.Device, spec: req.Spec, handler: req.Handler, world: w, guard: g}
	s.devices.Store(int64(len(s.sessions)))
	s.sh.Gauge("serve_devices_high", "serve: high-water resident devices per shard", obs.Wall).Set(int64(len(s.sessions)))
	s.brk.onSuccess()
	return Response{ID: req.ID, OK: true, Shard: s.idx, Token: w.Token,
		Detail: fmt.Sprintf("device %q resident (spec=%s handler=%s)", req.Device, orDefault(req.Spec, SpecOracle), orDefault(req.Handler, HandlerRCH))}
}

// bootWorld builds one settled world armed with the handler's
// installer, returning the installer's guard getter. A world is a
// deterministic function of spec, handler and seed, so a world that
// fails to settle is counted and reported, never retried.
func (s *shard) bootWorld(specName, handler string, seed uint64) (*device.World, func() *guard.Guard, bool) {
	spec, err := s.srv.specs.spec(specName)
	if err != nil {
		return nil, nil, false
	}
	inst, err := installerFor(handler)
	if err != nil {
		return nil, nil, false
	}
	w := device.New(spec, seed, func(w *device.World) {
		if inst.Install != nil {
			inst.Install(w.Sys, w.Proc, nil)
		}
	})
	if w.Proc.Crashed() || w.Proc.Thread().ForegroundActivity() == nil {
		s.counter("serve_boot_failures_total").Inc()
		return nil, nil, false
	}
	return w, inst.Guard, true
}

// drive runs one burst on a resident device.
func (s *shard) drive(req Request) Response {
	if req.Kind == KindSleep {
		// Diagnostic stall: wall time only, no device involved.
		time.Sleep(time.Duration(req.Millis) * time.Millisecond)
		return Response{ID: req.ID, OK: true, Shard: s.idx, Detail: fmt.Sprintf("slept %dms", req.Millis)}
	}
	sess := s.sessions[req.Device]
	if sess == nil {
		return Response{ID: req.ID, OK: false, Code: CodeUnknownDevice, Shard: s.idx,
			Detail: fmt.Sprintf("no device %q on this shard", req.Device)}
	}
	w := sess.world
	detail := ""
	switch req.Kind {
	case KindRotate:
		w.Sys.PushConfiguration(w.Sys.GlobalConfig().Rotated())
		w.Sched.Advance(2 * time.Second)
		detail = "rotated"
	case KindNight:
		w.Sys.PushConfiguration(w.Sys.GlobalConfig().WithUIMode(config.UIModeNight))
		w.Sched.Advance(2 * time.Second)
		detail = "ui-mode night"
	case KindDay:
		w.Sys.PushConfiguration(w.Sys.GlobalConfig().WithUIMode(config.UIModeDay))
		w.Sched.Advance(2 * time.Second)
		detail = "ui-mode day"
	case KindSwitch:
		// The app-switch cycle: the user leaves (foreground activity
		// pauses and stops, releasing its shadow under RCHDroid) and
		// comes back (the stopped activity resumes).
		if fg := w.Proc.Thread().ForegroundActivity(); fg != nil {
			tok := fg.Token()
			w.Proc.Thread().ScheduleMoveToBackground(tok)
			w.Sched.Advance(1 * time.Second)
			w.Proc.Thread().ScheduleMoveToForeground(tok)
		}
		w.Sched.Advance(1 * time.Second)
		detail = "app switch (background/foreground cycle)"
	case KindTrim:
		w.Proc.TrimMemory()
		w.Sched.Advance(1 * time.Second)
		detail = "memory trim"
	case KindMonkey:
		out := monkey.Run(w.Sched, w.Sys, w.Proc, monkey.Options{Events: req.Events, Seed: req.Seed})
		detail = "monkey " + out.String()
	case KindChaos:
		plan := chaos.NewPlan(req.Seed, chaos.Light())
		plan.BindClock(w.Sched)
		plan.Install(w.Sys, w.Proc)
		for i := 0; i < 3 && !w.Proc.Crashed(); i++ {
			w.Sys.PushConfiguration(w.Sys.GlobalConfig().Rotated())
			w.Sched.Advance(2 * time.Second)
		}
		detail = fmt.Sprintf("chaos storm seed=%d injections=%d", req.Seed, len(plan.Injections()))
	default:
		return Response{ID: req.ID, OK: false, Code: CodeBadRequest, Shard: s.idx,
			Detail: fmt.Sprintf("unknown drive kind %q", req.Kind)}
	}
	if w.Proc.Crashed() {
		// A sim-level crash is a finding about the app, not a serve
		// fault: the request itself succeeded and the breaker is not
		// touched. The session stays inspectable.
		detail += " (app process crashed in sim)"
	}
	s.noteGuard(sess)
	s.brk.onSuccess()
	return Response{ID: req.ID, OK: true, Shard: s.idx, Detail: detail}
}

// noteGuard folds the session guard's degradation tallies into the
// fleet counters by delta. The counters are wall-domain on purpose:
// which drives a device received is request-stream state, and the
// canonical (sim-domain) dump must keep carrying only what canary
// seeds record.
func (s *shard) noteGuard(sess *session) {
	if sess.guard == nil {
		return
	}
	g := sess.guard()
	folds := [...]struct {
		kind   guard.Kind
		metric string
	}{
		{guard.KindQuarantine, "serve_guard_quarantines_total"},
		{guard.KindRecover, "serve_guard_recoveries_total"},
		{guard.KindBreakerOpen, "serve_guard_breaker_opens_total"},
	}
	for _, f := range folds {
		n := g.Count(f.kind)
		if d := n - sess.guardSeen[f.kind]; d > 0 {
			s.counter(f.metric).Add(int64(d))
		}
		sess.guardSeen[f.kind] = n
	}
}

// runCanary folds one differential-oracle seed through the exact
// rchsweep runner and engine-metric recorder, which is what makes the
// fleet's canonical dump byte-identical to an rchsweep dump over the
// same seeds.
func (s *shard) runCanary(req Request) Response {
	res := sweep.SeedResult{Seed: req.Seed, Done: true}
	t0 := time.Now()
	res.Outcome = s.canary(req.Seed, s.sh)
	res.Wall = time.Since(t0)
	s.seed.Record(&res)
	s.brk.onSuccess()
	return Response{ID: req.ID, OK: res.OK, Shard: s.idx, Detail: res.Detail, Failures: res.Failures}
}

// deviceFailure feeds one device-level failure (panic or failed boot)
// to the breaker, counting the open transition when it happens.
func (s *shard) deviceFailure() {
	if s.brk.onFailure(time.Now()) {
		s.counter("serve_breaker_opens_total").Inc()
	}
}

// health is read off the shard by the server (not through the queue, so
// it works while the queue is full). sessions is owned by the shard
// goroutine; the device count is mirrored into an atomic for this read.
func (s *shard) health() ShardHealth {
	return ShardHealth{
		Shard:    s.idx,
		State:    s.brk.stateName(),
		Devices:  int(s.devices.Load()),
		QueueLen: len(s.queue),
	}
}

// orDefault returns v, or def when v is empty.
func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}
