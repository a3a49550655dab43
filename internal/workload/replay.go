package workload

import (
	"fmt"
	"sync"
	"time"

	"rchdroid/internal/metrics"
	"rchdroid/internal/obs"
	"rchdroid/internal/serve"
)

// Caller is one wire connection (or an in-process stand-in): it carries
// a request to the fleet and blocks for the reply. Each replay worker
// owns one Caller, so implementations need not be safe for concurrent
// Call.
type Caller interface {
	Call(serve.Request) (serve.Response, error)
	Close() error
}

// Dialer opens one Caller. Replay dials once per worker plus once for
// the final stats read.
type Dialer func() (Caller, error)

// Config parameterises a replay.
type Config struct {
	// Speed is the time-compression multiplier: an event at sim t is due
	// at wall start + t/Speed. 0 defaults to 1; the supported band is
	// 1–1000 and Speed is clamped into it.
	Speed float64
	// Window bounds in-flight work: the replay runs Window workers, each
	// with one connection and at most one outstanding request, so no
	// more than Window requests are ever in flight (default 4). Devices
	// pin to workers by name hash, which preserves per-device event
	// order — a device's boot always lands before its drives.
	Window int
	// MaxBatch caps how many due burst-class events one worker coalesces
	// into a single OpBatch round-trip (default 16).
	MaxBatch int
	// Dial opens the per-worker connections.
	Dial Dialer
	// Obs receives the replay's metrics; nil uses a private registry.
	// Sim-domain metrics are derived from the log alone, so the
	// canonical dump is byte-identical across shard counts and speeds.
	Obs *obs.Registry
}

// Report is the replay's SLO summary — the production-style answer to
// "what did this traffic cost": per-op-class wall latency percentiles,
// shed rates by machine-readable code, and the server's breaker and
// guard counters over the run.
type Report struct {
	Speed         float64 `json:"speed"`
	Window        int     `json:"window"`
	Events        int     `json:"events"`
	Devices       int     `json:"devices"`
	SpanMS        int64   `json:"span_ms"`
	WallMS        float64 `json:"wall_ms"`
	AchievedSpeed float64 `json:"achieved_speed"`
	// MaxLagMS is the worst scheduling lag: how far behind its due time
	// an event was sent, the replay's own pacing health.
	MaxLagMS float64 `json:"max_lag_ms"`

	// Boot is cold/forked boot latency; Flip is config-change latency
	// under whatever contention the trace generates (the paper's
	// transparency number, measured at the fleet edge); Batch is the
	// round-trip of a coalesced burst dispatch.
	Boot  metrics.DurationStats `json:"boot"`
	Flip  metrics.DurationStats `json:"flip"`
	Batch metrics.DurationStats `json:"batch"`

	// StepsOK counts events the fleet completed; Shed counts refused or
	// failed events by wire code (overloaded, deadline, quarantined, …).
	StepsOK  int64            `json:"steps_ok"`
	Shed     map[string]int64 `json:"shed"`
	ShedRate float64          `json:"shed_rate"`

	// Server-side degradation counters over the run, read from the
	// fleet's own merged snapshot after the last event.
	BreakerOpens      int64 `json:"breaker_opens"`
	GuardQuarantines  int64 `json:"guard_quarantines"`
	GuardRecoveries   int64 `json:"guard_recoveries"`
	GuardBreakerOpens int64 `json:"guard_breaker_opens"`
}

// burstClass reports whether kind coalesces into OpBatch. Config flips
// stay individual round-trips on purpose: flip latency is the SLO the
// replay measures, so it must be one op per measurement.
func burstClass(kind string) bool {
	return kind == EvSwitch || kind == EvTrim || kind == EvBurst
}

// driveKind maps a workload kind to its serve drive kind.
func driveKind(kind string) string {
	if kind == EvBurst {
		return serve.KindMonkey
	}
	return kind
}

// worker is one replay lane: its own connection, obs shard, and sample
// buffers.
type worker struct {
	id     int
	events []Event
	call   Caller
	sh     *obs.Shard

	boot, flip, batch []time.Duration
	stepsOK           int64
	shed              map[string]int64
	maxLag            time.Duration
	err               error
}

// Replay pushes the log through the fleet behind cfg.Dial, pacing by
// the log's sim timestamps compressed by cfg.Speed, and returns the SLO
// report. The transport decides what "the fleet" is: a TCP dialer
// replays against a live rchserve, an in-process dialer against a
// serve.Server in the same test binary — same engine either way.
func Replay(lg *Log, cfg Config) (*Report, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("workload: replay needs a dialer")
	}
	if err := lg.Validate(); err != nil {
		return nil, err
	}
	speed := cfg.Speed
	if speed == 0 {
		speed = 1
	}
	if speed < 1 {
		speed = 1
	}
	if speed > 1000 {
		speed = 1000
	}
	window := cfg.Window
	if window <= 0 {
		window = 4
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 16
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	recordLogMetrics(reg.Shard(), lg)

	// Partition by device hash: a stable split of a sorted log, so each
	// worker sees its devices' events in log order.
	workers := make([]*worker, window)
	for i := range workers {
		workers[i] = &worker{id: i, sh: reg.Shard(), shed: make(map[string]int64)}
	}
	for _, ev := range lg.Events {
		w := workers[serve.ShardIndex(ev.Device, window)]
		w.events = append(w.events, ev)
	}
	for _, w := range workers {
		c, err := cfg.Dial()
		if err != nil {
			for _, prev := range workers {
				if prev.call != nil {
					prev.call.Close()
				}
			}
			return nil, fmt.Errorf("workload: dial worker %d: %w", w.id, err)
		}
		w.call = c
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			defer w.call.Close()
			w.run(start, speed, maxBatch)
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := &Report{
		Speed: speed, Window: window,
		Events: lg.Header.Events, Devices: lg.Header.Devices, SpanMS: lg.Header.SpanMS,
		WallMS: float64(wall) / float64(time.Millisecond),
		Shed:   make(map[string]int64),
	}
	if wall > 0 {
		rep.AchievedSpeed = float64(lg.Header.SpanMS) / (float64(wall) / float64(time.Millisecond))
	}
	var boot, flip, batch []time.Duration
	for _, w := range workers {
		if w.err != nil {
			return nil, w.err
		}
		boot = append(boot, w.boot...)
		flip = append(flip, w.flip...)
		batch = append(batch, w.batch...)
		rep.StepsOK += w.stepsOK
		for code, n := range w.shed {
			rep.Shed[code] += n
		}
		if lag := float64(w.maxLag) / float64(time.Millisecond); lag > rep.MaxLagMS {
			rep.MaxLagMS = lag
		}
	}
	rep.Boot = metrics.SummarizeDurations(boot)
	rep.Flip = metrics.SummarizeDurations(flip)
	rep.Batch = metrics.SummarizeDurations(batch)
	var shedTotal int64
	for _, n := range rep.Shed {
		shedTotal += n
	}
	if total := rep.StepsOK + shedTotal; total > 0 {
		rep.ShedRate = float64(shedTotal) / float64(total)
	}
	if err := fetchServerCounters(cfg.Dial, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// recordLogMetrics writes the sim-domain (canonical) metrics: pure
// functions of the log bytes, so any replay of the same log — any shard
// count, any speed — dumps identical canonical output. Every kind's
// counter is defined even when zero, so the metric set itself cannot
// vary with the log's kind mix.
func recordLogMetrics(sh *obs.Shard, lg *Log) {
	sh.Counter("replay_log_events_total", "events in the replayed log", obs.Sim).Add(int64(len(lg.Events)))
	byKind := map[string]int64{}
	for _, ev := range lg.Events {
		byKind[ev.Kind]++
	}
	for _, kind := range []string{EvBoot, EvSwitch, EvRotate, EvNight, EvDay, EvTrim, EvBurst} {
		sh.Counter("replay_log_"+kind+"_events_total", "log events of kind "+kind, obs.Sim).Add(byKind[kind])
	}
	sh.Gauge("replay_log_devices", "devices the log drives", obs.Sim).Set(int64(lg.Header.Devices))
	sh.Gauge("replay_log_span_ms", "log sim span (ms)", obs.Sim).Set(lg.Header.SpanMS)
	sh.Gauge("replay_log_version", "workload format version", obs.Sim).Set(int64(lg.Header.Version))
}

// run replays one lane. Boots and config flips go as individual ops (a
// flip round-trip IS the SLO sample); consecutive due burst-class
// events coalesce into one OpBatch up to the batch cap.
func (w *worker) run(start time.Time, speed float64, maxBatch int) {
	lagGauge := w.sh.Gauge("replay_lag_ms_high", "worst event dispatch lag (ms)", obs.Wall)
	batchGauge := w.sh.Gauge("replay_batch_size_high", "largest coalesced batch", obs.Wall)
	bootHist := w.sh.Histogram("replay_boot_wall_ns", "boot round-trip wall latency", obs.Wall, obs.WallDurationBounds)
	flipHist := w.sh.Histogram("replay_flip_wall_ns", "config-flip round-trip wall latency", obs.Wall, obs.WallDurationBounds)
	batchHist := w.sh.Histogram("replay_batch_wall_ns", "batched burst round-trip wall latency", obs.Wall, obs.WallDurationBounds)
	okCounter := w.sh.Counter("replay_steps_ok_total", "events the fleet completed", obs.Wall)

	due := func(ev Event) time.Time {
		return start.Add(time.Duration(float64(ev.AtMS) / speed * float64(time.Millisecond)))
	}
	seq := 0
	for i := 0; i < len(w.events); {
		ev := w.events[i]
		if d := time.Until(due(ev)); d > 0 {
			time.Sleep(d)
		}
		if lag := time.Since(due(ev)); lag > w.maxLag {
			w.maxLag = lag
			lagGauge.Set(int64(lag / time.Millisecond))
		}
		seq++
		id := fmt.Sprintf("w%d-%d", w.id, seq)

		if !burstClass(ev.Kind) {
			req := serve.Request{ID: id, Op: serve.OpDrive, Device: ev.Device, Kind: driveKind(ev.Kind)}
			if ev.Kind == EvBoot {
				req = serve.Request{ID: id, Op: serve.OpBoot, Device: ev.Device, Handler: ev.Handler, Seed: ev.Seed}
			}
			t0 := time.Now()
			resp, err := w.call.Call(req)
			if err != nil {
				w.err = fmt.Errorf("workload: worker %d: %s %s: %w", w.id, req.Op, ev.Device, err)
				return
			}
			if resp.OK {
				rt := time.Since(t0)
				if ev.Kind == EvBoot {
					w.boot = append(w.boot, rt)
					bootHist.ObserveDuration(rt)
				} else {
					w.flip = append(w.flip, rt)
					flipHist.ObserveDuration(rt)
				}
				w.stepsOK++
				okCounter.Inc()
			} else {
				w.countShed(resp.Code)
			}
			i++
			continue
		}

		// Coalesce the run of due burst-class events into one OpBatch.
		// Stopping at the first not-due or non-burst event preserves the
		// log's per-device order.
		var steps []serve.BatchStep
		j := i
		for j < len(w.events) && len(steps) < maxBatch {
			next := w.events[j]
			if !burstClass(next.Kind) || time.Now().Before(due(next)) {
				break
			}
			steps = append(steps, serve.BatchStep{
				Device: next.Device, Kind: driveKind(next.Kind),
				Seed: next.Seed, Events: next.Events,
			})
			j++
		}
		if len(steps) == 0 { // woke exactly at due; take just this event
			steps = append(steps, serve.BatchStep{
				Device: ev.Device, Kind: driveKind(ev.Kind),
				Seed: ev.Seed, Events: ev.Events,
			})
			j = i + 1
		}
		batchGauge.Set(int64(len(steps)))
		t0 := time.Now()
		resp, err := w.call.Call(serve.Request{ID: id, Op: serve.OpBatch, Batch: steps})
		if err != nil {
			w.err = fmt.Errorf("workload: worker %d: batch of %d: %w", w.id, len(steps), err)
			return
		}
		if len(resp.Results) > 0 {
			rt := time.Since(t0)
			w.batch = append(w.batch, rt)
			batchHist.ObserveDuration(rt)
			for _, res := range resp.Results {
				if res.OK {
					w.stepsOK++
					okCounter.Inc()
				} else {
					w.countShed(res.Code)
				}
			}
		} else {
			// Whole-batch refusal with no per-step results (draining,
			// abort): every step inherits the top-level code.
			for range steps {
				w.countShed(resp.Code)
			}
		}
		i = j
	}
}

// countShed tallies one refused or failed event under its wire code.
func (w *worker) countShed(code serve.ErrCode) {
	name := string(code)
	if name == "" {
		name = "unknown"
	}
	w.shed[name]++
	w.sh.Counter("replay_shed_"+name+"_total", "events shed with code "+name, obs.Wall).Inc()
	w.sh.Counter("replay_shed_total", "events shed or failed (all codes)", obs.Wall).Inc()
}

// fetchServerCounters reads the fleet's merged snapshot once after the
// run and folds its degradation counters into the report.
func fetchServerCounters(dial Dialer, rep *Report) error {
	c, err := dial()
	if err != nil {
		return fmt.Errorf("workload: dial for final stats: %w", err)
	}
	defer c.Close()
	resp, err := c.Call(serve.Request{ID: "final-stats", Op: serve.OpStats})
	if err != nil {
		return fmt.Errorf("workload: final stats: %w", err)
	}
	if !resp.OK {
		return fmt.Errorf("workload: final stats refused: %s %s", resp.Code, resp.Detail)
	}
	snap, err := obs.DecodeSnapshot(resp.Metrics)
	if err != nil {
		return fmt.Errorf("workload: final stats snapshot: %w", err)
	}
	rep.BreakerOpens, _ = snap.Value("serve_breaker_opens_total")
	rep.GuardQuarantines, _ = snap.Value("serve_guard_quarantines_total")
	rep.GuardRecoveries, _ = snap.Value("serve_guard_recoveries_total")
	rep.GuardBreakerOpens, _ = snap.Value("serve_guard_breaker_opens_total")
	return nil
}
