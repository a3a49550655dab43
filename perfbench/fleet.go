package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/device"
	"rchdroid/internal/obs"
	"rchdroid/internal/oracle"
	"rchdroid/internal/serve"
	"rchdroid/internal/workload"
)

// fleet-diurnal replays a seeded workload.Generate log closed-loop
// through an in-process serve.Server behind Server.ServeListener on
// loopback. Each connection owns the devices whose names hash to it and
// sends its events in log order, each as soon as the previous reply
// lands. Boots and flips go as single ops; each run of consecutive
// burst-class events (switch, trim, monkey burst) coalesces into one
// OpBatch of at most fleetMaxBatch steps. The grouping follows log
// order, never wall time, so the work a run does is a pure function of
// the log.
//
// A run longer than fleetPassSeconds replays the same log in several
// passes, each into a fresh fleet, so the resident state a pass
// accumulates — and the process's memory — stays that of one pass
// however long the run. Every pass must reproduce the first one's
// per-step results.
const (
	// fleetDevices is the per-shard device cap, so no boot is shed.
	fleetDevices = 64
	// fleetEventsPerSecond sizes the log: the generator's per-device
	// target is pass seconds×rate/devices, it realises ≈1.23× that at
	// the default span, and one pass of the result takes ≈pass seconds
	// on a 2-vCPU Xeon.
	fleetEventsPerSecond = 12000
	// fleetGuarded and fleetStock devices of fleetDevices boot with
	// those handlers, the rest with rch: the generator's default shares
	// (25% guarded, 1 in 8 of the rest stock), held exact.
	fleetGuarded = 16
	fleetStock   = 6
	// fleetPassSeconds is the longest pass.
	fleetPassSeconds = 10
	fleetMaxBatch    = 16
	fleetSetupReps   = 5
	// fleetCheckDevices devices are replayed again in-process after the
	// timed phase and their per-step results compared.
	fleetCheckDevices = 4
)

type opClass int

const (
	opBoot opClass = iota
	opFlip
	opBatch
)

var classNames = [...]string{"boot", "flip", "batch"}

// fleetOp is one wire request and the log events it carries.
type fleetOp struct {
	class   opClass
	req     serve.Request
	devices []string // the device of each step, in step order
	kinds   []string // the drive kind of each step
}

// fleetPlan is the client side of a replay: each connection's ops in
// send order.
type fleetPlan struct {
	lanes  [][]fleetOp
	events int
}

// fleetLane maps a device to its connection the way workload.Replay's
// lanes do: FNV-32a of the name, modulo the connection count.
func fleetLane(device string, lanes int) int {
	h := fnv.New32a()
	h.Write([]byte(device))
	return int(h.Sum32() % uint32(lanes))
}

func burstClass(kind string) bool {
	return kind == workload.EvSwitch || kind == workload.EvTrim || kind == workload.EvBurst
}

// planFleet splits the log into lanes and groups each lane's events
// into ops.
func planFleet(lg *workload.Log, lanes int) fleetPlan {
	perLane := make([][]workload.Event, lanes)
	for _, ev := range lg.Events {
		l := fleetLane(ev.Device, lanes)
		perLane[l] = append(perLane[l], ev)
	}
	p := fleetPlan{lanes: make([][]fleetOp, lanes), events: len(lg.Events)}
	for l, evs := range perLane {
		var ops []fleetOp
		for i := 0; i < len(evs); {
			id := fmt.Sprintf("w%d-%d", l, len(ops)+1)
			ev := evs[i]
			switch {
			case ev.Kind == workload.EvBoot:
				ops = append(ops, fleetOp{class: opBoot, devices: []string{ev.Device}, kinds: []string{ev.Kind},
					req: serve.Request{ID: id, Op: serve.OpBoot, Device: ev.Device, Handler: ev.Handler, Seed: ev.Seed}})
				i++
			case !burstClass(ev.Kind):
				ops = append(ops, fleetOp{class: opFlip, devices: []string{ev.Device}, kinds: []string{ev.Kind},
					req: serve.Request{ID: id, Op: serve.OpDrive, Device: ev.Device, Kind: ev.Kind}})
				i++
			default:
				op := fleetOp{class: opBatch, req: serve.Request{ID: id, Op: serve.OpBatch}}
				for ; i < len(evs) && burstClass(evs[i].Kind) && len(op.req.Batch) < fleetMaxBatch; i++ {
					e := evs[i]
					kind := e.Kind
					if kind == workload.EvBurst {
						kind = serve.KindMonkey
					}
					op.req.Batch = append(op.req.Batch, serve.BatchStep{Device: e.Device, Kind: kind, Seed: e.Seed, Events: e.Events})
					op.devices = append(op.devices, e.Device)
					op.kinds = append(op.kinds, kind)
				}
				ops = append(ops, op)
			}
		}
		p.lanes[l] = ops
	}
	return p
}

// fleetPasses is how many passes a run of seconds makes.
func fleetPasses(seconds int) int { return max(1, (seconds+fleetPassSeconds-1)/fleetPassSeconds) }

// fleetLog is the log one pass of a run of seconds replays. The seed
// drives every event, but the handler mix is held at the generator's
// default shares (see fixMix), so seeds vary the traffic, not the
// fleet's make-up.
func fleetLog(seed uint64, seconds int) *workload.Log {
	perDevice := max(1, fleetEventsPerSecond*seconds/(fleetPasses(seconds)*fleetDevices))
	lg := workload.Generate(workload.GenSpec{Seed: seed, Devices: fleetDevices, EventsPerDevice: perDevice})
	fixMix(lg)
	return lg
}

// fixMix gives the fleetGuarded devices with the lowest boot seeds the
// guarded handler, the next fleetStock stock, and the rest rch. The
// generator draws each device's handler on its own, so the guarded
// count ranged from 12 to 21 of 64 over five seeds, and the resident
// heap rose with it from 92 to 122 MB.
func fixMix(lg *workload.Log) {
	var boots []*workload.Event
	for i := range lg.Events {
		if lg.Events[i].Kind == workload.EvBoot {
			boots = append(boots, &lg.Events[i])
		}
	}
	sort.Slice(boots, func(i, j int) bool {
		if boots[i].Seed != boots[j].Seed {
			return boots[i].Seed < boots[j].Seed
		}
		return boots[i].Device < boots[j].Device
	})
	for i, ev := range boots {
		switch {
		case i < fleetGuarded:
			ev.Handler = serve.HandlerGuarded
		case i < fleetGuarded+fleetStock:
			ev.Handler = serve.HandlerStock
		default:
			ev.Handler = serve.HandlerRCH
		}
	}
}

// fleetServer is a serve.Server behind a loopback listener.
type fleetServer struct {
	srv  *serve.Server
	ln   net.Listener
	done chan error
}

func startFleet() (*fleetServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	fs := &fleetServer{srv: serve.New(serve.Config{Shards: concurrency}), ln: ln, done: make(chan error, 1)}
	go func() { fs.done <- fs.srv.ServeListener(ln) }()
	return fs, nil
}

// stop drains the fleet, closes the listener and waits for the accept
// loop to return.
func (fs *fleetServer) stop() error {
	derr := fs.srv.Drain(10 * time.Second)
	cerr := fs.ln.Close()
	lerr := <-fs.done
	return errors.Join(derr, cerr, lerr)
}

// fleetConn is one pass's fleet and the connections dialled to it.
type fleetConn struct {
	fleet   *fleetServer
	callers []workload.Caller
}

func dialFleet() (*fleetConn, error) {
	fleet, err := startFleet()
	if err != nil {
		return nil, err
	}
	fc := &fleetConn{fleet: fleet}
	addr := fleet.ln.Addr().String()
	for i := 0; i < concurrency; i++ {
		c, err := workload.TCPDialer(addr)()
		if err != nil {
			return nil, errors.Join(fmt.Errorf("dial: %w", err), fc.release())
		}
		fc.callers = append(fc.callers, c)
	}
	return fc, nil
}

func (fc *fleetConn) release() error {
	var errs []error
	for _, c := range fc.callers {
		errs = append(errs, c.Close())
	}
	errs = append(errs, fc.fleet.stop())
	return errors.Join(errs...)
}

// fleetState is what set-up builds: the request plan and one fleet per
// pass. A pass's entry is nil once it has been released.
type fleetState struct {
	plan   fleetPlan
	passes []*fleetConn
}

func (st *fleetState) release() error {
	var errs []error
	for i, fc := range st.passes {
		if fc != nil {
			errs = append(errs, fc.release())
			st.passes[i] = nil
		}
	}
	return errors.Join(errs...)
}

// laneOut is one connection's view of a pass: its ordered per-step
// results (hashed), failures, and latency samples.
type laneOut struct {
	results hash.Hash
	check   map[string][]string // per-step result lines of the check devices
	failed  int
	fails   []string
	lat     [3][]time.Duration // per op class
}

func newLaneOut(check map[string]bool) *laneOut {
	lo := &laneOut{results: sha256.New(), check: map[string][]string{}}
	for d := range check {
		lo.check[d] = nil
	}
	return lo
}

// record folds one reply into the lane's results.
func (lo *laneOut) record(op *fleetOp, resp serve.Response, rt time.Duration) {
	lo.lat[op.class] = append(lo.lat[op.class], rt)
	line := func(i int, ok bool, code serve.ErrCode, shard, token int, detail string) {
		s := fmt.Sprintf("%s|%s|%v|%s|%d|%d|%s\n", op.devices[i], op.kinds[i], ok, code, shard, token, detail)
		lo.results.Write([]byte(s))
		if lines, ok := lo.check[op.devices[i]]; ok {
			lo.check[op.devices[i]] = append(lines, s)
		}
		if !ok {
			lo.failed++
			if len(lo.fails) < 10 {
				lo.fails = append(lo.fails, "step refused or failed: "+s)
			}
		}
	}
	if op.class != opBatch {
		line(0, resp.OK, resp.Code, resp.Shard, resp.Token, resp.Detail)
		return
	}
	if len(resp.Results) != len(op.devices) {
		for i := range op.devices {
			line(i, false, resp.Code, resp.Shard, 0, fmt.Sprintf("batch reply carried %d of %d step results: %s", len(resp.Results), len(op.devices), resp.Detail))
		}
		return
	}
	for i, res := range resp.Results {
		if res.Index != i {
			line(i, false, res.Code, res.Shard, 0, fmt.Sprintf("step result out of order: index %d at %d", res.Index, i))
			continue
		}
		line(i, res.OK, res.Code, res.Shard, 0, res.Detail)
	}
}

// passOut is a whole pass.
type passOut struct {
	lanes []*laneOut
}

func (p passOut) digest() string {
	h := sha256.New()
	for _, lo := range p.lanes {
		h.Write(lo.results.Sum(nil))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (p passOut) latencies(c opClass) []time.Duration {
	var out []time.Duration
	for _, lo := range p.lanes {
		out = append(out, lo.lat[c]...)
	}
	return out
}

func (p passOut) failures(r *run) {
	for _, lo := range p.lanes {
		r.failed += lo.failed
		for _, f := range lo.fails {
			r.fail("%s", f)
		}
	}
}

// checkSet picks the devices replayed again after the timed phase.
func checkSet(seed uint64) map[string]bool {
	set := map[string]bool{}
	for i := 0; i < fleetCheckDevices; i++ {
		d := (int(seed%fleetDevices) + i*fleetDevices/fleetCheckDevices) % fleetDevices
		set[fmt.Sprintf("w-%03d", d)] = true
	}
	return set
}

// drive runs every lane of plan concurrently, lane l through call(l, op).
func drive(plan fleetPlan, check map[string]bool, call func(lane int, op *fleetOp) (serve.Response, error)) (passOut, error) {
	out := passOut{lanes: make([]*laneOut, len(plan.lanes))}
	errs := make([]error, len(plan.lanes))
	var wg sync.WaitGroup
	for l := range plan.lanes {
		out.lanes[l] = newLaneOut(check)
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			lo := out.lanes[l]
			for i := range plan.lanes[l] {
				op := &plan.lanes[l][i]
				t0 := time.Now()
				resp, err := call(l, op)
				rt := time.Since(t0)
				if err != nil {
					errs[l] = fmt.Errorf("lane %d %s: %w", l, op.req.ID, err)
					return
				}
				lo.record(op, resp, rt)
			}
		}(l)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func fleetDiurnal(r *run) error {
	r.prov.Connections, r.prov.Shards = concurrency, concurrency
	passes := fleetPasses(r.seconds)
	var gens []time.Duration
	st, setup, err := medianSetup(fleetSetupReps, func() (*fleetState, func(), error) {
		t0 := time.Now()
		lg := fleetLog(r.seed, r.seconds)
		gens = append(gens, time.Since(t0))
		st := &fleetState{plan: planFleet(lg, concurrency)}
		for i := 0; i < passes; i++ {
			fc, err := dialFleet()
			if err != nil {
				return nil, nil, errors.Join(err, st.release())
			}
			st.passes = append(st.passes, fc)
		}
		return st, func() {
			if err := st.release(); err != nil {
				r.fail("set-up teardown: %v", err)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup.Seconds()
	check := checkSet(r.seed)

	// Each pass's fleet but the last is released as soon as the pass
	// ends; the last stays resident for the live-heap reading.
	outs := make([]passOut, passes)
	events := st.plan.events
	err = r.timedPhase(func() (int, error) {
		for i, fc := range st.passes {
			var err error
			outs[i], err = drive(st.plan, check, func(l int, op *fleetOp) (serve.Response, error) {
				return fc.callers[l].Call(op.req)
			})
			if err != nil {
				return 0, err
			}
			if i < passes-1 {
				st.passes[i] = nil
				if err := fc.release(); err != nil {
					return 0, err
				}
			}
		}
		return passes * events, nil
	})
	if err != nil {
		return err
	}
	// The live heap is the last fleet's, with every device resident: the
	// client's request plan is dropped first and rebuilt from the seed
	// for the checks that follow.
	st.plan = fleetPlan{}
	if err := r.endPhase(); err != nil {
		return err
	}
	if err := st.release(); err != nil {
		return err
	}
	st = nil
	timed := outs[0]
	var flips []time.Duration
	for i, out := range outs {
		r.attempted += events
		out.failures(r)
		flips = append(flips, out.latencies(opFlip)...)
		if i > 0 && out.digest() != timed.digest() {
			r.fail("pass %d: per-step results differ from pass 1's", i+1)
		}
	}
	outs = nil
	r.latencies(flips)
	r.notes = append(r.notes, fmt.Sprintf("fleet-diurnal: %d passes of %d events, %d devices, %d connections, %d shards; %d flip samples",
		passes, events, fleetDevices, concurrency, concurrency, len(flips)))
	if err := r.checkDigest("reports", timed.digest()); err != nil {
		return err
	}
	plan := planFleet(fleetLog(r.seed, r.seconds), concurrency)
	if err := fleetRecheck(r, plan, check, timed); err != nil {
		return err
	}
	if !r.trace {
		return nil
	}
	return fleetTraced(r, plan, check, timed, gens)
}

// fleetRecheck replays the check devices' events alone through a fresh
// in-process server and compares their per-step results with the timed
// pass's.
func fleetRecheck(r *run, plan fleetPlan, check map[string]bool, timed passOut) error {
	sub := fleetPlan{lanes: make([][]fleetOp, 1)}
	for _, lane := range plan.lanes {
		for _, op := range lane {
			var keep fleetOp
			for i, d := range op.devices {
				if !check[d] {
					continue
				}
				if op.class != opBatch {
					keep = op
					break
				}
				keep.class, keep.req.Op, keep.req.ID = opBatch, serve.OpBatch, op.req.ID
				keep.req.Batch = append(keep.req.Batch, op.req.Batch[i])
				keep.devices = append(keep.devices, d)
				keep.kinds = append(keep.kinds, op.kinds[i])
			}
			if len(keep.devices) > 0 {
				sub.lanes[0] = append(sub.lanes[0], keep)
			}
		}
	}
	srv := serve.New(serve.Config{Shards: concurrency})
	again, err := drive(sub, check, func(_ int, op *fleetOp) (serve.Response, error) {
		return srv.Submit(op.req), nil
	})
	if derr := srv.Drain(10 * time.Second); err == nil {
		err = derr
	}
	if err != nil {
		return err
	}
	for d := range check {
		var want []string
		for _, lo := range timed.lanes {
			want = append(want, lo.check[d]...)
		}
		got := again.lanes[0].check[d]
		if len(got) != len(want) {
			r.fail("device %s: re-run produced %d step results, timed pass %d", d, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				r.fail("device %s step %d: re-run %q differs from timed pass %q", d, i, got[i], want[i])
				break
			}
		}
	}
	return nil
}

// wireClient speaks the line-JSON wire protocol with each phase of a
// call timed as its own span: client encode, the TCP round trip, and
// decode.
type wireClient struct {
	conn                net.Conn
	sc                  *bufio.Scanner
	reqBytes, respBytes int64
}

func dialWire(addr string) (*wireClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 8*1024*1024)
	return &wireClient{conn: conn, sc: sc}, nil
}

func (c *wireClient) call(o *opTrace, req serve.Request) (serve.Response, error) {
	var line []byte
	var err error
	o.timed("client.encode", func() { line, err = json.Marshal(req) })
	if err != nil {
		return serve.Response{}, fmt.Errorf("encode: %w", err)
	}
	line = append(line, '\n')
	end := o.child("tcp.roundtrip")
	_, err = c.conn.Write(line)
	got := err == nil && c.sc.Scan()
	end()
	if err != nil {
		return serve.Response{}, fmt.Errorf("send: %w", err)
	}
	if !got {
		if err := c.sc.Err(); err != nil {
			return serve.Response{}, fmt.Errorf("recv: %w", err)
		}
		return serve.Response{}, errors.New("recv: connection closed")
	}
	reply := c.sc.Bytes()
	c.reqBytes += int64(len(line))
	c.respBytes += int64(len(reply) + 1)
	var resp serve.Response
	o.timed("client.decode", func() { err = json.Unmarshal(reply, &resp) })
	if err != nil {
		return serve.Response{}, fmt.Errorf("decode: %w", err)
	}
	return resp, nil
}

// fleetWirePass runs plan over TCP against a fresh fleet with the wire
// phases as spans, and returns the bytes each direction carried.
func fleetWirePass(tr *tracer, plan fleetPlan, check map[string]bool) (out passOut, reqBytes, respBytes int64, elapsed time.Duration, err error) {
	fleet, err := startFleet()
	if err != nil {
		return out, 0, 0, 0, err
	}
	clients := make([]*wireClient, concurrency)
	for i := range clients {
		if clients[i], err = dialWire(fleet.ln.Addr().String()); err != nil {
			for _, c := range clients[:i] {
				c.conn.Close()
			}
			return out, 0, 0, 0, errors.Join(fmt.Errorf("dial: %w", err), fleet.stop())
		}
	}
	t0 := time.Now()
	out, err = drive(plan, check, func(l int, op *fleetOp) (serve.Response, error) {
		o := tr.begin(op.req.ID, l, "op "+classNames[op.class])
		defer o.end()
		return clients[l].call(o, op.req)
	})
	elapsed = time.Since(t0)
	for _, c := range clients {
		reqBytes += c.reqBytes
		respBytes += c.respBytes
		c.conn.Close()
	}
	return out, reqBytes, respBytes, elapsed, errors.Join(err, fleet.stop())
}

// fleetSubmitPass runs plan straight into a fresh in-process
// Server.Submit, with the device micro-calls timed on each boot's own
// spec, and returns the fleet's merged metrics snapshot.
func fleetSubmitPass(tr *tracer, plan fleetPlan, check map[string]bool) (passOut, *obs.Snapshot, error) {
	srv := serve.New(serve.Config{Shards: concurrency})
	spec := device.Spec{App: func() *app.App { return oracle.OracleApp(4) }}
	cache := device.NewTemplateCache()
	out, err := drive(plan, check, func(l int, op *fleetOp) (serve.Response, error) {
		o := tr.begin(op.req.ID, l, "submit "+classNames[op.class])
		defer o.end()
		var resp serve.Response
		o.timed("serve.Server.Submit "+classNames[op.class], func() { resp = srv.Submit(op.req) })
		if op.class == opBoot {
			deviceCalls(o, cache, "serve:oracle", spec, op.req.Seed)
		}
		return resp, nil
	})
	snap, serr := srv.MergedSnapshot()
	return out, snap, errors.Join(err, serr, srv.Drain(10*time.Second))
}

// counter reads one counter from a snapshot (0 when absent).
func counter(snap *obs.Snapshot, name string) int64 {
	for _, m := range snap.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// fleetTraced runs the plan twice more on fresh fleets: over TCP with
// the wire phases as spans, then in-process through Server.Submit.
// Both must reproduce the timed pass's per-step results.
func fleetTraced(r *run, plan fleetPlan, check map[string]bool, timed passOut, gens []time.Duration) error {
	runtime.GC()
	tr := newTracer()
	tcp, reqBytes, respBytes, elapsed, err := fleetWirePass(tr, plan, check)
	if err != nil {
		return err
	}
	if tcp.digest() != timed.digest() {
		r.fail("traced TCP pass: per-step results differ from the timed pass's")
	}
	r.overhead(plan.events, elapsed, tcp.latencies(opFlip))
	tcp = passOut{}
	runtime.GC()

	local, snap, err := fleetSubmitPass(tr, plan, check)
	if err != nil {
		return err
	}
	if local.digest() != timed.digest() {
		r.fail("in-process Submit pass: per-step results differ from the timed pass's")
	}

	var shed int64
	for _, name := range []string{"serve_shed_overload_total", "serve_shed_quarantined_total",
		"serve_shed_draining_total", "serve_shed_deadline_total"} {
		shed += counter(snap, name)
	}
	batches, steps := counter(snap, "serve_batches_total"), counter(snap, "serve_batch_steps_total")
	n := plan.events
	submit := func(c opClass) []time.Duration { return tr.durations("serve.Server.Submit " + classNames[c]) }
	flipSubmit, batchSubmit, bootSubmit := submit(opFlip), submit(opBatch), submit(opBoot)
	enc, dec := tr.durations("client.encode"), tr.durations("client.decode")
	builds, forks := tr.durations("device.New"), tr.durations("device.TemplateCache.Fork")
	r.setLayer("serve.submit_us_p50.flip", us(quantile(flipSubmit, 0.5)), len(flipSubmit))
	r.setLayer("serve.submit_us_p50.batch", us(quantile(batchSubmit, 0.5)), len(batchSubmit))
	r.setLayer("serve.submit_us_p50.boot", us(quantile(bootSubmit, 0.5)), len(bootSubmit))
	r.setLayer("serve.steps_per_batch", ratio(float64(steps), float64(batches)), int(batches))
	r.setLayer("serve.shed_frac", ratio(float64(shed), float64(n)), n)
	r.setLayer("serve.wire.encode_us_p50", us(quantile(enc, 0.5)), len(enc))
	r.setLayer("serve.wire.decode_us_p50", us(quantile(dec, 0.5)), len(dec))
	r.setLayer("serve.wire.req_bytes_per_op", ratio(float64(reqBytes), float64(n)), n)
	r.setLayer("serve.wire.resp_bytes_per_op", ratio(float64(respBytes), float64(n)), n)
	r.setLayer("serve.tcp.overhead_us_p50", r.e2e["flip_p50_ms"]*1000-us(quantile(flipSubmit, 0.5)), len(flipSubmit))
	r.setLayer("workload.gen_ms", ms(quantile(gens, 0.5)), len(gens))
	r.setLayer("device.build_us_p50", us(quantile(builds, 0.5)), len(builds))
	r.setLayer("device.fork_us_p50", us(quantile(forks, 0.5)), len(forks))
	return r.finishTrace(tr)
}
