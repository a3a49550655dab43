package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"rchdroid/internal/obs"
)

// Config tunes the fleet service. Zero values get serviceable defaults.
type Config struct {
	// Shards is the goroutine-pool width (≤ 0 means 4). Each shard owns
	// its devices, its queue, its breaker, and its shard of the server's
	// metrics registry.
	Shards int
	// QueueDepth bounds each shard's request queue (≤ 0 means 16). A
	// full queue sheds with CodeOverloaded — admission control, never
	// unbounded growth.
	QueueDepth int
	// MaxDevices bounds resident devices per shard (≤ 0 means 64).
	MaxDevices int
	// RequestDeadline is the wall-clock budget per request (0 = none):
	// requests that overstay it in the queue are shed with CodeDeadline;
	// runs that exceed it are counted as overruns.
	RequestDeadline time.Duration
	// RespawnPanicked re-boots a device after its panic is contained.
	RespawnPanicked bool
	// Breaker tunes the per-shard circuit breaker.
	Breaker BreakerConfig
}

func (c Config) shards() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return 4
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 16
}

func (c Config) maxDevices() int {
	if c.MaxDevices > 0 {
		return c.MaxDevices
	}
	return 64
}

// ErrForcedAbort is returned by Drain when the deadline expired with
// work still in flight.
var errForcedAbort = errors.New("serve: drain deadline expired; forced abort")

// ForcedAbort reports whether a Drain error means the deadline expired
// (as opposed to a double drain).
func ForcedAbort(err error) bool { return errors.Is(err, errForcedAbort) }

// Server is the fleet: shards, the device specs they boot from, the
// metrics registry, and the drain machinery.
type Server struct {
	cfg    Config
	shards []*shard
	specs  specTable
	reg    *obs.Registry

	// admitMu serializes admission against the drain flip: Submit holds
	// the read side across its draining-check + enqueue, Drain takes the
	// write side to set the flag before closing the queues, so nothing
	// can send on a closed queue.
	admitMu  sync.RWMutex
	draining atomic.Bool
	// abortCh is closed on forced abort so parked Submit calls unblock
	// with CodeAborted.
	abortCh   chan struct{}
	abortOnce sync.Once
	// wg tracks shard goroutines; Drain waits on it.
	wg sync.WaitGroup
	// rr round-robins canary (and other deviceless) requests.
	rr atomic.Uint64
}

// New builds and starts the fleet.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		specs:   newSpecTable(),
		reg:     obs.NewRegistry(),
		abortCh: make(chan struct{}),
	}
	for i := 0; i < cfg.shards(); i++ {
		s.shards = append(s.shards, newShard(i, s))
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go sh.loop()
	}
	return s
}

// route picks the owning shard: the device name decides for boot/drive
// (a device always lands on the same shard), round-robin otherwise.
func (s *Server) route(req Request) *shard {
	if req.Device != "" {
		return s.shards[ShardIndex(req.Device, len(s.shards))]
	}
	return s.shards[int((s.rr.Add(1)-1)%uint64(len(s.shards)))]
}

// ShardIndex maps a device name to one of n lanes: the owning shard
// here, and a replay worker in internal/workload, so a device's requests
// always take the same lane. It is FNV-32a of the name through unsigned
// arithmetic end to end. int(h.Sum32()) % n would go negative for half
// the hash space on 32-bit ints and panic the slice index; the same
// hazard hides in the round-robin counter once it wraps, so both paths
// reduce in the unsigned domain and convert after.
func ShardIndex(device string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(device))
	return int(h.Sum32() % uint32(n))
}

// Submit runs one request through admission and waits for its reply.
// Stats and health are answered inline — they must work when every
// queue is full, that being exactly when an operator needs them.
func (s *Server) Submit(req Request) Response {
	switch req.Op {
	case OpStats:
		return s.statsResponse(req.ID)
	case OpHealth:
		return s.healthResponse(req.ID)
	case OpBatch:
		return s.submitBatch(req)
	}
	if detail := burstOutOfBounds(req.Events, req.Millis); detail != "" {
		return Response{ID: req.ID, OK: false, Code: CodeBadRequest, Shard: -1, Detail: detail}
	}
	sh := s.route(req)

	s.admitMu.RLock()
	if s.draining.Load() {
		s.admitMu.RUnlock()
		sh.counter("serve_shed_draining_total").Inc()
		return Response{ID: req.ID, OK: false, Code: CodeDraining, Shard: sh.idx, Detail: "server is draining"}
	}
	p := &pending{req: req, admitted: time.Now(), reply: make(chan Response, 1)}
	code, detail := sh.admit(p, 1)
	s.admitMu.RUnlock()
	if code != "" {
		return Response{ID: req.ID, OK: false, Code: code, Shard: sh.idx, Detail: detail}
	}
	return s.awaitReply(p, sh)
}

// burstOutOfBounds says which burst size lies outside its bound, or
// returns "" when both are inside.
func burstOutOfBounds(events, millis int) string {
	if events < 0 || events > MaxBurstEvents {
		return fmt.Sprintf("events %d outside [0, %d]", events, MaxBurstEvents)
	}
	if millis < 0 || millis > MaxSleepMillis {
		return fmt.Sprintf("millis %d outside [0, %d]", millis, MaxSleepMillis)
	}
	return ""
}

// awaitReply parks until the request's reply arrives or the drain abort
// fires. A ready reply always wins: when abortCh closes after the shard
// already executed the request, the buffered reply is the truth —
// reporting CodeAborted then would tell the client the request never
// ran while the shard's drain accounting says it did. The inner select
// re-checks the reply channel before conceding to the abort.
func (s *Server) awaitReply(p *pending, sh *shard) Response {
	select {
	case resp := <-p.reply:
		return resp
	case <-s.abortCh:
		select {
		case resp := <-p.reply:
			return resp
		default:
			return Response{ID: p.req.ID, OK: false, Code: CodeAborted, Shard: sh.idx,
				Detail: "drain deadline expired before the request ran"}
		}
	}
}

// submitBatch fans one OpBatch request across the owning shards — the
// batched cross-shard dispatch path. Steps are grouped by the shard
// their device name routes to, each group rides the shard queue as one
// pending (the shards execute their sub-batches in parallel), and the
// per-step results merge back into a single reply in step order. Every
// step keeps the individual admission contract: a quarantined or full
// shard refuses its steps with the explicit code while the other
// shards' steps still run, and a step whose burst is out of bounds is
// refused bad_request before it is grouped.
func (s *Server) submitBatch(req Request) Response {
	if len(req.Batch) == 0 {
		return Response{ID: req.ID, OK: false, Code: CodeBadRequest, Shard: -1,
			Detail: "batch needs at least one step"}
	}
	type group struct {
		sh    *shard
		steps []BatchStep
		idx   []int
		p     *pending // set once the shard admitted the group
	}
	results := make([]BatchResult, len(req.Batch))
	var groups []*group
	byShard := make(map[*shard]*group)
	for i, st := range req.Batch {
		if detail := burstOutOfBounds(st.Events, st.Millis); detail != "" {
			results[i] = BatchResult{Index: i, OK: false, Code: CodeBadRequest, Shard: -1, Detail: detail}
			continue
		}
		sh := s.route(Request{Device: st.Device})
		g := byShard[sh]
		if g == nil {
			g = &group{sh: sh}
			byShard[sh] = g
			groups = append(groups, g)
		}
		g.steps = append(g.steps, st)
		g.idx = append(g.idx, i)
	}

	s.admitMu.RLock()
	if s.draining.Load() {
		s.admitMu.RUnlock()
		for _, g := range groups {
			g.sh.counter("serve_shed_draining_total").Add(int64(len(g.steps)))
		}
		return Response{ID: req.ID, OK: false, Code: CodeDraining, Shard: -1, Detail: "server is draining"}
	}
	for _, g := range groups {
		p := &pending{
			req:      Request{ID: req.ID, Op: OpBatch, Batch: g.steps},
			batchIdx: g.idx,
			admitted: time.Now(),
			reply:    make(chan Response, 1),
		}
		if code, detail := g.sh.admit(p, len(g.steps)); code != "" {
			for _, i := range g.idx {
				results[i] = BatchResult{Index: i, OK: false, Code: code, Shard: g.sh.idx, Detail: detail}
			}
			continue
		}
		g.p = p
	}
	s.admitMu.RUnlock()

	for _, g := range groups {
		if g.p == nil {
			continue
		}
		resp := s.awaitReply(g.p, g.sh)
		if len(resp.Results) > 0 {
			for _, r := range resp.Results {
				results[r.Index] = r
			}
			continue
		}
		// The whole sub-batch came back as one refusal (queue-deadline
		// shed or drain abort): every step inherits it.
		for _, i := range g.idx {
			results[i] = BatchResult{Index: i, OK: false, Code: resp.Code, Shard: resp.Shard, Detail: resp.Detail}
		}
	}

	resp := Response{ID: req.ID, OK: true, Shard: -1, Results: results}
	for _, r := range results {
		if !r.OK {
			resp.OK = false
			resp.Code = r.Code
			resp.Detail = r.Detail
			break
		}
	}
	return resp
}

// Drain stops admission, lets shards finish their queued work, and
// waits up to timeout. A clean drain returns nil; a deadline expiry
// closes the abort channel (unblocking parked callers) and returns
// errForcedAbort. Safe to call once; later calls just wait again.
func (s *Server) Drain(timeout time.Duration) error {
	s.admitMu.Lock()
	first := !s.draining.Swap(true)
	if first {
		for _, sh := range s.shards {
			close(sh.queue)
		}
	}
	s.admitMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	// A stoppable timer, not time.After: every clean drain would leak
	// the After timer until it fired on its own.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		s.abortOnce.Do(func() { close(s.abortCh) })
		return errForcedAbort
	}
}

// MergedSnapshot is the server registry's snapshot, which merges every
// shard's obs.Shard under the registry's commutative semantics: the
// canonical (sim-domain) rendering is byte-identical regardless of
// shard count or how devices and canary seeds were partitioned. The
// error is always nil.
func (s *Server) MergedSnapshot() (*obs.Snapshot, error) {
	return s.reg.Snapshot(), nil
}

// statsResponse renders the merged snapshot.
func (s *Server) statsResponse(id string) Response {
	snap := s.reg.Snapshot()
	return Response{ID: id, OK: true, Shard: -1,
		Metrics:   snap.MarshalAll(),
		Canonical: snap.MarshalCanonical(),
	}
}

// healthResponse renders readiness plus per-shard state. Ready means
// not draining and at least one shard serving.
func (s *Server) healthResponse(id string) Response {
	resp := Response{ID: id, Shard: -1}
	serving := 0
	for _, sh := range s.shards {
		h := sh.health()
		if h.State == "serving" {
			serving++
		}
		resp.Shards = append(resp.Shards, h)
	}
	resp.OK = !s.draining.Load() && serving > 0
	if !resp.OK {
		resp.Code = CodeDraining
		if !s.draining.Load() {
			resp.Code = CodeQuarantined
		}
		resp.Detail = "not ready"
	}
	return resp
}
