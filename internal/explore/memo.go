package explore

import (
	"sync"

	"rchdroid/internal/obs"
)

// viewMemo shares a stock view's two runs among the schedules of one
// Explore call. Schedules that differ only in stock-blind slots have the
// same stock view, and a stock run depends on the view alone, so every
// one of them reuses the view's stock run. The view's RCHDroid run is
// theirs too when their stock-blind slots are inert against it: for
// each slot (e, a), the run never consulted a's chaos point after edge
// e's arming point, so the directive the slot arms is never consulted
// and changes nothing. A schedule with a live slot runs its own
// RCHDroid arm and still shares the stock run.
//
// The first schedule to need a view runs both arms on the view itself.
// The RCHDroid run records its metrics into a capture shard of a
// private registry, never into a shard of Options.Obs, and every
// schedule that uses that run, the view's own included, merges the
// capture into its worker's shard: a judged schedule's metrics are what
// its own run would have recorded.
//
// Only views shorter than the space's depth are stored. A full-depth
// view has no room for a stock-blind slot inside the bound, so its own
// schedule is its only user and runs both arms directly. At depth 3 a
// ten-edge scenario stores 466 views instead of 4,526, so the memo stays
// small next to the chunk's own report. The memo lives as long as its
// Explore call.
type viewMemo struct {
	sp Space
	// capture owns the entries' capture shards; nil when metrics are off.
	capture *obs.Registry
	mu      sync.Mutex
	entries map[uint64]*viewEntry
}

// viewEntry is one view's two runs and what the RCHDroid run recorded.
// done closes once both runs returned or one panicked; every field is
// read-only after that. A stock panic leaves the RCHDroid run unrun.
type viewEntry struct {
	done                       chan struct{}
	stock, rch                 RunResult
	metrics                    *obs.Shard
	stockPanicked, rchPanicked bool
	stockPanic, rchPanic       any
}

// stockRunner and rchRunner run one arm of a schedule; an rchRunner
// records the run's metrics into the shard it is given.
type (
	stockRunner func(Schedule) RunResult
	rchRunner   func(Schedule, *obs.Shard) RunResult
)

// newViewMemo returns an empty memo; capture is whether the call
// collects metrics.
func newViewMemo(sp Space, capture bool) *viewMemo {
	m := &viewMemo{sp: sp, entries: make(map[uint64]*viewEntry)}
	if capture {
		m.capture = obs.NewRegistry()
	}
	return m
}

// arms returns sched's stock and RCHDroid runs, calling stock and rch on
// its stock view when no other schedule of the call has, and rch on
// sched itself when a stock-blind slot of sched is live. A caller that
// needs a view another goroutine is running waits for it. Panics follow
// the runs: when the view's stock run panics, every schedule that needs
// the view panics with the same value, and when its RCHDroid run
// panics, the view's own schedule does; a schedule with stock-blind
// slots then runs its own RCHDroid arm, since a run that panicked
// proves no slot inert. So the sweep engine attributes each schedule as
// if it had run its arms itself.
func (m *viewMemo) arms(sched Schedule, sh *obs.Shard, stock stockRunner, rch rchRunner) (RunResult, RunResult) {
	view := sched.stockView()
	if len(view) >= m.sp.Depth {
		return stock(view), rch(view, sh)
	}
	own := len(view) == len(sched)
	key, _ := m.sp.IndexOf(view)
	m.mu.Lock()
	e, found := m.entries[key]
	if !found {
		e = &viewEntry{done: make(chan struct{})}
		m.entries[key] = e
	}
	m.mu.Unlock()
	if found {
		<-e.done
	} else {
		m.fill(e, view, own, sh, stock, rch)
	}

	if e.stockPanicked {
		panic(e.stockPanic)
	}
	if own || e.inert(sched) {
		sh.Merge(e.metrics)
		if e.rchPanicked {
			panic(e.rchPanic)
		}
		return e.stock, e.rch
	}
	return e.stock, rch(sched, sh)
}

// fill runs the view's two arms into e. A stock panic propagates; an
// RCHDroid panic propagates only when the caller is the view's own
// schedule, after the capture merged into its shard. Either way the
// panic is re-raised from the deferred call that recovered it, so the
// stack the sweep engine records keeps the run's frames.
func (m *viewMemo) fill(e *viewEntry, view Schedule, own bool, sh *obs.Shard, stock stockRunner, rch rchRunner) {
	defer close(e.done)
	e.stockPanicked = true
	defer func() {
		if e.stockPanicked {
			e.stockPanic = recover()
			panic(e.stockPanic)
		}
	}()
	e.stock = stock(view)
	e.stockPanicked = false

	e.metrics = m.capture.Shard()
	e.rchPanicked = true
	defer func() {
		if e.rchPanicked {
			e.rchPanic = recover()
			if own {
				sh.Merge(e.metrics)
				panic(e.rchPanic)
			}
		}
	}()
	e.rch = rch(view, e.metrics)
	e.rchPanicked = false
}

// inert reports whether every stock-blind slot of sched is inert against
// the view's RCHDroid run: the run never consulted the slot's point
// after the slot's edge armed it.
func (e *viewEntry) inert(sched Schedule) bool {
	if e.rchPanicked {
		return false
	}
	for _, sl := range sched {
		if sl.Action.stockBlind() && sl.Edge <= e.rch.lastConsult[sl.Action] {
			return false
		}
	}
	return true
}
