package explore

import "sync"

// stockMemo shares stock runs among the schedules of one Explore call.
// Schedules that differ only in stock-blind slots have the same stock
// view, and a stock run depends on the view alone, so the first schedule
// to need a view runs the stock arm on the view itself and every later
// one reuses that result.
//
// Only views shorter than the space's depth are stored. A full-depth
// view has no room for a stock-blind slot inside the bound, so its own
// schedule is its only user; storing it would hold a result nobody
// reads again. At depth 3 a ten-edge scenario stores 466 views instead
// of 4,526, so the memo stays small next to the chunk's own report.
// The memo lives as long as its Explore call.
type stockMemo struct {
	sp      Space
	mu      sync.Mutex
	entries map[uint64]*stockEntry
}

// stockEntry is one view's stock run. done closes once res or panicVal
// is set; both are read-only after that.
type stockEntry struct {
	done     chan struct{}
	res      RunResult
	panicked bool
	panicVal any
}

func newStockMemo(sp Space) *stockMemo {
	return &stockMemo{sp: sp, entries: make(map[uint64]*stockEntry)}
}

// stock returns sched's stock run, calling run on its stock view when no
// other schedule of the call ran it. A caller that needs a view another
// goroutine is running waits for that result. When the run panics,
// every schedule that needs the view panics with the same value, so the
// sweep engine attributes each of them as if it had run the view itself.
func (m *stockMemo) stock(sched Schedule, run func(Schedule) RunResult) RunResult {
	view := sched.stockView()
	if len(view) >= m.sp.Depth {
		return run(view)
	}
	key, _ := m.sp.IndexOf(view)
	m.mu.Lock()
	e, found := m.entries[key]
	if !found {
		e = &stockEntry{done: make(chan struct{})}
		m.entries[key] = e
	}
	m.mu.Unlock()
	if found {
		<-e.done
		if e.panicked {
			panic(e.panicVal)
		}
		return e.res
	}

	defer close(e.done)
	e.panicked = true
	defer func() {
		if e.panicked {
			// Recovering inside the deferred call keeps the original frames
			// on the stack the sweep engine records for this schedule.
			e.panicVal = recover()
			panic(e.panicVal)
		}
	}()
	e.res = run(view)
	e.panicked = false
	return e.res
}
