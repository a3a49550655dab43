package looper

import (
	"fmt"

	"rchdroid/internal/sim"
)

// Fork returns a copy of l driving future messages on sched, preserving
// the message-sequence counter, busy horizon and accumulated statistics so
// that a forked looper dispatches with exactly the ordering and occupancy
// a fresh run would have produced at this point.
//
// Forking is only legal at quiescence: queued or in-flight messages hold
// closures over the old world, and an armed fault injector belongs to the
// old world's chaos arm. Observers and tracers are deliberately not
// carried over, and neither is the uncaught handler — each fork re-arms
// its own (the process fork rebinds the uncaught handler to the forked
// process; chaos/guard/metrics arm post-fork).
func (l *Looper) Fork(sched *sim.Scheduler) (*Looper, error) {
	switch {
	case len(l.queue) > 0:
		return nil, fmt.Errorf("looper %s: fork with %d queued messages", l.name, len(l.queue))
	case l.dispatching:
		return nil, fmt.Errorf("looper %s: fork mid-dispatch of %q", l.name, l.running)
	case l.pump != nil && l.pump.Pending():
		return nil, fmt.Errorf("looper %s: fork with pump scheduled", l.name)
	case l.quit:
		return nil, fmt.Errorf("looper %s: fork after quit", l.name)
	case l.fault != nil:
		return nil, fmt.Errorf("looper %s: fork with fault injector armed", l.name)
	}
	// The fork arms its own pump, bound to its own dispatch, on its first
	// post.
	return &Looper{
		name:      l.name,
		sched:     sched,
		seq:       l.seq,
		busyUntil: l.busyUntil,
		totalBusy: l.totalBusy,
		processed: l.processed,
	}, nil
}
