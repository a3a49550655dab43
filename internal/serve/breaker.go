package serve

import (
	"sync/atomic"
	"time"
)

// Breaker states. The ladder mirrors internal/guard's per-activity
// quarantine → probation → recovery at shard scope: repeated *device*
// failures (Go panics, boot failures — never canary verdicts or
// sim-level app crashes, which are findings, not faults) open the
// breaker; after OpenFor of wall time the next request probes it; enough
// consecutive probe successes close it again.
const (
	stateServing int32 = iota
	stateQuarantined
	stateProbation
)

// BreakerConfig tunes one shard's circuit breaker.
type BreakerConfig struct {
	// Threshold is the consecutive device-failure count that opens the
	// breaker (≤ 0 means 3).
	Threshold int
	// OpenFor is how long an open breaker rejects before probing
	// (≤ 0 means 2s).
	OpenFor time.Duration
	// ProbationSuccesses is how many consecutive successes close a
	// probing breaker (≤ 0 means 2).
	ProbationSuccesses int
}

func (c BreakerConfig) threshold() int32 {
	if c.Threshold > 0 {
		return int32(c.Threshold)
	}
	return 3
}

func (c BreakerConfig) openFor() time.Duration {
	if c.OpenFor > 0 {
		return c.OpenFor
	}
	return 2 * time.Second
}

func (c BreakerConfig) probation() int32 {
	if c.ProbationSuccesses > 0 {
		return int32(c.ProbationSuccesses)
	}
	return 2
}

// breaker is one shard's ladder. State transitions happen on the shard
// goroutine (onFailure/onSuccess) and on the admission path (allow's
// quarantined→probation promotion); everything is atomic so admission
// never takes a lock.
type breaker struct {
	cfg      BreakerConfig
	state    atomic.Int32
	openedAt atomic.Int64 // wall nanos at quarantine
	fails    atomic.Int32 // consecutive device failures
	probeOKs atomic.Int32 // consecutive successes in probation
}

// allow decides admission. An open breaker whose OpenFor has elapsed
// promotes itself to probation and admits the probe.
func (b *breaker) allow(now time.Time) bool {
	switch b.state.Load() {
	case stateServing, stateProbation:
		return true
	default:
		if now.UnixNano()-b.openedAt.Load() < int64(b.cfg.openFor()) {
			return false
		}
		// First caller past the window flips to probation and probes;
		// losers of the CAS re-read and are admitted as probes too.
		b.state.CompareAndSwap(stateQuarantined, stateProbation)
		return b.state.Load() != stateQuarantined
	}
}

// onFailure records a device-level failure and opens (or re-opens) the
// breaker when the ladder says so, reporting whether it did.
func (b *breaker) onFailure(now time.Time) bool {
	b.probeOKs.Store(0)
	switch b.state.Load() {
	case stateServing:
		if b.fails.Add(1) < b.cfg.threshold() {
			return false
		}
	case stateProbation:
		// A failed probe goes straight back to quarantine.
	default:
		return false
	}
	b.openedAt.Store(now.UnixNano())
	b.state.Store(stateQuarantined)
	b.fails.Store(0)
	return true
}

// onSuccess records a cleanly served device request; enough of them in
// probation recover the shard.
func (b *breaker) onSuccess() {
	b.fails.Store(0)
	if b.state.Load() == stateProbation {
		if b.probeOKs.Add(1) >= b.cfg.probation() {
			b.probeOKs.Store(0)
			b.state.Store(stateServing)
		}
	}
}

// stateName renders the rung for health replies.
func (b *breaker) stateName() string {
	switch b.state.Load() {
	case stateQuarantined:
		return "quarantined"
	case stateProbation:
		return "probation"
	}
	return "serving"
}
