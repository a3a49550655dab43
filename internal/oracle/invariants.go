// Package oracle is the differential transparency oracle: it drives the
// same seeded app and event sequence under the stock Android-10 restart
// handler and under RCHDroid, injects the same seeded faults into both
// runs (internal/chaos), and asserts the paper's transparency contract —
// the app must not be able to tell the handlers apart through any state
// it persists, and RCHDroid must additionally preserve the state stock
// Android legitimately loses.
//
// Every verdict carries the seed that produced it; re-running with that
// seed replays the failure exactly.
package oracle

import (
	"fmt"
	"slices"

	"rchdroid/internal/app"
)

// InvariantConfig tunes CheckInvariants for the caller's setting. The
// zero value checks the universal invariants only.
type InvariantConfig struct {
	// MaxInstancesPerProcess, if positive, bounds the live instances a
	// process may track (RCHDroid holds at most sunny + shadow for a
	// single-activity app).
	MaxInstancesPerProcess int
	// CheckMemoryFloor asserts tracked memory never falls below the
	// process base — an accounting bug symptom.
	CheckMemoryFloor bool
	// MaxVisible, if positive, overrides the visible-activity bound
	// (default 1). Multi-activity scenarios sampled mid-transition
	// legitimately overlap an outgoing and an incoming activity.
	MaxVisible int
}

// CheckInvariants verifies the RCHDroid lifecycle invariants over a set
// of processes and returns every violation found (nil when clean):
//
//   - no process has crashed;
//   - no process tracks a destroyed instance;
//   - at most one shadow instance per process (§3.2), not counting an
//     instance shadowed for a flip prediction whose server reply is
//     still in flight (ActivityThread.PendingShadow);
//   - at most one visible activity system-wide;
//   - optionally, instance-count and memory-floor bounds.
//
// It is the factored form of the checkers the core soak and random-walk
// tests grew independently, shared with the oracle and stress harnesses.
func CheckInvariants(procs []*app.Process, cfg InvariantConfig) []error {
	var errs []error
	visible := 0
	for _, p := range procs {
		name := p.App().Name
		if p.Crashed() {
			errs = append(errs, fmt.Errorf("%s crashed: %v", name, p.CrashCause()))
			continue
		}
		acts := p.Thread().Activities()
		if cfg.MaxInstancesPerProcess > 0 && len(acts) > cfg.MaxInstancesPerProcess {
			errs = append(errs, fmt.Errorf("%s tracks %d instances, want ≤ %d",
				name, len(acts), cfg.MaxInstancesPerProcess))
		}
		var buf [8]int
		tokens := buf[:0]
		for tok := range acts {
			tokens = append(tokens, tok)
		}
		slices.Sort(tokens)
		// An instance that entered the shadow state for a flip prediction
		// the server has not answered yet briefly coexists with the
		// committed shadow coupling; every reply path clears the pointer,
		// so the strict bound holds whenever the thread is at rest.
		pending := p.Thread().PendingShadow()
		shadows := 0
		for _, tok := range tokens {
			a := acts[tok]
			switch {
			case a.State() == app.StateShadow:
				if a != pending {
					shadows++
				}
			case a.State() == app.StateDestroyed || a.State() == app.StateNone:
				errs = append(errs, fmt.Errorf("%s still tracks dead instance token=%d state=%v",
					name, tok, a.State()))
			case a.State().Visible():
				visible++
			}
		}
		if shadows > 1 {
			errs = append(errs, fmt.Errorf("%s has %d shadow instances, want ≤ 1", name, shadows))
		}
		if cfg.CheckMemoryFloor && p.Memory().CurrentBytes() < p.Model().ProcessBaseBytes {
			errs = append(errs, fmt.Errorf("%s memory %d below process base %d",
				name, p.Memory().CurrentBytes(), p.Model().ProcessBaseBytes))
		}
	}
	maxVisible := cfg.MaxVisible
	if maxVisible <= 0 {
		maxVisible = 1
	}
	if visible > maxVisible {
		errs = append(errs, fmt.Errorf("%d visible activities system-wide, want ≤ %d", visible, maxVisible))
	}
	return errs
}
