// Package explore enumerates the bounded schedule space of a corpus
// scenario: every interleaving of fault actions (config change, async
// completion, process kill, deferred-migration flush) over the
// scenario's lifecycle edges, up to a subset-size bound. Where
// internal/chaos samples this space with seeded RNG, explore walks it
// exhaustively and deterministically — every schedule has a stable
// index, so a failure replays by number, with no seed involved.
package explore

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"rchdroid/internal/oracle/corpus"
)

// Action is one fault the explorer can inject at a lifecycle edge.
//
// Each action is either stock-visible or stock-blind. A stock-visible
// action changes what stock Android 10 does: it pushes a change, moves
// the clock or kills the process. A stock-blind action only arms a hook
// that RCHDroid alone consults, so a stock run with the slot is the
// stock run without it, field for field. Explore runs the stock arm
// once per stock view (stockView) and shares it among the schedules
// that differ only in stock-blind slots. Declaring a stock-visible
// action blind would judge those schedules against the wrong
// stock run; TestStockBlindSlotsLeaveStockUnchanged catches it.
type Action int

const (
	// ActConfig pushes an extra configuration change at the edge.
	// Stock-visible.
	ActConfig Action = iota
	// ActAsync drains pending async completions at the edge (advances
	// virtual time by the scenario's AsyncDrain). Stock-visible.
	ActAsync
	// ActKill kills the process at the edge and relaunches it with the
	// system-held stock bundle. Stock-visible.
	ActKill
	// ActFlush defers the next migration flush past the edge (arms a
	// scripted stall on the migration point). Stock-blind: only
	// RCHDroid's migrator calls chaos.Plan.OnMigrationFlush.
	ActFlush

	NumActions
)

// stockBlind reports whether stock Android never consults the action,
// as each action's declaration states.
func (a Action) stockBlind() bool { return a == ActFlush }

// String names the action for schedule strings and reports.
func (a Action) String() string {
	switch a {
	case ActConfig:
		return "config"
	case ActAsync:
		return "async"
	case ActKill:
		return "kill"
	case ActFlush:
		return "flush"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Slot is one (edge, action) pair. Edge e means "after step e's settle".
type Slot struct {
	Edge   int
	Action Action
}

// String renders the slot as e<edge>:<action>.
func (s Slot) String() string {
	var buf [24]byte
	return string(s.appendTo(buf[:0]))
}

func (s Slot) appendTo(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, 'e'), int64(s.Edge), 10)
	return append(append(dst, ':'), s.Action.String()...)
}

// Schedule is a set of slots to inject in one run, kept sorted by edge
// then action so equal sets render identically.
type Schedule []Slot

// String renders the schedule as [e0:config e2:kill]; the empty
// schedule renders as [].
func (s Schedule) String() string {
	var buf [64]byte
	return string(s.appendTo(buf[:0]))
}

func (s Schedule) appendTo(dst []byte) []byte {
	dst = append(dst, '[')
	for i, sl := range s {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = sl.appendTo(dst)
	}
	return append(dst, ']')
}

// stockView is the schedule minus its stock-blind slots: the schedule
// whose stock run is this one's. A schedule without stock-blind slots is
// its own view and comes back as is; otherwise the view is a new slice.
func (s Schedule) stockView() Schedule {
	blind := func(sl Slot) bool { return sl.Action.stockBlind() }
	if !slices.ContainsFunc(s, blind) {
		return s
	}
	return slices.DeleteFunc(slices.Clone(s), blind)
}

// Space is the bounded schedule space: all subsets of the slot grid
// (Edges × Actions) with at most Depth elements, in canonical order —
// by subset size, then lexicographically by slot rank. Index 0 is the
// empty schedule (the fault-free baseline).
type Space struct {
	Edges   int
	Actions []Action
	Depth   int
}

// SpaceFor builds the space for a scenario, honoring its NoKill flag.
func SpaceFor(sc *corpus.Scenario, depth int) Space {
	actions := []Action{ActConfig, ActAsync}
	if !sc.NoKill {
		actions = append(actions, ActKill)
	}
	actions = append(actions, ActFlush)
	return Space{Edges: sc.Edges(), Actions: actions, Depth: depth}
}

// Slots returns the size of the slot grid.
func (sp Space) Slots() int { return sp.Edges * len(sp.Actions) }

// binom is the saturating binomial coefficient: it returns
// math.MaxUint64 if C(n,k) overflows.
func binom(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c uint64 = 1
	for i := 0; i < k; i++ {
		mul := uint64(n - i)
		if c > math.MaxUint64/mul {
			return math.MaxUint64
		}
		c = c * mul / uint64(i+1)
	}
	return c
}

// Size returns the number of schedules in the space:
// Σ_{k=0..Depth} C(Slots, k), saturating at MaxUint64.
func (sp Space) Size() uint64 {
	var total uint64
	for k := 0; k <= sp.Depth && k <= sp.Slots(); k++ {
		c := binom(sp.Slots(), k)
		if c == math.MaxUint64 || total > math.MaxUint64-c {
			return math.MaxUint64
		}
		total += c
	}
	return total
}

// slot maps a slot rank (row-major over the grid) to its Slot.
func (sp Space) slot(rank int) Slot {
	return Slot{Edge: rank / len(sp.Actions), Action: sp.Actions[rank%len(sp.Actions)]}
}

// slotRank is the inverse of slot. It returns -1 if the slot is not in
// the grid (unknown action or out-of-range edge).
func (sp Space) slotRank(s Slot) int {
	if s.Edge < 0 || s.Edge >= sp.Edges {
		return -1
	}
	for i, a := range sp.Actions {
		if a == s.Action {
			return s.Edge*len(sp.Actions) + i
		}
	}
	return -1
}

// unrankComb writes the m-th k-subset of {0..n-1} (in lexicographic
// order) into out. m must be < C(n,k).
func unrankComb(n, k int, m uint64, out []int) {
	x := 0
	for i := 0; i < k; i++ {
		for {
			// Subsets starting with x: C(n-x-1, k-i-1).
			c := binom(n-x-1, k-i-1)
			if m < c {
				break
			}
			m -= c
			x++
		}
		out[i] = x
		x++
	}
}

// At returns the idx-th schedule in canonical order. It panics if idx
// is out of range — callers iterate 0..Size()-1.
func (sp Space) At(idx uint64) Schedule {
	n := sp.Slots()
	for k := 0; k <= sp.Depth && k <= n; k++ {
		c := binom(n, k)
		if idx >= c {
			idx -= c
			continue
		}
		ranks := make([]int, k)
		unrankComb(n, k, idx, ranks)
		sched := make(Schedule, k)
		for i, r := range ranks {
			sched[i] = sp.slot(r)
		}
		return sched
	}
	panic(fmt.Sprintf("explore: schedule index %d out of range (size %d)", idx, sp.Size()))
}

// IndexOf is the inverse of At: the canonical index of a schedule, or
// false if any slot is outside the grid, the schedule exceeds Depth, or
// it contains duplicates.
func (sp Space) IndexOf(sched Schedule) (uint64, bool) {
	k := len(sched)
	if k > sp.Depth {
		return 0, false
	}
	ranks := make([]int, k)
	for i, s := range sched {
		r := sp.slotRank(s)
		if r < 0 {
			return 0, false
		}
		ranks[i] = r
	}
	sort.Ints(ranks)
	for i := 1; i < k; i++ {
		if ranks[i] == ranks[i-1] {
			return 0, false
		}
	}
	n := sp.Slots()
	var idx uint64
	for j := 0; j < k; j++ {
		idx += binom(n, j)
	}
	// Rank of the combination within the k-subsets.
	prev := -1
	for i, r := range ranks {
		for x := prev + 1; x < r; x++ {
			idx += binom(n-x-1, k-i-1)
		}
		prev = r
	}
	return idx, true
}

// ParseSchedule parses the Schedule.String form ("[e0:config e2:kill]",
// brackets optional) back into a schedule over the space's actions.
func (sp Space) ParseSchedule(s string) (Schedule, error) {
	s = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(s, "["), "]"))
	if s == "" {
		return Schedule{}, nil
	}
	var sched Schedule
	for _, part := range strings.Fields(s) {
		var edge int
		var name string
		if _, err := fmt.Sscanf(part, "e%d:%s", &edge, &name); err != nil {
			return nil, fmt.Errorf("explore: bad slot %q: %v", part, err)
		}
		found := false
		for a := Action(0); a < NumActions; a++ {
			if a.String() == name {
				sched = append(sched, Slot{Edge: edge, Action: a})
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("explore: unknown action %q in slot %q", name, part)
		}
	}
	sort.Slice(sched, func(i, j int) bool {
		if sched[i].Edge != sched[j].Edge {
			return sched[i].Edge < sched[j].Edge
		}
		return sched[i].Action < sched[j].Action
	})
	return sched, nil
}
