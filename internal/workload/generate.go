package workload

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"rchdroid/internal/sim"
)

// GenSpec parameterises the diurnal generator. The zero value of any
// field takes the documented default.
type GenSpec struct {
	// Seed drives every roll. Same spec → byte-identical log.
	Seed uint64
	// Devices is the fleet size (default 8).
	Devices int
	// SpanMS is the sim span (default 60000 — one compressed "day").
	SpanMS int64
	// EventsPerDevice is the target mean drive-event count per device
	// across the span (default 40). The realised count jitters around it.
	EventsPerDevice int
	// GuardedPercent of devices boot with the guarded handler; the rest
	// split 1-in-8 stock, remainder rch (default 25).
	GuardedPercent int
}

func (g GenSpec) withDefaults() GenSpec {
	if g.Devices <= 0 {
		g.Devices = 8
	}
	if g.SpanMS <= 0 {
		g.SpanMS = 60_000
	}
	if g.EventsPerDevice <= 0 {
		g.EventsPerDevice = 40
	}
	if g.GuardedPercent <= 0 {
		g.GuardedPercent = 25
	}
	return g
}

// diurnalWeights is the relative traffic intensity across 24 equal
// slices of the span — the classic double-peak day: near-idle small
// hours, a morning commute ramp, a sustained work plateau, and the
// evening peak. Integer weights keep the generator free of float math,
// so logs are byte-reproducible on any platform.
var diurnalWeights = [24]int{
	2, 1, 1, 1, 1, 2, // 00–06: night trough
	4, 6, 8, 8, 7, 6, // 06–12: morning ramp and peak
	7, 8, 9, 8, 7, 9, // 12–18: afternoon plateau
	10, 9, 7, 5, 4, 3, // 18–24: evening peak, wind-down
}

// weightAt maps a sim timestamp to its diurnal slice's weight.
func weightAt(at, span int64) int {
	slice := int(at * 24 / span)
	if slice > 23 {
		slice = 23
	}
	return diurnalWeights[slice]
}

// Generate builds a diurnal workload log from spec. Everything derives
// from integer arithmetic over the seeded sim.RNG stream, so the same
// spec always encodes to identical bytes.
//
// Shape: each device arrives (boots) inside the first eighth of the
// span, staggered; from arrival it emits drive events whose inter-event
// gap stretches and shrinks inversely with the diurnal weight — dense
// bursts at the peaks, long idle gaps in the trough. The kind mix per
// event: app switches 28%, rotations 20%, night/day toggles 12%
// (alternating per device), seeded async monkey bursts 25%, and
// memory-pressure trims 15%.
func Generate(spec GenSpec) *Log {
	spec = spec.withDefaults()
	events := timeline(generate(spec))
	return &Log{
		Header: Header{
			Format: FormatName, Version: FormatVersion,
			Seed: spec.Seed, Devices: spec.Devices,
			SpanMS: spec.SpanMS, Events: len(events),
		},
		Events: events,
	}
}

// generate draws spec's events device by device, each device's stream
// in time order (ties possible), before the timeline merge.
func generate(spec GenSpec) []Event {
	var sumW int64
	for _, w := range diurnalWeights {
		sumW += int64(w)
	}
	avgW := sumW / 24

	// Room for half again the nominal event count, which the diurnal
	// gaps overshoot by about a fifth: growing a fleet-sized log by
	// append alone allocates about five times its final size on the way.
	// Gaps are at least 1 ms, so the span bounds the nominal count.
	perDevice := min(int64(spec.EventsPerDevice), spec.SpanMS)
	events := make([]Event, 0, int64(spec.Devices)*(perDevice*3/2+1))
	for d := 0; d < spec.Devices; d++ {
		// A distinct SplitMix stream per device: the golden-ratio stride
		// is the same decorrelation NewRNG itself advances by.
		rng := sim.NewRNG(spec.Seed + uint64(d)*0x9e3779b97f4a7c15)
		name := fmt.Sprintf("w-%03d", d)

		handler := "rch"
		switch roll := rng.Intn(100); {
		case roll < spec.GuardedPercent:
			handler = "guarded"
		case roll%8 == 0:
			handler = "stock"
		}
		arrive := int64(rng.Intn(int(spec.SpanMS/8) + 1))
		events = append(events, Event{
			AtMS: arrive, Device: name, Kind: EvBoot,
			Handler: handler, Seed: rng.Uint64(),
		})

		// Mean gap at average intensity; per-event gap scales by the
		// inverse diurnal weight and jitters uniformly in [gap/2, 3gap/2).
		active := spec.SpanMS - arrive
		meanGap := active / int64(spec.EventsPerDevice)
		if meanGap < 1 {
			meanGap = 1
		}
		night := false
		for at := arrive; ; {
			gap := meanGap * avgW / int64(weightAt(at, spec.SpanMS))
			if gap < 1 {
				gap = 1
			}
			at += gap/2 + int64(rng.Intn(int(gap)+1))
			if at > spec.SpanMS {
				break
			}
			ev := Event{AtMS: at, Device: name}
			switch roll := rng.Intn(100); {
			case roll < 28:
				ev.Kind = EvSwitch
			case roll < 48:
				ev.Kind = EvRotate
			case roll < 60:
				if night {
					ev.Kind = EvDay
				} else {
					ev.Kind = EvNight
				}
				night = !night
			case roll < 85:
				ev.Kind = EvBurst
				ev.Events = 5 + rng.Intn(20)
				ev.Seed = rng.Uint64()
			default:
				ev.Kind = EvTrim
			}
			events = append(events, ev)
		}
	}

	return events
}

// timeline merges generated per-device streams into one timeline,
// ordered by time, then device name, then kind, with full ties kept in
// generation order, so the order is a pure function of the event set.
// It sorts 16-byte keys that carry each device's rank by name, so most
// comparisons read no event, and moves each 72-byte event once.
func timeline(events []Event) []Event {
	rank := make(map[string]int32)
	var names []string
	for i := range events {
		if _, ok := rank[events[i].Device]; !ok {
			rank[events[i].Device] = 0
			names = append(names, events[i].Device)
		}
	}
	slices.Sort(names)
	for r, name := range names {
		rank[name] = int32(r)
	}
	type key struct {
		at       int64
		dev, idx int32
	}
	keys := make([]key, len(events))
	for i := range events {
		keys[i] = key{at: events[i].AtMS, dev: rank[events[i].Device], idx: int32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		if a.dev != b.dev {
			return cmp.Compare(a.dev, b.dev)
		}
		if c := strings.Compare(events[a.idx].Kind, events[b.idx].Kind); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	out := make([]Event, len(events))
	for i, k := range keys {
		out[i] = events[k.idx]
	}
	return out
}
