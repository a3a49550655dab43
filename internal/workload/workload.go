// Package workload is the trace layer: a deterministic, versioned
// event-log format for fleet traffic, seeded generators that shape logs
// like a production day, and a replay engine that pushes a log through
// a live rchserve fleet over the wire API at 1×–1000× speed.
//
// A workload log is the fleet analogue of a sweep's seed range: the
// whole run derives from the log bytes, so replaying the same log twice
// — against one shard or eight, at 1× or 1000× — exercises the fleet
// under identical traffic. The determinism contract splits the same way
// obs does:
//
//   - Sim domain: everything derived from the log alone (event counts
//     by kind, device count, span, format version). These land in the
//     canonical metrics dump and byte-compare equal across shard counts
//     and replay speeds.
//   - Wall domain: per-op latencies, shed counts, lag — the measurement
//     the replay exists to take. Quarantined outside the canonical dump
//     like every other wall metric in the tree.
//
// The log format is line-delimited JSON: one header line naming the
// format and version, then one line per event, sorted by sim timestamp.
// Version checks are strict — a reader never guesses at a log shape.
package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Format identity. Decode rejects anything else.
const (
	FormatName    = "rch-workload"
	FormatVersion = 1
)

// Event kinds. EvBoot arrives a device; the rest are drive traffic and
// map onto serve drive kinds (EvBurst is a seeded monkey burst —
// serve's KindMonkey).
const (
	EvBoot   = "boot"
	EvSwitch = "switch"
	EvRotate = "rotate"
	EvNight  = "night"
	EvDay    = "day"
	EvTrim   = "trim"
	EvBurst  = "burst"
)

// knownKind reports whether k is a kind this format version defines.
func knownKind(k string) bool {
	switch k {
	case EvBoot, EvSwitch, EvRotate, EvNight, EvDay, EvTrim, EvBurst:
		return true
	}
	return false
}

// Header is the log's first line.
type Header struct {
	// Format and Version identify the log shape; Decode is strict about
	// both.
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Seed is the generator seed the log derives from (0 for hand-built
	// logs). Informational: replay never re-rolls it.
	Seed uint64 `json:"seed"`
	// Devices is the fleet size the log drives.
	Devices int `json:"devices"`
	// SpanMS is the log's sim duration: the last event's timestamp never
	// exceeds it. Replay at speed S targets SpanMS/S of wall time.
	SpanMS int64 `json:"span_ms"`
	// Events is the event-line count; Decode cross-checks it.
	Events int `json:"events"`
}

// Event is one log line: something that happens to one device at one
// sim instant. Idle gaps are not events — they are the distance between
// consecutive timestamps, which replay converts to wall pauses.
type Event struct {
	// AtMS is the sim timestamp (ms from log start). Events are sorted
	// by AtMS; replay at speed S is due at wall start + AtMS/S.
	AtMS int64 `json:"at_ms"`
	// Device names the target. The first event for a device must be its
	// EvBoot.
	Device string `json:"device"`
	// Kind is one of the Ev* constants.
	Kind string `json:"kind"`
	// Handler picks the change handler for EvBoot ("rch", "guarded",
	// "stock"; empty = rch).
	Handler string `json:"handler,omitempty"`
	// Seed drives boot forking and burst monkeys.
	Seed uint64 `json:"seed,omitempty"`
	// Events sizes an EvBurst monkey run.
	Events int `json:"events,omitempty"`
}

// Log is a decoded (or generated) workload.
type Log struct {
	Header Header
	Events []Event
}

// Encode renders the log as its canonical bytes: header line then one
// line per event. Encoding the same Log always yields identical bytes
// (struct field order is fixed), so generator reproducibility is
// byte-level.
func (l *Log) Encode() []byte {
	var buf bytes.Buffer
	hdr, _ := json.Marshal(l.Header)
	buf.Write(hdr)
	buf.WriteByte('\n')
	for i := range l.Events {
		ev, _ := json.Marshal(&l.Events[i])
		buf.Write(ev)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// Decode reads and validates a log. It is strict: wrong format name or
// version, unknown kinds, unsorted timestamps, drives before their
// device's boot, and event-count mismatches are all errors, never
// guesses.
func Decode(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("workload: read header: %w", err)
		}
		return nil, fmt.Errorf("workload: empty log")
	}
	var l Log
	if err := json.Unmarshal(sc.Bytes(), &l.Header); err != nil {
		return nil, fmt.Errorf("workload: header line: %w", err)
	}
	if l.Header.Format != FormatName {
		return nil, fmt.Errorf("workload: format %q, want %q", l.Header.Format, FormatName)
	}
	if l.Header.Version != FormatVersion {
		return nil, fmt.Errorf("workload: version %d, this reader speaks only %d", l.Header.Version, FormatVersion)
	}
	line := 1
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", line, err)
		}
		l.Events = append(l.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: read: %w", err)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &l, nil
}

// Validate checks the log's internal contract (the part of Decode that
// also applies to hand-built logs).
func (l *Log) Validate() error {
	if got, want := len(l.Events), l.Header.Events; got != want {
		return fmt.Errorf("workload: header promises %d events, log carries %d", want, got)
	}
	// Size from the events, not the header alone: every device needs a
	// boot event, and an untrusted header may promise any count.
	booted := make(map[string]bool, min(l.Header.Devices, len(l.Events)))
	var prev int64
	for i := range l.Events {
		ev := &l.Events[i]
		if !knownKind(ev.Kind) {
			return fmt.Errorf("workload: event %d: unknown kind %q", i, ev.Kind)
		}
		if ev.Device == "" {
			return fmt.Errorf("workload: event %d: empty device", i)
		}
		if ev.AtMS < prev {
			return fmt.Errorf("workload: event %d: timestamp %d before %d — log is not sorted", i, ev.AtMS, prev)
		}
		if ev.AtMS > l.Header.SpanMS {
			return fmt.Errorf("workload: event %d: timestamp %d past span %d", i, ev.AtMS, l.Header.SpanMS)
		}
		prev = ev.AtMS
		if ev.Kind == EvBoot {
			if booted[ev.Device] {
				return fmt.Errorf("workload: event %d: device %q boots twice", i, ev.Device)
			}
			booted[ev.Device] = true
		} else if !booted[ev.Device] {
			return fmt.Errorf("workload: event %d: %s for %q before its boot", i, ev.Kind, ev.Device)
		}
	}
	if got := len(booted); got != l.Header.Devices {
		return fmt.Errorf("workload: header promises %d devices, log boots %d", l.Header.Devices, got)
	}
	return nil
}
