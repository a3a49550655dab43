package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"rchdroid/internal/sim"
)

// jsonEvent is the wire form of one Chrome trace_event record. Field
// order here fixes the key order in the output; encoding/json renders
// the Args map with sorted keys, so the whole export is deterministic.
type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// jsonTrace is the top-level Chrome trace object.
type jsonTrace struct {
	TraceEvents     []jsonEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
}

// usOf converts a virtual timestamp to trace microseconds (the unit
// Chrome expects). Sub-microsecond precision survives as a fraction.
func usOf(t sim.Time) float64 { return float64(time.Duration(t)) / float64(time.Microsecond) }

// usOfDur converts a duration to trace microseconds.
func usOfDur(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// argsMap renders args into the export map form.
func argsMap(args []Arg) map[string]any {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]any, len(args))
	for _, a := range args {
		m[a.Key] = formatArgVal(a.Val)
	}
	return m
}

// toJSON converts one event to its wire form.
func toJSON(e Event) jsonEvent {
	je := jsonEvent{
		Name: e.Name,
		Cat:  e.Cat,
		Ph:   string(rune(e.Ph)),
		TS:   usOf(e.TS),
		Pid:  e.Track.Pid,
		Tid:  e.Track.Tid,
		Args: argsMap(e.Args),
	}
	if e.Ph == PhaseComplete {
		d := usOfDur(e.Dur)
		je.Dur = &d
	}
	if e.Ph == PhaseInstant {
		je.S = "t" // thread-scoped instant: renders as a tick on its track
	}
	if e.ID != 0 {
		je.ID = "0x" + strconv.FormatUint(e.ID, 16)
	}
	return je
}

// metadataEvents renders the registered process/thread names as the
// Chrome "M" records every viewer uses to label tracks. Registration
// order is deterministic, so the export is too.
func (t *Tracer) metadataEvents() []jsonEvent {
	if t == nil {
		return nil
	}
	out := make([]jsonEvent, 0, len(t.tracks))
	for _, m := range t.tracks {
		name := "process_name"
		if m.tid > 0 {
			name = "thread_name"
		}
		out = append(out, jsonEvent{
			Name: name,
			Ph:   string(rune(PhaseMetadata)),
			Pid:  m.pid,
			Tid:  m.tid,
			Args: map[string]any{"name": m.name},
		})
	}
	return out
}

// WriteJSON renders the trace as Chrome trace_event JSON — the format
// chrome://tracing and https://ui.perfetto.dev load directly — followed
// by a newline. The output is deterministic: identical runs produce
// byte-identical files.
func (t *Tracer) WriteJSON(w io.Writer) error {
	b, err := t.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// MarshalJSON returns the trace as Chrome trace_event JSON, without
// WriteJSON's trailing newline.
func (t *Tracer) MarshalJSON() ([]byte, error) {
	events := t.Events()
	all := make([]jsonEvent, 0, len(events)+8)
	all = append(all, t.metadataEvents()...)
	for _, e := range events {
		all = append(all, toJSON(e))
	}
	return json.Marshal(jsonTrace{TraceEvents: all, DisplayTimeUnit: "ms"})
}

// ReadJSON parses a Chrome trace_event JSON document (either the
// {"traceEvents": [...]} object form or a bare event array) back into
// events. Metadata records are folded back into track names, returned
// as the second value keyed by TrackID (tid 0 = process name).
func ReadJSON(r io.Reader) ([]Event, map[TrackID]string, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	var doc jsonTrace
	if err := json.Unmarshal(raw, &doc); err != nil {
		// Bare array form.
		var arr []jsonEvent
		if err2 := json.Unmarshal(raw, &arr); err2 != nil {
			return nil, nil, fmt.Errorf("trace: not a trace_event document: %w", err)
		}
		doc.TraceEvents = arr
	}
	names := make(map[TrackID]string)
	var events []Event
	for _, je := range doc.TraceEvents {
		if len(je.Ph) != 1 {
			continue
		}
		ph := je.Ph[0]
		if ph == PhaseMetadata {
			if n, ok := je.Args["name"].(string); ok {
				names[TrackID{Pid: je.Pid, Tid: je.Tid}] = n
			}
			continue
		}
		e := Event{
			TS:    sim.Time(time.Duration(je.TS * float64(time.Microsecond))),
			Ph:    ph,
			Name:  je.Name,
			Cat:   je.Cat,
			Track: TrackID{Pid: je.Pid, Tid: je.Tid},
		}
		if je.Dur != nil {
			e.Dur = time.Duration(*je.Dur * float64(time.Microsecond))
		}
		if len(je.ID) > 2 && je.ID[:2] == "0x" {
			if id, err := strconv.ParseUint(je.ID[2:], 16, 64); err == nil {
				e.ID = id
			}
		}
		if len(je.Args) > 0 {
			keys := make([]string, 0, len(je.Args))
			for k := range je.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				e.Args = append(e.Args, Arg{Key: k, Val: je.Args[k]})
			}
		}
		events = append(events, e)
	}
	return events, names, nil
}
