package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share the
// op's ID; parent indexes the op's own span list (-1 for the root).
type span struct {
	name       string
	parent     int
	start, end time.Duration // since the tracer's start
}

// opSpans is one finished op: its root span first, children after.
type opSpans struct {
	id    string
	lane  int
	spans []span
}

// tracer keeps every span of a traced pass in memory and writes them
// out when the run ends. An op's spans are built on the goroutine that
// runs the op and committed in one locked append.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	ops   []opSpans
	lanes map[any]int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), lanes: map[any]int{}} }

// lane numbers the goroutine-owned value key (a sweep worker's metrics
// shard) so each worker's spans land on their own trace track.
func (tr *tracer) lane(key any) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	i, ok := tr.lanes[key]
	if !ok {
		i = len(tr.lanes)
		tr.lanes[key] = i
	}
	return i
}

// opTrace builds one op's spans. Child calls nest: a child started while
// another is open is that one's child.
type opTrace struct {
	tr    *tracer
	op    opSpans
	stack []int
}

// begin opens the root span of op id, run on lane (a worker, shard or
// connection index).
func (tr *tracer) begin(id string, lane int, name string) *opTrace {
	o := &opTrace{tr: tr, op: opSpans{id: id, lane: lane}}
	o.op.spans = append(o.op.spans, span{name: name, parent: -1, start: time.Since(tr.t0)})
	o.stack = []int{0}
	return o
}

// child opens a span under the innermost open one and returns its end.
func (o *opTrace) child(name string) func() {
	i := len(o.op.spans)
	o.op.spans = append(o.op.spans, span{name: name, parent: o.stack[len(o.stack)-1], start: time.Since(o.tr.t0)})
	o.stack = append(o.stack, i)
	return func() {
		o.op.spans[i].end = time.Since(o.tr.t0)
		o.stack = o.stack[:len(o.stack)-1]
	}
}

// timed records a child span around fn.
func (o *opTrace) timed(name string, fn func()) {
	end := o.child(name)
	fn()
	end()
}

// end closes the root span and commits the op.
func (o *opTrace) end() {
	o.op.spans[0].end = time.Since(o.tr.t0)
	o.tr.mu.Lock()
	o.tr.ops = append(o.tr.ops, o.op)
	o.tr.mu.Unlock()
}

// durations returns the durations of every span with the given name.
func (tr *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, op := range tr.ops {
		for _, s := range op.spans {
			if s.name == name {
				out = append(out, s.end-s.start)
			}
		}
	}
	return out
}

// selfRow is one span name's aggregate: how many spans, their total
// time, and their self time (span time minus direct children's).
type selfRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates every span by name, largest self time first.
func (tr *tracer) selfTimes() []selfRow {
	rows := map[string]*selfRow{}
	for _, op := range tr.ops {
		child := make([]time.Duration, len(op.spans))
		for _, s := range op.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range op.spans {
			r := rows[s.name]
			if r == nil {
				r = &selfRow{name: s.name}
				rows[s.name] = r
			}
			r.count++
			r.total += s.end - s.start
			r.self += s.end - s.start - child[i]
		}
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// traceEvent is one Chrome trace_event "complete" event, so the span
// file opens in Perfetto or chrome://tracing.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// write dumps every span as Chrome trace_event JSON, one event per line,
// with the run's provenance in the metadata.
func (tr *tracer) write(path string, prov provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	meta, err := json.Marshal(prov)
	if err != nil {
		f.Close()
		return fmt.Errorf("trace metadata: %w", err)
	}
	fmt.Fprintf(w, "{\"metadata\":%s,\"traceEvents\":[\n", meta)
	first := true
	for _, op := range tr.ops {
		for _, s := range op.spans {
			ev := traceEvent{
				Name: s.name, Ph: "X",
				TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				PID: 1, TID: op.lane, Args: map[string]string{"op": op.id},
			}
			b, err := json.Marshal(ev)
			if err != nil {
				f.Close()
				return fmt.Errorf("trace event: %w", err)
			}
			if !first {
				w.WriteString(",\n")
			}
			first = false
			w.Write(b)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace write: %w", err)
	}
	return f.Close()
}
