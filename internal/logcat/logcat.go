// Package logcat provides the Android-style tagged ring-buffer log the
// artifact appendix relies on: the RCHDroid prototype writes its
// measurements to the system log and the instructions reproduce Fig 10 by
// running `logcat | grep "zizhan"`. The simulator's framework components
// log lifecycle transitions and handling times here, and cmd/rchsim can
// dump or filter the buffer the same way.
package logcat

import (
	"fmt"
	"strings"

	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
)

// Priority mirrors android.util.Log levels.
type Priority uint8

// Priorities.
const (
	Verbose Priority = iota
	Debug
	Info
	Warn
	Error
)

func (p Priority) String() string {
	switch p {
	case Debug:
		return "D"
	case Info:
		return "I"
	case Warn:
		return "W"
	case Error:
		return "E"
	default:
		return "V"
	}
}

// Entry is one log line.
type Entry struct {
	At       sim.Time
	Priority Priority
	Tag      string
	Message  string
}

func (e Entry) String() string {
	return fmt.Sprintf("%-12s %s/%s: %s", e.At, e.Priority, e.Tag, e.Message)
}

// Log is a bounded ring buffer of entries stamped with the virtual clock.
type Log struct {
	sched   *sim.Scheduler
	entries []Entry
	start   int
	count   int
	dropped int

	tracer *trace.Tracer
	track  trace.TrackID
}

// New returns a log holding at most capacity entries (older entries are
// dropped first, like the kernel ring buffer).
func New(sched *sim.Scheduler, capacity int) *Log {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Log{sched: sched, entries: make([]Entry, capacity)}
}

// SetTracer mirrors every appended line onto the trace timeline as an
// instant on a dedicated "logcat" process row, interleaving the textual
// log with the structured spans. A nil tracer disables it.
func (l *Log) SetTracer(tr *trace.Tracer) {
	l.tracer = tr
	if tr == nil {
		return
	}
	pid := tr.RegisterProcess("logcat")
	l.track = tr.RegisterThread(pid, "lines")
}

// now returns the current virtual time, 0 with no clock bound — a log
// without a scheduler still accepts entries rather than panicking.
func (l *Log) now() sim.Time {
	if l.sched == nil {
		return 0
	}
	return l.sched.Now()
}

// Append adds an entry at the current virtual time.
func (l *Log) Append(p Priority, tag, format string, args ...any) {
	e := Entry{At: l.now(), Priority: p, Tag: tag, Message: fmt.Sprintf(format, args...)}
	if l.tracer.Enabled() {
		l.tracer.Instant(l.track, e.Tag, "logcat",
			trace.Arg{Key: "priority", Val: e.Priority.String()},
			trace.Arg{Key: "message", Val: e.Message})
	}
	if l.count < len(l.entries) {
		l.entries[(l.start+l.count)%len(l.entries)] = e
		l.count++
		return
	}
	l.entries[l.start] = e
	l.start = (l.start + 1) % len(l.entries)
	l.dropped++
}

// V, D, I, W and E append at the corresponding priority.
func (l *Log) V(tag, format string, args ...any) { l.Append(Verbose, tag, format, args...) }

// D logs at Debug priority.
func (l *Log) D(tag, format string, args ...any) { l.Append(Debug, tag, format, args...) }

// I logs at Info priority.
func (l *Log) I(tag, format string, args ...any) { l.Append(Info, tag, format, args...) }

// W logs at Warn priority.
func (l *Log) W(tag, format string, args ...any) { l.Append(Warn, tag, format, args...) }

// E logs at Error priority.
func (l *Log) E(tag, format string, args ...any) { l.Append(Error, tag, format, args...) }

// Len returns the number of retained entries.
func (l *Log) Len() int { return l.count }

// Dropped returns how many entries the ring displaced.
func (l *Log) Dropped() int { return l.dropped }

// Entries returns the retained entries in append order.
func (l *Log) Entries() []Entry {
	out := make([]Entry, 0, l.count)
	for i := 0; i < l.count; i++ {
		out = append(out, l.entries[(l.start+i)%len(l.entries)])
	}
	return out
}

// Grep returns entries whose tag or message contains the substring —
// `logcat | grep "zizhan"`.
func (l *Log) Grep(substr string) []Entry {
	var out []Entry
	for _, e := range l.Entries() {
		if strings.Contains(e.Tag, substr) || strings.Contains(e.Message, substr) {
			out = append(out, e)
		}
	}
	return out
}

// Dump renders the retained entries, one per line.
func (l *Log) Dump() string {
	var sb strings.Builder
	for _, e := range l.Entries() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
