// Package cliflags is the one definition of the diagnostic flag set the
// simulator commands share: progress reporting, metric dumps, CPU/heap
// profiles, and the fork toggle. rchsweep and rchexplore used to each
// define these flags by hand; defining them here means a new shared
// flag (like -fork) lands once and reads identically everywhere.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rchdroid/internal/obs"
)

// Set holds the parsed shared flag values for one command.
type Set struct {
	tool        string
	Progress    time.Duration
	MetricsOut  string
	MetricsProm string
	ProfileCPU  string
	ProfileHeap string
	Fork        bool
}

// Register defines the full shared diagnostic flag set on fs. tool names
// the command in error messages ("rchsweep").
func Register(fs *flag.FlagSet, tool string) *Set {
	s := RegisterProfiles(fs, tool)
	fs.DurationVar(&s.Progress, "progress", 0,
		"print a live progress line to stderr at this interval (0 = off)")
	fs.StringVar(&s.MetricsOut, "metrics-out", "",
		"write the canonical (sim-domain) metrics dump as JSON to this file")
	fs.StringVar(&s.MetricsProm, "metrics-prom", "",
		"write the full metrics dump (sim + wall) in Prometheus text format to this file")
	fs.BoolVar(&s.Fork, "fork", false,
		"build per-seed worlds by forking a settled pre-chaos template instead of from scratch (reports and canonical metrics are byte-identical either way)")
	return s
}

// RegisterProfiles defines only the profiling subset — for commands like
// rchsim that run one world and have no sweep semantics.
func RegisterProfiles(fs *flag.FlagSet, tool string) *Set {
	s := &Set{tool: tool}
	fs.StringVar(&s.ProfileCPU, "profile-cpu", "", "write a CPU profile of the run to this file")
	fs.StringVar(&s.ProfileHeap, "profile-heap", "", "write a heap profile after the run to this file")
	return s
}

// StartCPUProfile starts the CPU profile when -profile-cpu was given and
// returns the function to defer; the returned func is a safe no-op when
// profiling is off. ok is false when the profile could not be started
// (the error has been printed to stderr).
func (s *Set) StartCPUProfile(stderr io.Writer) (stop func(), ok bool) {
	if s.ProfileCPU == "" {
		return func() {}, true
	}
	stopProf, err := obs.StartCPUProfile(s.ProfileCPU)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", s.tool, err)
		return func() {}, false
	}
	return func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "%s: cpu profile: %v\n", s.tool, err)
		}
	}, true
}

// WriteMetrics writes the -metrics-out and -metrics-prom dumps from the
// snapshot. It reports false when a write failed (printed to stderr).
func (s *Set) WriteMetrics(snap *obs.Snapshot, stderr io.Writer) bool {
	if s.MetricsOut != "" {
		if err := WriteFileMaybeMkdir(s.MetricsOut, snap.MarshalCanonical()); err != nil {
			fmt.Fprintf(stderr, "%s: metrics-out: %v\n", s.tool, err)
			return false
		}
		fmt.Fprintf(stderr, "%s: canonical metrics written to %s\n", s.tool, s.MetricsOut)
	}
	if s.MetricsProm != "" {
		if err := WriteFileMaybeMkdir(s.MetricsProm, []byte(snap.PromText())); err != nil {
			fmt.Fprintf(stderr, "%s: metrics-prom: %v\n", s.tool, err)
			return false
		}
		fmt.Fprintf(stderr, "%s: prometheus metrics written to %s\n", s.tool, s.MetricsProm)
	}
	return true
}

// WriteHeapProfile writes the -profile-heap dump, if requested. It
// reports false on failure (printed to stderr).
func (s *Set) WriteHeapProfile(stderr io.Writer) bool {
	if s.ProfileHeap == "" {
		return true
	}
	if err := obs.WriteHeapProfile(s.ProfileHeap); err != nil {
		fmt.Fprintf(stderr, "%s: heap profile: %v\n", s.tool, err)
		return false
	}
	return true
}

// StopOnSignals installs graceful SIGINT/SIGTERM handling for a
// sweep-style command. The first signal closes the returned stop
// channel — the sweep engine finishes in-flight seeds and claims no
// more, so the command can flush its checkpoint and metric artifacts
// and exit resumable instead of truncated. A second signal aborts
// immediately with the conventional 128+SIGINT status. signaled
// reports whether the first signal has fired; release unregisters the
// handler (defer it, so a finished run stops intercepting signals).
func StopOnSignals(tool string, stderr io.Writer) (stop <-chan struct{}, signaled func() bool, release func()) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	stopCh := make(chan struct{})
	done := make(chan struct{})
	var fired atomic.Bool
	go func() {
		select {
		case <-done:
			return
		case <-ch:
		}
		fired.Store(true)
		fmt.Fprintf(stderr, "%s: interrupted — finishing in-flight work and flushing artifacts (interrupt again to abort)\n", tool)
		close(stopCh)
		select {
		case <-done:
		case <-ch:
			fmt.Fprintf(stderr, "%s: second interrupt — aborting\n", tool)
			os.Exit(130)
		}
	}()
	var once sync.Once
	release = func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
		})
	}
	return stopCh, fired.Load, release
}

// WriteFileMaybeMkdir writes data to path, creating the parent directory
// when needed — the artifact-writing idiom every command shares.
func WriteFileMaybeMkdir(path string, data []byte) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}
