package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rchdroid/internal/obs"
)

// syncBuffer is a bytes.Buffer safe for concurrent writes: the progress
// ticker goroutine writes to stderr concurrently with the main loop,
// which os.Stderr tolerates and a bare bytes.Buffer does not.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestExitCodes pins the ci.sh contract: clean sweeps exit 0, usage
// errors exit 2, and the output carries the tally.
func TestExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-mode=oracle", "-seeds=8"}, &out, &errOut); code != 0 {
		t.Fatalf("clean sweep exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "ok: 8 seeds") {
		t.Fatalf("missing tally:\n%s", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-mode=bogus", "-seeds=1"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown mode exited %d, want 2", code)
	}
	if code := run([]string{"-seeds=-1"}, &out, &errOut); code != 2 {
		t.Fatalf("negative seeds exited %d, want 2", code)
	}
}

// TestCrosscheckFlag runs the determinism cross-check end to end for
// every mode with a sim-domain dump: the differential sweep, the
// guarded-chaos sweep, and pure device spin-up.
func TestCrosscheckFlag(t *testing.T) {
	for _, mode := range []string{"oracle", "guard", "boot"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-mode=" + mode, "-seeds=12", "-workers=4", "-crosscheck"}, &out, &errOut); code != 0 {
			t.Fatalf("%s crosscheck exited %d\nstderr:\n%s", mode, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "crosscheck ok: workers=1 and workers=4") {
			t.Fatalf("%s crosscheck verdict missing:\n%s", mode, errOut.String())
		}
	}
}

// TestCrosscheckNeedsParallelPool: a cross-check whose pool resolves to
// one worker would compare workers=1 with itself and pass vacuously, so
// it is a usage error — whether the single worker comes from -workers,
// from a one-seed range, or from GOMAXPROCS=1 without -workers.
func TestCrosscheckNeedsParallelPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, args := range [][]string{
		{"-seeds=8", "-workers=1"},
		{"-seeds=1", "-workers=4"},
		{"-seeds=8"},
	} {
		var out, errOut bytes.Buffer
		args = append(args, "-mode=oracle", "-crosscheck")
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v exited %d, want 2\nstderr:\n%s", args, code, errOut.String())
		}
		if strings.Contains(errOut.String(), "crosscheck ok") {
			t.Errorf("%v reported a vacuous crosscheck as ok:\n%s", args, errOut.String())
		}
	}
}

// TestJSONOutput checks the -json report carries per-seed verdicts and
// no timing fields (the canonical shape).
func TestJSONOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-mode=oracle", "-seeds=4", "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("json sweep exited %d\nstderr:\n%s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{`"mode": "oracle"`, `"seeds": 4`, `"seed": 4`, `"tally": "ok: 4 seeds"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("json output missing %s:\n%s", want, s)
		}
	}
	if strings.Contains(s, "elapsed") || strings.Contains(s, "workers") {
		t.Fatalf("json report leaks timing/pool fields:\n%s", s)
	}
}

// TestMetricsOutAndProfiles runs a sweep with the observability flags
// armed: the canonical metrics dump must decode and carry the engine
// counters, the progress line must print, and both pprof artifacts must
// be non-empty.
func TestMetricsOutAndProfiles(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	prom := filepath.Join(dir, "m.prom")
	cpu := filepath.Join(dir, "cpu.pprof")
	heap := filepath.Join(dir, "heap.pprof")
	var out bytes.Buffer
	var errOut syncBuffer
	code := run([]string{"-mode=oracle", "-seeds=8", "-progress=10ms",
		"-metrics-out=" + metrics, "-metrics-prom=" + prom,
		"-profile-cpu=" + cpu, "-profile-heap=" + heap}, &out, &errOut)
	if code != 0 {
		t.Fatalf("sweep exited %d\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "progress: ") {
		t.Fatalf("no progress line on stderr:\n%s", errOut.String())
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.DecodeSnapshot(raw)
	if err != nil {
		t.Fatalf("metrics dump does not decode: %v", err)
	}
	want := map[string]int64{"sweep_seeds_total": 8, "oracle_runs_total": 8, "sweep_seed_failures_total": 0}
	for _, m := range snap.Metrics {
		if m.Domain == obs.Wall.String() {
			t.Fatalf("wall-domain metric %s leaked into the canonical dump", m.Name)
		}
		if v, ok := want[m.Name]; ok {
			if m.Value != v {
				t.Fatalf("%s = %d, want %d", m.Name, m.Value, v)
			}
			delete(want, m.Name)
		}
	}
	if len(want) > 0 {
		t.Fatalf("canonical dump missing %v", want)
	}

	promRaw, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(promRaw), `sweep_seed_wall_ns_count{domain="wall"}`) {
		t.Fatalf("prom text missing wall-domain histogram:\n%s", promRaw)
	}
	for _, p := range []string{cpu, heap} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

// TestThroughputFloor pins the -min-seeds-per-sec gate: an absurdly
// high floor fails the run, a trivial floor passes it.
func TestThroughputFloor(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-mode=oracle", "-seeds=8", "-min-seeds-per-sec=1e12"}, &out, &errOut); code != 1 {
		t.Fatalf("unreachable floor exited %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "THROUGHPUT FLOOR VIOLATION") {
		t.Fatalf("floor violation not reported:\n%s", errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-mode=oracle", "-seeds=8", "-min-seeds-per-sec=0.001"}, &out, &errOut); code != 0 {
		t.Fatalf("trivial floor exited %d\nstderr:\n%s", code, errOut.String())
	}
}

// TestSignalInterruptsSweep sends a real SIGINT mid-sweep: the run must
// stop claiming seeds, flush the metrics artifact anyway, print resume
// coordinates, and exit non-zero. The seed count is far larger than the
// walk can finish before the signal lands (we wait for the first
// progress line before firing).
func TestSignalInterruptsSweep(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	var out bytes.Buffer
	var errOut syncBuffer
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- run([]string{"-mode=oracle", "-seeds=50000", "-progress=1ms", "-metrics-out=" + metrics}, &out, &errOut)
	}()
	// Interrupt only once a progress line reports a seed done: the 1 ms
	// ticker can print "progress: 0/50000" before any seed finishes, and
	// an interrupt then would leave nothing partial to check.
	started := regexp.MustCompile(`progress: [1-9][0-9]*/`)
	deadline := time.Now().Add(30 * time.Second)
	for !started.MatchString(errOut.String()) {
		if time.Now().After(deadline) {
			t.Fatal("sweep never reported a finished seed")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	var code int
	select {
	case code = <-codeCh:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not stop after SIGINT")
	}
	if code != 1 {
		t.Fatalf("interrupted sweep exited %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	stderrS := errOut.String()
	if !strings.Contains(stderrS, "rchsweep: interrupted") || !strings.Contains(stderrS, "resume with -mode=oracle -start=") {
		t.Fatalf("missing interruption/resume message:\n%s", stderrS)
	}
	if !strings.Contains(out.String(), "interrupted:") || !strings.Contains(out.String(), "resume at") {
		t.Fatalf("tally does not mark the interruption:\n%s", out.String())
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("metrics artifact not flushed on interrupt: %v", err)
	}
	snap, err := obs.DecodeSnapshot(raw)
	if err != nil {
		t.Fatalf("flushed metrics do not decode: %v", err)
	}
	done, _ := snap.Value("sweep_seeds_total")
	if done <= 0 || done >= 50000 {
		t.Fatalf("sweep_seeds_total = %d after interrupt, want partial progress", done)
	}
}
