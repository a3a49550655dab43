package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rchdroid/internal/explore"
	"rchdroid/internal/obs"
	"rchdroid/internal/oracle/corpus"
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

// runCLI invokes run() with captured streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out bytes.Buffer
	var errBuf syncBuffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestListInventory(t *testing.T) {
	code, out, _ := runCLI("-list", "-depth=2")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, sc := range corpus.All() {
		if !strings.Contains(out, sc.Name) {
			t.Errorf("-list output missing scenario %q:\n%s", sc.Name, out)
		}
	}
	if !strings.Contains(out, "space=") {
		t.Errorf("-list output missing space sizes:\n%s", out)
	}
}

func TestBadFlagsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-depth=-1"},
		{"-scenario=no-such-scenario"},
		{"-schedule=0"}, // needs exactly one scenario
		{"-scenario=double-rotation", "-schedule=999999"}, // out of range
		{"-checkpoint=f.json"},                            // needs exactly one scenario
		{"-trace-on-fail"},                                // rchsweep's flag, not ours
	}
	for _, args := range cases {
		if code, _, _ := runCLI(args...); code != 2 {
			t.Errorf("run(%v) exited %d, want 2", args, code)
		}
	}

	// A replay reads only -scenario and -depth, and -list only -depth:
	// any other flag set with them is refused by name, not ignored.
	dir := t.TempDir()
	replay := []string{"-scenario=backstack", "-depth=1", "-schedule=3"}
	for _, c := range []struct {
		args []string
		flag string
	}{
		{append(replay, "-metrics-out="+filepath.Join(dir, "m.json")), "metrics-out"},
		{append(replay, "-checkpoint="+filepath.Join(dir, "c.json")), "checkpoint"},
		{append(replay, "-chunk=5"), "chunk"},
		{append(replay, "-profile-cpu="+filepath.Join(dir, "p.pprof")), "profile-cpu"},
		{append(replay, "-workers=2"), "workers"},
		{append(replay, "-v"), "v"},
		{[]string{"-list", "-metrics-out=" + filepath.Join(dir, "m.json")}, "metrics-out"},
		{[]string{"-list", "-scenario=backstack"}, "scenario"},
		{[]string{"-list", "-progress=1s"}, "progress"},
	} {
		code, _, stderr := runCLI(c.args...)
		if code != 2 || !strings.Contains(stderr, "not -"+c.flag+"\n") {
			t.Errorf("run(%v) exited %d, stderr %q; want 2 naming -%s", c.args, code, stderr, c.flag)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("refused runs wrote files: %v", entries)
	}
}

func TestReplayEmptySchedulePasses(t *testing.T) {
	// Index 0 is always the empty schedule: the scenario with no injected
	// faults, which every corpus entry survives.
	code, out, _ := runCLI("-scenario=double-rotation", "-depth=1", "-schedule=0")
	if code != 0 {
		t.Fatalf("empty-schedule replay exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "PASS") {
		t.Errorf("replay output missing PASS:\n%s", out)
	}
	if !strings.Contains(out, "essence:") {
		t.Errorf("replay output missing differential observables:\n%s", out)
	}
}

func TestExploreDeterministic(t *testing.T) {
	// The merged report must be byte-identical run-to-run, including at
	// different worker counts — the acceptance property of the explorer.
	code1, out1, _ := runCLI("-scenario=double-rotation", "-depth=1", "-workers=1")
	code2, out2, _ := runCLI("-scenario=double-rotation", "-depth=1", "-workers=4")
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exploration exited %d / %d:\n%s", code1, code2, out1)
	}
	if out1 != out2 {
		t.Fatalf("exploration not deterministic across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", out1, out2)
	}
}

func TestCheckpointResume(t *testing.T) {
	sc, ok := corpus.ByName("double-rotation")
	if !ok {
		t.Fatal("double-rotation missing from corpus")
	}
	total := explore.SpaceFor(&sc, 1).Size()
	ckpt := filepath.Join(t.TempDir(), "frontier.json")

	// Walk the space in chunks of 3; each invocation advances the frontier.
	chunks := 0
	for {
		code, out, _ := runCLI("-scenario=double-rotation", "-depth=1", "-chunk=3", "-checkpoint="+ckpt)
		if code != 0 {
			t.Fatalf("chunked walk exited %d:\n%s", code, out)
		}
		chunks++
		if chunks > int(total) {
			t.Fatalf("frontier never reached done after %d invocations", chunks)
		}
		b, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatalf("read checkpoint: %v", err)
		}
		f, err := explore.DecodeFrontier(b)
		if err != nil {
			t.Fatalf("decode checkpoint: %v", err)
		}
		if f.Scenario != sc.Name || f.Depth != 1 || f.Total != total {
			t.Fatalf("checkpoint misdescribes the walk: %+v", f)
		}
		if f.Done() {
			if !strings.Contains(out, "frontier: done") {
				t.Errorf("final chunk output missing done marker:\n%s", out)
			}
			break
		}
		if !strings.Contains(out, "rerun to continue") {
			t.Errorf("mid-walk output missing continue marker:\n%s", out)
		}
	}
	if chunks < 2 {
		t.Fatalf("space of %d schedules finished in %d chunk(s) of 3 — resume path untested", total, chunks)
	}

	// A checkpoint for a different walk must be rejected, not silently
	// reused.
	if code, _, stderr := runCLI("-scenario=kill-resume", "-depth=1", "-chunk=3", "-checkpoint="+ckpt); code != 2 {
		t.Errorf("mismatched checkpoint accepted (exit %d, stderr %q)", code, stderr)
	}
}

// TestCheckpointRejectsStaleFrontier: a checkpoint whose total no
// longer matches the space, or whose frontier lies past its end, names a
// different walk than the one requested. Resuming from it would run the
// wrong schedules or none, so it must be refused with exit 2.
func TestCheckpointRejectsStaleFrontier(t *testing.T) {
	sc, ok := corpus.ByName("double-rotation")
	if !ok {
		t.Fatal("double-rotation missing from corpus")
	}
	total := explore.SpaceFor(&sc, 1).Size()
	for _, c := range []struct {
		f    explore.Frontier
		want string
	}{
		{explore.Frontier{Scenario: sc.Name, Depth: 1, Total: total + 4, Next: 3}, "total="},
		{explore.Frontier{Scenario: sc.Name, Depth: 1, Total: total, Next: total + 1}, "past its total"},
	} {
		ckpt := filepath.Join(t.TempDir(), "frontier.json")
		if err := os.WriteFile(ckpt, explore.EncodeFrontier(c.f), 0o644); err != nil {
			t.Fatal(err)
		}
		code, out, stderr := runCLI("-scenario=double-rotation", "-depth=1", "-chunk=3", "-checkpoint="+ckpt)
		if code != 2 || !strings.Contains(stderr, c.want) {
			t.Errorf("checkpoint %+v: exit %d, stderr %q, stdout %q; want exit 2 naming %q", c.f, code, stderr, out, c.want)
		}
	}
}

// TestExploreMetricsOut runs a small walk with the observability flags:
// the canonical dump must decode, carry the explorer's counters and
// frontier gauge, and exclude every wall-domain metric.
func TestExploreMetricsOut(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	code, _, stderr := runCLI("-scenario=backstack", "-depth=1", "-progress=10ms", "-metrics-out="+metrics)
	if code != 0 {
		t.Fatalf("explore exited %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "progress: ") {
		t.Fatalf("no progress line on stderr:\n%s", stderr)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.DecodeSnapshot(raw)
	if err != nil {
		t.Fatalf("metrics dump does not decode: %v", err)
	}
	byName := map[string]int64{}
	for _, m := range snap.Metrics {
		if m.Domain == obs.Wall.String() {
			t.Fatalf("wall-domain metric %s leaked into the canonical dump", m.Name)
		}
		byName[m.Name] = m.Value
	}
	if byName["explore_schedules_total"] == 0 {
		t.Fatalf("explore_schedules_total missing or zero: %v", byName)
	}
	if _, ok := byName["explore_schedule_failures_total"]; !ok {
		t.Fatalf("explore_schedule_failures_total not defined: %v", byName)
	}
	if next, ok := byName["explore_frontier_next"]; !ok || next == 0 {
		t.Fatalf("explore_frontier_next missing or zero: %v", byName)
	}
}

// TestSignalInterruptsWalk sends a real SIGINT mid-walk of the largest
// depth-2 schedule space with a checkpoint armed: the run must exit
// non-zero and the frontier must hold the contiguous done prefix, so a
// rerun resumes without skipping schedules.
func TestSignalInterruptsWalk(t *testing.T) {
	var biggest corpus.Scenario
	var size uint64
	for _, sc := range corpus.All() {
		if n := explore.SpaceFor(&sc, 2).Size(); n > size {
			biggest, size = sc, n
		}
	}
	ckpt := filepath.Join(t.TempDir(), "frontier.json")
	var out bytes.Buffer
	var errOut syncBuffer
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- run([]string{"-scenario=" + biggest.Name, "-depth=2", "-progress=1ms", "-checkpoint=" + ckpt}, &out, &errOut)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(errOut.String(), "progress: ") {
		if time.Now().After(deadline) {
			t.Fatal("walk never reported progress")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	var code int
	select {
	case code = <-codeCh:
	case <-time.After(60 * time.Second):
		t.Fatal("walk did not stop after SIGINT")
	}
	if code != 1 {
		t.Fatalf("interrupted walk exited %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "rchexplore: interrupted") {
		t.Fatalf("missing interruption message:\n%s", errOut.String())
	}
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("checkpoint not flushed on interrupt: %v", err)
	}
	f, err := explore.DecodeFrontier(b)
	if err != nil {
		t.Fatalf("decode checkpoint: %v", err)
	}
	if f.Scenario != biggest.Name || f.Total != size {
		t.Fatalf("checkpoint misdescribes the walk: %+v", f)
	}
	if f.Next == 0 || f.Next >= size {
		t.Fatalf("frontier Next = %d of %d, want a partial prefix", f.Next, size)
	}

	// Resuming from the interrupted frontier must finish the space clean.
	code2, out2, _ := runCLI("-scenario="+biggest.Name, "-depth=2", "-checkpoint="+ckpt)
	if code2 != 0 {
		t.Fatalf("resume exited %d:\n%s", code2, out2)
	}
	if !strings.Contains(out2, "frontier: done") {
		t.Fatalf("resume did not finish the space:\n%s", out2)
	}
}
