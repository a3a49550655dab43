package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rchdroid/internal/trace"
)

// goldenRuns pin rchsim's stdout, byte for byte, and its exit code. In
// stock-fig9 the run stops at the crash: no block follows it, and the
// next expect line fails against the end state.
var goldenRuns = []struct {
	name   string
	args   string
	code   int
	stderr string
}{
	{name: "default"},
	{name: "stock", args: "-mode stock"},
	{name: "fig9-logcat", args: "-script ../../scripts/fig9.rch -logcat"},
	{name: "fig10-logcat", args: "-script ../../scripts/fig10.rch -logcat"},
	{name: "stock-fig10", args: "-mode stock -script ../../scripts/fig10.rch"},
	{name: "guard", args: "-guard"},
	{name: "tp27", args: "-app tp27:3 -changes 4"},
	{name: "top100-dump", args: "-app top100:28 -dump"},
	{name: "images16", args: "-images 16 -changes 5 -touch=false"},
	{name: "logcat4", args: "-logcat -changes 4"},
	{name: "stock-fig9", args: "-mode stock -script ../../scripts/fig9.rch", code: 3,
		stderr: "rchsim: script line 10 (expect alive): expected alive, but app crashed: " +
			"app benchapp-4 crashed: NullPointerException: setImageDrawable on released ImageView (id 100)\n"},
}

func TestGoldenRuns(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(g.args), &stdout, &stderr); code != g.code {
				t.Fatalf("exit %d, want %d; stderr: %s", code, g.code, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", g.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("stdout differs from testdata/%s.golden:\n%s", g.name, got)
			}
			if got := stderr.String(); got != g.stderr {
				t.Errorf("stderr = %q, want %q", got, g.stderr)
			}
		})
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.rch")
	if err := os.WriteFile(bad, []byte("rotate\nteleport\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-script", bad},
		{"-guard", "-mode", "stock"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before failing", args, stdout.String())
		}
	}
}

func TestTraceFileMatchesSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "run.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, _, err := trace.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := "(85 events)"; len(events) != 85 || !strings.Contains(stdout.String(), want) {
		t.Errorf("trace holds %d events; stdout lacks %q:\n%s", len(events), want, stdout.String())
	}
}
