package oracle

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/chaos"
	"rchdroid/internal/config"
	"rchdroid/internal/core"
	"rchdroid/internal/device"
)

// runScript runs src once through Run on the 4-image benchmark app (a
// 300 ms task), under RCHDroid when rch is set, and checks its expect
// lines as rchsim does: each at its edge, and after a crash every line
// from the crashing step on against the end state. It returns the
// system server, the app's process and the first failed check.
func runScript(t *testing.T, src string, rch bool) (*atms.ATMS, *app.Process, error) {
	t.Helper()
	lines, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	var sys *atms.ATMS
	var proc *app.Process
	inst := Installer{Name: "script", Install: func(s *atms.ATMS, p *app.Process, _ *chaos.Plan) {
		sys, proc = s, p
		if rch {
			core.Install(s, p, core.DefaultOptions())
		}
	}}
	sc := Scenario{Probe: func(_ *app.Activity, fs []Field) []Field { return fs }}
	for _, l := range lines {
		sc.Steps = append(sc.Steps, l.Step)
	}
	spec := device.Shared(benchapp.New(benchapp.Config{Images: 4, TaskDelay: 300 * time.Millisecond}))
	var failed error
	next := 0
	res := Run(&sc, spec, chaos.NewPlan(0, chaos.Options{}), inst, nil, func(e *Edge) {
		if failed == nil {
			failed = lines[e.Index].Check(e.Sys, proc)
		}
		next = e.Index + 1
	})
	for i := next; res.Crashed && i < len(lines) && failed == nil; i++ {
		failed = lines[i].Check(sys, proc)
	}
	return sys, proc, failed
}

func TestArtifactWorkflowScript(t *testing.T) {
	// The appendix A.5 workflow, verbatim: size change, touch, size
	// reset while the task is in flight.
	src := `
# reproduce Figure 9's workflow
wm size 1080x1920
touch
wm size reset
wait 1s
expect alive
expect handled 2
`
	lines, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 6 {
		t.Fatalf("lines = %d", len(lines))
	}
	_, proc, err := runScript(t, src, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := benchapp.ImagesLoaded(proc.Thread().ForegroundActivity()); got != 4 {
		t.Fatalf("images migrated = %d", got)
	}
}

func TestSameScriptCrashesStock(t *testing.T) {
	src := "wm size 1080x1920\ntouch\nwm size reset\nwait 1s\nexpect crashed\n"
	if _, _, err := runScript(t, src, false); err != nil {
		t.Fatal(err)
	}
}

func TestAllCommandsExecute(t *testing.T) {
	src := `
rotate
locale fr-FR
night on
night off
wait 250ms
expect alive
expect handled 4
`
	sys, _, err := runScript(t, src, true)
	if err != nil {
		t.Fatal(err)
	}
	if sys.GlobalConfig().Locale != "fr-FR" {
		t.Fatal("locale command had no effect")
	}
}

func TestBackCommand(t *testing.T) {
	_, proc, err := runScript(t, "back\n", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(proc.Thread().Activities()) != 0 {
		t.Fatal("back did not finish the activity")
	}
}

// badScripts fail to parse. front and free sizes went with the
// interpreter they needed; negative durations and counts used to parse.
var badScripts = []string{
	"teleport",
	"wm size",
	"wm size abc",
	"wm size 12",
	"wm size 0x5",
	"wm size 500x900",
	"locale",
	"night maybe",
	"wait",
	"wait xyz",
	"wait -5s",
	"front",
	"front benchapp-4",
	"expect",
	"expect wat",
	"expect handled",
	"expect handled many",
	"expect handled -1",
}

func TestParseErrors(t *testing.T) {
	for _, src := range badScripts {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("ParseScript(%q) should fail", src)
		} else if !strings.HasPrefix(err.Error(), "script line 1: ") {
			t.Errorf("ParseScript(%q) error lacks line info: %v", src, err)
		}
	}
	_, err := ParseScript("wm size 500x900")
	if want := "known: 1920x1080, 1080x1920"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("unknown size error %v does not list the known sizes (%q)", err, want)
	}
}

func TestCommentsAndBlanksIgnored(t *testing.T) {
	lines, err := ParseScript("\n# only a comment\n   \nrotate # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0].Text != "rotate" || lines[0].Line != 4 {
		t.Fatalf("lines = %+v", lines)
	}
}

func TestRunReportsFailingLine(t *testing.T) {
	_, _, err := runScript(t, "rotate\nexpect crashed\n", true)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error = %v", err)
	}
}

func TestExpectHandledMismatch(t *testing.T) {
	if _, _, err := runScript(t, "expect handled 3\n", true); err == nil {
		t.Fatal("expected mismatch error")
	}
}

// TestConfigReset pins that wm size reset resets the size only, as
// adb's does: the locale set before it stays.
func TestConfigReset(t *testing.T) {
	sys, _, err := runScript(t, "wm size 1080x1920\nlocale fr-FR\nwm size reset\n", true)
	if err != nil {
		t.Fatal(err)
	}
	want := config.Default().WithLocale("fr-FR")
	if got := sys.GlobalConfig(); !got.Equal(want) {
		t.Fatalf("after reset: %v, want %v", got, want)
	}
}

func shippedScripts(t testing.TB) map[string]string {
	srcs := map[string]string{}
	for _, name := range []string{"fig9.rch", "fig10.rch"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "scripts", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		srcs[name] = string(src)
	}
	return srcs
}

func TestShippedArtifactScripts(t *testing.T) {
	// The checked-in scripts/*.rch files must parse and pass against
	// RCHDroid.
	for name, src := range shippedScripts(t) {
		if _, _, err := runScript(t, src, true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// FuzzParseScript: any input parses or fails naming its line, and never
// panics. An accepted script holds only the kinds the grammar emits,
// with settles ≥ 0 and resize indices inside the table.
func FuzzParseScript(f *testing.F) {
	for _, src := range shippedScripts(f) {
		f.Add(src)
	}
	for _, src := range badScripts {
		f.Add(src)
	}
	grammar := map[StepKind]bool{StepRotate: true, StepResize: true, StepLocale: true,
		StepNight: true, StepClick: true, StepIdle: true, StepBack: true}
	f.Fuzz(func(t *testing.T, src string) {
		lines, err := ParseScript(src)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "script line ") {
				t.Fatalf("error without its line: %v", err)
			}
			return
		}
		for _, l := range lines {
			st := l.Step
			if !grammar[st.Kind] || st.Settle < 0 || (st.Kind == StepResize && (st.N < 0 || st.N >= len(resizeTable))) {
				t.Fatalf("line %d (%q) parsed to %+v", l.Line, l.Text, st)
			}
		}
	})
}
