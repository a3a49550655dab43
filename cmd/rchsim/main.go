// Command rchsim runs one benchmark app through a scripted sequence of
// runtime configuration changes and prints what happened: lifecycle
// transitions, handling latencies, crash or migration outcomes, and the
// final memory footprint. It is the interactive face of the simulator —
// the `adb shell wm size` workflow of the artifact appendix.
//
// Usage:
//
//	rchsim                           # 4-image app, 3 rotations, RCHDroid
//	rchsim -mode stock               # watch stock Android crash
//	rchsim -images 16 -changes 5
//	rchsim -touch=false              # no async task
//	rchsim -trace run.json           # write a Chrome/Perfetto trace
//	rchsim -script demo.rch          # drive the device from a script file
//	rchsim -profile-cpu=run.cpu.pprof -profile-heap=run.heap.pprof
//
// Both the built-in run and a -script file are .rch scenarios, run once
// through oracle.Run on a world device.New builds. The tracer, the
// logcat and the chaos plan arm at the world's post-settle point, after
// the cold launch.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/appset"
	"rchdroid/internal/atms"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/chaos"
	"rchdroid/internal/cliflags"
	"rchdroid/internal/core"
	"rchdroid/internal/device"
	"rchdroid/internal/guard"
	"rchdroid/internal/logcat"
	"rchdroid/internal/metrics"
	"rchdroid/internal/oracle"
	"rchdroid/internal/trace"
	"rchdroid/internal/view"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rchsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "rchdroid", "handling scheme: rchdroid | stock")
	appRef := fs.String("app", "", "drive a modeled app instead of the benchmark: tp27:<row> | top100:<row>")
	images := fs.Int("images", 4, "ImageViews in the benchmark app")
	changes := fs.Int("changes", 3, "number of runtime changes")
	touch := fs.Bool("touch", true, "touch the button (starts the AsyncTask) before the first change")
	taskMS := fs.Int("task-ms", 400, "AsyncTask duration in ms")
	traceFile := fs.String("trace", "", "write a Chrome/Perfetto trace_event JSON file (\"-\" for stdout)")
	showLog := fs.Bool("logcat", false, "dump the system log (grep zizhan for handling times); with -trace, log lines also land on the trace timeline")
	dump := fs.Bool("dump", false, "dump the foreground view tree after each change")
	scriptPath := fs.String("script", "", "run a scenario script instead of the built-in rotation loop")
	chaosSeed := fs.Uint64("chaos-seed", 0, "arm the fault-injection layer with this seed (0 = off)")
	chaosProfile := fs.String("chaos", "light", "chaos preset when -chaos-seed is set: light | heavy | guarded")
	guarded := fs.Bool("guard", false, "arm the supervision layer: ANR watchdogs, checksummed state transfer with retry, per-activity stock fallback")
	shared := cliflags.RegisterProfiles(fs, "rchsim")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "rchsim: %v\n", err)
		return code
	}

	// The built-in run is a script too: touch, then -changes rotations.
	src := strings.Repeat("rotate\n", max(*changes, 0))
	if *touch {
		src = "touch\n" + src
	}
	scripted := *scriptPath != ""
	if scripted {
		raw, err := os.ReadFile(*scriptPath)
		if err != nil {
			return fail(1, err)
		}
		src = string(raw)
	}
	lines, err := oracle.ParseScript(src)
	if err != nil {
		return fail(2, err)
	}
	def := benchapp.New(benchapp.Config{Images: *images, TaskDelay: time.Duration(*taskMS) * time.Millisecond})
	if *appRef != "" {
		m, err := resolveModel(*appRef)
		if err != nil {
			return fail(2, err)
		}
		fmt.Fprintf(stdout, "driving %v (%s)\n", m, m.Issue)
		def = m.Build()
	}
	var opts chaos.Options // no seed: a plan that injects nothing
	if *chaosSeed != 0 {
		preset, ok := map[string]func() chaos.Options{"light": chaos.Light, "heavy": chaos.Heavy, "guarded": chaos.Guarded}[*chaosProfile]
		if !ok {
			return fail(2, fmt.Errorf("unknown chaos profile %q", *chaosProfile))
		}
		opts = preset()
	}
	switch {
	case *mode != "rchdroid" && *mode != "stock":
		return fail(2, fmt.Errorf("unknown mode %q", *mode))
	case *mode == "stock" && *guarded:
		return fail(2, fmt.Errorf("-guard supervises RCHDroid; it has no effect in stock mode"))
	}

	stopCPU, ok := shared.StartCPUProfile(stderr)
	if !ok {
		return 1
	}
	defer stopCPU()
	var tracer *trace.Tracer
	if *traceFile != "" {
		tracer = trace.New(nil)
	}
	plan := chaos.NewPlan(*chaosSeed, opts)
	var (
		sys    *atms.ATMS
		proc   *app.Process
		rch    *core.RCHDroid
		lc     *logcat.Log
		next   int    // the step under way
		head   string // its block's header, taken at its start
		failed error  // the first failed expect line
	)
	// begin takes step i's header as it starts: the time and, for a
	// built-in rotation, the configuration it pushes.
	begin := func(i int) {
		next = i
		if i == len(lines) {
			return
		}
		now := sys.Scheduler().Now()
		switch {
		case scripted:
			head = fmt.Sprintf("\n[%v] $ %s\n", now, lines[i].Text)
		case lines[i].Step.Kind == oracle.StepClick:
			head = fmt.Sprintf("\n[%v] touch button → AsyncTask (%d ms) in flight\n", now, *taskMS)
		default:
			cfg := sys.GlobalConfig().Rotated()
			head = fmt.Sprintf("\n[%v] wm size %dx%d (%s)\n", now, cfg.ScreenWidth, cfg.ScreenHeight, cfg.Orientation)
		}
	}
	// block prints step i's block once it has settled or crashed; a
	// failed check ends the output.
	block := func(i int) {
		fmt.Fprint(stdout, head)
		if failed = lines[i].Check(sys, proc); failed != nil {
			return
		}
		switch {
		case scripted:
			report(stdout, proc)
		case lines[i].Step.Kind == oracle.StepRotate:
			if d := sys.LastHandlingTime(); d > 0 && !proc.Crashed() {
				fmt.Fprintf(stdout, "  handled in %.2f ms\n", float64(d)/float64(time.Millisecond))
			}
			report(stdout, proc)
			if proc.Crashed() {
				fmt.Fprintf(stdout, "  FATAL: %v\n", proc.CrashCause())
			} else if *dump {
				if fg := proc.Thread().ForegroundActivity(); fg != nil {
					fmt.Fprint(stdout, indent(view.Dump(fg.Decor())))
				}
				fmt.Fprint(stdout, indent(sys.DumpStack()))
			}
		}
	}
	inst := oracle.Installer{Name: *mode, Install: func(s *atms.ATMS, p *app.Process, plan *chaos.Plan) {
		sys, proc = s, p
		lc = logcat.New(s.Scheduler(), 4096)
		s.SetLogcat(lc)
		if *showLog {
			// Interleave: every logcat line also lands on the trace
			// timeline (its own process row), lined up with the spans.
			lc.SetTracer(tracer)
		}
		if *mode == "rchdroid" {
			coreOpts := core.DefaultOptions()
			coreOpts.Chaos = plan
			if *guarded {
				cfg := guard.DefaultConfig()
				coreOpts.Guard = &cfg
			}
			rch = core.Install(s, p, coreOpts)
		}
		if *chaosSeed != 0 {
			fmt.Fprintf(stdout, "chaos armed: profile %s, seed %d (replay with -chaos-seed=%d -chaos=%s)\n",
				*chaosProfile, *chaosSeed, *chaosSeed, *chaosProfile)
		}
		fmt.Fprintf(stdout, "booting %s under %s", def.Name, p.Thread().Handler().Name())
		if *appRef == "" {
			fmt.Fprintf(stdout, " (%d ImageViews)", *images)
		}
		fmt.Fprintln(stdout)
		report(stdout, p)
		begin(0)
	}}
	sc := oracle.Scenario{Name: "rchsim", Probe: func(_ *app.Activity, fs []oracle.Field) []oracle.Field { return fs }}
	for _, l := range lines {
		sc.Steps = append(sc.Steps, l.Step)
	}
	res := oracle.Run(&sc, device.Shared(def), plan, inst, tracer, func(e *oracle.Edge) {
		if failed == nil {
			block(e.Index)
			begin(e.Index + 1)
		}
	})
	if res.Crashed && failed == nil && next < len(lines) {
		// The run stopped at the crash, before the step's edge; later
		// expect lines are checked against the end state.
		block(next)
		for i := next + 1; i < len(lines) && failed == nil; i++ {
			failed = lines[i].Check(sys, proc)
		}
	}

	if failed != nil {
		return fail(3, failed)
	}

	if rch != nil && !scripted {
		fmt.Fprintf(stdout, "\nRCHDroid stats: %d init launches, %d coin flips, %d migrations (%d views), %d stock-routed, %d zombies reaped (%d pending)\n",
			rch.Handler.InitLaunches(), rch.Handler.Flips(),
			rch.Migrator.Migrations(), rch.Migrator.ViewsMigrated(),
			rch.Handler.StockRouted(), rch.Handler.ZombiesReaped(), rch.Handler.Zombies())
	}
	if rch != nil {
		reportGuard(stdout, rch.Guard)
	}
	if *chaosSeed != 0 {
		reportChaos(stdout, plan)
	}
	if err := writeTrace(stdout, tracer, *traceFile); err != nil {
		return fail(1, fmt.Errorf("writing trace: %w", err))
	}
	if *showLog {
		fmt.Fprintln(stdout, "\nlogcat:")
		fmt.Fprint(stdout, indent(lc.Dump()))
	}
	if !shared.WriteHeapProfile(stderr) {
		return 1
	}
	if *mode == "rchdroid" && proc.Crashed() {
		// Stock mode crashing is the demo (that is what the paper
		// fixes), but the RCHDroid handler dying is a harness failure
		// scripts must be able to detect.
		return fail(1, fmt.Errorf("app crashed under RCHDroid: %v", proc.CrashCause()))
	}
	return 0
}

// writeTrace exports the structured trace as Chrome trace_event JSON
// (load it in chrome://tracing or https://ui.perfetto.dev) and prints
// the derived summary; path "-" writes the JSON to stdout instead.
func writeTrace(stdout io.Writer, tracer *trace.Tracer, path string) error {
	if tracer == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		return err
	}
	if path == "-" {
		_, err := stdout.Write(buf.Bytes())
		return err
	}
	if err := cliflags.WriteFileMaybeMkdir(path, buf.Bytes()); err != nil {
		return err
	}
	if abs, err := filepath.Abs(path); err == nil {
		path = abs
	}
	fmt.Fprintf(stdout, "\ntrace written to %s (%d events", path, tracer.Len())
	if n := tracer.Dropped(); n > 0 {
		fmt.Fprintf(stdout, ", %d dropped by ring", n)
	}
	fmt.Fprintln(stdout, ")")
	fmt.Fprint(stdout, indent(metrics.AnalyzeTrace(tracer.Events()).Render(12)))
	return nil
}

// resolveModel parses "tp27:<row>" / "top100:<row>" into an app model.
func resolveModel(ref string) (appset.Model, error) {
	set, row, _ := strings.Cut(ref, ":")
	models, ok := map[string]func() []appset.Model{"tp27": appset.TP27, "top100": appset.Top100}[set]
	if !ok {
		return appset.Model{}, fmt.Errorf("bad -app %q (want tp27:<row> or top100:<row>)", ref)
	}
	all := models()
	n, err := strconv.Atoi(row)
	if err != nil || n < 1 || n > len(all) {
		return appset.Model{}, fmt.Errorf("bad row %q (1..%d)", row, len(all))
	}
	return all[n-1], nil
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ") + "\n"
}

// reportGuard prints the supervision summary and the escalation log (a
// no-op when the guard was not armed).
func reportGuard(w io.Writer, g *guard.Guard) {
	if !g.Enabled() {
		return
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, g.Report())
	ds := g.Decisions()
	if len(ds) > 0 {
		fmt.Fprintln(w, "guard decisions:")
	}
	for _, d := range ds {
		fmt.Fprintf(w, "  %s\n", d)
	}
}

// reportChaos prints what the fault-injection layer actually did, so a
// surprising run can be understood and replayed from the seed alone.
func reportChaos(w io.Writer, plan *chaos.Plan) {
	inj := plan.Injections()
	fmt.Fprintf(w, "\nchaos report: %d injections, %d async results dropped (seed %d)\n",
		len(inj), plan.TotalAsyncDropped(), plan.Seed())
	for _, in := range inj {
		fmt.Fprintf(w, "  %s\n", in)
	}
	if n := plan.Truncated(); n > 0 {
		fmt.Fprintf(w, "  ... %d more injections truncated\n", n)
	}
}

func report(w io.Writer, proc *app.Process) {
	if proc.Crashed() {
		fmt.Fprintf(w, "  process CRASHED; memory %.2f MB\n", proc.Memory().CurrentMB())
		return
	}
	acts := proc.Thread().Activities()
	tokens := make([]int, 0, len(acts))
	for tok := range acts {
		tokens = append(tokens, tok)
	}
	sort.Ints(tokens)
	for _, tok := range tokens {
		a := acts[tok]
		fmt.Fprintf(w, "  activity #%d: %-9v views=%d loaded=%d\n",
			a.Token(), a.State(), a.ViewCount(), benchapp.ImagesLoaded(a))
	}
	fmt.Fprintf(w, "  memory %.2f MB\n", proc.Memory().CurrentMB())
}
