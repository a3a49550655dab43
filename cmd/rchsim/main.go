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
package main

import (
	"flag"
	"fmt"
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
	"rchdroid/internal/costmodel"
	"rchdroid/internal/guard"
	"rchdroid/internal/logcat"
	"rchdroid/internal/metrics"
	"rchdroid/internal/script"
	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
	"rchdroid/internal/view"
)

func main() {
	mode := flag.String("mode", "rchdroid", "handling scheme: rchdroid | stock")
	appRef := flag.String("app", "", "drive a modeled app instead of the benchmark: tp27:<row> | top100:<row>")
	images := flag.Int("images", 4, "ImageViews in the benchmark app")
	changes := flag.Int("changes", 3, "number of runtime changes")
	touch := flag.Bool("touch", true, "touch the button (starts the AsyncTask) before the first change")
	taskMS := flag.Int("task-ms", 400, "AsyncTask duration in ms")
	traceFile := flag.String("trace", "", "write a Chrome/Perfetto trace_event JSON file (\"-\" for stdout)")
	showLog := flag.Bool("logcat", false, "dump the system log (grep zizhan for handling times); with -trace, log lines also land on the trace timeline")
	dump := flag.Bool("dump", false, "dump the foreground view tree after each change")
	scriptPath := flag.String("script", "", "run a scenario script instead of the built-in rotation loop")
	chaosSeed := flag.Uint64("chaos-seed", 0, "arm the fault-injection layer with this seed (0 = off)")
	chaosProfile := flag.String("chaos", "light", "chaos preset when -chaos-seed is set: light | heavy | guarded")
	guarded := flag.Bool("guard", false, "arm the supervision layer: ANR watchdogs, checksummed state transfer with retry, per-activity stock fallback")
	shared := cliflags.RegisterProfiles(flag.CommandLine, "rchsim")
	flag.Parse()

	stopCPU, ok := shared.StartCPUProfile(os.Stderr)
	if !ok {
		os.Exit(1)
	}

	sched := sim.NewScheduler()
	var tracer *trace.Tracer
	if *traceFile != "" {
		tracer = trace.New(sched)
	}
	model := costmodel.Default()
	sys := atms.New(sched, model)
	sys.SetTracer(tracer) // registers system_server first: pid 1
	lc := logcat.New(sched, 4096)
	sys.SetLogcat(lc)
	application := benchapp.New(benchapp.Config{
		Images:    *images,
		TaskDelay: time.Duration(*taskMS) * time.Millisecond,
	})
	if *appRef != "" {
		m, err := resolveModel(*appRef)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rchsim: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("driving %v (%s)\n", m, m.Issue)
		application = m.Build()
	}
	proc := app.NewProcess(sched, model, application)
	proc.SetTracer(tracer)

	var plan *chaos.Plan
	if *chaosSeed != 0 {
		var opts chaos.Options
		switch *chaosProfile {
		case "light":
			opts = chaos.Light()
		case "heavy":
			opts = chaos.Heavy()
		case "guarded":
			opts = chaos.Guarded()
		default:
			fmt.Fprintf(os.Stderr, "rchsim: unknown chaos profile %q\n", *chaosProfile)
			os.Exit(2)
		}
		plan = chaos.NewPlan(*chaosSeed, opts)
		plan.BindClock(sched)
		plan.SetTracer(tracer)
	}
	if *showLog {
		// Interleave: every logcat line also lands on the trace timeline
		// (its own process row), lined up with the structured spans.
		lc.SetTracer(tracer)
	}

	var rch *core.RCHDroid
	switch *mode {
	case "rchdroid":
		coreOpts := core.DefaultOptions()
		coreOpts.Chaos = plan
		if *guarded {
			cfg := guard.DefaultConfig()
			coreOpts.Guard = &cfg
		}
		rch = core.Install(sys, proc, coreOpts)
	case "stock":
		if *guarded {
			fmt.Fprintln(os.Stderr, "rchsim: -guard supervises RCHDroid; it has no effect in stock mode")
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "rchsim: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if plan != nil {
		plan.Install(sys, proc)
		fmt.Printf("chaos armed: profile %s, seed %d (replay with -chaos-seed=%d -chaos=%s)\n",
			*chaosProfile, *chaosSeed, *chaosSeed, *chaosProfile)
	}

	handlerName := proc.Thread().Handler().Name()
	if *appRef != "" {
		fmt.Printf("booting %s under %s\n", application.Name, handlerName)
	} else {
		fmt.Printf("booting %s under %s (%d ImageViews)\n", application.Name, handlerName, *images)
	}
	sys.LaunchApp(proc)
	sched.Advance(2 * time.Second)
	report(proc)

	if *scriptPath != "" {
		src, err := os.ReadFile(*scriptPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rchsim: %v\n", err)
			os.Exit(1)
		}
		steps, err := script.Parse(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rchsim: %v\n", err)
			os.Exit(2)
		}
		env := &script.Env{
			Sched:   sched,
			Sys:     sys,
			Procs:   map[string]*app.Process{application.Name: proc},
			Default: proc,
		}
		for _, st := range steps {
			fmt.Printf("\n[%v] $ %s\n", sched.Now(), st.Text)
			if err := script.Run(env, []script.Step{st}); err != nil {
				fmt.Fprintf(os.Stderr, "rchsim: %v\n", err)
				os.Exit(3)
			}
			report(proc)
		}
		if rch != nil {
			reportGuard(rch.Guard)
		}
		reportChaos(plan)
		writeTrace(tracer, *traceFile)
		if *showLog {
			fmt.Println("\nlogcat:")
			fmt.Print(indent(lc.Dump()))
		}
		stopCPU()
		if !shared.WriteHeapProfile(os.Stderr) {
			os.Exit(1)
		}
		exitCrashed(proc, *mode)
		return
	}

	if *touch {
		fmt.Printf("\n[%v] touch button → AsyncTask (%d ms) in flight\n", sched.Now(), *taskMS)
		benchapp.TouchButton(proc)
		sched.Advance(50 * time.Millisecond)
	}

	for i := 0; i < *changes; i++ {
		cfg := sys.GlobalConfig().Rotated()
		fmt.Printf("\n[%v] wm size %dx%d (%s)\n", sched.Now(), cfg.ScreenWidth, cfg.ScreenHeight, cfg.Orientation)
		sys.PushConfiguration(cfg)
		sched.Advance(2 * time.Second)
		if d := sys.LastHandlingTime(); d > 0 && !proc.Crashed() {
			fmt.Printf("  handled in %.2f ms\n", float64(d)/float64(time.Millisecond))
		}
		report(proc)
		if *dump && !proc.Crashed() {
			if fg := proc.Thread().ForegroundActivity(); fg != nil {
				fmt.Print(indent(view.Dump(fg.Decor())))
			}
			fmt.Print(indent(sys.DumpStack()))
		}
		if proc.Crashed() {
			fmt.Printf("  FATAL: %v\n", proc.CrashCause())
			break
		}
	}

	if rch != nil {
		fmt.Printf("\nRCHDroid stats: %d init launches, %d coin flips, %d migrations (%d views), %d stock-routed, %d zombies reaped (%d pending)\n",
			rch.Handler.InitLaunches(), rch.Handler.Flips(),
			rch.Migrator.Migrations(), rch.Migrator.ViewsMigrated(),
			rch.Handler.StockRouted(), rch.Handler.ZombiesReaped(), rch.Handler.Zombies())
		reportGuard(rch.Guard)
	}
	reportChaos(plan)
	writeTrace(tracer, *traceFile)
	if *showLog {
		fmt.Println("\nlogcat:")
		fmt.Print(indent(lc.Dump()))
	}
	stopCPU()
	if !shared.WriteHeapProfile(os.Stderr) {
		os.Exit(1)
	}
	exitCrashed(proc, *mode)
}

// exitCrashed makes a crash under RCHDroid a non-zero exit: stock mode
// crashing is the demo (that is what the paper fixes), but the RCHDroid
// handler dying is a harness failure scripts must be able to detect.
func exitCrashed(proc *app.Process, mode string) {
	if mode == "rchdroid" && proc.Crashed() {
		fmt.Fprintf(os.Stderr, "rchsim: app crashed under RCHDroid: %v\n", proc.CrashCause())
		os.Exit(1)
	}
}

// writeTrace exports the structured trace as Chrome trace_event JSON
// (load it in chrome://tracing or https://ui.perfetto.dev) and prints
// the derived summary.
func writeTrace(tracer *trace.Tracer, path string) {
	if tracer == nil || path == "" {
		return
	}
	out := os.Stdout
	if path != "-" {
		if dir := filepath.Dir(path); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "rchsim: creating trace directory: %v\n", err)
				os.Exit(1)
			}
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rchsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := tracer.WriteJSON(out); err != nil {
		fmt.Fprintf(os.Stderr, "rchsim: writing trace: %v\n", err)
		os.Exit(1)
	}
	if path != "-" {
		shown := path
		if abs, err := filepath.Abs(path); err == nil {
			shown = abs
		}
		fmt.Printf("\ntrace written to %s (%d events", shown, tracer.Len())
		if n := tracer.Dropped(); n > 0 {
			fmt.Printf(", %d dropped by ring", n)
		}
		fmt.Println(")")
		fmt.Print(indent(metrics.AnalyzeTrace(tracer.Events()).Render(12)))
	}
}

// resolveModel parses "tp27:<row>" / "top100:<row>" into an app model.
func resolveModel(ref string) (appset.Model, error) {
	parts := strings.SplitN(ref, ":", 2)
	if len(parts) != 2 {
		return appset.Model{}, fmt.Errorf("bad -app %q (want tp27:<row> or top100:<row>)", ref)
	}
	var models []appset.Model
	switch parts[0] {
	case "tp27":
		models = appset.TP27()
	case "top100":
		models = appset.Top100()
	default:
		return appset.Model{}, fmt.Errorf("unknown set %q", parts[0])
	}
	row, err := strconv.Atoi(parts[1])
	if err != nil || row < 1 || row > len(models) {
		return appset.Model{}, fmt.Errorf("bad row %q (1..%d)", parts[1], len(models))
	}
	return models[row-1], nil
}

func indent(s string) string {
	out := ""
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		out += "    " + line + "\n"
	}
	return out
}

// reportGuard prints the supervision summary and the escalation log (a
// no-op when the guard was not armed).
func reportGuard(g *guard.Guard) {
	if !g.Enabled() {
		return
	}
	fmt.Println()
	fmt.Print(g.Report())
	ds := g.Decisions()
	if len(ds) > 0 {
		fmt.Println("guard decisions:")
	}
	for _, d := range ds {
		fmt.Printf("  %s\n", d)
	}
}

// reportChaos prints what the fault-injection layer actually did, so a
// surprising run can be understood and replayed from the seed alone.
func reportChaos(plan *chaos.Plan) {
	if plan == nil {
		return
	}
	inj := plan.Injections()
	fmt.Printf("\nchaos report: %d injections, %d async results dropped (seed %d)\n",
		len(inj), plan.TotalAsyncDropped(), plan.Seed())
	for _, in := range inj {
		fmt.Printf("  %s\n", in)
	}
	if n := plan.Truncated(); n > 0 {
		fmt.Printf("  ... %d more injections truncated\n", n)
	}
}

func report(proc *app.Process) {
	if proc.Crashed() {
		fmt.Printf("  process CRASHED; memory %.2f MB\n", proc.Memory().CurrentMB())
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
		fmt.Printf("  activity #%d: %-9v views=%d loaded=%d\n",
			a.Token(), a.State(), a.ViewCount(), benchapp.ImagesLoaded(a))
	}
	fmt.Printf("  memory %.2f MB\n", proc.Memory().CurrentMB())
}
