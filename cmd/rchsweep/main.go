// Command rchsweep fans a seed sweep across a deterministic worker
// pool. It is the CI face of internal/sweep: the merged report, verdict
// set, and failure output are byte-identical at any -workers value, a
// failing seed prints the exact replay command, and any failure —
// including a recovered worker panic, which is attributed to its seed —
// exits non-zero.
//
// Usage:
//
//	rchsweep -mode=oracle -seeds=512            # differential sweep, GOMAXPROCS workers
//	rchsweep -mode=guard -seeds=1024            # guarded-chaos sweep
//	rchsweep -mode=monkey -seeds=54             # monkey×chaos TP-27 stress
//	rchsweep -mode=boot -seeds=20000            # pure device spin-up (no chaos run)
//	rchsweep -mode=oracle -seeds=64 -workers=4 -crosscheck # byte-compare workers=1 vs workers=4
//	rchsweep -mode=oracle -seeds=512 -progress=1s -metrics-out=artifacts/metrics.json
//	rchsweep -mode=oracle -seeds=512 -min-seeds-per-sec=250 -profile-cpu=artifacts/cpu.pprof
//
// -crosscheck needs a pool of at least two workers to compare against
// the sequential run; one that resolves to a single worker (-workers=1,
// -seeds=1, or GOMAXPROCS=1 without -workers) is a usage error.
//
// Wall-clock performance is measured by perfbench/, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rchdroid/internal/chaos"
	"rchdroid/internal/cliflags"
	"rchdroid/internal/obs"
	"rchdroid/internal/oracle"
	"rchdroid/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonReport is the -json shape of a merged sweep: like the text
// report, it carries no timings or worker count, so it is byte-identical
// at any -workers value.
type jsonReport struct {
	Mode    string       `json:"mode"`
	Start   uint64       `json:"start"`
	Seeds   int          `json:"seeds"`
	Tally   string       `json:"tally"`
	Results []jsonResult `json:"results"`
}

type jsonResult struct {
	Seed     uint64   `json:"seed"`
	OK       bool     `json:"ok"`
	Detail   string   `json:"detail"`
	Failures []string `json:"failures,omitempty"`
	Replay   string   `json:"replay,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rchsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "oracle", "sweep mode: oracle | guard | monkey | boot")
	seeds := fs.Int("seeds", 64, "number of consecutive seeds to run")
	start := fs.Uint64("start", 1, "first seed (inclusive)")
	workers := fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	verbose := fs.Bool("v", false, "print the full merged report, not just failures")
	asJSON := fs.Bool("json", false, "emit the merged report as JSON")
	crosscheck := fs.Bool("crosscheck", false, "run the range at -workers=1 and -workers=N (N >= 2) and require byte-identical reports and canonical metric dumps")
	shared := cliflags.Register(fs, "rchsweep")
	traceOnFail := fs.Bool("trace-on-fail", false, "in oracle and guard modes, write each failing seed's RCHDroid-side trace to ./artifacts/")
	minRate := fs.Float64("min-seeds-per-sec", 0, "fail (exit 1) if sweep throughput drops below this floor (0 = no floor)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seeds < 0 {
		fmt.Fprintln(stderr, "rchsweep: -seeds must be non-negative")
		return 2
	}
	if *crosscheck && sweep.PoolSize(*workers, *seeds) < 2 {
		fmt.Fprintf(stderr, "rchsweep: -crosscheck needs a parallel pool to compare with workers=1, but -workers=%d over %d seeds resolves to one worker; pass -workers=N with 2 <= N <= -seeds\n",
			*workers, *seeds)
		return 2
	}

	fn, replay, err := sweep.ForMode(*mode)
	if err != nil {
		fmt.Fprintf(stderr, "rchsweep: %v\n", err)
		return 2
	}

	stopCPU, ok := shared.StartCPUProfile(stderr)
	if !ok {
		return 1
	}
	defer stopCPU()

	stop, _, release := cliflags.StopOnSignals("rchsweep", stderr)
	defer release()
	reg := obs.NewRegistry()
	cfg := sweep.Config{Mode: *mode, Start: *start, Count: *seeds, Workers: *workers, Replay: replay, Obs: reg, Stop: stop}
	prog := obs.StartProgress(stderr, "seeds", *seeds, shared.Progress, func() (int64, int64) {
		snap := reg.Snapshot()
		done, _ := snap.Value("sweep_seeds_total")
		failures, _ := snap.Value("sweep_seed_failures_total")
		panics, _ := snap.Value("sweep_seed_panics_total")
		return done, failures + panics
	})
	rep := sweep.RunObs(cfg, fn)
	prog.Stop()
	rate := seedsPerSec(rep)
	fmt.Fprintf(stderr, "rchsweep: mode=%s seeds=%d workers=%d elapsed=%v (%.0f seeds/sec)\n",
		rep.Mode, rep.Count, rep.Workers, rep.Elapsed.Round(time.Millisecond), rate)

	snap := reg.Snapshot()
	if !shared.WriteMetrics(snap, stderr) || !shared.WriteHeapProfile(stderr) {
		return 1
	}

	// An interrupted sweep still flushed its artifacts above; print the
	// resume coordinates and exit non-zero — the partial report covers
	// only the seeds that ran, so a green exit here would lie.
	if rep.Interrupted {
		resume := rep.Start + uint64(rep.DonePrefix())
		fmt.Fprintf(stderr, "rchsweep: interrupted after %d of %d seeds; resume with -mode=%s -start=%d -seeds=%d\n",
			rep.DoneCount(), rep.Count, rep.Mode, resume, rep.Count-rep.DonePrefix())
		fmt.Fprint(stdout, rep.Tally()+"\n")
		return 1
	}

	if *crosscheck {
		reg1 := obs.NewRegistry()
		cfg1 := cfg
		cfg1.Workers = 1
		cfg1.Obs = reg1
		seq := sweep.RunObs(cfg1, fn)
		fmt.Fprintf(stderr, "rchsweep: crosscheck sequential elapsed=%v\n", seq.Elapsed.Round(time.Millisecond))
		if seq.String() != rep.String() || seq.FailureOutput() != rep.FailureOutput() {
			fmt.Fprintf(stderr, "rchsweep: DETERMINISM VIOLATION: workers=1 and workers=%d reports differ\n--- sequential\n%s--- parallel\n%s",
				rep.Workers, seq.String(), rep.String())
			return 1
		}
		seqCanon, parCanon := reg1.Snapshot().MarshalCanonical(), snap.MarshalCanonical()
		if string(seqCanon) != string(parCanon) {
			fmt.Fprintf(stderr, "rchsweep: DETERMINISM VIOLATION: workers=1 and workers=%d canonical metric dumps differ\n--- sequential\n%s\n--- parallel\n%s\n",
				rep.Workers, seqCanon, parCanon)
			return 1
		}
		fmt.Fprintf(stderr, "rchsweep: crosscheck ok: workers=1 and workers=%d reports and canonical metrics byte-identical\n", rep.Workers)
	}

	switch {
	case *asJSON:
		if err := writeJSON(stdout, rep); err != nil {
			fmt.Fprintf(stderr, "rchsweep: %v\n", err)
			return 1
		}
	case *verbose:
		fmt.Fprint(stdout, rep.String())
	default:
		if out := rep.FailureOutput(); out != "" {
			fmt.Fprint(stdout, out)
		} else {
			fmt.Fprintln(stdout, rep.Tally())
		}
	}

	if !rep.OK() {
		for _, res := range rep.Panicked() {
			fmt.Fprintf(stderr, "rchsweep: worker panic on seed %d: %s\n%s\n", res.Seed, res.PanicVal, res.PanicStack)
		}
		if *traceOnFail {
			for _, res := range rep.Failed() {
				writeFailureTrace(stderr, *mode, res.Seed)
			}
		}
		return 1
	}
	if *minRate > 0 && rate < *minRate {
		fmt.Fprintf(stderr, "rchsweep: THROUGHPUT FLOOR VIOLATION: %.0f seeds/sec < floor %.0f\n", rate, *minRate)
		return 1
	}
	return 0
}

func seedsPerSec(rep *sweep.Report) float64 {
	if rep.Elapsed <= 0 {
		return 0
	}
	return float64(rep.Count) / rep.Elapsed.Seconds()
}

func writeJSON(w io.Writer, rep *sweep.Report) error {
	out := jsonReport{Mode: rep.Mode, Start: rep.Start, Seeds: rep.Count, Tally: rep.Tally()}
	for _, res := range rep.Results {
		jr := jsonResult{Seed: res.Seed, OK: res.OK, Detail: res.Detail, Failures: res.Failures}
		if !res.OK && rep.Replay != "" {
			jr.Replay = fmt.Sprintf(rep.Replay, res.Seed)
		}
		out.Results = append(out.Results, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// writeFailureTrace re-runs a failing seed's RCHDroid side with the
// ring tracer armed and drops the timeline in ./artifacts/, mirroring
// the test suite's -oracle.trace-on-fail behaviour.
func writeFailureTrace(stderr io.Writer, mode string, seed uint64) {
	var raw []byte
	var err error
	var name string
	switch mode {
	case "oracle":
		raw, err = oracle.TraceRCHWith(seed, sweep.RCHInstaller(), 0, chaos.Light())
		name = fmt.Sprintf("seed%d.trace.json", seed)
	case "guard":
		raw, err = oracle.TraceRCHWith(seed, sweep.GuardedInstaller(), 0, chaos.Guarded())
		name = fmt.Sprintf("seed%d.guarded.trace.json", seed)
	default:
		return // monkey runs have no single-seed trace replay (yet)
	}
	path := filepath.Join("artifacts", name)
	if err == nil {
		err = cliflags.WriteFileMaybeMkdir(path, raw)
	}
	if err != nil {
		fmt.Fprintf(stderr, "rchsweep: trace-on-fail seed %d: %v\n", seed, err)
		return
	}
	if abs, err := filepath.Abs(path); err == nil {
		path = abs
	}
	fmt.Fprintf(stderr, "rchsweep: trace for seed %d: %s\n", seed, path)
}
