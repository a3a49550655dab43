// Command rchexplore walks the bounded schedule space of a data-loss
// corpus scenario: every interleaving of injected faults (config
// change, async drain, process kill, migration-flush stall) over the
// scenario's lifecycle edges, up to -depth slots per run. Each schedule
// runs differentially — stock Android 10 against RCHDroid — and every
// divergence must classify into the scenario's declared loss buckets.
// The walk is exhaustive and deterministic: a schedule is named by its
// canonical index, the merged report is byte-identical at any -workers
// value, and a failing schedule prints the exact replay command.
//
// Usage:
//
//	rchexplore -list                                    # corpus inventory
//	rchexplore -depth=2                                 # explore every scenario
//	rchexplore -scenario=backstack -depth=1             # one scenario
//	rchexplore -scenario=backstack -depth=1 -schedule=16  # replay one index
//	rchexplore -scenario=kill-resume -depth=2 -chunk=500 -checkpoint=f.json
//	                                                    # resumable chunked walk
//	rchexplore -depth=2 -progress=1s -metrics-out=artifacts/metrics.explore.json
//	rchexplore -depth=2 -profile-cpu=artifacts/explore.cpu.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"rchdroid/internal/cliflags"
	"rchdroid/internal/explore"
	"rchdroid/internal/obs"
	"rchdroid/internal/oracle/corpus"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rchexplore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "", "scenario name, comma list, or empty for the whole corpus")
	depth := fs.Int("depth", 1, "schedule-size bound (injected faults per run)")
	workers := fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	schedule := fs.Int64("schedule", -1, "replay one schedule index of a single -scenario")
	list := fs.Bool("list", false, "list the corpus and each scenario's space size at -depth")
	checkpoint := fs.String("checkpoint", "", "frontier file for resumable chunked exploration (single -scenario)")
	chunk := fs.Int("chunk", 0, "schedules per invocation when checkpointing (0 = the whole space)")
	verbose := fs.Bool("v", false, "print every schedule's verdict, not just failures")
	shared := cliflags.Register(fs, "rchexplore")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *depth < 0 {
		fmt.Fprintln(stderr, "rchexplore: -depth must be non-negative")
		return 2
	}

	if *list {
		if name := unusedFlag(fs, "list", "depth"); name != "" {
			fmt.Fprintf(stderr, "rchexplore: -list uses only -depth, not -%s\n", name)
			return 2
		}
		for _, sc := range corpus.All() {
			sp := explore.SpaceFor(&sc, *depth)
			fmt.Fprintf(stdout, "%-20s edges=%d actions=%d depth=%d space=%d  %s\n",
				sc.Name, sp.Edges, len(sp.Actions), sp.Depth, sp.Size(), sc.About)
		}
		return 0
	}

	scenarios, err := selectScenarios(*scenario)
	if err != nil {
		fmt.Fprintf(stderr, "rchexplore: %v\n", err)
		return 2
	}

	if *schedule >= 0 {
		if name := unusedFlag(fs, "schedule", "scenario", "depth"); name != "" {
			fmt.Fprintf(stderr, "rchexplore: -schedule replays one schedule and uses only -scenario and -depth, not -%s\n", name)
			return 2
		}
		if len(scenarios) != 1 {
			fmt.Fprintln(stderr, "rchexplore: -schedule needs exactly one -scenario")
			return 2
		}
		return replayOne(&scenarios[0], *depth, uint64(*schedule), stdout, stderr)
	}

	if *checkpoint != "" && len(scenarios) != 1 {
		fmt.Fprintln(stderr, "rchexplore: -checkpoint needs exactly one -scenario")
		return 2
	}

	stopCPU, ok := shared.StartCPUProfile(stderr)
	if !ok {
		return 1
	}
	defer stopCPU()

	// One registry across the scenario loop: counters accumulate, so the
	// dump covers the whole invocation and the progress line tracks total
	// schedules across scenarios.
	reg := obs.NewRegistry()
	total := 0
	for i := range scenarios {
		sp := explore.SpaceFor(&scenarios[i], *depth)
		n := sp.Size()
		if *chunk > 0 && uint64(*chunk) < n {
			n = uint64(*chunk)
		}
		total += int(n)
	}
	prog := obs.StartProgress(stderr, "schedules", total, shared.Progress, func() (int64, int64) {
		snap := reg.Snapshot()
		done, _ := snap.Value("sweep_seeds_total")
		failures, _ := snap.Value("sweep_seed_failures_total")
		panics, _ := snap.Value("sweep_seed_panics_total")
		return done, failures + panics
	})

	stop, signaled, release := cliflags.StopOnSignals("rchexplore", stderr)
	defer release()
	code := 0
	for i := range scenarios {
		sc := &scenarios[i]
		opts := explore.Options{Depth: *depth, Workers: *workers, Count: *chunk, Obs: reg, Fork: shared.Fork, Stop: stop}
		if *checkpoint != "" {
			start, err := resumeFrom(*checkpoint, sc, *depth)
			if err != nil {
				prog.Stop()
				fmt.Fprintf(stderr, "rchexplore: %v\n", err)
				return 2
			}
			opts.Start = start
		}
		began := time.Now()
		res := explore.Explore(sc, opts)
		fmt.Fprintf(stderr, "rchexplore: %s ran %d schedules in %v\n",
			sc.Name, res.Report.Count, time.Since(began).Round(time.Millisecond))
		io.WriteString(stdout, res.String())
		if *verbose {
			for _, o := range res.Report.Results {
				fmt.Fprintf(stdout, "  %s\n", o.Detail)
			}
		}
		if *checkpoint != "" {
			f := explore.Frontier{Scenario: sc.Name, Depth: *depth, Total: res.Space.Size(), Next: res.Next()}
			if err := os.WriteFile(*checkpoint, explore.EncodeFrontier(f), 0o644); err != nil {
				prog.Stop()
				fmt.Fprintf(stderr, "rchexplore: write checkpoint: %v\n", err)
				return 2
			}
			if f.Done() {
				fmt.Fprintf(stdout, "frontier: done (%d/%d)\n", f.Next, f.Total)
			} else {
				fmt.Fprintf(stdout, "frontier: %d/%d — rerun to continue\n", f.Next, f.Total)
			}
		}
		if !res.OK() {
			code = 1
		}
		// A signal stops the walk between scenarios too. The frontier (if
		// any) was just written from the contiguous done prefix, so a rerun
		// resumes without skipping schedules; metrics still flush below.
		if signaled() {
			fmt.Fprintf(stderr, "rchexplore: interrupted during %s; rerun to continue\n", sc.Name)
			code = 1
			break
		}
	}
	prog.Stop()

	if !shared.WriteMetrics(reg.Snapshot(), stderr) || !shared.WriteHeapProfile(stderr) {
		return 1
	}
	return code
}

// unusedFlag returns the name of a flag set on the command line that is
// not among uses, or "" when every flag set is one of them. A mode that
// reads only some flags refuses the rest rather than ignore them.
func unusedFlag(fs *flag.FlagSet, uses ...string) string {
	name := ""
	fs.Visit(func(f *flag.Flag) {
		if name == "" && !slices.Contains(uses, f.Name) {
			name = f.Name
		}
	})
	return name
}

// selectScenarios resolves the -scenario flag against the corpus.
func selectScenarios(names string) ([]corpus.Scenario, error) {
	if names == "" {
		return corpus.All(), nil
	}
	var out []corpus.Scenario
	for _, name := range strings.Split(names, ",") {
		sc, ok := corpus.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (try -list)", name)
		}
		out = append(out, sc)
	}
	return out, nil
}

// replayOne reruns a single schedule index and prints its full verdict
// with the differential observables — the debugging face of a failing
// replay line.
func replayOne(sc *corpus.Scenario, depth int, idx uint64, stdout, stderr io.Writer) int {
	sp := explore.SpaceFor(sc, depth)
	if idx >= sp.Size() {
		fmt.Fprintf(stderr, "rchexplore: schedule %d out of range (space size %d)\n", idx, sp.Size())
		return 2
	}
	v := explore.RunIndex(sc, sp, idx)
	fmt.Fprintf(stdout, "scenario=%s %s\n", sc.Name, v.String())
	for _, run := range []*explore.RunResult{&v.Stock, &v.RCH} {
		fmt.Fprintf(stdout, "%s essence: %s cfg:%s\n", run.Name, run.Essence, run.Config)
		for _, l := range run.Losses {
			fmt.Fprintf(stdout, "%s loss: %s\n", run.Name, l)
		}
	}
	if v.OK() {
		fmt.Fprintln(stdout, "PASS")
		return 0
	}
	fmt.Fprintln(stdout, "FAIL")
	return 1
}

// resumeFrom loads the frontier checkpoint, validating that it matches
// the requested walk: same scenario and depth, the same space size (a
// scenario whose steps or actions changed renumbers every schedule), and
// a frontier inside the space. A missing file starts from index 0.
func resumeFrom(path string, sc *corpus.Scenario, depth int) (uint64, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	f, err := explore.DecodeFrontier(b)
	if err != nil {
		return 0, err
	}
	if f.Scenario != sc.Name || f.Depth != depth {
		return 0, fmt.Errorf("checkpoint %s is for %s depth=%d, not %s depth=%d",
			path, f.Scenario, f.Depth, sc.Name, depth)
	}
	if size := explore.SpaceFor(sc, depth).Size(); f.Total != size {
		return 0, fmt.Errorf("checkpoint %s has total=%d, but %s depth=%d has %d schedules: the space changed since it was written",
			path, f.Total, sc.Name, depth, size)
	}
	if f.Next > f.Total {
		return 0, fmt.Errorf("checkpoint %s has next=%d past its total=%d", path, f.Next, f.Total)
	}
	return f.Next, nil
}
