package sweep

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"rchdroid/internal/obs"
)

// TestParallelSweepByteIdentical is the engine's core contract: a
// -workers=8 sweep and a -workers=1 sweep over the same seed range must
// merge to byte-identical reports, verdict sets, failure output, AND
// canonical (sim-domain) metric dumps — the registry's shard merge must
// be invisible at any partition. It runs in the short suite, so ci.sh's
// `go test -race -short` is also the tier-1 race-detector pass over a
// parallel sweep with live metric shards.
func TestParallelSweepByteIdentical(t *testing.T) {
	for _, mode := range []string{"oracle", "guard"} {
		t.Run(mode, func(t *testing.T) {
			fn, replay, err := ForMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Mode: mode, Start: 1, Count: 24, Replay: replay}
			cfg.Workers = 1
			seqReg := obs.NewRegistry()
			cfg.Obs = seqReg
			seq := RunObs(cfg, fn)
			cfg.Workers = 8
			parReg := obs.NewRegistry()
			cfg.Obs = parReg
			par := RunObs(cfg, fn)
			if par.Workers != 8 {
				t.Fatalf("parallel run used %d workers, want 8", par.Workers)
			}
			if seq.String() != par.String() {
				t.Fatalf("merged reports differ between -workers=1 and -workers=8:\n--- sequential\n%s--- parallel\n%s",
					seq.String(), par.String())
			}
			if seq.FailureOutput() != par.FailureOutput() {
				t.Fatalf("failure output differs between -workers=1 and -workers=8:\n--- sequential\n%s--- parallel\n%s",
					seq.FailureOutput(), par.FailureOutput())
			}
			if !par.OK() {
				t.Fatalf("sweep failed:\n%s", par.FailureOutput())
			}
			seqCanon := string(seqReg.Snapshot().MarshalCanonical())
			parCanon := string(parReg.Snapshot().MarshalCanonical())
			if seqCanon != parCanon {
				t.Fatalf("canonical metric dumps differ between -workers=1 and -workers=8:\n--- sequential\n%s\n--- parallel\n%s",
					seqCanon, parCanon)
			}
			snap := seqReg.Snapshot()
			for _, name := range []string{"sweep_seeds_total", "oracle_runs_total"} {
				if n, _ := snap.Value(name); n != 24 {
					t.Fatalf("%s = %d, want 24", name, n)
				}
			}
		})
	}
}

// TestMonkeyModeParallel smoke-tests the third mode: a parallel
// monkey×chaos sweep over a few TP-27 models comes back clean and
// byte-identical to its sequential twin, canonical metrics included.
func TestMonkeyModeParallel(t *testing.T) {
	fn, replay, err := ForMode("monkey")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: "monkey", Start: 1, Count: 6, Replay: replay}
	cfg.Workers = 1
	seqReg := obs.NewRegistry()
	cfg.Obs = seqReg
	seq := RunObs(cfg, fn)
	cfg.Workers = 6
	parReg := obs.NewRegistry()
	cfg.Obs = parReg
	par := RunObs(cfg, fn)
	if seq.String() != par.String() {
		t.Fatalf("monkey reports differ:\n--- sequential\n%s--- parallel\n%s", seq.String(), par.String())
	}
	if !par.OK() {
		t.Fatalf("monkey sweep failed:\n%s", par.FailureOutput())
	}
	if s, p := string(seqReg.Snapshot().MarshalCanonical()), string(parReg.Snapshot().MarshalCanonical()); s != p {
		t.Fatalf("monkey canonical metric dumps differ:\n--- sequential\n%s\n--- parallel\n%s", s, p)
	}
	if n, _ := seqReg.Snapshot().Value("monkey_runs_total"); n != 6 {
		t.Fatalf("monkey_runs_total = %d, want 6", n)
	}
}

// TestPanicAttribution plants a panicking runner on one seed: the pool
// must recover it, pin it to that seed, keep every other seed's result,
// and surface it as a failure with the replay line — at any worker
// count, with identical canonical bytes.
func TestPanicAttribution(t *testing.T) {
	fn := func(seed uint64) Outcome {
		if seed == 5 {
			panic("boom on seed 5")
		}
		return Outcome{OK: true, Detail: fmt.Sprintf("seed=%d clean", seed)}
	}
	cfg := Config{Mode: "test", Start: 1, Count: 9, Replay: "rerun -seed=%d"}
	cfg.Workers = 1
	seq := Run(cfg, fn)
	cfg.Workers = 4
	par := Run(cfg, fn)

	if seq.String() != par.String() || seq.FailureOutput() != par.FailureOutput() {
		t.Fatalf("panic run not byte-identical across worker counts:\n%s----\n%s", seq.String(), par.String())
	}
	if par.OK() {
		t.Fatal("report with a panicked seed claims OK")
	}
	failed := par.Failed()
	if len(failed) != 1 || failed[0].Seed != 5 {
		t.Fatalf("failed = %+v, want exactly seed 5", failed)
	}
	p := failed[0]
	if !p.Panicked || p.PanicVal != "boom on seed 5" {
		t.Fatalf("panic not attributed: %+v", p)
	}
	if len(p.Failures) != 1 || p.Failures[0] != "panic: boom on seed 5" {
		t.Fatalf("panic not folded into failures: %v", p.Failures)
	}
	if p.PanicStack == "" || strings.HasPrefix(p.PanicStack, "goroutine ") {
		t.Fatalf("stack missing or still carries the goroutine header:\n%s", p.PanicStack)
	}
	out := par.FailureOutput()
	if !strings.Contains(out, "replay: rerun -seed=5") {
		t.Fatalf("failure output lacks the replay line:\n%s", out)
	}
	if !strings.Contains(par.Tally(), "1 panicked") {
		t.Fatalf("tally does not count the panic: %s", par.Tally())
	}
	// The other 8 seeds must have completed despite the panic.
	for _, res := range par.Results {
		if res.Seed != 5 && !res.OK {
			t.Fatalf("seed %d lost to a neighbour's panic: %+v", res.Seed, res)
		}
	}
}

// TestSeedIndexedMerge pins the merge layout: Results[i] is seed
// Start+i, worker counts are clamped sanely, and empty sweeps work.
func TestSeedIndexedMerge(t *testing.T) {
	fn := func(seed uint64) Outcome {
		return Outcome{OK: true, Detail: fmt.Sprintf("seed=%d", seed)}
	}
	rep := Run(Config{Mode: "test", Start: 100, Count: 7, Workers: 32}, fn)
	if rep.Workers != 7 {
		t.Fatalf("workers not capped at count: %d", rep.Workers)
	}
	if n := len(rep.Walls()); n != 7 {
		t.Fatalf("Walls() has %d entries, want one per seed (7)", n)
	}
	for i, res := range rep.Results {
		if res.Seed != 100+uint64(i) {
			t.Fatalf("Results[%d].Seed = %d, want %d", i, res.Seed, 100+i)
		}
	}
	empty := Run(Config{Mode: "test", Count: 0}, fn)
	if !empty.OK() || len(empty.Results) != 0 {
		t.Fatalf("empty sweep misbehaved: %+v", empty)
	}
	// Start 0 defaults to 1: seed 0 is the chaos layer's "off" value.
	one := Run(Config{Mode: "test", Count: 1}, fn)
	if one.Results[0].Seed != 1 {
		t.Fatalf("Start=0 ran seed %d, want 1", one.Results[0].Seed)
	}
}

// TestStopInterrupts: closing Config.Stop makes workers finish the seed
// in hand and claim no more; the report marks itself Interrupted, skips
// never-run slots everywhere (a zero-valued slot must not count as a
// failure), and DonePrefix names the resume seed.
func TestStopInterrupts(t *testing.T) {
	stop := make(chan struct{})
	var ran int32
	fn := func(seed uint64, _ *obs.Shard) Outcome {
		if atomic.AddInt32(&ran, 1) == 5 {
			close(stop)
		}
		return Outcome{OK: true, Detail: fmt.Sprintf("seed=%d ok", seed)}
	}
	rep := RunObs(Config{Mode: "oracle", Start: 1, Count: 100, Workers: 2, Stop: stop}, fn)
	if !rep.Interrupted {
		t.Fatalf("report not marked Interrupted after stop (done=%d)", rep.DoneCount())
	}
	done := rep.DoneCount()
	if done < 5 || done >= 100 {
		t.Fatalf("DoneCount = %d, want a few past the stop point and well short of 100", done)
	}
	if p := rep.DonePrefix(); p < 1 || p > done {
		t.Fatalf("DonePrefix = %d, want 1..%d", p, done)
	}
	if n := len(rep.Failed()); n != 0 {
		t.Fatalf("never-run slots leaked into Failed(): %d", n)
	}
	if !rep.OK() {
		t.Fatal("interrupted all-ok sweep must still report OK")
	}
	tally := rep.Tally()
	if !strings.Contains(tally, "interrupted:") || !strings.Contains(tally, "resume at") {
		t.Fatalf("tally missing interrupt rendering: %q", tally)
	}
	if got := strings.Count(rep.String(), "\nok  "); got != done-1 && got != done {
		// First line is the header; every Done seed renders one status line.
		t.Fatalf("String rendered %d ok lines for %d done seeds:\n%s", got, done, rep.String())
	}

	// A sweep whose Stop never fires is byte-for-byte the old output.
	quiet := make(chan struct{})
	plain := RunObs(Config{Mode: "oracle", Start: 1, Count: 8, Workers: 1}, fn)
	stopped := RunObs(Config{Mode: "oracle", Start: 1, Count: 8, Workers: 1, Stop: quiet}, fn)
	if plain.String() != stopped.String() {
		t.Fatalf("unfired Stop changed the report:\n--- plain\n%s--- stopped\n%s", plain.String(), stopped.String())
	}
	if stopped.Interrupted {
		t.Fatal("complete sweep marked Interrupted")
	}
}
