// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload from a seed, checks its outputs,
// and prints one JSON result line:
//
//	bash perfbench/run.sh --workload ci-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	ci-sweep        the CI gate's differential-oracle sweep: 512 Light and
//	                1024 Guarded seeds per round through sweep.RunObs
//	explore-depth3  exhaustive depth-3 schedule exploration of the corpus
//	fleet-diurnal   a seeded diurnal log replayed closed-loop over TCP
//	                through an in-process serve.Server
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the run repeats the untraced timed phase (for the tracing
// overhead and the output comparison), then a traced pass that times
// the calls into each layer from outside; the result carries the
// per-layer metrics. A run whose outputs fail any check exits non-zero
// without printing a result.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"rchdroid/internal/obs"
)

// concurrency is nproc everywhere: sweep workers, fleet shards and
// client connections. GOMAXPROCS is left at its default.
var concurrency = runtime.NumCPU()

// provenance stamps every result.
type provenance struct {
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	SourceSHA   string `json:"source_sha256"`
	Workers     int    `json:"workers"`
	Connections int    `json:"connections"`
	Shards      int    `json:"shards"`
}

// run is one invocation's state: its parameters, and the checks and
// metrics the workload fills in.
type run struct {
	prov    provenance
	seed    uint64
	seconds int
	trace   bool
	outDir  string // .bench_build under the checkout root

	attempted, failed int
	failures          []string

	e2e     map[string]float64
	layer   map[string]float64
	samples map[string]int
	notes   []string
}

// workloads maps each name to the function that runs it.
var workloads = map[string]func(*run) error{
	"ci-sweep":       ciSweep,
	"explore-depth3": exploreDepth3,
	"fleet-diurnal":  fleetDiurnal,
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload to run (ci-sweep, explore-depth3, fleet-diurnal)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase the workload is sized to")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	src, err := sourceDigest(root)
	if err != nil {
		return err
	}
	r := &run{
		seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		outDir:  filepath.Join(root, ".bench_build"),
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		samples: map[string]int{},
	}
	r.prov = provenance{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: r.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: os.Getenv("PERFBENCH_COMMIT"), SourceSHA: src,
	}
	if r.prov.Commit == "" {
		r.prov.Commit = "unknown"
	}
	for _, d := range perLayer {
		r.setLayer(d.name, 0, 0)
	}

	if err := drive(r); err != nil {
		return err
	}
	if err := checkSummary(); err != nil {
		return err
	}
	if r.failed > 0 || len(r.failures) > 0 {
		for _, f := range r.failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		return fmt.Errorf("%s: %d of %d ops failed; %d output checks failed", *name, r.failed, r.attempted, len(r.failures))
	}
	return r.report()
}

// fail records a contract or determinism failure.
func (r *run) fail(format string, args ...any) {
	const keep = 20
	if len(r.failures) < keep {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the provenance, the human-readable notes and the result
// line.
func (r *run) report() error {
	prov, err := json.Marshal(r.prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", prov)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	defs := endToEnd
	vals := r.e2e
	if r.trace {
		defs = perLayer
		vals = r.layer
		fmt.Printf("%-32s %14s %-6s %8s\n", "per-layer metric", "value", "unit", "samples")
		for _, d := range defs {
			fmt.Printf("%-32s %14.6g %-6s %8d\n", d.name, vals[d.name], d.unit, r.samples[d.name])
		}
	}
	res := result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"flip_p50_ms", "ms"},
	{"flip_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"heap_live_mb", "MB"},
}

var perLayer = []metricDef{
	{"sweep.busy_frac", "frac"},
	{"oracle.seed_ms_p50", "ms"},
	{"chaos.injections_per_op", "count"},
	{"guard.seed_ms_p50", "ms"},
	{"guard.retries_per_op", "count"},
	{"explore.schedule_ms_p50", "ms"},
	{"device.build_us_p50", "us"},
	{"device.fork_us_p50", "us"},
	{"core.handlings_per_op", "count"},
	{"sim.events_per_op", "count"},
	{"sim.host_ns_per_event", "ns"},
	{"serve.submit_us_p50.flip", "us"},
	{"serve.submit_us_p50.batch", "us"},
	{"serve.submit_us_p50.boot", "us"},
	{"serve.steps_per_batch", "count"},
	{"serve.shed_frac", "frac"},
	{"serve.wire.encode_us_p50", "us"},
	{"serve.wire.decode_us_p50", "us"},
	{"serve.wire.req_bytes_per_op", "bytes"},
	{"serve.wire.resp_bytes_per_op", "bytes"},
	{"serve.tcp.overhead_us_p50", "us"},
	{"workload.gen_ms", "ms"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"runtime.gc_cpu_frac", "frac"},
}

// setLayer records a per-layer metric with its sample count. Layers a
// workload never calls read 0 with 0 samples.
func (r *run) setLayer(name string, v float64, samples int) {
	r.layer[name] = v
	r.samples[name] = samples
}

// timedPhase runs fn, the untraced timed phase of ops operations. It
// collects garbage and returns it to the OS first, then restarts the
// resident-set high-water mark, so set-up leftovers stay out of the
// phase and peak_rss_mb is the phase's own peak over what set-up keeps.
// It samples the runtime counters the per-layer runtime metrics come
// from and, on a traced run, records a CPU profile of the phase.
func (r *run) timedPhase(fn func() (ops int, err error)) error {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	stopProfile := func() error { return nil }
	if r.trace {
		stop, err := obs.StartCPUProfile(r.profilePath("cpu"))
		if err != nil {
			return err
		}
		stopProfile = stop
	}
	before, cpu0 := readRuntime(), readCPU()
	t0 := time.Now()
	ops, err := fn()
	elapsed := time.Since(t0)
	after, cpu1 := readRuntime(), readCPU()
	if perr := stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	if ops <= 0 {
		return errors.New("timed phase ran no ops")
	}
	r.notes = append(r.notes, cpuNote(cpu0, cpu1, elapsed))
	r.e2e["ops_per_s"] = float64(ops) / elapsed.Seconds()
	for k, v := range runtimeDelta(before, after, ops) {
		r.setLayer(k, v, ops)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = rss
	return nil
}

// endPhase records the live heap at the end of the timed phase — with
// the phase's long-lived state still referenced by the caller — and, on
// a traced run, the heap profile.
func (r *run) endPhase() error {
	r.e2e["heap_live_mb"] = liveHeapMB()
	if r.trace {
		return obs.WriteHeapProfile(r.profilePath("heap"))
	}
	return nil
}

func (r *run) profilePath(kind string) string {
	return filepath.Join(r.outDir, "profiles", fmt.Sprintf("%s.%s.pprof", r.prov.Workload, kind))
}

// latencies sets the two per-op latency metrics from one run's samples.
func (r *run) latencies(ds []time.Duration) {
	r.e2e["flip_p50_ms"] = ms(quantile(ds, 0.50))
	r.e2e["flip_p95_ms"] = ms(quantile(ds, 0.95))
}

// overhead notes the traced pass's own end-to-end numbers beside the
// untraced ones: the difference is the tracing overhead.
func (r *run) overhead(tracedOps int, traced time.Duration, tracedLat []time.Duration) {
	ops := float64(tracedOps) / traced.Seconds()
	p50 := ms(quantile(tracedLat, 0.5))
	p95 := ms(quantile(tracedLat, 0.95))
	r.notes = append(r.notes,
		fmt.Sprintf("untraced: ops_per_s=%.1f flip_p50_ms=%.4f flip_p95_ms=%.4f", r.e2e["ops_per_s"], r.e2e["flip_p50_ms"], r.e2e["flip_p95_ms"]),
		fmt.Sprintf("traced:   ops_per_s=%.1f flip_p50_ms=%.4f flip_p95_ms=%.4f", ops, p50, p95),
		fmt.Sprintf("tracing overhead: ops_per_s %+.2f%%, flip_p50_ms %+.2f%%, flip_p95_ms %+.2f%%",
			pct(ops, r.e2e["ops_per_s"]), pct(p50, r.e2e["flip_p50_ms"]), pct(p95, r.e2e["flip_p95_ms"])))
}

func pct(traced, untraced float64) float64 { return ratio(traced-untraced, untraced) * 100 }

// finishTrace notes the traced pass's self time per span name and writes
// the spans out.
func (r *run) finishTrace(tr *tracer) error {
	r.notes = append(r.notes, fmt.Sprintf("%-34s %9s %12s %12s", "span", "count", "total_ms", "self_ms"))
	for _, row := range tr.selfTimes() {
		r.notes = append(r.notes, fmt.Sprintf("%-34s %9d %12.3f %12.3f", row.name, row.count, ms(row.total), ms(row.self)))
	}
	path := filepath.Join(r.outDir, "traces", r.prov.Workload+".trace.json")
	r.notes = append(r.notes, "spans: "+path, "profiles: "+r.profilePath("cpu")+", "+r.profilePath("heap"))
	return tr.write(path, r.prov)
}

// digestOf hashes sim-domain outputs.
func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigest compares a sim-domain output digest against the one an
// earlier run of the same code, workload, seed and length left in the
// checkout, and records it when there is none. Traced and untraced runs
// share the key, so a traced run is checked against the timed one.
func (r *run) checkDigest(kind, digest string) error {
	dir := filepath.Join(r.outDir, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d-%s.%s", r.prov.Workload, r.seed, r.seconds, r.prov.SourceSHA[:16], kind))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != digest {
			r.fail("%s output digest %s differs from an earlier run of the same seed (%s)", kind, digest, prev)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		tmp := path + ".tmp" + strconv.Itoa(os.Getpid())
		if err := os.WriteFile(tmp, []byte(digest), 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	default:
		return err
	}
}
