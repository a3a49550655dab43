// Command rchreplay is the trace-driven load generator: it creates
// seeded diurnal workload logs and replays them through a device fleet
// at 1×–1000× time compression, reporting production-style SLOs —
// per-op wall latency percentiles (boot, config flip under contention,
// batched bursts), shed rates by machine-readable code, breaker opens,
// and guard degradations.
//
// Usage:
//
//	rchreplay -gen=day.log -seed=7 -devices=16 -span-ms=60000   # write a log
//	rchreplay -log=day.log -shards=4 -speed=100                 # embedded fleet
//	rchreplay -log=day.log -addr=127.0.0.1:8373 -speed=100      # live rchserve
//
// With -addr the replay speaks the line-delimited JSON wire protocol to
// a live rchserve; without it an in-process fleet is built so one
// command measures end to end. The repository's wall-clock benchmark
// (perfbench/, workload fleet-diurnal) drives the same replay engine.
//
// The canonical (sim-domain) half of -metrics-out derives from the log
// alone, so it byte-compares equal across shard counts and speeds; all
// measurement lands in the wall domain.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"rchdroid/internal/cliflags"
	"rchdroid/internal/metrics"
	"rchdroid/internal/obs"
	"rchdroid/internal/serve"
	"rchdroid/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rchreplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gen := fs.String("gen", "", "generate a seeded diurnal workload log to this file and exit")
	seed := fs.Uint64("seed", 1, "generator seed (-gen); same flags → byte-identical log")
	devices := fs.Int("devices", 8, "fleet size the generated log drives (-gen)")
	spanMS := fs.Int64("span-ms", 60_000, "sim span of the generated log in ms (-gen)")
	perDevice := fs.Int("events-per-device", 40, "target mean drive events per device (-gen)")
	guardedPct := fs.Int("guarded-pct", 25, "percent of devices booting the guarded handler (-gen)")

	logPath := fs.String("log", "", "workload log to replay")
	addr := fs.String("addr", "", "live rchserve address; empty builds an embedded in-process fleet")
	shards := fs.Int("shards", 0, "embedded fleet shard width (0 = default 4; ignored with -addr)")
	queueDepth := fs.Int("queue-depth", 0, "embedded fleet per-shard queue bound (0 = default 16; ignored with -addr)")
	speed := fs.Float64("speed", 100, "time-compression multiplier, 1–1000")
	window := fs.Int("window", 4, "in-flight bound: workers × one outstanding request each")
	maxBatch := fs.Int("max-batch", 16, "max due burst-class events coalesced into one batch op")
	sloOut := fs.String("slo-out", "", "write the SLO report JSON to this file")
	shared := cliflags.RegisterProfiles(fs, "rchreplay")
	fs.StringVar(&shared.MetricsOut, "metrics-out", "",
		"write the replay's canonical (sim-domain) metrics dump as JSON to this file")
	fs.StringVar(&shared.MetricsProm, "metrics-prom", "",
		"write the replay's full metrics dump (sim + wall) in Prometheus text format to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rchreplay: unexpected arguments %q\n", fs.Args())
		return 2
	}

	if *gen != "" {
		lg := workload.Generate(workload.GenSpec{
			Seed: *seed, Devices: *devices, SpanMS: *spanMS,
			EventsPerDevice: *perDevice, GuardedPercent: *guardedPct,
		})
		if err := cliflags.WriteFileMaybeMkdir(*gen, lg.Encode()); err != nil {
			fmt.Fprintf(stderr, "rchreplay: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "rchreplay: wrote %s: %d devices, %d events over %dms (seed %d)\n",
			*gen, lg.Header.Devices, lg.Header.Events, lg.Header.SpanMS, lg.Header.Seed)
		return 0
	}

	if *logPath == "" {
		fmt.Fprintln(stderr, "rchreplay: -log (or -gen) is required")
		return 2
	}
	f, err := os.Open(*logPath)
	if err != nil {
		fmt.Fprintf(stderr, "rchreplay: %v\n", err)
		return 1
	}
	lg, err := workload.Decode(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(stderr, "rchreplay: %v\n", err)
		return 1
	}

	stopCPU, ok := shared.StartCPUProfile(stderr)
	if !ok {
		return 1
	}
	defer stopCPU()

	var dial workload.Dialer
	if *addr != "" {
		dial = workload.TCPDialer(*addr)
	} else {
		srv := serve.New(serve.Config{Shards: *shards, QueueDepth: *queueDepth})
		defer srv.Drain(30 * time.Second)
		dial = workload.LocalDialer(srv)
	}
	reg := obs.NewRegistry()
	rep, err := workload.Replay(lg, workload.Config{
		Speed: *speed, Window: *window, MaxBatch: *maxBatch, Dial: dial, Obs: reg,
	})
	if err != nil {
		fmt.Fprintf(stderr, "rchreplay: %v\n", err)
		return 1
	}
	printReport(stdout, rep)
	if *sloOut != "" {
		out, _ := json.MarshalIndent(rep, "", "  ")
		if err := cliflags.WriteFileMaybeMkdir(*sloOut, append(out, '\n')); err != nil {
			fmt.Fprintf(stderr, "rchreplay: slo-out: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "rchreplay: SLO report written to %s\n", *sloOut)
	}
	if !shared.WriteMetrics(reg.Snapshot(), stderr) || !shared.WriteHeapProfile(stderr) {
		return 1
	}
	return 0
}

// printReport renders the human-readable SLO summary.
func printReport(w io.Writer, rep *workload.Report) {
	fmt.Fprintf(w, "replay: %d devices, %d events over %dms sim at %gx (achieved %.1fx, wall %.0fms, max lag %.1fms)\n",
		rep.Devices, rep.Events, rep.SpanMS, rep.Speed, rep.AchievedSpeed, rep.WallMS, rep.MaxLagMS)
	for _, row := range []struct {
		name string
		st   metrics.DurationStats
	}{{"boot", rep.Boot}, {"flip", rep.Flip}, {"batch", rep.Batch}} {
		fmt.Fprintf(w, "  %-5s n=%-4d p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
			row.name, row.st.N, row.st.P50MS, row.st.P95MS, row.st.P99MS, row.st.MaxMS)
	}
	shed := make([]string, 0, len(rep.Shed))
	for code, n := range rep.Shed {
		shed = append(shed, fmt.Sprintf("%s:%d", code, n))
	}
	sort.Strings(shed)
	fmt.Fprintf(w, "  ok=%d shed_rate=%.4f %v\n", rep.StepsOK, rep.ShedRate, shed)
	fmt.Fprintf(w, "  breaker_opens=%d guard_quarantines=%d guard_recoveries=%d\n",
		rep.BreakerOpens, rep.GuardQuarantines, rep.GuardRecoveries)
}
