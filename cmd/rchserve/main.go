// Command rchserve runs the device fleet as a long-lived service: many
// resident virtual devices sharded across goroutine pools behind a
// line-delimited JSON wire API on TCP. It is the operational face of
// internal/serve — panic containment, admission control with explicit
// load shedding, wall-clock request deadlines, a per-shard circuit
// breaker, and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	rchserve                                   # listen on 127.0.0.1:8373
//	rchserve -listen=127.0.0.1:0 -port-file=artifacts/rchserve.addr
//	rchserve -shards=8 -queue-depth=32 -deadline=2s -respawn
//	rchserve -metrics-out=artifacts/serve.metrics.json -metrics-prom=artifacts/serve.prom
//
// One JSON request per line, one reply line per request, in order:
//
//	{"op":"boot","device":"d1","spec":"oracle","handler":"rch","seed":7}
//	{"op":"drive","device":"d1","kind":"rotate"}
//	{"op":"drive","device":"d1","kind":"chaos","seed":3}
//	{"op":"canary","seed":42}
//	{"op":"stats"}
//	{"op":"health"}
//
// The first SIGTERM/SIGINT drains: admission stops (new requests shed
// with code "draining"), queued work finishes under -drain-timeout,
// metrics flush, and the exit status distinguishes a clean drain (0)
// from a forced abort (3). A second signal aborts immediately (130).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"rchdroid/internal/cliflags"
	"rchdroid/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rchserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:8373", "TCP address to listen on (port 0 picks a free port; see -port-file)")
	shards := fs.Int("shards", 0, "shard-pool width (0 = default 4); each shard owns its devices, queue, breaker, and metrics")
	queueDepth := fs.Int("queue-depth", 0, "per-shard queue bound (0 = default 16); a full queue sheds with code \"overloaded\"")
	maxDevices := fs.Int("max-devices", 0, "resident-device bound per shard (0 = default 64)")
	deadline := fs.Duration("deadline", 0, "wall-clock budget per request (0 = none); queue waits past it shed with code \"deadline\"")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long a signal-triggered drain waits for in-flight work before forcing an abort")
	respawn := fs.Bool("respawn", false, "re-boot a device after its panic is contained")
	brkThreshold := fs.Int("breaker-threshold", 0, "consecutive device failures that quarantine a shard (0 = default 3)")
	brkOpen := fs.Duration("breaker-open", 0, "quarantine window before a shard may probe again (0 = default 2s)")
	brkProbes := fs.Int("breaker-probes", 0, "probation successes required to recover (0 = default 2)")
	portFile := fs.String("port-file", "", "write the bound address to this file once listening (for scripts and tests)")
	shared := cliflags.RegisterProfiles(fs, "rchserve")
	fs.StringVar(&shared.MetricsOut, "metrics-out", "",
		"write the canonical (sim-domain) metrics dump as JSON to this file on exit")
	fs.StringVar(&shared.MetricsProm, "metrics-prom", "",
		"write the full metrics dump (sim + wall) in Prometheus text format to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rchserve: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *drainTimeout <= 0 {
		fmt.Fprintln(stderr, "rchserve: -drain-timeout must be positive")
		return 2
	}

	stopCPU, ok := shared.StartCPUProfile(stderr)
	if !ok {
		return 1
	}
	defer stopCPU()

	stop, _, release := cliflags.StopOnSignals("rchserve", stderr)
	defer release()

	srv := serve.New(serve.Config{
		Shards:          *shards,
		QueueDepth:      *queueDepth,
		MaxDevices:      *maxDevices,
		RequestDeadline: *deadline,
		RespawnPanicked: *respawn,
		Breaker: serve.BreakerConfig{
			Threshold:          *brkThreshold,
			OpenFor:            *brkOpen,
			ProbationSuccesses: *brkProbes,
		},
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "rchserve: %v\n", err)
		return 1
	}
	if *portFile != "" {
		if err := cliflags.WriteFileMaybeMkdir(*portFile, []byte(ln.Addr().String()+"\n")); err != nil {
			fmt.Fprintf(stderr, "rchserve: port-file: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "rchserve: listening on %s (shards=%d queue-depth=%d drain-timeout=%v)\n",
		ln.Addr(), orDefault(*shards, 4), orDefault(*queueDepth, 16), *drainTimeout)

	acceptErr := make(chan error, 1)
	go func() { acceptErr <- srv.ServeListener(ln) }()

	var drainErr error
	select {
	case err := <-acceptErr:
		// The listener died outside a drain — an operational error, but the
		// fleet still drains so metrics flush and in-flight work finishes.
		fmt.Fprintf(stderr, "rchserve: accept: %v\n", err)
		srv.Drain(*drainTimeout)
		flushMetrics(srv, shared, stderr)
		return 1
	case <-stop:
		ln.Close()
		fmt.Fprintf(stderr, "rchserve: draining (deadline %v)\n", *drainTimeout)
		drainErr = srv.Drain(*drainTimeout)
		<-acceptErr
	}

	if !flushMetrics(srv, shared, stderr) {
		return 1
	}
	if drainErr != nil {
		fmt.Fprintf(stderr, "rchserve: %v\n", drainErr)
		if serve.ForcedAbort(drainErr) {
			return 3
		}
		return 1
	}
	fmt.Fprintln(stderr, "rchserve: clean drain")
	return 0
}

// flushMetrics writes the merged snapshot artifacts. It reports false
// when a write failed (printed to stderr).
func flushMetrics(srv *serve.Server, shared *cliflags.Set, stderr io.Writer) bool {
	snap, _ := srv.MergedSnapshot() // the error is always nil
	return shared.WriteMetrics(snap, stderr) && shared.WriteHeapProfile(stderr)
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
