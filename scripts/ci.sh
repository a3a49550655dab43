#!/bin/sh
# Tier-1 gate: everything here must pass before a change lands.
#
#   scripts/ci.sh            # from the repo root
#
# Stages:
#   1. gofmt         — no unformatted files
#   2. go vet        — static checks
#   3. go build      — every package compiles
#   4. perfbench vet — go vet over the perfbench module, which the root
#                      build and vet skip (it is a module of its own): a
#                      change that removes or reshapes a name perfbench
#                      calls fails here, not only in the benchmark run
#   5. go test -race — full suite, short mode, race detector on (this is
#                      also the tier-1 race pass over a parallel sweep:
#                      internal/sweep's determinism tests run -workers=8
#                      pools in short mode)
#   6. trace guard   — 89.2 ms flip anchor with tracing disabled, and
#                      zero virtual-time drift with tracing enabled
#   7. guard idle    — same anchor with the supervision guard armed but
#                      idle: the watchdog must be tick-for-tick free
#   8. allocs gate   — bundle save/restore, a bundle save + two
#                      checksums, one guard.Transfer of a 64-view
#                      snapshot (clean, and with three corrupted
#                      attempts), one simulated runtime change,
#                      unguarded and guarded, one judged depth-3
#                      explorer schedule, one judged Light and one
#                      judged Guarded oracle seed (the sampled path the
#                      sweeps run), one 64-view layout inflation, one
#                      wire round trip through the serve codec (a flip,
#                      and a 3-step batch) and one 14-event monkey burst
#                      on a resident RCHDroid device (the fleet's event
#                      path), each run 200x with -benchmem: allocs/op
#                      (deterministic, unlike ns/op) must stay at or
#                      under its ceiling in ALLOC_CEILINGS below
#   9. oracle sweep  — 512-seed differential RCHDroid-vs-stock run on
#                      the parallel sweep engine (GOMAXPROCS workers)
#                      with the metrics registry armed: the canonical
#                      dump lands in ./artifacts/ and the run enforces
#                      the seeds/sec floor (RCH_SEEDS_FLOOR, default
#                      250 — ~10× headroom under the measured ~2–3k)
#  10. determinism   — cross-check matrix (rchsweep -crosscheck): the
#                      128-seed oracle and guard sweeps and a 5000-seed
#                      boot sweep at -workers=2, 4 and 8; every merged
#                      report AND canonical metric dump must be
#                      byte-identical to the same sweep's -workers=1
#                      run (the explicit -workers keep the comparison
#                      real on one-core runners, where GOMAXPROCS would
#                      give one worker)
#  11. guarded sweep — 1024-seed guarded-chaos run on the engine: zero
#                      invariant violations, no quarantine/breaker
#                      decision without a preceding injected fault, and
#                      every activity either RCHDroid-equivalent or
#                      exactly stock-equivalent (never a hybrid)
#  12. explore gate  — exhaustive depth-3 schedule-space exploration of
#                      the data-loss corpus (cmd/rchexplore, built once
#                      into ./artifacts/): 42,394 schedules at
#                      -workers=4, metrics on; every schedule must pass.
#                      The same walk at -workers=1 must print a
#                      byte-identical report and canonical dump (the
#                      explicit -workers keep the comparison real on
#                      one-core runners), which pins the shared stock
#                      and RCHDroid runs and their replayed metrics
#  13. counterfactual — guard-off runs must reproduce the raw failures
#                      the guard recovers, and guarded verdicts replay
#                      bit-identically
#  14. profile smoke — a 32-seed sweep under -profile-cpu/-profile-heap
#                      must produce non-empty pprof artifacts
#  15. fleet stage   — the real rchserve binary: boot a small fleet over
#                      TCP, storm one device with the panic-on-relaunch
#                      spec (every panic contained + respawned, counters
#                      exact, shards all serving), provoke a deadline
#                      shed, then SIGTERM → clean drain (exit 0) with a
#                      non-empty metrics flush (scripts/fleetprobe is
#                      the wire client)
#  16. replay stage  — trace-driven load: rchreplay generates a seeded
#                      diurnal workload log and replays it through the
#                      real rchserve binary over TCP at 200×, then the
#                      SLO report must carry the production surface
#                      (p50/p95/p99 per op class, machine-readable shed
#                      map + rate, breaker/guard counters) and the
#                      replay's canonical metrics dump must be non-empty
#  17. examples      — every examples/<name> (built once into
#                      ./artifacts/examples/) prints byte-for-byte its
#                      committed output.txt: the examples hold no
#                      tests, so nothing else runs them
#  18. report        — rchreport's output (built once into ./artifacts/)
#                      must cmp equal to the committed REPORT.md: a change
#                      that moves an evaluation number regenerates it
#
# Wall-clock performance is perfbench/'s job (BENCHMARK.json), not this
# gate's. The sweeps run on cmd/rchsweep, built once into ./artifacts/:
# any failing seed (including a recovered worker panic, attributed to
# its seed) exits non-zero and prints the exact -oracle.replay=<seed>
# invocation; -trace-on-fail writes the failing seed's Perfetto trace
# to ./artifacts/.
set -eu
cd "$(dirname "$0")/.."

echo "==> gofmt -l"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: unformatted files:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go -C perfbench vet ./..."
go -C perfbench vet ./...

echo "==> go test -race -short ./..."
go test -race -short ./...

echo "==> trace overhead guard"
go test ./internal/experiments -run TestTraceOverheadGuard -count=1

echo "==> guard idle anchor"
go test ./internal/experiments -run TestGuardIdleAnchor -count=1

echo "==> allocs/op gate (bundle save/restore, save + checksums, guard transfer, runtime change, guarded change, explore schedule, oracle seed, inflation, wire round trip, monkey burst)"
# Ceilings are the allocs/op measured when each benchmark's last saving
# landed; lower one when a change saves allocations, never raise one to
# pass.
ALLOC_CEILINGS="BenchmarkBundleSaveRestore64Views=71
BenchmarkBundleTransferChecksum64Views=71
BenchmarkGuardTransfer64Views/clean=67
BenchmarkGuardTransfer64Views/corrupt3=280
BenchmarkSimulatedRuntimeChange=33
BenchmarkGuardedRuntimeChange=35
BenchmarkExploreSchedule=672
BenchmarkOracleSeed=1518
BenchmarkViewTreeInflate64=66
BenchmarkWireRoundTrip/flip=4
BenchmarkWireRoundTrip/batch3=10
BenchmarkMonkeyBurst=219"
mkdir -p artifacts
go test -run '^$' -bench '^Benchmark(BundleSaveRestore64Views|BundleTransferChecksum64Views|GuardTransfer64Views|SimulatedRuntimeChange|GuardedRuntimeChange|ExploreSchedule|OracleSeed|ViewTreeInflate64|WireRoundTrip|MonkeyBurst)$' \
    -benchtime=200x -benchmem . > artifacts/bench.allocs.txt
cat artifacts/bench.allocs.txt
for pair in $ALLOC_CEILINGS; do
    name=${pair%=*} ceiling=${pair#*=}
    got=$(awk -v n="$name" '$1 == n || index($1, n "-") == 1 { for (i = 2; i < NF; i++) if ($(i + 1) == "allocs/op") print $i }' artifacts/bench.allocs.txt)
    if [ -z "$got" ]; then
        echo "ci: $name reported no allocs/op" >&2
        exit 1
    fi
    if [ "$got" -gt "$ceiling" ]; then
        echo "ci: $name makes $got allocs/op, over its ceiling of $ceiling" >&2
        exit 1
    fi
    echo "$name: $got allocs/op (ceiling $ceiling)"
done

echo "==> oracle sweep (512 seeds, parallel engine, metrics + seeds/sec floor)"
go build -o artifacts/rchsweep ./cmd/rchsweep
artifacts/rchsweep -mode=oracle -seeds=512 -trace-on-fail \
    -metrics-out artifacts/metrics.oracle.json \
    -min-seeds-per-sec "${RCH_SEEDS_FLOOR:-250}" > artifacts/report.oracle.txt
cat artifacts/report.oracle.txt

echo "==> determinism cross-check matrix (workers=1 vs 2/4/8; oracle, guard, boot)"
for spec in oracle:128 guard:128 boot:5000; do
    mode=${spec%:*} seeds=${spec#*:}
    for workers in 2 4 8; do
        artifacts/rchsweep -mode="$mode" -seeds="$seeds" -workers="$workers" -crosscheck
    done
done

echo "==> guarded chaos sweep (1024 seeds, parallel engine)"
artifacts/rchsweep -mode=guard -seeds=1024 -trace-on-fail \
    -metrics-out artifacts/metrics.guard.json

echo "==> schedule-space exploration gate (corpus, depth 3, exhaustive, metrics; workers=4 vs 1 byte-compare)"
go build -o artifacts/rchexplore ./cmd/rchexplore
for workers in 4 1; do
    if ! artifacts/rchexplore -depth=3 -workers="$workers" \
        -metrics-out "artifacts/metrics.explore.w$workers.json" > "artifacts/report.explore.w$workers.txt"; then
        cat "artifacts/report.explore.w$workers.txt"
        echo "ci: explore gate failed at -workers=$workers" >&2
        exit 1
    fi
done
cat artifacts/report.explore.w4.txt
cmp artifacts/report.explore.w4.txt artifacts/report.explore.w1.txt
cmp artifacts/metrics.explore.w4.json artifacts/metrics.explore.w1.json

echo "==> guard counterfactual + replay determinism"
go test ./internal/oracle -run 'TestGuardSavesRawFailures|TestGuardDeterministic' -count=1

echo "==> profile smoke (32 seeds, cpu + heap pprof non-empty)"
artifacts/rchsweep -mode=oracle -seeds=32 \
    -profile-cpu artifacts/ci.cpu.pprof -profile-heap artifacts/ci.heap.pprof >/dev/null
test -s artifacts/ci.cpu.pprof || { echo "ci: empty cpu profile" >&2; exit 1; }
test -s artifacts/ci.heap.pprof || { echo "ci: empty heap profile" >&2; exit 1; }

echo "==> fleet stage (rchserve: containment, shedding, clean drain)"
go build -o artifacts/rchserve ./cmd/rchserve
rm -f artifacts/rchserve.addr
# Breaker threshold sits above the probe's storm count on purpose: this
# stage proves containment (panics never take a shard down), not
# quarantine — the breaker ladder has its own tests in internal/serve.
artifacts/rchserve -listen=127.0.0.1:0 -port-file=artifacts/rchserve.addr \
    -shards=2 -deadline=200ms -respawn -breaker-threshold=100 \
    -drain-timeout=30s -metrics-prom artifacts/serve.ci.prom \
    2> artifacts/rchserve.ci.log &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    if [ -s artifacts/rchserve.addr ]; then addr=$(cat artifacts/rchserve.addr); break; fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "ci: rchserve never wrote its port file" >&2
    cat artifacts/rchserve.ci.log >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
if ! go run ./scripts/fleetprobe -addr "$addr"; then
    echo "ci: fleet probe failed" >&2
    cat artifacts/rchserve.ci.log >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "ci: rchserve drain exited non-zero (want clean drain, exit 0)" >&2
    cat artifacts/rchserve.ci.log >&2
    exit 1
fi
grep -q "clean drain" artifacts/rchserve.ci.log || { echo "ci: rchserve log has no clean drain" >&2; cat artifacts/rchserve.ci.log >&2; exit 1; }
test -s artifacts/serve.ci.prom || { echo "ci: empty serve metrics flush" >&2; exit 1; }

echo "==> replay stage (rchreplay: seeded diurnal trace through rchserve over TCP at 200x)"
go build -o artifacts/rchreplay ./cmd/rchreplay
artifacts/rchreplay -gen artifacts/ci.trace.log -seed 11 -devices 6 -span-ms 3000 -events-per-device 8
rm -f artifacts/rchserve.addr
artifacts/rchserve -listen=127.0.0.1:0 -port-file=artifacts/rchserve.addr \
    -shards=3 -drain-timeout=30s 2> artifacts/rchserve.replay.log &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    if [ -s artifacts/rchserve.addr ]; then addr=$(cat artifacts/rchserve.addr); break; fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "ci: rchserve never wrote its port file (replay stage)" >&2
    cat artifacts/rchserve.replay.log >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
if ! artifacts/rchreplay -log artifacts/ci.trace.log -addr "$addr" -speed 200 \
    -slo-out artifacts/ci.replay.slo.json -metrics-out artifacts/ci.replay.metrics.json; then
    echo "ci: replay failed" >&2
    cat artifacts/rchserve.replay.log >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "ci: rchserve drain exited non-zero after replay (want clean drain)" >&2
    cat artifacts/rchserve.replay.log >&2
    exit 1
fi
# The SLO report must carry the production surface, machine-readably:
# per-op-class percentiles, the shed map keyed by wire code, the shed
# rate, and the server-side degradation counters.
for field in '"p50_ms"' '"p95_ms"' '"p99_ms"' '"shed"' '"shed_rate"' \
    '"achieved_speed"' '"breaker_opens"' '"guard_quarantines"'; do
    grep -q "$field" artifacts/ci.replay.slo.json \
        || { echo "ci: SLO report missing $field" >&2; cat artifacts/ci.replay.slo.json >&2; exit 1; }
done
grep -q '"replay_log_events_total"' artifacts/ci.replay.metrics.json \
    || { echo "ci: replay canonical metrics missing the log-derived counters" >&2; exit 1; }

echo "==> examples (each run's stdout byte-compared with its output.txt)"
go build -o artifacts/examples/ ./examples/...
for dir in examples/*/; do
    name=$(basename "$dir")
    artifacts/examples/"$name" > "artifacts/examples/$name.txt"
    if ! cmp "artifacts/examples/$name.txt" "examples/$name/output.txt"; then
        echo "ci: examples/$name no longer prints its output.txt" >&2
        diff "examples/$name/output.txt" "artifacts/examples/$name.txt" >&2 || true
        exit 1
    fi
done

echo "==> report (rchreport output byte-compared with REPORT.md)"
go build -o artifacts/rchreport ./cmd/rchreport
artifacts/rchreport > artifacts/REPORT.md
if ! cmp artifacts/REPORT.md REPORT.md; then
    echo "ci: REPORT.md is stale; regenerate it with go run ./cmd/rchreport -o REPORT.md" >&2
    diff REPORT.md artifacts/REPORT.md >&2 || true
    exit 1
fi

echo "ci: all green"
