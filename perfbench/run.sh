#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs one
# workload:
#
#   bash perfbench/run.sh --workload ci-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout,
# under .bench_build/ (Go build cache, temp dirs, the binary, traces and
# profiles). The toolchain is used offline: no module is fetched.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ]; then
    echo "perfbench: no go.mod in $root: the benchmark must run inside a full checkout" >&2
    exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
    GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
    GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go -C "$root/perfbench" build -o "$out/perfbench" .
commit=unknown
if [ -d "$root/.git" ]; then
    commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
cd "$root"
PERFBENCH_COMMIT="$commit" exec "$out/perfbench" "$@"
