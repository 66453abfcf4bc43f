#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload factor_large --seed 1 --seconds 10 --trace 0
#
# All build state (Go build cache, temporary files, the binary) stays under
# .bench_build/ in the current directory, so nothing outside the checkout is
# written. A tree without the library next to perfbench/ fails to build and
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C "$root/perfbench" build -trimpath -o "$build/perfbench" . >&2

if [ -z "${BENCH_COMMIT:-}" ] && [ -d "$root/.git" ]; then
  BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi
# Outside a git checkout, name the source by a hash of its Go and module
# files instead.
if [ -z "${BENCH_COMMIT:-}" ]; then
  BENCH_COMMIT="src-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
    LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
export BENCH_COMMIT
exec "$build/perfbench" "$@"
