#!/usr/bin/env bash
# Builds the benchmark and spacx-serve from the checkout it is run in, then
# runs one workload. Run from the repository root:
#
#	bash perfbench/run.sh --workload serve-miss --seed 1 --seconds 10 --trace 0
#
# Every build artefact, the Go build cache and the traced run's span files
# stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
go build -o "$build/bin/spacx-serve" ./cmd/spacx-serve >&2

exec "$build/bin/perfbench" -root "$root" -serve "$build/bin/spacx-serve" -out "$build/spans" "$@"
