#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout as `bash bench/run.sh --workload <name> --seed <n> --seconds <s>
# --trace <0|1>`; everything it writes (build cache, binary, span files,
# scratch data) stays inside the checkout.
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/centralium-bench" .)
cd "$root"
exec "$build/centralium-bench" -out "$here/out" "$@"
