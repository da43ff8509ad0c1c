#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload:
#
#   bash perfbench/run.sh --workload link|sensing|ingest|campaign \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, the binary, per-run state directories, the span file of
# a traced run) lands under $CARGO_TARGET_DIR, .bench_build by default, so
# the run touches nothing outside the checkout. Outside a full checkout the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"

# The go command's cache, temp files, module cache and its config and
# telemetry directory (under XDG_CONFIG_HOME) all stay in the checkout.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomod GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
