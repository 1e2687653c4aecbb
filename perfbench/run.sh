#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs it with the given
# arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload dispute-warm --seed 1 --seconds 50 --trace 0
#
# The build cache and the binary live under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout; the first build takes about half a
# minute.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
# GOTMPDIR and XDG_CONFIG_HOME keep the go command's scratch, config and
# telemetry files in here too.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
