#!/usr/bin/env bash
# Builds pdcu and the benchmark from the source tree the command is run
# in, then runs one workload:
#
#   bash pdcubench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOENV=off
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/pdcu" ./cmd/pdcu
(cd pdcubench && go build -o "$out/pdcubench" .)
exec "$out/pdcubench" -pdcu "$out/pdcu" -dir "$out/run-$$" "$@"
