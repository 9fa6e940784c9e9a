#!/usr/bin/env bash
# Runs the benchmark once per seed on each named workload and appends
# one JSON line per run to a results file, for compare.py:
#
#   bash pdcubench/sweep.sh <results.jsonl> <seconds> <trace> <seeds> <workload>...
#   bash pdcubench/sweep.sh a.jsonl 10 0 "1 2 3 4 5" browse search-scale
#
# Run it from the repository root.
set -euo pipefail
out=$1 seconds=$2 trace=$3 seeds=$4
shift 4
for w in "$@"; do
	for s in $seeds; do
		line=$(bash pdcubench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1)
		echo "{\"workload\": \"$w\", \"seed\": $s, \"result\": $line}" >>"$out"
		echo "$w seed $s done" >&2
	done
done
