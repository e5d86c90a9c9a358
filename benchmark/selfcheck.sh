#!/usr/bin/env bash
# Runs the whole benchmark twice on one build and fails if the two runs
# disagree: an end-to-end metric by more than its bound, an exact-repeat
# count or model.* value at all. Prints the observed difference per metric.
# Arguments (--seed N, --only NAME, --seconds S) go to both runs.
set -euo pipefail
dir=$(dirname "$0")
"$dir/run.sh" "$@" --out "$dir/out/selfcheck-a"
"$dir/run.sh" "$@" --out "$dir/out/selfcheck-b"
"$dir/run.sh" --compare "$dir/out/selfcheck-a/metrics.json" "$dir/out/selfcheck-b/metrics.json"
