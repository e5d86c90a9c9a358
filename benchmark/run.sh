#!/usr/bin/env bash
# The repo benchmark: builds benchmark/ (offline, release) and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last stdout line is the result object
#   benchmark/run.sh [--seed N] [--seconds S] [--only NAME]
#       every workload, untraced then traced; writes benchmark/out/
#
# See benchmark/README.md and BENCHMARK.json.
set -euo pipefail
dir=$(dirname "$0")
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$dir/target}/release/rlb-benchmark" --out "$dir/out" "$@"
