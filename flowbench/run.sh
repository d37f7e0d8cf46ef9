#!/usr/bin/env bash
# Builds flow_bench and the gcrd daemon from source (release profile), then
# runs one workload. Run from the repository root:
#
#   bash flowbench/run.sh --workload route-r4 --seed 1998 --seconds 10 --trace 0
#
# Cargo's output goes to stderr; the last line of stdout is the result.
set -euo pipefail

bench_dir="$(dirname "$0")"
cargo build --release --quiet --offline --manifest-path "$bench_dir/Cargo.toml" 1>&2
exec "${CARGO_TARGET_DIR:-$bench_dir/target}/release/flow_bench" "$@"
