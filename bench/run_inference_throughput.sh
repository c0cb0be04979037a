#!/usr/bin/env bash
# Measures whole-table inference throughput (naive vs the engine's
# memoized, length-sorted sweep) on all six generators and writes
# BENCH_inference.json next to the repo root (or $1).
#
#   bench/run_inference_throughput.sh [output.json] [extra bench flags...]
#
# Assumes the project is configured in ./build (cmake -B build -S .).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"
out="${1:-$repo_root/BENCH_inference.json}"
shift || true

# Inference-only sweeps are cheap enough to run at the paper's Table 2 row
# counts (--scale=1); pass an explicit --scale to override.
cmake --build "$build_dir" --target bench_inference_throughput -j
"$build_dir/bench/bench_inference_throughput" --scale=1 --json="$out" "$@"
echo "inference results: $out"
