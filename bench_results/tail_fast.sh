#!/bin/bash
# Minimal-budget fallback for the last harnesses (used if the session's
# wall clock runs out before fast_rest.sh completes them).
cd "$(dirname "$0")"
B=../build/bench
set -x
$B/bench_ablation_samplers  --datasets=hospital,beers --reps 1 --epochs 30 2>>progress.log
$B/bench_ablation_truncation --datasets=movies --reps 1 --epochs 25 --lengths=16,64,128 2>>progress.log
$B/bench_ablation_architecture --datasets=hospital --reps 1 --epochs 30  2>>progress.log
$B/bench_ablation_cell_type --datasets=hospital --reps 1 --epochs 25     2>>progress.log
$B/bench_error_analysis --reps 1 --epochs 30                             2>>progress.log
$B/bench_micro_nn --benchmark_min_time=0.1                               2>>progress.log
