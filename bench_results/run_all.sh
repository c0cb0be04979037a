#!/bin/bash
# Full evaluation sweep. Flags chosen for a 1-core machine; see
# EXPERIMENTS.md for the configuration rationale. --paper-fidelity
# reproduces the paper's exact protocol when more hardware is available.
cd "$(dirname "$0")"
B=../build/bench
set -x
$B/bench_table2_datasets                                       2>progress.log
$B/bench_table3_comparison                                     2>>progress.log
$B/bench_table4_aggregate                                      2>>progress.log
$B/bench_table5_train_time    --reps 2 --epochs 60             2>>progress.log
$B/bench_fig6_test_accuracy   --reps 2 --epochs 60 --eval-cells 800  2>>progress.log
$B/bench_fig7_train_test      --reps 2 --epochs 60 --eval-cells 800  2>>progress.log
$B/bench_ablation_samplers    --reps 2                         2>>progress.log
$B/bench_ablation_truncation  --reps 2                         2>>progress.log
$B/bench_ablation_architecture --reps 2                        2>>progress.log
$B/bench_ablation_cell_type   --reps 2 --epochs 40             2>>progress.log
$B/bench_micro_nn --benchmark_min_time=0.2                    2>>progress.log
