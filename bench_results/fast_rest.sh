#!/bin/bash
# Remaining harnesses with 1-core budgets (the full-protocol variants are
# one --paper-fidelity flag away; see EXPERIMENTS.md).
cd "$(dirname "$0")"
B=../build/bench
set -x
$B/bench_table5_train_time --reps 2 --epochs 35                          2>>progress.log
$B/bench_fig6_test_accuracy --datasets=hospital,flights,beers --reps 2 --epochs 40 --eval-cells 400 2>>progress.log
$B/bench_fig7_train_test    --datasets=hospital,flights,beers --reps 2 --epochs 40 --eval-cells 400 2>>progress.log
$B/bench_ablation_samplers  --datasets=beers,hospital,rayyan --reps 2 --epochs 35 2>>progress.log
$B/bench_ablation_truncation --reps 1 --epochs 35                        2>>progress.log
$B/bench_ablation_architecture --reps 1 --epochs 35                      2>>progress.log
$B/bench_ablation_cell_type --reps 1 --epochs 35                         2>>progress.log
$B/bench_error_analysis --reps 1 --epochs 35                             2>>progress.log
$B/bench_micro_nn --benchmark_min_time=0.1                               2>>progress.log
