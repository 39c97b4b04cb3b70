#!/bin/bash
# Sequential experiment schedule sized for a single-CPU budget box.
# Full 900 s runs where affordable, 600 s elsewhere; trials reduced from
# the paper's 10 (recorded in EXPERIMENTS.md). One runner, one sweep
# dir: a killed schedule resumes where it stopped, and table1 reuses
# whatever cells the figures at the same scale already ran.
set -x
cd "$(dirname "$0")/.." || exit 1
B="cargo run --release -q -p ldr-bench --bin sweepbench -- --full --grid"
$B fig2 --trials 3                                       > results/fig2.txt
$B fig7 --trials 3 --duration 600                        > results/fig7.txt
$B table1 --trials 2 --duration 600 --pauses 0,120,600   > results/table1.txt
$B fig3 --trials 2 --duration 600 --pauses 0,120,600,900 > results/fig3.txt
$B fig4 --trials 3 --duration 600                        > results/fig4.txt
$B fig5 --trials 2 --duration 600 --pauses 0,120,600,900 > results/fig5.txt
$B fig6 --trials 2 --duration 600 --pauses 0,120,600,900 > results/fig6.txt
$B ablation --trials 3 --duration 900 --pauses 0,120,600 > results/ablation.txt
