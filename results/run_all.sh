#!/bin/bash
# Sequential experiment schedule sized for a single-CPU budget box.
# Full 900 s runs where affordable, 600 s elsewhere; trials reduced from
# the paper's 10 (recorded in EXPERIMENTS.md). One runner, one sweep
# dir: a killed schedule resumes where it stopped, and table1 reuses
# whatever cells the figures at the same scale already ran.
set -x
cd "$(dirname "$0")/.." || exit 1
B="cargo run --release -q -p ldr-bench --bin sweepbench -- --full --grid"
$B fig2 --trials 3                                       > results/fig2.txt 2> results/fig2.log
$B fig7 --trials 3 --duration 600                        > results/fig7.txt 2> results/fig7.log
$B table1 --trials 2 --duration 600 --pauses 0,120,600   > results/table1.txt 2> results/table1.log
$B fig3 --trials 2 --duration 600 --pauses 0,120,600,900 > results/fig3.txt 2> results/fig3.log
$B fig4 --trials 3 --duration 600                        > results/fig4.txt 2> results/fig4.log
$B fig5 --trials 2 --duration 600 --pauses 0,120,600,900 > results/fig5.txt 2> results/fig5.log
$B fig6 --trials 2 --duration 600 --pauses 0,120,600,900 > results/fig6.txt 2> results/fig6.log
$B ablation --trials 3 --duration 900 --pauses 0,120,600 > results/ablation.txt 2> results/ablation.log
echo DONE > results/ALL_DONE
