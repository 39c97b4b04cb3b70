#!/bin/bash
# Sequential experiment schedule sized for a single-CPU budget box: the
# runs behind every number EXPERIMENTS.md quotes, one line per row of
# its "sweepbench arguments" table. Full 900 s runs where affordable,
# 600 s elsewhere; trials reduced from the paper's 10. One runner, one
# sweep dir: a killed schedule resumes where it stopped, and table1
# reuses whatever cells the figures at the same scale already ran.
# Outputs go to results/out/ (git-ignored; results/README.md says why).
set -x
cd "$(dirname "$0")/.." || exit 1
B="cargo run --release -q -p ldr-bench --bin sweepbench -- --full --grid"
O=results/out
mkdir -p "$O"
$B fig2 --trials 5                                          > "$O/fig2.txt"
$B fig7 --trials 3                                          > "$O/fig7_900s.txt"
$B fig7 --trials 3 --duration 600                           > "$O/fig7_600s.txt"
$B table1 --trials 2 --duration 600 --pauses 0,120,600      > "$O/table1.txt"
$B fig3 --trials 2 --duration 600 --pauses 0,120,600,900    > "$O/fig3.txt"
$B fig4 --trials 3 --duration 600                           > "$O/fig4.txt"
$B fig5 --trials 2 --duration 600 --pauses 0,120,600,900    > "$O/fig5.txt"
$B fig6 --trials 2 --duration 600 --pauses 0,120,600,900    > "$O/fig6.txt"
$B ablation --trials 3 --duration 900 --pauses 0,120,600    > "$O/ablation.txt"
$B loopcheck --trials 2 --duration 600 --pauses 0,120,600   > "$O/loopcheck.txt"
