//! Full-trial grid-vs-linear differential at the paper's two
//! population scales: the 50- and 100-node scenarios must produce
//! `Metrics`-equal runs (every counter, every float sum, bit for bit)
//! with the spatial neighbor grid on and off, for all four paper
//! protocols on the same seed.
//!
//! This is the end-to-end counterpart of the unit-level differential
//! tests in `manet_sim::spatial`: the whole kernel — propagation, MAC,
//! routing, traffic, tracing — running on top of the index. Durations
//! are shortened (debug builds are an order of magnitude slower than
//! the release benchmark), but both trials still cross many grid
//! rebuild epochs and route-repair cycles.

use ldr_bench::runner::run_once;
use ldr_bench::scenario::{Protocol, Scenario};

fn assert_grid_matches_linear(mut scenario: Scenario, duration_secs: u64, seed: u64) {
    scenario.duration_secs = duration_secs;
    for protocol in Protocol::PAPER_SET {
        let mut grid_sc = scenario.clone();
        grid_sc.spatial_grid = true;
        let g = run_once(protocol, &grid_sc, seed);
        let mut lin_sc = scenario.clone();
        lin_sc.spatial_grid = false;
        let l = run_once(protocol, &lin_sc, seed);
        assert!(g.data_originated > 0, "{}: silent run", protocol.name());
        assert_eq!(
            g,
            l,
            "{} diverged between grid and linear at {} nodes (seed {seed})",
            protocol.name(),
            scenario.n_nodes,
        );
    }
}

#[test]
fn paper_50_node_scenario_is_metrics_identical() {
    assert_grid_matches_linear(Scenario::n50(10, 0), 12, 4101);
}

#[test]
fn paper_100_node_scenario_is_metrics_identical() {
    assert_grid_matches_linear(Scenario::n100(30, 0), 8, 4102);
}
