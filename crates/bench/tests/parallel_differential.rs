//! Full-trial parallel-vs-sequential differential at the paper's two
//! population scales: for all four paper protocols on the same seed,
//! the deterministic parallel event kernel (`manet_sim::parallel`)
//! must produce `Metrics`-equal runs (every counter, every float sum,
//! bit for bit) at every worker count — the paper scenarios are the
//! workload the whole benchmark suite rests on.
//!
//! This is the end-to-end counterpart of the unit-level differential
//! tests in `manet_sim::parallel` (which also engineer topologies
//! where the fan-out provably engages): the whole stack — RREQ floods,
//! MAC contention, mobility, tracing — running through the window
//! driver. Durations are shortened (debug builds are an order of
//! magnitude slower than the release benchmark), but both trials still
//! cross many route-repair cycles.
//!
//! Note the paper terrains are dense (1500 m × 300 m at a 275 m radio
//! range), so most windows collapse to a single spatial component and
//! run on the sequential path — which is itself the property under
//! test: the kernel must *choose* correctly, not just merge correctly.

use ldr_bench::runner::{run_once_faulted, run_world, trial_fault_plan};
use ldr_bench::scenario::{Protocol, Scenario};
use ldr_bench::telemetry_export::render_run;

fn assert_workers_match_sequential(mut scenario: Scenario, duration_secs: u64, seed: u64) {
    scenario.duration_secs = duration_secs;
    for protocol in Protocol::PAPER_SET {
        let mut seq_sc = scenario.clone();
        seq_sc.workers = 1;
        let s = run_world(protocol, &seq_sc, seed, None);
        assert!(s.metrics().data_originated > 0, "{}: silent run", protocol.name());
        for workers in [2, 8] {
            let mut par_sc = scenario.clone();
            par_sc.workers = workers;
            let p = run_world(protocol, &par_sc, seed, None);
            assert_eq!(
                p.events_executed(),
                s.events_executed(),
                "{}: event count diverged",
                protocol.name()
            );
            assert_eq!(
                p.metrics(),
                s.metrics(),
                "{} diverged at {} workers, {} nodes (seed {seed})",
                protocol.name(),
                workers,
                scenario.n_nodes,
            );
        }
    }
}

#[test]
fn paper_50_node_scenario_is_metrics_identical_in_parallel() {
    assert_workers_match_sequential(Scenario::n50(10, 0), 10, 6101);
}

#[test]
fn paper_100_node_scenario_is_metrics_identical_in_parallel() {
    assert_workers_match_sequential(Scenario::n100(30, 0), 6, 6102);
}

#[test]
fn faulted_paper_runs_replay_identically_in_parallel() {
    // Crash + churn + partition + impairment schedule (level 2), LDR
    // and AODV: fault application, node-down gating and the
    // impairment-forces-sequential rule all under the window driver.
    let mut scenario = Scenario::n50(10, 0);
    scenario.duration_secs = 10;
    let seed = 6103;
    let plan = trial_fault_plan(&scenario, seed, 2);
    assert!(!plan.is_empty(), "level 2 must inject faults");
    for protocol in [Protocol::Ldr, Protocol::Aodv] {
        let mut seq_sc = scenario.clone();
        seq_sc.workers = 1;
        let s = run_once_faulted(protocol, &seq_sc, seed, Some(plan.clone()));
        let mut par_sc = scenario.clone();
        par_sc.workers = 4;
        let p = run_once_faulted(protocol, &par_sc, seed, Some(plan.clone()));
        assert_eq!(p, s, "{}: faulted parallel run diverged", protocol.name());
    }
}

#[test]
fn telemetry_jsonl_documents_are_byte_identical_in_parallel() {
    // The strictest observable: the full rendered trace and series
    // JSONL documents (every emission, every sample, every float
    // formatted) must match byte for byte.
    let mut scenario = Scenario::n50(10, 0);
    scenario.duration_secs = 8;
    let seed = 6104;
    scenario.workers = 1;
    let s = render_run(Protocol::Ldr, &scenario, seed, None);
    assert!(s.trace.lines().count() > 10, "trace too quiet to be meaningful");
    scenario.workers = 4;
    let p = render_run(Protocol::Ldr, &scenario, seed, None);
    assert_eq!(p.metrics, s.metrics, "metrics diverged");
    assert_eq!(p.trace, s.trace, "trace JSONL diverged");
    assert_eq!(p.series, s.series, "series JSONL diverged");
}

#[test]
fn randomized_small_worlds_are_identical_across_worker_counts() {
    // Seed-derived random scenario sweep (a lightweight proptest): the
    // differential must hold on arbitrary small configurations, not
    // just the hand-picked ones.
    for case in 0u64..4 {
        let seed = 7000 + case * 31;
        let scenario = Scenario {
            n_nodes: 16 + (case as usize % 3) * 12,
            terrain: (900.0 + 1400.0 * case as f64, 300.0),
            n_flows: 3 + case as usize,
            pause_secs: if case % 2 == 0 { 0 } else { 20 },
            duration_secs: 8,
            trials: 1,
            seed_base: seed,
            flavor: ldr_bench::scenario::SimFlavor::Default,
            audit: false,
            spatial_grid: case % 2 == 0,
            workers: 1,
            recycle_pools: true,
            profile: false,
        };
        let s = run_world(Protocol::Ldr, &scenario, seed, None);
        for workers in [2, 4, 8] {
            let mut par_sc = scenario.clone();
            par_sc.workers = workers;
            let p = run_world(Protocol::Ldr, &par_sc, seed, None);
            assert_eq!(
                p.metrics(),
                s.metrics(),
                "case {case} (seed {seed}) diverged at {workers} workers"
            );
            assert_eq!(
                p.events_executed(),
                s.events_executed(),
                "case {case}: event count diverged"
            );
        }
    }
}
