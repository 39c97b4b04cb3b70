//! Full-trial pooled-vs-unpooled differential at the paper's two
//! population scales: recycling hot-path buffers through the kernel's
//! free lists ([`manet_sim::pool`]) must produce `Metrics`-equal runs
//! (every counter, every float sum, bit for bit) for all four paper
//! protocols on the same seed — and, on the strictest observable, the
//! full rendered trace and series JSONL documents must match byte for
//! byte.
//!
//! This is the end-to-end counterpart of the unit-level pool tests in
//! `manet_sim::pool` and `manet_sim::world`: the whole kernel — RREQ
//! floods, MAC contention, mobility, tracing — running on recycled
//! action buffers and receiver batches. Durations are shortened
//! (debug builds are an order of magnitude slower than the release
//! benchmark), but both trials still cross many route-repair cycles
//! and push every pooled buffer through thousands of take/put rounds.

use ldr_bench::runner::{run_once_faulted, run_world, trial_fault_plan};
use ldr_bench::scenario::{Protocol, Scenario};
use ldr_bench::telemetry_export::render_run;

fn assert_pooled_matches_unpooled(mut scenario: Scenario, duration_secs: u64, seed: u64) {
    scenario.duration_secs = duration_secs;
    for protocol in Protocol::PAPER_SET {
        let mut pooled_sc = scenario.clone();
        pooled_sc.recycle_pools = true;
        let p = run_world(protocol, &pooled_sc, seed, None);
        let mut fresh_sc = scenario.clone();
        fresh_sc.recycle_pools = false;
        let f = run_world(protocol, &fresh_sc, seed, None);
        assert!(p.metrics().data_originated > 0, "{}: silent run", protocol.name());
        assert_eq!(
            p.events_executed(),
            f.events_executed(),
            "{}: event count diverged",
            protocol.name()
        );
        assert_eq!(
            p.metrics(),
            f.metrics(),
            "{} diverged between pooled and allocate-per-event at {} nodes (seed {seed})",
            protocol.name(),
            scenario.n_nodes,
        );
    }
}

#[test]
fn paper_50_node_scenario_is_metrics_identical_with_pooling() {
    assert_pooled_matches_unpooled(Scenario::n50(10, 0), 10, 9101);
}

#[test]
fn paper_100_node_scenario_is_metrics_identical_with_pooling() {
    assert_pooled_matches_unpooled(Scenario::n100(30, 0), 6, 9102);
}

#[test]
fn faulted_paper_runs_replay_identically_with_pooling() {
    // Crash + churn + partition + impairment schedule (level 2): fault
    // application resets protocol state mid-run, so recycled buffers
    // cross crash/restart boundaries too.
    let mut scenario = Scenario::n50(10, 0);
    scenario.duration_secs = 10;
    let seed = 9103;
    let plan = trial_fault_plan(&scenario, seed, 2);
    assert!(!plan.is_empty(), "level 2 must inject faults");
    for protocol in [Protocol::Ldr, Protocol::Aodv] {
        let mut pooled_sc = scenario.clone();
        pooled_sc.recycle_pools = true;
        let p = run_once_faulted(protocol, &pooled_sc, seed, Some(plan.clone()));
        let mut fresh_sc = scenario.clone();
        fresh_sc.recycle_pools = false;
        let f = run_once_faulted(protocol, &fresh_sc, seed, Some(plan.clone()));
        assert_eq!(p, f, "{}: faulted pooled run diverged", protocol.name());
    }
}

#[test]
fn telemetry_jsonl_documents_are_byte_identical_with_pooling() {
    // The strictest observable: the full rendered trace and series
    // JSONL documents (every emission, every sample, every float
    // formatted) must match byte for byte, for both paper topologies.
    for (mut scenario, duration, seed) in
        [(Scenario::n50(10, 0), 8, 9104u64), (Scenario::n100(30, 0), 5, 9105u64)]
    {
        scenario.duration_secs = duration;
        for protocol in Protocol::PAPER_SET {
            scenario.recycle_pools = true;
            let p = render_run(protocol, &scenario, seed, None);
            assert!(p.trace.lines().count() > 10, "trace too quiet to be meaningful");
            scenario.recycle_pools = false;
            let f = render_run(protocol, &scenario, seed, None);
            assert_eq!(p.metrics, f.metrics, "{}: metrics diverged", protocol.name());
            assert_eq!(p.trace, f.trace, "{}: trace JSONL diverged", protocol.name());
            assert_eq!(p.series, f.series, "{}: series JSONL diverged", protocol.name());
        }
    }
}
