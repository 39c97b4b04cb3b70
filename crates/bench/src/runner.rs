//! Executes one scenario trial: a deterministic run per `(protocol,
//! scenario, seed, fault plan)`. Anything that runs more than one
//! trial goes through [`crate::sweep::run_sweep`].

use crate::scenario::{Protocol, Scenario};
use manet_sim::config::SimConfig;
use manet_sim::faults::FaultPlan;
use manet_sim::metrics::Metrics;
use manet_sim::mobility::RandomWaypoint;
use manet_sim::rng::SimRng;
use manet_sim::telemetry::TelemetryConfig;
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::world::World;

/// Runs one trial and returns its metrics. Fully deterministic in
/// `(protocol, scenario, seed)`.
pub fn run_once(protocol: Protocol, scenario: &Scenario, seed: u64) -> Metrics {
    run_once_faulted(protocol, scenario, seed, None)
}

/// Runs one trial under an optional deterministic fault schedule.
/// Fully deterministic in `(protocol, scenario, seed, plan)`.
pub fn run_once_faulted(
    protocol: Protocol,
    scenario: &Scenario,
    seed: u64,
    plan: Option<FaultPlan>,
) -> Metrics {
    run_world(protocol, scenario, seed, plan).into_metrics()
}

/// Builds the fully-configured (but not yet run) world for one trial.
pub fn build_world(
    protocol: Protocol,
    scenario: &Scenario,
    seed: u64,
    plan: Option<FaultPlan>,
) -> World {
    build_world_telemetry(protocol, scenario, seed, plan, None)
}

/// Like [`build_world`], with the observation-pure telemetry layer
/// (the time-series sampler) configured. Attaching a trace sink is the
/// caller's job ([`World::set_trace`]).
///
/// [`World::set_trace`]: manet_sim::world::World::set_trace
pub fn build_world_telemetry(
    protocol: Protocol,
    scenario: &Scenario,
    seed: u64,
    plan: Option<FaultPlan>,
    telemetry: Option<TelemetryConfig>,
) -> World {
    let cfg = SimConfig {
        phy: scenario.flavor.phy(),
        duration: SimDuration::from_secs(scenario.duration_secs),
        seed,
        audit_interval: scenario.audit.then(|| SimDuration::from_secs(1)),
        invariant_audit: false,
        fault_plan: plan,
        telemetry,
        profile: scenario.profile,
    };
    let mobility = RandomWaypoint::new(
        scenario.n_nodes,
        scenario.terrain(),
        SimDuration::from_secs(scenario.pause_secs),
        1.0,
        20.0,
        SimRng::stream(seed, "mobility"),
    );
    let mut factory = protocol.factory();
    let mut world = World::new(cfg, Box::new(mobility), |id, n| factory(id, n));
    world.with_cbr(scenario.n_flows);
    world
}

/// The fault schedule trial `seed` runs at intensity `level`: random,
/// but a pure function of `(scenario, seed, level)`, and shared across
/// protocols so the comparison is apples-to-apples.
pub fn trial_fault_plan(scenario: &Scenario, seed: u64, level: u32) -> FaultPlan {
    FaultPlan::random(
        &mut SimRng::stream(seed, "faultbench-plan"),
        scenario.n_nodes as u16,
        SimDuration::from_secs(scenario.duration_secs),
        level,
    )
}

/// The seed trial `k` of a scenario runs at: `seed_base` advanced by
/// `k` with **wrapping** arithmetic. The pre-PR-9 `seed_base + k`
/// overflowed (a debug-build abort, and UB-adjacent silent wrap in
/// release) when `seed_base` sat near `u64::MAX`; wrapping is the
/// intended modular semantics, and distinct trials always get distinct
/// seeds because the offsets `0..trials` are distinct modulo 2⁶⁴.
pub fn trial_seed(seed_base: u64, k: u32) -> u64 {
    seed_base.wrapping_add(u64::from(k))
}

/// Runs one trial to completion and hands back the finished world, so
/// the caller can read kernel counters ([`World::events_executed`])
/// next to [`World::metrics`].
pub fn run_world(
    protocol: Protocol,
    scenario: &Scenario,
    seed: u64,
    plan: Option<FaultPlan>,
) -> World {
    let mut world = build_world(protocol, scenario, seed, plan);
    world.run_until(SimTime::ZERO + SimDuration::from_secs(scenario.duration_secs));
    world.finalize();
    world
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(protocol: Protocol) -> Metrics {
        let scenario = Scenario {
            n_nodes: 20,
            terrain: (800.0, 300.0),
            duration_secs: 60,
            trials: 1,
            seed_base: 7,
            audit: true,
            ..Scenario::n50(4, 30)
        };
        run_once(protocol, &scenario, 7)
    }

    #[test]
    fn every_protocol_delivers_in_a_small_mobile_network() {
        for p in Protocol::PAPER_SET {
            let m = tiny(p);
            assert!(m.data_originated > 100, "{}: no traffic originated", p.name());
            assert!(
                m.delivery_ratio() > 0.5,
                "{} delivered only {:.1}% ({} of {})",
                p.name(),
                m.delivery_ratio() * 100.0,
                m.data_delivered,
                m.data_originated
            );
        }
    }

    #[test]
    fn ldr_runs_loop_free() {
        let m = tiny(Protocol::Ldr);
        assert_eq!(m.loop_violations, 0, "LDR must be loop-free at every audit");
    }

    #[test]
    fn runs_are_deterministic() {
        let scenario = Scenario { duration_secs: 30, trials: 1, ..Scenario::n50(4, 0) };
        let a = run_once(Protocol::Ldr, &scenario, 3);
        let b = run_once(Protocol::Ldr, &scenario, 3);
        assert_eq!(a.data_delivered, b.data_delivered);
        assert_eq!(a.total_control_tx(), b.total_control_tx());
        assert_eq!(a.collisions, b.collisions);
    }

    fn small_audited() -> Scenario {
        Scenario {
            n_nodes: 15,
            terrain: (700.0, 300.0),
            duration_secs: 40,
            trials: 2,
            seed_base: 100,
            audit: true,
            ..Scenario::n50(3, 0)
        }
    }

    #[test]
    fn fault_level_zero_is_empty_and_matches_the_fault_free_trial() {
        // The sweep always passes a plan; level 0 must be a no-op.
        let scenario = small_audited();
        let plan = trial_fault_plan(&scenario, scenario.seed_base, 0);
        assert!(plan.is_empty());
        let faulted = run_once_faulted(Protocol::Ldr, &scenario, scenario.seed_base, Some(plan));
        assert_eq!(faulted.faults_injected, 0);
        assert_eq!(faulted, run_once(Protocol::Ldr, &scenario, scenario.seed_base));
    }

    #[test]
    fn fault_trials_are_deterministic_and_protocol_agnostic() {
        let scenario = small_audited();
        // The per-trial plan depends only on (scenario, seed, level),
        // never the protocol, so every row faces the same schedule.
        let p1 = trial_fault_plan(&scenario, 107, 2);
        let p2 = trial_fault_plan(&scenario, 107, 2);
        assert!(!p1.is_empty());
        assert_eq!(p1.entries(), p2.entries());
        let a = run_once_faulted(Protocol::Aodv, &scenario, 107, Some(p1));
        let b = run_once_faulted(Protocol::Aodv, &scenario, 107, Some(p2));
        assert!(a.faults_injected > 0, "level 2 must actually inject faults");
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_near_u64_max_wrap_without_panicking_or_colliding() {
        // The pre-PR-9 derivation `seed_base + k` aborted here in
        // debug builds and silently wrapped in release. Wrapping is
        // now the contract, and the seeds must stay pairwise distinct
        // across the boundary.
        let seeds: Vec<u64> = (0..4).map(|k| trial_seed(u64::MAX - 1, k)).collect();
        assert_eq!(seeds, vec![u64::MAX - 1, u64::MAX, 0, 1]);
        assert_eq!(trial_seed(u64::MAX, 1), 0);
    }
}
