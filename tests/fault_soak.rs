//! Fault-injection soak: LDR's loop-freedom invariants must survive
//! randomized crash/churn/partition/impairment schedules, the same
//! harness must reproduce AODV's known restart unsoundness, and every
//! faulted trial must replay byte-identically from `(FaultPlan, seed)`.
//!
//! The schedules come from a proptest `Strategy` over [`FaultPlan`], so
//! a failing schedule shrinks (entries are dropped until the minimal
//! provoking suffix remains) and its seed is persisted under
//! `proptest-regressions/`.

use ldr::{Ldr, LdrConfig};
use manet_baselines::{Aodv, AodvConfig};
use manet_sim::config::SimConfig;
use manet_sim::faults::{FaultAction, FaultPlan};
use manet_sim::geometry::{Position, Terrain};
use manet_sim::metrics::Metrics;
use manet_sim::mobility::{RandomWaypoint, StaticMobility};
use manet_sim::packet::NodeId;
use manet_sim::rng::SimRng;
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::trace::MemoryTrace;
use manet_sim::world::World;
use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use std::sync::{Arc, Mutex};

/// Generates seeded random [`FaultPlan`]s at graded intensities.
/// Shrinking drops schedule entries — a failing fault schedule
/// minimises to the provoking actions instead of dumping the raw plan.
#[derive(Clone, Debug)]
struct FaultPlanStrategy {
    nodes: u16,
    horizon: SimDuration,
    max_level: u32,
}

impl Strategy for FaultPlanStrategy {
    type Value = FaultPlan;

    fn generate(&self, rng: &mut TestRng) -> FaultPlan {
        let seed = rng.next_u64();
        let level = 1 + rng.below(u64::from(self.max_level)) as u32;
        FaultPlan::random(&mut SimRng::stream(seed, "fault-plan"), self.nodes, self.horizon, level)
    }

    fn shrink(&self, value: &FaultPlan) -> Vec<FaultPlan> {
        let entries = value.entries();
        let n = entries.len();
        let mut out = Vec::new();
        if n == 0 {
            return out;
        }
        out.push(FaultPlan::default());
        if n > 1 {
            out.push(FaultPlan::new(entries[..n / 2].to_vec()));
            out.push(FaultPlan::new(entries[n / 2..].to_vec()));
        }
        for i in 0..n.min(12) {
            let mut e = entries.to_vec();
            e.remove(i);
            out.push(FaultPlan::new(e));
        }
        out
    }
}

const SOAK_NODES: usize = 10;
const SOAK_SECS: u64 = 15;

/// One faulted LDR trial over a small mobile world with the
/// every-mutation invariant auditor armed.
fn ldr_faulted_run(seed: u64, plan: FaultPlan, flows: usize) -> Metrics {
    let cfg = SimConfig {
        duration: SimDuration::from_secs(SOAK_SECS),
        seed,
        audit_interval: Some(SimDuration::from_millis(500)),
        invariant_audit: true,
        fault_plan: Some(plan),
        ..SimConfig::default()
    };
    let mobility = RandomWaypoint::new(
        SOAK_NODES,
        Terrain::new(900.0, 300.0),
        SimDuration::from_secs(5),
        1.0,
        20.0,
        SimRng::stream(seed, "mobility"),
    );
    let mut world = World::new(cfg, Box::new(mobility), Ldr::factory(LdrConfig::default()));
    world.with_cbr(flows);
    world.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The tentpole soak obligation: across ≥200 random fault schedules
    /// (crashes, link churn, partitions, loss/corruption, replayed
    /// stale adverts), LDR's tables never assemble a routing loop and
    /// never raise a feasible distance under an unchanged sequence
    /// number. Both are checked after every table mutation by the
    /// invariant auditor, with restarts attributed honestly (a wiped
    /// incarnation resets the fd baseline instead of counting as a
    /// breach).
    #[test]
    fn ldr_survives_random_fault_schedules(
        seed in 1u64..100_000,
        plan in FaultPlanStrategy {
            nodes: SOAK_NODES as u16,
            horizon: SimDuration::from_secs(SOAK_SECS),
            max_level: 3,
        },
        flows in 2usize..5,
    ) {
        let m = ldr_faulted_run(seed, plan, flows);
        prop_assert_eq!(m.loop_violations, 0, "LDR built a routing loop under faults");
        prop_assert_eq!(m.invariant_breaches, 0, "fd-monotonicity / acyclicity breached under faults");
    }
}

/// The deterministic restart-unsoundness fixture, shared by the AODV
/// witness and its LDR control below.
///
/// Topology (unit disk, 275 m): a chain `0—1—2—3` at 200 m spacing plus
/// a spur node 4 at (200, 250), in range of node 1 only.
///
/// ```text
///         4
///         |
///   0 --- 1 --- 2 --- 3
/// ```
///
/// Script: node 4 discovers a route to 3 (installing `3 via 1` at the
/// spur), node 1 then crashes with total state loss while the `2—3`
/// link is administratively cut; node 2's route to 3 dies honestly (its
/// forwarding fails and the resulting RERR is addressed to the crashed
/// node), but node 4's stale route survives. When the restarted,
/// amnesiac node 1 re-requests a route to 3, the only possible answer
/// is node 4's stale advertisement — whose route points back through
/// node 1.
fn restart_fixture_world(
    factory: impl FnMut(NodeId, usize) -> Box<dyn manet_sim::protocol::RoutingProtocol> + 'static,
    seed: u64,
) -> World {
    let plan = FaultPlan::new(vec![
        (
            SimTime::from_millis(2000),
            FaultAction::CrashRestart { node: NodeId(1), downtime: SimDuration::from_secs(1) },
        ),
        (SimTime::from_millis(2200), FaultAction::LinkDown { a: NodeId(2), b: NodeId(3) }),
    ]);
    let cfg = SimConfig {
        duration: SimDuration::from_secs(8),
        seed,
        audit_interval: Some(SimDuration::from_millis(250)),
        invariant_audit: true,
        fault_plan: Some(plan),
        ..SimConfig::default()
    };
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(200.0, 0.0),
        Position::new(400.0, 0.0),
        Position::new(600.0, 0.0),
        Position::new(200.0, 250.0),
    ];
    let mut world = World::new(cfg, Box::new(StaticMobility::new(positions)), factory);
    // Pre-crash: the spur learns `3 via 1` (and refreshes it).
    world.schedule_app_packet(SimTime::from_millis(1000), NodeId(4), NodeId(3), 256);
    world.schedule_app_packet(SimTime::from_millis(1800), NodeId(4), NodeId(3), 256);
    // During the crash: node 2's forwarding towards 3 fails over the
    // cut link; its route error dies with the crashed precursor.
    world.schedule_app_packet(SimTime::from_millis(2300), NodeId(2), NodeId(3), 256);
    // Post-restart: the amnesiac node re-requests a route to 3.
    for k in 0..3u64 {
        world.schedule_app_packet(SimTime::from_millis(3500 + 100 * k), NodeId(1), NodeId(3), 256);
    }
    world
}

/// Sequence numbers do not guarantee loop freedom (van Glabbeek et
/// al.): a restarted AODV node has lost its own sequence number and
/// its route history, so its sequence-number-less RREQ legitimately
/// draws a stale intermediate reply from the neighbour that still
/// routes through it — and the kernel's honest restart path reproduces
/// the resulting two-node loop.
#[test]
fn aodv_restart_builds_a_routing_loop() {
    let world = restart_fixture_world(Aodv::factory(AodvConfig::default()), 7);
    let m = world.run();
    assert_eq!(m.node_restarts, 1, "the crash/restart must have fired");
    assert!(
        m.loop_violations + m.invariant_breaches > 0,
        "the amnesiac-restart schedule must reproduce AODV's stale-reply loop \
         (loop_violations={}, invariant_breaches={})",
        m.loop_violations,
        m.invariant_breaches,
    );
}

/// The LDR control: the identical fault schedule, workload, topology
/// and seed leave LDR clean — the restarted node's request is treated
/// as a route error by the stale neighbour (request-as-error), so the
/// stale advertisement is purged instead of answered.
#[test]
fn ldr_restart_stays_loop_free_on_the_same_schedule() {
    let world = restart_fixture_world(Ldr::factory(LdrConfig::default()), 7);
    let m = world.run();
    assert_eq!(m.node_restarts, 1, "the crash/restart must have fired");
    assert_eq!(m.loop_violations, 0);
    assert_eq!(m.invariant_breaches, 0);
}

/// A faulted trial is a pure function of `(FaultPlan, seed)`: two runs
/// must agree event-for-event (the full trace log compares equal) and
/// metric-for-metric.
#[test]
fn faulted_trials_replay_byte_identically() {
    let run = || {
        let plan = FaultPlan::random(
            &mut SimRng::stream(4242, "fault-plan"),
            8,
            SimDuration::from_secs(12),
            2,
        );
        let cfg = SimConfig {
            duration: SimDuration::from_secs(12),
            seed: 99,
            audit_interval: Some(SimDuration::from_millis(500)),
            invariant_audit: true,
            fault_plan: Some(plan),
            ..SimConfig::default()
        };
        let mobility = RandomWaypoint::new(
            8,
            Terrain::new(800.0, 300.0),
            SimDuration::from_secs(4),
            1.0,
            20.0,
            SimRng::stream(99, "mobility"),
        );
        let mut world = World::new(cfg, Box::new(mobility), Ldr::factory(LdrConfig::default()));
        world.with_cbr(3);
        let sink = Arc::new(Mutex::new(MemoryTrace::default()));
        world.set_trace(Box::new(Arc::clone(&sink)));
        let m = world.run();
        let log = format!("{:?}", sink.lock().unwrap().events());
        let stable = (
            m.data_originated,
            m.data_delivered,
            m.data_tx_hops,
            m.collisions,
            m.mac_retry_failures,
            m.faults_injected,
            m.node_restarts,
            m.loop_violations,
            m.invariant_breaches,
            m.latency_sum_s.to_bits(),
        );
        (log, stable)
    };
    let (log_a, metrics_a) = run();
    let (log_b, metrics_b) = run();
    assert_eq!(metrics_a, metrics_b, "metrics must replay identically");
    assert_eq!(log_a, log_b, "the full trace log must replay byte-identically");
    assert!(log_a.contains("FaultInjected"), "the schedule must actually inject faults");
}
