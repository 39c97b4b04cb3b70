//! Property-based integration tests: LDR's instantaneous loop freedom
//! and the simulator's conservation laws hold across randomly generated
//! scenarios (random seeds, flow counts, pause times, node counts).

use ldr::{Ldr, LdrConfig};
use manet_sim::config::SimConfig;
use manet_sim::geometry::Terrain;
use manet_sim::metrics::Metrics;
use manet_sim::mobility::RandomWaypoint;
use manet_sim::rng::SimRng;
use manet_sim::time::SimDuration;
use manet_sim::world::World;
use proptest::prelude::*;

fn ldr_run(seed: u64, nodes: usize, flows: usize, pause: u64, secs: u64) -> Metrics {
    let cfg = SimConfig {
        duration: SimDuration::from_secs(secs),
        seed,
        audit_interval: Some(SimDuration::from_millis(500)),
        ..SimConfig::default()
    };
    let mobility = RandomWaypoint::new(
        nodes,
        Terrain::new(1200.0, 300.0),
        SimDuration::from_secs(pause),
        1.0,
        20.0,
        SimRng::stream(seed, "mobility"),
    );
    let mut world = World::new(cfg, Box::new(mobility), Ldr::factory(LdrConfig::default()));
    world.with_cbr(flows);
    world.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Theorem 4, empirically: whatever the topology dynamics and
    /// load, the auditor never finds a routing loop in LDR tables.
    #[test]
    fn ldr_never_loops(
        seed in 1u64..10_000,
        nodes in 10usize..30,
        flows in 2usize..8,
        pause in prop::sample::select(vec![0u64, 20, 120]),
    ) {
        let m = ldr_run(seed, nodes, flows, pause, 45);
        prop_assert_eq!(m.loop_violations, 0);
    }

    /// Conservation: deliveries never exceed originations; every
    /// delivered packet is distinct; latency only counts delivered
    /// packets; hop-wise transmissions dominate end-to-end deliveries.
    #[test]
    fn traffic_accounting_is_conserved(
        seed in 1u64..10_000,
        flows in 2usize..6,
    ) {
        let m = ldr_run(seed, 20, flows, 60, 40);
        prop_assert!(m.data_delivered <= m.data_originated);
        prop_assert!(m.data_tx_hops >= m.data_delivered,
            "a delivery needs at least one transmission");
        if m.data_delivered == 0 {
            prop_assert_eq!(m.latency_sum_s, 0.0);
        } else {
            prop_assert!(m.mean_latency_s() > 0.0);
            prop_assert!(m.mean_latency_s() < 40.0, "latency bounded by run length");
        }
        // Routing-layer drops and deliveries cannot exceed what entered
        // the routing layer (originations plus per-hop receptions).
        let drops: u64 = m.drops.values().sum();
        prop_assert!(drops <= m.data_originated + m.data_tx_hops);
    }

    /// Determinism as a property: any (seed, load) replays exactly.
    #[test]
    fn replay_determinism(seed in 1u64..1000, flows in 2usize..5) {
        let a = ldr_run(seed, 15, flows, 30, 30);
        let b = ldr_run(seed, 15, flows, 30, 30);
        prop_assert_eq!(a.data_delivered, b.data_delivered);
        prop_assert_eq!(a.data_tx_hops, b.data_tx_hops);
        prop_assert_eq!(a.collisions, b.collisions);
        prop_assert_eq!(a.total_control_tx(), b.total_control_tx());
    }
}
