//! Cross-crate integration tests: every protocol, running over the full
//! simulator stack (CSMA/CA MAC, unit-disk radio, mobility, CBR
//! traffic), delivers data in representative scenarios.

use ldr::{Ldr, LdrConfig};
use manet_baselines::{Aodv, AodvConfig, Dsr, DsrConfig, Olsr, OlsrConfig};
use manet_sim::config::SimConfig;
use manet_sim::geometry::Terrain;
use manet_sim::metrics::Metrics;
use manet_sim::mobility::{RandomWaypoint, StaticMobility};
use manet_sim::packet::NodeId;
use manet_sim::protocol::RoutingProtocol;
use manet_sim::rng::SimRng;
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::world::World;

type Factory = Box<dyn FnMut(NodeId, usize) -> Box<dyn RoutingProtocol>>;

fn factories() -> Vec<(&'static str, Factory)> {
    vec![
        ("LDR", Box::new(Ldr::factory(LdrConfig::default()))),
        ("AODV", Box::new(Aodv::factory(AodvConfig::default()))),
        ("DSR", Box::new(Dsr::factory(DsrConfig::draft3()))),
        ("OLSR", Box::new(Olsr::factory(OlsrConfig::default()))),
    ]
}

fn static_chain_run(mut factory: Factory, n: usize, packets: u64, seed: u64) -> Metrics {
    let cfg = SimConfig { duration: SimDuration::from_secs(60), seed, ..SimConfig::default() };
    let mobility = StaticMobility::line(n, 200.0);
    let mut world = World::new(cfg, Box::new(mobility), |id, nn| factory(id, nn));
    for k in 0..packets {
        // Start at t = 20 s: OLSR needs hello/TC convergence first.
        world.schedule_app_packet(
            SimTime::from_millis(20_000 + 250 * k),
            NodeId(0),
            NodeId((n - 1) as u16),
            512,
        );
    }
    world.run()
}

#[test]
fn every_protocol_delivers_over_a_static_5_hop_chain() {
    for (name, factory) in factories() {
        let m = static_chain_run(factory, 6, 40, 5);
        assert_eq!(m.data_originated, 40, "{name}");
        assert!(
            m.delivery_ratio() > 0.9,
            "{name} delivered only {}/{} over a static chain",
            m.data_delivered,
            m.data_originated
        );
        assert_eq!(m.loop_violations, 0, "{name} looped on a static chain");
    }
}

#[test]
fn on_demand_protocols_pay_no_overhead_without_traffic() {
    for (name, mut factory) in factories() {
        if name == "OLSR" {
            continue; // proactive by design
        }
        let cfg =
            SimConfig { duration: SimDuration::from_secs(30), seed: 6, ..SimConfig::default() };
        let world =
            World::new(cfg, Box::new(StaticMobility::line(5, 200.0)), |id, nn| factory(id, nn));
        let m = world.run();
        assert_eq!(m.total_control_tx(), 0, "{name} sent control packets with no data to route");
    }
}

#[test]
fn olsr_maintains_routes_proactively() {
    let cfg = SimConfig { duration: SimDuration::from_secs(30), seed: 7, ..SimConfig::default() };
    let mut factory: Factory = Box::new(Olsr::factory(OlsrConfig::default()));
    let world = World::new(cfg, Box::new(StaticMobility::line(5, 200.0)), |id, nn| factory(id, nn));
    let m = world.run();
    assert!(
        m.control_tx.get(&manet_sim::packet::ControlKind::Hello).copied().unwrap_or(0) > 50,
        "OLSR must send periodic hellos"
    );
    assert!(
        m.control_tx.get(&manet_sim::packet::ControlKind::Tc).copied().unwrap_or(0) > 0,
        "a 5-node chain has MPRs, so TCs must flow"
    );
}

fn mobile_run(mut factory: Factory, flows: usize, pause: u64, seed: u64) -> Metrics {
    let cfg = SimConfig {
        duration: SimDuration::from_secs(120),
        seed,
        audit_interval: Some(SimDuration::from_secs(2)),
        ..SimConfig::default()
    };
    let mobility = RandomWaypoint::new(
        30,
        Terrain::new(1000.0, 300.0),
        SimDuration::from_secs(pause),
        1.0,
        20.0,
        SimRng::stream(seed, "mobility"),
    );
    let mut world = World::new(cfg, Box::new(mobility), |id, nn| factory(id, nn));
    world.with_cbr(flows);
    world.run()
}

#[test]
fn every_protocol_survives_mobility() {
    for (name, factory) in factories() {
        let m = mobile_run(factory, 5, 30, 11);
        assert!(
            m.delivery_ratio() > 0.6,
            "{name} delivered only {:.1}% under mild mobility",
            100.0 * m.delivery_ratio()
        );
    }
}

#[test]
fn ldr_loop_free_under_churn() {
    let m = mobile_run(Box::new(Ldr::factory(LdrConfig::default())), 8, 0, 13);
    assert_eq!(m.loop_violations, 0, "Theorem 4: loop-free at every instant");
    assert!(m.delivery_ratio() > 0.6);
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let a = mobile_run(Box::new(Ldr::factory(LdrConfig::default())), 4, 60, 17);
    let b = mobile_run(Box::new(Ldr::factory(LdrConfig::default())), 4, 60, 17);
    assert_eq!(a.data_originated, b.data_originated);
    assert_eq!(a.data_delivered, b.data_delivered);
    assert_eq!(a.data_tx_hops, b.data_tx_hops);
    assert_eq!(a.total_control_tx(), b.total_control_tx());
    assert_eq!(a.collisions, b.collisions);
    assert_eq!(a.mean_own_seqno, b.mean_own_seqno);
}

#[test]
fn different_seeds_differ() {
    let a = mobile_run(Box::new(Ldr::factory(LdrConfig::default())), 4, 60, 18);
    let b = mobile_run(Box::new(Ldr::factory(LdrConfig::default())), 4, 60, 19);
    assert_ne!(
        (a.data_tx_hops, a.collisions),
        (b.data_tx_hops, b.collisions),
        "distinct seeds should explore distinct trajectories"
    );
}

#[test]
fn partitioned_network_fails_gracefully() {
    // Two clusters far apart: no physical path.
    let positions: Vec<manet_sim::geometry::Position> = (0..6)
        .map(|i| {
            let x = if i < 3 { i as f64 * 100.0 } else { 5000.0 + i as f64 * 100.0 };
            manet_sim::geometry::Position::new(x, 0.0)
        })
        .collect();
    for (name, mut factory) in factories() {
        let cfg =
            SimConfig { duration: SimDuration::from_secs(30), seed: 21, ..SimConfig::default() };
        let mut world =
            World::new(cfg, Box::new(StaticMobility::new(positions.clone())), |id, nn| {
                factory(id, nn)
            });
        world.schedule_app_packet(SimTime::from_secs(1), NodeId(0), NodeId(5), 512);
        let m = world.run();
        assert_eq!(m.data_delivered, 0, "{name} delivered across a partition?!");
        assert_eq!(m.data_originated, 1, "{name}");
    }
}

#[test]
fn aodv_seqno_outgrows_ldr_under_churn() {
    let ldr = mobile_run(Box::new(Ldr::factory(LdrConfig::default())), 8, 0, 23);
    let aodv = mobile_run(Box::new(Aodv::factory(AodvConfig::default())), 8, 0, 23);
    assert!(
        aodv.mean_own_seqno > 2.0 * ldr.mean_own_seqno,
        "Fig. 7 shape: AODV ({:.1}) must clearly outgrow LDR ({:.1})",
        aodv.mean_own_seqno,
        ldr.mean_own_seqno
    );
}

#[test]
fn continuous_traffic_keeps_routes_alive_without_rediscovery() {
    // Soft state: data forwarding refreshes route lifetimes, so a
    // stable 40-s CBR stream over a static chain needs exactly one
    // discovery even though ACTIVE_ROUTE_TIMEOUT is 3 s.
    let cfg = SimConfig { duration: SimDuration::from_secs(45), seed: 61, ..SimConfig::default() };
    let mut world = World::new(
        cfg,
        Box::new(StaticMobility::line(4, 200.0)),
        Ldr::factory(LdrConfig::default()),
    );
    for k in 0..160u64 {
        world.schedule_app_packet(SimTime::from_millis(1000 + 250 * k), NodeId(0), NodeId(3), 512);
    }
    let m = world.run();
    assert_eq!(m.data_delivered, 160);
    assert_eq!(
        m.proto.get(&manet_sim::protocol::ProtoCounter::DiscoveryStarted).copied().unwrap_or(0),
        1,
        "route refresh must prevent re-discovery"
    );
}
