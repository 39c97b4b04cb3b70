//! The paper's overhead claims (§4, Table 1), asserted as *shapes* on
//! small aggregate runs: LDR floods fewer RREQs than AODV yet harvests
//! more usable RREPs per request.

use ldr::{Ldr, LdrConfig};
use manet_baselines::{Aodv, AodvConfig};
use manet_sim::config::SimConfig;
use manet_sim::geometry::Terrain;
use manet_sim::metrics::Metrics;
use manet_sim::mobility::RandomWaypoint;
use manet_sim::packet::NodeId;
use manet_sim::protocol::RoutingProtocol;
use manet_sim::rng::SimRng;
use manet_sim::time::SimDuration;
use manet_sim::world::World;

fn run(
    mut factory: Box<dyn FnMut(NodeId, usize) -> Box<dyn RoutingProtocol>>,
    seed: u64,
) -> Metrics {
    // Table-1-like conditions: the RREQ saving comes from LDR's
    // optimal-TTL / feasible-distance machinery on *re*-discoveries, so
    // runs must be long enough for route maintenance to dominate the
    // cold start.
    let cfg = SimConfig { duration: SimDuration::from_secs(300), seed, ..SimConfig::default() };
    let mobility = RandomWaypoint::new(
        50,
        Terrain::new(1500.0, 300.0),
        SimDuration::from_secs(120),
        1.0,
        20.0,
        SimRng::stream(seed, "mobility"),
    );
    let mut world = World::new(cfg, Box::new(mobility), |id, n| factory(id, n));
    world.with_cbr(10);
    world.run()
}

fn aggregate(proto: &str) -> (u64, u64, f64, f64) {
    let mut rreq_tx = 0;
    let mut rreq_init = 0;
    let mut usable = 0.0;
    let mut delivered = 0.0;
    for seed in [101u64, 202] {
        let m = match proto {
            "ldr" => run(Box::new(Ldr::factory(LdrConfig::default())), seed),
            _ => run(Box::new(Aodv::factory(AodvConfig::default())), seed),
        };
        rreq_tx += m.rreq_tx();
        rreq_init +=
            m.control_init.get(&manet_sim::packet::ControlKind::Rreq).copied().unwrap_or(0);
        usable +=
            m.proto.get(&manet_sim::protocol::ProtoCounter::RrepUsableRecv).copied().unwrap_or(0)
                as f64;
        delivered += m.data_delivered as f64;
    }
    (rreq_tx, rreq_init, usable, delivered)
}

#[test]
fn ldr_floods_less_and_harvests_more_usable_replies_than_aodv() {
    let (ldr_tx, ldr_init, ldr_usable, ldr_del) = aggregate("ldr");
    let (aodv_tx, aodv_init, aodv_usable, aodv_del) = aggregate("aodv");

    assert!(ldr_tx < aodv_tx, "LDR must transmit fewer broadcast RREQs: {ldr_tx} !< {aodv_tx}");
    // (The paper's claim is about transmissions — flood volume — not
    // initiations: LDR's optimal-TTL rings are smaller even when its
    // discovery *count* is similar, so only the tx comparison is
    // asserted. `ldr_init` stays in the aggregate for the yield ratio.)
    let _ = aodv_init;
    let ldr_yield = ldr_usable / ldr_init.max(1) as f64;
    let aodv_yield = aodv_usable / aodv_init.max(1) as f64;
    assert!(
        ldr_yield > aodv_yield,
        "LDR's usable-RREP yield per RREQ must exceed AODV's: {ldr_yield:.2} !> {aodv_yield:.2}"
    );
    // Both must actually carry the load.
    assert!(ldr_del > 0.9 * aodv_del && aodv_del > 0.9 * ldr_del, "deliveries comparable");
}
