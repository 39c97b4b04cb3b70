//! Node crash/restart behaviour — §3's claim that LDR's
//! clock-plus-counter sequence numbers avoid AODV's *reboot-hold*
//! procedure: a restarted node may participate immediately, because its
//! fresh clock stamp (epoch) dominates every number it issued before
//! the crash, so stale state elsewhere can never suppress or mis-order
//! its new advertisements.

use ldr::{Ldr, LdrConfig};
use manet_sim::config::SimConfig;
use manet_sim::faults::{FaultAction, FaultPlan};
use manet_sim::mobility::StaticMobility;
use manet_sim::packet::NodeId;
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::world::World;

/// An LDR chain of `n` nodes whose `reboots` crash and restart at once,
/// with no downtime, each at its instant.
fn chain_world(n: usize, seed: u64, secs: u64, reboots: &[(SimTime, u16)]) -> World {
    let crashes = reboots.iter().map(|&(at, node)| {
        (at, FaultAction::CrashRestart { node: NodeId(node), downtime: SimDuration::ZERO })
    });
    let cfg = SimConfig {
        duration: SimDuration::from_secs(secs),
        seed,
        audit_interval: Some(SimDuration::from_millis(500)),
        fault_plan: Some(FaultPlan::new(crashes.collect())),
        ..SimConfig::default()
    };
    World::new(cfg, Box::new(StaticMobility::line(n, 200.0)), Ldr::factory(LdrConfig::default()))
}

#[test]
fn intermediate_reboot_loses_routes_but_traffic_recovers() {
    // The middle relay crashes mid-stream.
    let mut world = chain_world(4, 51, 40, &[(SimTime::from_secs(10), 1)]);
    for k in 0..120u64 {
        world.schedule_app_packet(SimTime::from_millis(1000 + 250 * k), NodeId(0), NodeId(3), 512);
    }
    let m = world.run();
    assert!(
        m.data_delivered > 100,
        "traffic must recover after a relay restart: {}",
        m.data_delivered
    );
    assert!(m.data_delivered < 120, "packets in flight at the crash are lost");
    assert_eq!((m.faults_injected, m.node_restarts), (1, 1));
    assert_eq!(m.loop_violations, 0);
}

#[test]
fn rebooted_destination_participates_immediately_no_hold() {
    // The destination crashes, then the path's relay crashes moments
    // later, wiping the network's usable routes — the subsequent
    // re-discovery must be answered by the *rebooted* destination with
    // its fresh-epoch number, and accepted everywhere despite the
    // tight feasible-distance history the old epoch left behind.
    let reboots = [(SimTime::from_secs(10), 3), (SimTime::from_millis(10_500), 2)];
    let mut world = chain_world(4, 53, 40, &reboots);
    for k in 0..120u64 {
        world.schedule_app_packet(SimTime::from_millis(1000 + 250 * k), NodeId(0), NodeId(3), 512);
    }
    world.run_until(SimTime::from_secs(40));
    world.finalize();
    let m = world.metrics();
    assert!(
        m.data_delivered > 100,
        "no reboot-hold: the fresh epoch answers immediately: {}",
        m.data_delivered
    );
    assert_eq!((m.faults_injected, m.node_restarts), (2, 2));
    assert_eq!(m.loop_violations, 0, "epoch jumps must stay loop-free");
    // The destination's number is now in epoch 2: its scalar value
    // dominates anything from epoch 1.
    let sn = world.protocol(NodeId(3)).own_seqno_value().expect("LDR reports its number");
    assert!(sn >= 2f64.powi(32), "fresh clock stamp: got {sn}");
}

#[test]
fn reboot_mid_discovery_is_survivable() {
    // The destination reboots while a discovery for it is in flight;
    // the origin's retry must still converge.
    // Crash the destination a hair after the first RREQ goes out.
    let mut world = chain_world(4, 57, 30, &[(SimTime::from_millis(1002), 3)]);
    for k in 0..80u64 {
        world.schedule_app_packet(SimTime::from_millis(1000 + 250 * k), NodeId(0), NodeId(3), 512);
    }
    let m = world.run();
    assert!(m.data_delivered > 60, "{}", m.data_delivered);
    assert_eq!((m.faults_injected, m.node_restarts), (1, 1));
    assert_eq!(m.loop_violations, 0);
}
