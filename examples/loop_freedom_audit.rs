//! The loop-freedom claim, observed live (Theorem 4).
//!
//! Runs LDR and AODV through an aggressive churn scenario (50 fast
//! nodes, zero pause time, 20 flows) with the routing-loop auditor
//! snapshotting every node's successor graph once per simulated second.
//! LDR must show zero loops at every instant; AODV — whose loop
//! avoidance rests solely on sequence numbers — is allowed transient
//! inconsistencies, and usually shows a few.
//!
//! A second stage turns on the *every-mutation* invariant auditor
//! (`SimConfig::invariant_audit`) for a smaller scenario: after every
//! protocol callback it re-checks fd-monotonicity-per-seqno and
//! successor-graph acyclicity, and the first violation yields a
//! forensic dump — the involved nodes' route tables and their recent
//! routing-decision trace. LDR must come through without a report;
//! when AODV trips the acyclicity check, the dump is printed so you
//! can see exactly which adverts built the cycle.
//!
//! Run with `cargo run --release --example loop_freedom_audit -- [seeds]`.

use ldr::{Ldr, LdrConfig};
use manet_baselines::{Aodv, AodvConfig};
use manet_sim::config::SimConfig;
use manet_sim::geometry::Terrain;
use manet_sim::mobility::RandomWaypoint;
use manet_sim::packet::NodeId;
use manet_sim::protocol::RoutingProtocol;
use manet_sim::rng::SimRng;
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::world::World;

fn churn_run(
    mut factory: Box<dyn FnMut(NodeId, usize) -> Box<dyn RoutingProtocol>>,
    seed: u64,
) -> (u64, Option<String>) {
    let cfg = SimConfig { duration: SimDuration::from_secs(120), seed, ..SimConfig::default() };
    let mobility = RandomWaypoint::new(
        50,
        Terrain::new(1500.0, 300.0),
        SimDuration::ZERO, // never pause: maximum churn
        1.0,
        20.0,
        SimRng::stream(seed, "mobility"),
    );
    let mut world = World::new(cfg, Box::new(mobility), |id, n| factory(id, n));
    world.with_cbr(20);
    // Audit once per simulated second, keeping the first cycle found.
    let mut first_loop = None;
    for s in 1..=120 {
        world.run_until(SimTime::from_secs(s));
        let loops = world.audit_now();
        first_loop = first_loop.or_else(|| loops.first().map(|v| v.to_string()));
    }
    world.finalize();
    (world.metrics().loop_violations, first_loop)
}

/// Runs a smaller churn scenario with the every-mutation auditor on.
/// Returns `(checks, breaches, rendered forensic dump if any)`.
fn forensic_run(
    mut factory: Box<dyn FnMut(NodeId, usize) -> Box<dyn RoutingProtocol>>,
    seed: u64,
) -> (u64, u64, Option<String>) {
    let cfg = SimConfig {
        duration: SimDuration::from_secs(30),
        seed,
        invariant_audit: true,
        ..SimConfig::default()
    };
    let mobility = RandomWaypoint::new(
        25,
        Terrain::new(1000.0, 300.0),
        SimDuration::ZERO,
        1.0,
        20.0,
        SimRng::stream(seed, "mobility"),
    );
    let mut world = World::new(cfg, Box::new(mobility), |id, n| factory(id, n));
    world.with_cbr(10);
    world.run_until(SimTime::from_secs(30));
    world.finalize();
    let checks = world.metrics().invariant_checks;
    let breaches = world.metrics().invariant_breaches;
    let dump = world.forensic_report().map(|r| r.to_string());
    (checks, breaches, dump)
}

fn main() {
    let seeds: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(3);

    println!("Auditing successor graphs once per simulated second under maximum churn");
    println!("(50 nodes, pause 0, 20 flows, 120 s per seed, {seeds} seeds)\n");

    let mut ldr_total = 0;
    let mut aodv_total = 0;
    for seed in 1..=seeds {
        let (ldr_loops, _) = churn_run(Box::new(Ldr::factory(LdrConfig::default())), seed);
        let (aodv_loops, aodv_example) =
            churn_run(Box::new(Aodv::factory(AodvConfig::default())), seed);
        println!("seed {seed}: LDR {ldr_loops} loops, AODV {aodv_loops} loops");
        if let Some(example) = aodv_example {
            println!("         first AODV cycle: {example}");
        }
        ldr_total += ldr_loops;
        aodv_total += aodv_loops;
        assert_eq!(ldr_loops, 0, "LDR must be loop-free at every instant (Theorem 4)");
    }

    println!("\ntotals: LDR {ldr_total}, AODV {aodv_total}");
    println!(
        "LDR's feasible-distance invariant (NDC) plus destination-controlled \
         resets kept every audited successor graph acyclic."
    );

    println!("\nEvery-mutation audit (25 nodes, 30 s, checks after each callback):");
    let (checks, breaches, report) = forensic_run(Box::new(Ldr::factory(LdrConfig::default())), 1);
    println!("LDR : {checks} checks, {breaches} breaches");
    assert_eq!(breaches, 0, "LDR must pass the every-mutation audit");
    assert!(report.is_none());

    let (checks, breaches, report) =
        forensic_run(Box::new(Aodv::factory(AodvConfig::default())), 1);
    println!("AODV: {checks} checks, {breaches} breaches");
    if let Some(dump) = report {
        println!("\nFirst AODV breach, forensically:\n{dump}");
    }
}
