//! A paper-style mobile scenario end to end: 50 random-waypoint nodes
//! on a 1500 m × 300 m field, 10 CBR flows of 512-byte packets at
//! 4 packets/s, LDR routing — then a dump of every §4 metric.
//!
//! Run with `cargo run --release --example mobile_network -- [pause_secs] [duration_secs]`.

use ldr::{Ldr, LdrConfig};
use manet_sim::config::SimConfig;
use manet_sim::geometry::Terrain;
use manet_sim::mobility::RandomWaypoint;
use manet_sim::rng::SimRng;
use manet_sim::time::SimDuration;
use manet_sim::world::World;

fn main() {
    let mut args = std::env::args().skip(1);
    let pause: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(120);
    let duration: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(300);
    let seed = 2026;

    println!("LDR over 50 random-waypoint nodes, pause {pause} s, {duration} s simulated");

    let cfg = SimConfig {
        duration: SimDuration::from_secs(duration),
        seed,
        audit_interval: Some(SimDuration::from_secs(1)),
        ..SimConfig::default()
    };
    let mobility = RandomWaypoint::new(
        50,
        Terrain::new(1500.0, 300.0),
        SimDuration::from_secs(pause),
        1.0,
        20.0,
        SimRng::stream(seed, "mobility"),
    );
    let mut world = World::new(cfg, Box::new(mobility), Ldr::factory(LdrConfig::default()));
    world.with_cbr(10);
    let m = world.run();

    println!("\n--- traffic ---");
    println!("  originated        {}", m.data_originated);
    println!("  delivered         {} ({:.2}%)", m.data_delivered, 100.0 * m.delivery_ratio());
    println!("  mean latency      {:.2} ms", 1000.0 * m.mean_latency_s());
    println!("  duplicates        {}", m.duplicate_deliveries);

    println!("\n--- control overhead (the paper's load metrics) ---");
    println!("  network load      {:.3} control tx / delivered packet", m.network_load());
    println!("  RREQ load         {:.3} RREQ tx / delivered packet", m.rreq_load());
    println!("  RREP init/RREQ    {:.3}", m.rrep_init_per_rreq());
    println!("  RREP recv/RREQ    {:.3}", m.rrep_recv_per_rreq());
    println!("  control tx        {:?}", m.control_tx);
    println!("  control initiated {:?}", m.control_init);

    println!("\n--- link layer ---");
    println!("  data tx (hop-wise) {}", m.data_tx_hops);
    println!("  collisions         {}", m.collisions);
    println!("  IFQ drops          {}", m.ifq_drops);
    println!("  MAC retry failures {}", m.mac_retry_failures);

    println!("\n--- LDR invariants ---");
    println!("  mean destination seqno {:.2} (AODV's grows ~10x faster)", m.mean_own_seqno);
    println!("  routing-loop audits    {} violations", m.loop_violations);
    println!("  routing drops          {:?}", m.drops);
    assert_eq!(m.loop_violations, 0, "LDR must be loop-free at every instant");
}
