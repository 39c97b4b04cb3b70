//! Diagnostic: dump the full metrics breakdown for one run.
//!
//! `inspect [PROTO] [FLOWS] [PAUSE] [DURATION] [NODES]`; an unknown
//! protocol name prints the usage line and exits 2.

#![cfg_attr(not(test), deny(clippy::iter_over_hash_type, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]

use ldr_bench::scenario::{Ablation, Protocol, Scenario};
use std::process::ExitCode;

/// Every protocol name `inspect` accepts, with what it runs.
const PROTOCOLS: [(&str, Protocol); 8] = [
    ("ldr", Protocol::Ldr),
    ("aodv", Protocol::Aodv),
    ("dsr", Protocol::Dsr),
    ("olsr", Protocol::Olsr),
    ("ldr-noopt", Protocol::LdrNoOpts),
    ("ldr-nored", Protocol::LdrWithout(Ablation::ReducedDistance)),
    ("ldr-nottl", Protocol::LdrWithout(Ablation::OptimalTtl)),
    ("ldr-nolife", Protocol::LdrWithout(Ablation::MinimumLifetime)),
];

fn parse_protocol(name: &str) -> Option<Protocol> {
    PROTOCOLS.iter().find(|(n, _)| *n == name).map(|&(_, p)| p)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let proto = match args.next() {
        None => Protocol::Ldr,
        Some(name) => match parse_protocol(&name) {
            Some(p) => p,
            None => {
                let names: Vec<&str> = PROTOCOLS.iter().map(|(n, _)| *n).collect();
                eprintln!("inspect: unknown protocol {name:?}");
                eprintln!("usage: inspect [PROTO] [FLOWS] [PAUSE] [DURATION] [NODES]");
                eprintln!("protocols: {}", names.join(" "));
                return ExitCode::from(2);
            }
        },
    };
    let flows: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(30);
    let pause: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(600);
    let duration: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(200);
    let nodes: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(50);
    let mut sc =
        if nodes > 50 { Scenario::n100(flows, pause) } else { Scenario::n50(flows, pause) };
    sc.duration_secs = duration;
    sc.audit = true;
    let m = ldr_bench::run_once(proto, &sc, 11);
    println!("{} {flows}f pause={pause}s {duration}s", proto.name());
    println!("  originated      {}", m.data_originated);
    println!("  delivered       {} ({:.3})", m.data_delivered, m.delivery_ratio());
    println!("  latency         {:.4} s", m.mean_latency_s());
    println!("  data_tx_hops    {}", m.data_tx_hops);
    println!("  control_tx      {:?}", m.control_tx);
    println!("  control_init    {:?}", m.control_init);
    println!("  drops           {:?}", m.drops);
    println!("  proto counters  {:?}", m.proto);
    println!("  ifq_drops       {}", m.ifq_drops);
    println!("  mac_retry_fail  {}", m.mac_retry_failures);
    println!("  collisions      {}", m.collisions);
    println!("  loops           {}", m.loop_violations);
    println!("  mean_own_seqno  {:.2}", m.mean_own_seqno);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_names_parse_and_unknown_names_are_rejected() {
        assert_eq!(parse_protocol("ldr"), Some(Protocol::Ldr));
        assert_eq!(parse_protocol("aodv"), Some(Protocol::Aodv));
        assert_eq!(parse_protocol("ldr-nottl"), Some(Protocol::LdrWithout(Ablation::OptimalTtl)));
        for bad in ["aodv7", "LDR", "", "olsr-nojit"] {
            assert_eq!(parse_protocol(bad), None, "{bad:?} must not fall back to LDR");
        }
    }
}
