//! Diagnostic: dump the full metrics breakdown for one run.
//!
//! `inspect [PROTO] [FLOWS] [PAUSE] [DURATION] [NODES]`, NODES 50 or
//! 100; an unknown protocol, a malformed number, another node count or
//! an extra argument prints the usage line and exits 2.

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

const USAGE: &str = "usage: inspect [PROTO] [FLOWS] [PAUSE] [DURATION] [NODES]  (NODES: 50 or 100)";

/// The run the command line asks for; unset trailing numbers default to
/// 30 flows, 600 s pause, 200 s, 50 nodes.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<(Protocol, Scenario), String> {
    let proto = match argv.next() {
        None => Protocol::Ldr,
        Some(name) => parse_protocol(&name).ok_or_else(|| format!("unknown protocol {name:?}"))?,
    };
    let mut numbers = [30, 600, 200, 50];
    for (slot, what) in numbers.iter_mut().zip(["FLOWS", "PAUSE", "DURATION", "NODES"]) {
        let Some(arg) = argv.next() else { break };
        *slot = arg.parse().map_err(|_| format!("bad {what} {arg:?}"))?;
    }
    if let Some(extra) = argv.next() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let [flows, pause, duration, nodes] = numbers;
    let flows = usize::try_from(flows).map_err(|_| format!("bad FLOWS {flows}"))?;
    let mut sc = match nodes {
        50 => Scenario::n50(flows, pause),
        100 => Scenario::n100(flows, pause),
        _ => return Err(format!("NODES must be 50 or 100, not {nodes}")),
    };
    sc.duration_secs = duration;
    sc.audit = true;
    Ok((proto, sc))
}

fn main() -> ExitCode {
    let (proto, sc) = match parse_args(std::env::args().skip(1)) {
        Ok(run) => run,
        Err(msg) => {
            let names: Vec<&str> = PROTOCOLS.iter().map(|(n, _)| *n).collect();
            eprintln!("inspect: {msg}\n{USAGE}\nprotocols: {}", names.join(" "));
            return ExitCode::from(2);
        }
    };
    let m = ldr_bench::run_once(proto, &sc, 11);
    println!("{} {}f pause={}s {}s", proto.name(), sc.n_flows, sc.pause_secs, sc.duration_secs);
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

    /// `(protocol, nodes, flows, pause, duration)` of the run `argv` asks for.
    fn parse(argv: &str) -> Result<(Protocol, usize, usize, u64, u64), String> {
        let (p, sc) = parse_args(argv.split_whitespace().map(String::from))?;
        Ok((p, sc.n_nodes, sc.n_flows, sc.pause_secs, sc.duration_secs))
    }

    #[test]
    fn valid_forms_parse_with_defaults_for_what_is_left_out() {
        assert_eq!(parse(""), Ok((Protocol::Ldr, 50, 30, 600, 200)));
        assert_eq!(parse("aodv"), Ok((Protocol::Aodv, 50, 30, 600, 200)));
        assert_eq!(parse("dsr 10 0"), Ok((Protocol::Dsr, 50, 10, 0, 200)));
        assert_eq!(parse("olsr 10 0 60 100"), Ok((Protocol::Olsr, 100, 10, 0, 60)));
    }

    #[test]
    fn malformed_numbers_extra_arguments_and_other_node_counts_are_rejected() {
        for bad in [
            "ldr x",
            "ldr 10 -1",
            "ldr 10 0 6O",
            "ldr 10 0 60 fifty",
            "ldr 10 0 60 50 extra",
            "ldr 10 0 60 20",
            "ldr 10 0 60 75",
            "ldr 10 0 60 0",
            "LDR",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected, not run");
        }
    }
}
