//! Deterministic counterexample rendering.
//!
//! A minimized trace is replayed once more from the initial state, this
//! time feeding every routing-decision trace event into the simulator's
//! [`InvariantAuditor`] so the counterexample gets the same forensic
//! treatment a simulation breach would: the first-violation report with
//! involved nodes, table snapshots and the recent decision timeline.
//! The output contains no wall-clock, map-order or randomness
//! dependence, so regression tests pin it byte-for-byte.

use crate::checker::Counterexample;
use crate::net::{NetState, Scenario, T0};
use ldr::SeqNo;
use manet_sim::audit::InvariantAuditor;
use manet_sim::packet::NodeId;
use manet_sim::protocol::{successors, ProtocolModel, RouteDump};
use std::fmt::Write as _;

fn route_line(out: &mut String, r: &RouteDump) {
    let fd = r.feasible_dist.map_or_else(|| "-".into(), |v| v.to_string());
    let sn = r.seqno.map_or_else(|| "-".into(), |v| SeqNo::from_u64(v).to_string());
    let state = if r.valid { "valid" } else { "expired" };
    let _ = writeln!(
        out,
        "    -> {} via {} d={} fd={} sn={} {}",
        r.dest, r.next, r.dist, fd, sn, state
    );
}

/// Replays `events` through the simulator's [`InvariantAuditor`] and
/// renders the forensic section alone: the auditor's first-violation
/// report when it flags one, the final route tables otherwise. The
/// differential replay suite compares this section against the tail of
/// each pinned fixture — the simulator's audit machinery must reach the
/// same first-breach verdict the checker reached.
pub fn forensic_section<M: ProtocolModel>(
    scenario: &Scenario,
    factory: impl Fn(NodeId) -> M + Copy,
    events: &[crate::net::Event],
) -> String {
    let mut out = String::new();
    // Forensic replay: drive the auditor exactly as the simulator's
    // invariant layer would.
    let mut auditor = InvariantAuditor::new();
    let mut state = NetState::init(scenario, factory);
    for event in events {
        let Some(step) = state.apply(scenario, event) else { continue };
        for t in &step.traces {
            auditor.observe(T0, t);
        }
        state = step.state;
        let dumps: Vec<Vec<RouteDump>> = state.nodes.iter().map(|m| m.dump()).collect();
        let tables: Vec<Vec<(NodeId, NodeId)>> =
            state.nodes.iter().map(|m| successors(&m.route_table_dump())).collect();
        auditor.check(T0, 0, &dumps, &tables);
        if auditor.report().is_some() {
            break;
        }
    }

    if let Some(report) = auditor.report() {
        let _ = writeln!(out, "-- forensic replay --");
        let _ = write!(out, "{report}");
    } else {
        // NDC-unsoundness has no auditor counterpart (the auditor sees
        // tables, not admission decisions); dump the tables ourselves.
        let _ = writeln!(out, "-- final route tables --");
        for (i, m) in state.nodes.iter().enumerate() {
            let _ = writeln!(out, "  node {i}:");
            for r in m.dump() {
                route_line(&mut out, &r);
            }
        }
    }
    out
}

/// Renders the full deterministic report for a counterexample.
pub fn render<M: ProtocolModel>(
    scenario: &Scenario,
    factory: impl Fn(NodeId) -> M + Copy,
    cex: &Counterexample,
) -> String {
    let mut out = String::new();
    let proto = factory(NodeId(0)).name();
    let _ = writeln!(out, "== counterexample: {} ({proto}) ==", scenario.name);
    let _ = writeln!(out, "violation: {}", cex.violation);
    let _ = writeln!(out, "trace ({} events, shrunk from {}):", cex.events.len(), cex.raw_len);
    for (i, e) in cex.events.iter().enumerate() {
        let _ = writeln!(out, "  {:>2}. {e}", i + 1);
    }
    out.push_str(&forensic_section(scenario, factory, &cex.events));
    out
}
