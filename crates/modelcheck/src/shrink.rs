//! Counterexample minimisation.
//!
//! The DFS returns the first violating schedule it stumbles on, which
//! usually carries incidental events (timers that fired harmlessly,
//! deliveries on unrelated flows). [`shrink`] reduces it to a
//! **1-minimal** trace: removing any single remaining event makes the
//! violation disappear. Events are content-addressed
//! ([`crate::net::Msg::key`]), so a candidate trace replays even when
//! an earlier removal changed which copies are in flight — steps that
//! no longer apply are skipped rather than derailing the replay.

use crate::checker::{self, Violation};
use crate::net::{Event, Scenario};
use manet_sim::packet::NodeId;
use manet_sim::protocol::ProtocolModel;

/// Greedy single-event removal to a 1-minimal trace under an arbitrary
/// oracle. `oracle(candidate)` must return whether the candidate still
/// exhibits the failure; it must hold for `events` on entry.
pub fn shrink_with(mut events: Vec<Event>, mut oracle: impl FnMut(&[Event]) -> bool) -> Vec<Event> {
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < events.len() {
            let mut candidate = events.clone();
            candidate.remove(i);
            if oracle(&candidate) {
                events = candidate;
                changed = true;
            } else {
                i += 1;
            }
        }
    }
    events
}

/// Minimises a violating trace against the real replay oracle: a
/// candidate counts when replaying it from the scenario's initial state
/// still produces *a* violation (not necessarily the identical one —
/// any safety breach is worth reporting, and accepting the strongest
/// reduction keeps traces short). Returns the minimized trace and the
/// violation it reproduces.
pub fn shrink<M: ProtocolModel>(
    scenario: &Scenario,
    factory: impl Fn(NodeId) -> M + Copy,
    trace: Vec<Event>,
    violation: Violation,
) -> (Vec<Event>, Violation) {
    // Drop everything after the (replayed) violating step first — the
    // tail cannot matter.
    let mut events = trace;
    if let Some((i, _)) = checker::replay(scenario, factory, &events) {
        events.truncate(i + 1);
    }
    let minimized = shrink_with(events, |cand| checker::replay(scenario, factory, cand).is_some());
    match checker::replay(scenario, factory, &minimized) {
        Some((i, v)) => {
            let mut m = minimized;
            m.truncate(i + 1);
            (m, v)
        }
        // Unreachable in practice (shrink_with keeps the oracle true),
        // but degrade gracefully instead of panicking.
        None => (minimized, violation),
    }
}
