//! Liveness-flavoured properties under fair completion.
//!
//! Safety holds on every prefix; liveness only makes sense at the *end*
//! of a schedule, under a fairness assumption — messages in flight are
//! eventually delivered, pending timers eventually fire. This module
//! provides that fair-completion executor: after an explored walk ends,
//! [`fair_complete`] drains the network deterministically and then asks
//! the scenario's probe question — *can the probe source still obtain a
//! route to the probe destination?* A protocol that answers "no" while
//! the destination is physically reachable has a liveness hole: some
//! reachable protocol state (stale duplicate-suppression entries after
//! a reboot, for instance) permanently blocks route discovery.
//!
//! The completion order is fixed and fair:
//!
//! 1. **Settle** — deliver every in-flight copy on live links (sorted
//!    key order) and drop every copy stranded on dead links, repeating
//!    until the network is quiet. Loss on live links is never chosen:
//!    completion is the *benign* future, hazards all happened during
//!    the walk.
//! 2. **Timer rounds** — a bounded number of rounds, each firing every
//!    pending timer once (snapshot order) and settling after each
//!    fire. This flushes stale discovery give-ups and lets proactive
//!    protocols exchange their periodic beacons.
//! 3. **Reachability** — if the probe destination is not connected to
//!    the source over live links, the property is vacuous.
//! 4. **Probe** — inject a fresh data origination `src -> dst` (flow
//!    [`PROBE_FLOW`](crate::net::PROBE_FLOW)) and settle again. The
//!    discovery is granted exactly the retry timer rounds its own TTL
//!    schedule needs for the probe distance
//!    ([`ProtocolModel::discovery_attempts`]) — an expanding-ring
//!    search gets its mandated ring expansions, but a protocol whose
//!    state loss costs *extra* attempts gets no charity. A probe the
//!    configured schedule can never reach (TTL tops out short of the
//!    distance) is vacuous, like a partitioned one. The whole
//!    probe cycle repeats up to `PROBE_ATTEMPTS` times, modelling an
//!    application that retries (the first packet may be legitimately
//!    spent tearing down a stale route via a route error).
//! 5. **Verdict** — after a final route refresh at the source,
//!    [`LiveVerdict::Pass`] iff the source holds a usable route.

use crate::net::{Event, NetState, Scenario};
use crate::shrink::shrink_with;
use ldr::SeqNo;
use manet_sim::packet::NodeId;
use manet_sim::protocol::ProtocolModel;
use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;

/// Completion-step safety valve: a protocol that keeps the network busy
/// past this many fair-completion steps is reported as
/// [`LiveVerdict::Diverged`] instead of looping forever.
const SETTLE_CAP: usize = 10_000;

/// Timer rounds executed before the probe (enough for a 6-node OLSR
/// network to converge hello/TC state: heard -> sym -> two-hop/MPR ->
/// selectors -> TC flood, with slack).
const TIMER_ROUNDS: usize = 6;

/// Probe originations injected before declaring a stall. One is not
/// enough: a source may hold a route that is valid locally but stale
/// downstream, and the first probe packet is legitimately consumed
/// *teaching* it so (the route error coming back invalidates the stale
/// entry); the retry then runs a fresh discovery. A protocol is only
/// stalled if **every** retry fails — which is exactly the shape of
/// the genuine holes (a dedup-blocked discovery stays pending forever,
/// so retries queue behind it and never transmit).
const PROBE_ATTEMPTS: usize = 3;

/// The outcome of fair completion against the scenario's probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LiveVerdict {
    /// The probe source obtained (or kept) a route to the destination.
    Pass,
    /// The property is vacuous: the scenario has no probe, or the
    /// destination is partitioned from the source over live links.
    Vacuous,
    /// The destination is reachable, the network is quiet, and the
    /// source still has no route — a liveness breach.
    Stall {
        /// Probe source.
        src: u16,
        /// Probe destination.
        dst: u16,
        /// Whether the source believes a discovery is still in
        /// progress (a wedged discovery rather than a given-up one).
        discovering: bool,
    },
    /// Fair completion did not quiesce within the step cap.
    Diverged,
}

impl fmt::Display for LiveVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveVerdict::Pass => write!(f, "pass"),
            LiveVerdict::Vacuous => write!(f, "vacuous (probe unreachable or absent)"),
            LiveVerdict::Stall { src, dst, discovering } => write!(
                f,
                "stall: {src} cannot re-establish a route to {dst} \
                 (discovery pending: {discovering})"
            ),
            LiveVerdict::Diverged => write!(f, "diverged (no quiescence within step cap)"),
        }
    }
}

fn norm(a: u16, b: u16) -> (u16, u16) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Delivers every live-link copy and free-drops every dead-link copy
/// until none remain, in **creation (FIFO) order**. Returns `false`
/// when the step cap is exceeded.
///
/// FIFO is the benign radio timing: copies are created in breadth-first
/// wave order, so every node's *first* copy of a flood arrives along a
/// shortest path, carrying the largest surviving TTL. (Delivering in
/// fingerprint order instead can hand a node a TTL-exhausted copy via a
/// longer path first, and duplicate suppression then kills the live one
/// — an adversarial ordering that belongs to the explored walk, not to
/// fair completion.) Loss on live links is never chosen: completion is
/// the benign future, hazards all happened during the walk.
fn settle<M: ProtocolModel>(
    state: &mut NetState<M>,
    scenario: &Scenario,
    steps: &mut usize,
) -> bool {
    loop {
        if *steps >= SETTLE_CAP {
            return false;
        }
        let next = state.inflight.first().map(|m| {
            let key = m.key();
            if state.links.contains(&norm(m.src.0, m.dst.0)) {
                Event::Deliver(key)
            } else {
                // Free loss: a copy on a dead link has no other future.
                Event::Lose(key)
            }
        });
        let Some(event) = next else { return true };
        let Some(step) = state.apply(scenario, &event) else { return true };
        *steps += 1;
        *state = step.state;
    }
}

/// Hop distance from `src` to `dst` over the live link set (`None`
/// when partitioned).
fn hop_distance(links: &BTreeSet<(u16, u16)>, n: u16, src: u16, dst: u16) -> Option<u32> {
    let mut dist = vec![u32::MAX; usize::from(n)];
    dist[usize::from(src)] = 0;
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(node) = queue.pop_front() {
        if node == dst {
            return Some(dist[usize::from(node)]);
        }
        for &(a, b) in links {
            let other = if a == node {
                b
            } else if b == node {
                a
            } else {
                continue;
            };
            if dist[usize::from(other)] == u32::MAX {
                dist[usize::from(other)] = dist[usize::from(node)] + 1;
                queue.push_back(other);
            }
        }
    }
    None
}

/// Runs fair completion on `state` and returns the probe verdict
/// together with the completed state (for rendering).
pub fn fair_complete<M: ProtocolModel>(
    scenario: &Scenario,
    mut state: NetState<M>,
) -> (LiveVerdict, NetState<M>) {
    let Some((src, dst)) = scenario.probe else {
        return (LiveVerdict::Vacuous, state);
    };
    let mut steps = 0usize;
    if !settle(&mut state, scenario, &mut steps) {
        return (LiveVerdict::Diverged, state);
    }
    for _ in 0..TIMER_ROUNDS {
        let pending: Vec<(u16, u64)> = state.timers.iter().copied().collect();
        for (node, token) in pending {
            // A timer may have been consumed by a cascade; skip it.
            let Some(step) = state.apply(scenario, &Event::Fire { node, token }) else {
                continue;
            };
            steps += 1;
            state = step.state;
            if !settle(&mut state, scenario, &mut steps) {
                return (LiveVerdict::Diverged, state);
            }
        }
    }
    let Some(dist) = hop_distance(&state.links, scenario.n, src, dst) else {
        return (LiveVerdict::Vacuous, state);
    };
    // The probe discovery is granted exactly the retries the protocol's
    // own TTL schedule needs for this distance: after the injection
    // settles, `rounds − 1` extra timer rounds let an expanding ring
    // expand. No more than that — "one extra attempt recovers it" is
    // precisely the post-reboot deficiency the restart witnesses pin.
    // A schedule that tops out short of the distance makes the probe
    // vacuous: the configuration rules the discovery out a priori.
    let Some(rounds) = state.nodes[usize::from(src)].discovery_attempts(dist) else {
        return (LiveVerdict::Vacuous, state);
    };
    let rounds = rounds.max(1);
    for _ in 0..PROBE_ATTEMPTS {
        state.inject_origination(scenario, src, dst);
        if !settle(&mut state, scenario, &mut steps) {
            return (LiveVerdict::Diverged, state);
        }
        for _ in 1..rounds {
            state.nodes[usize::from(src)].refresh_routes();
            if state.nodes[usize::from(src)].has_route(NodeId(dst)) {
                break;
            }
            let pending: Vec<(u16, u64)> = state.timers.iter().copied().collect();
            for (node, token) in pending {
                let Some(step) = state.apply(scenario, &Event::Fire { node, token }) else {
                    continue;
                };
                steps += 1;
                state = step.state;
                if !settle(&mut state, scenario, &mut steps) {
                    return (LiveVerdict::Diverged, state);
                }
            }
        }
        state.nodes[usize::from(src)].refresh_routes();
        if state.nodes[usize::from(src)].has_route(NodeId(dst)) {
            return (LiveVerdict::Pass, state);
        }
    }
    let discovering = state.nodes[usize::from(src)].discovery_pending(NodeId(dst));
    (LiveVerdict::Stall { src, dst, discovering }, state)
}

/// Replays `events` from the initial state (skipping inapplicable
/// steps, like [`crate::checker::replay`]) and fair-completes, returning
/// the liveness verdict.
pub fn replay_live<M: ProtocolModel>(
    scenario: &Scenario,
    factory: impl Fn(NodeId) -> M,
    events: &[Event],
) -> LiveVerdict {
    let mut state = NetState::init(scenario, factory);
    for event in events {
        if let Some(step) = state.apply(scenario, event) {
            state = step.state;
        }
    }
    fair_complete(scenario, state).0
}

/// Minimises a stalling trace: the oracle is "replaying the candidate
/// and fair-completing still stalls". The result is 1-minimal.
pub fn shrink_stall<M: ProtocolModel>(
    scenario: &Scenario,
    factory: impl Fn(NodeId) -> M + Copy,
    trace: Vec<Event>,
) -> Vec<Event> {
    shrink_with(trace, |cand| {
        matches!(replay_live(scenario, factory, cand), LiveVerdict::Stall { .. })
    })
}

/// Renders the deterministic report for a liveness counterexample:
/// verdict, minimized trace, and the probe source's view of the world
/// after fair completion. Pinned byte-for-byte by regression tests.
pub fn render_stall<M: ProtocolModel>(
    scenario: &Scenario,
    factory: impl Fn(NodeId) -> M + Copy,
    events: &[Event],
    raw_len: usize,
) -> String {
    let mut out = String::new();
    let proto = factory(NodeId(0)).name();
    let _ = writeln!(out, "== liveness stall: {} ({proto}) ==", scenario.name);
    let mut state = NetState::init(scenario, factory);
    for event in events {
        if let Some(step) = state.apply(scenario, event) {
            state = step.state;
        }
    }
    let (verdict, done) = fair_complete(scenario, state);
    let _ = writeln!(out, "verdict: {verdict}");
    let _ = writeln!(out, "trace ({} events, shrunk from {raw_len}):", events.len());
    for (i, e) in events.iter().enumerate() {
        let _ = writeln!(out, "  {:>2}. {e}", i + 1);
    }
    if let Some((src, dst)) = scenario.probe {
        let _ = writeln!(out, "-- probe {src} -> {dst}: source view after fair completion --");
        let node = &done.nodes[usize::from(src)];
        let _ = writeln!(out, "  discovery pending: {}", node.discovery_pending(NodeId(dst)));
        let dump = node.dump();
        if dump.is_empty() {
            let _ = writeln!(out, "  (route table empty)");
        }
        for r in dump {
            let fd = r.feasible_dist.map_or_else(|| "-".into(), |v| v.to_string());
            let sn = r.seqno.map_or_else(|| "-".into(), |v| SeqNo::from_u64(v).to_string());
            let valid = if r.valid { "valid" } else { "expired" };
            let _ = writeln!(
                out,
                "  -> {} via {} d={} fd={} sn={} {}",
                r.dest, r.next, r.dist, fd, sn, valid
            );
        }
    }
    out
}
