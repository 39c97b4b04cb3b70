//! Depth-first exhaustive exploration with canonical-state dedup.
//!
//! The checker walks the transition system defined by [`NetState`],
//! deduplicating states by [`NetState::fingerprint`] and re-exploring a
//! known state only when reached at a strictly shallower depth (so a
//! depth bound never hides a short path behind a long first visit).
//! Every *edge* is checked, not just every vertex: a transition's
//! pre/post route-table dumps are compared for feasible-distance
//! monotonicity, its emitted decision traces are audited for NDC
//! soundness, and the post-state successor graphs are searched for
//! cycles.

use crate::net::{Event, NetState, Scenario};
use crate::shrink;
use ldr::SeqNo;
use manet_sim::hash::FxMap;
use manet_sim::loopcheck::find_loops;
use manet_sim::packet::NodeId;
use manet_sim::protocol::{successors, ProtocolModel};
use manet_sim::trace::{InvariantSnapshot, RouteVerdict, TraceEvent};
use std::fmt;

/// Search bounds. Exploration stops (and the outcome is marked
/// non-exhaustive) when either is exceeded.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Maximum schedule length explored from the initial state.
    pub max_depth: usize,
    /// Maximum number of distinct states visited.
    pub max_states: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget { max_depth: 40, max_states: 200_000 }
    }
}

/// A safety violation found on some transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A per-destination successor graph contains a cycle (Theorem 1).
    RoutingLoop {
        /// Destination whose successor graph is cyclic.
        dest: NodeId,
        /// The cycle, closing back on its first node.
        cycle: Vec<NodeId>,
    },
    /// A feasible distance rose while the stored sequence number was
    /// unchanged (Procedure 3's monotonicity obligation).
    FdRaised {
        /// The offending node.
        node: NodeId,
        /// The route's destination.
        dest: NodeId,
        /// The unchanged (packed) sequence number.
        seqno: u64,
        /// Feasible distance before the transition.
        old_fd: u32,
        /// Feasible distance after the transition.
        new_fd: u32,
    },
    /// A traced route admission (`RouteVerdict::Installed`) did not
    /// satisfy NDC against the pre-decision invariants.
    NdcUnsound {
        /// The admitting node.
        node: NodeId,
        /// The advertised destination.
        dest: NodeId,
        /// Advertised (packed) sequence number.
        adv_sn: u64,
        /// Advertised distance.
        adv_d: u32,
        /// Stored invariants the admission was judged against.
        before: InvariantSnapshot,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::RoutingLoop { dest, cycle } => {
                write!(f, "routing loop towards {dest}: ")?;
                for (i, n) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{n}")?;
                }
                Ok(())
            }
            Violation::FdRaised { node, dest, seqno, old_fd, new_fd } => write!(
                f,
                "fd raised at {node} towards {dest}: {old_fd} -> {new_fd} under seqno {}",
                SeqNo::from_u64(*seqno)
            ),
            Violation::NdcUnsound { node, dest, adv_sn, adv_d, before } => write!(
                f,
                "NDC-unsound admission at {node} towards {dest}: \
                 accepted (sn*={}, d*={adv_d}) against (sn={}, d={}, fd={})",
                SeqNo::from_u64(*adv_sn),
                before.sn.map_or_else(|| "-".into(), |s| SeqNo::from_u64(s).to_string()),
                before.d,
                before.fd,
            ),
        }
    }
}

/// A violating schedule, shrunk to 1-minimality.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The violated invariant.
    pub violation: Violation,
    /// Minimized event trace; replaying it from the initial state
    /// reproduces `violation` on the final event.
    pub events: Vec<Event>,
    /// Length of the trace as first found, before shrinking.
    pub raw_len: usize,
}

/// The result of one exploration.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions executed (including revisits).
    pub transitions: usize,
    /// Whether the reachable space was fully explored within budget.
    pub exhaustive: bool,
    /// The first violation found, if any (search stops on it).
    pub violation: Option<Counterexample>,
}

/// Checks the invariants across one transition.
pub(crate) fn check_transition<M: ProtocolModel>(
    pre: &NetState<M>,
    post: &NetState<M>,
    traces: &[TraceEvent],
) -> Option<Violation> {
    // NDC soundness: every admission the protocol traced as `Installed`
    // must have been feasible. `Refreshed` is exempt by design — a
    // through-the-current-successor update needs no NDC (Procedure 3).
    for t in traces {
        if let TraceEvent::AdvertConsidered {
            node,
            dest,
            adv_sn,
            adv_d,
            before,
            verdict: RouteVerdict::Installed,
            ..
        } = t
        {
            let unsound = match before {
                None => false,
                Some(b) => match b.sn {
                    None => false,
                    Some(sn) => !(*adv_sn > sn || (*adv_sn == sn && *adv_d < b.fd)),
                },
            };
            if unsound {
                return Some(Violation::NdcUnsound {
                    node: *node,
                    dest: *dest,
                    adv_sn: *adv_sn,
                    adv_d: *adv_d,
                    before: before.unwrap_or(InvariantSnapshot {
                        sn: None,
                        d: u32::MAX,
                        fd: u32::MAX,
                    }),
                });
            }
        }
    }
    // fd monotonicity per unchanged seqno, per (node, dest).
    for (i, (pre_m, post_m)) in pre.nodes.iter().zip(&post.nodes).enumerate() {
        let pre_dump = pre_m.dump();
        for r_post in post_m.dump() {
            let (Some(new_fd), Some(sn)) = (r_post.feasible_dist, r_post.seqno) else {
                continue;
            };
            let Some(r_pre) = pre_dump.iter().find(|r| r.dest == r_post.dest) else {
                continue;
            };
            if r_pre.seqno == Some(sn) {
                if let Some(old_fd) = r_pre.feasible_dist {
                    if new_fd > old_fd {
                        return Some(Violation::FdRaised {
                            node: NodeId(i as u16),
                            dest: r_post.dest,
                            seqno: sn,
                            old_fd,
                            new_fd,
                        });
                    }
                }
            }
        }
    }
    // Successor-graph acyclicity per destination.
    let tables: Vec<Vec<(NodeId, NodeId)>> =
        post.nodes.iter().map(|m| successors(&m.route_table_dump())).collect();
    if let Some(v) = find_loops(&tables).into_iter().next() {
        return Some(Violation::RoutingLoop { dest: v.destination, cycle: v.cycle });
    }
    None
}

/// Replays `events` from the scenario's initial state, skipping steps
/// that are not applicable, and returns the index of the first
/// violating event together with the violation.
pub fn replay<M: ProtocolModel>(
    scenario: &Scenario,
    factory: impl Fn(NodeId) -> M,
    events: &[Event],
) -> Option<(usize, Violation)> {
    let mut state = NetState::init(scenario, factory);
    for (i, event) in events.iter().enumerate() {
        let Some(step) = state.apply(scenario, event) else { continue };
        if let Some(v) = check_transition(&state, &step.state, &step.traces) {
            return Some((i, v));
        }
        state = step.state;
    }
    None
}

struct Frame<M> {
    state: NetState<M>,
    /// Event that produced this frame's state (None for the root).
    via: Option<Event>,
    events: Vec<Event>,
    idx: usize,
}

/// Exhaustive bounded DFS over a scenario's transition system.
pub struct Checker {
    /// The scenario to explore.
    pub scenario: Scenario,
    /// Search bounds.
    pub budget: Budget,
}

impl Checker {
    /// Creates a checker with the given scenario and budget.
    pub fn new(scenario: Scenario, budget: Budget) -> Self {
        Checker { scenario, budget }
    }

    /// Runs the search. Stops on the first violation (returning its
    /// shrunk counterexample) or when the reachable space — within
    /// budget — is exhausted.
    pub fn run<M: ProtocolModel>(&self, factory: impl Fn(NodeId) -> M + Copy) -> Outcome {
        let scenario = &self.scenario;
        let root = NetState::init(scenario, factory);
        let mut visited: FxMap<u128, usize> = FxMap::default();
        visited.insert(root.fingerprint(), 0);
        let events = root.enumerate(scenario);
        let mut stack = vec![Frame { state: root, via: None, events, idx: 0 }];
        let mut transitions = 0usize;
        let mut exhaustive = true;

        while let Some(top) = stack.last_mut() {
            if top.idx >= top.events.len() {
                stack.pop();
                continue;
            }
            let event = top.events[top.idx].clone();
            top.idx += 1;
            let depth = stack.len(); // depth of the prospective child
            let Some(step) = stack.last().and_then(|f| f.state.apply(scenario, &event)) else {
                continue;
            };
            transitions += 1;

            if let Some(violation) =
                check_transition(&stack[stack.len() - 1].state, &step.state, &step.traces)
            {
                let mut trace: Vec<Event> = stack.iter().filter_map(|f| f.via.clone()).collect();
                trace.push(event);
                let raw_len = trace.len();
                let (events, violation) = shrink::shrink(scenario, factory, trace, violation);
                return Outcome {
                    states: visited.len(),
                    transitions,
                    exhaustive,
                    violation: Some(Counterexample { violation, events, raw_len }),
                };
            }

            let fp = step.state.fingerprint();
            match visited.get(&fp) {
                Some(&d) if d <= depth => continue,
                _ => {}
            }
            if visited.len() >= self.budget.max_states {
                exhaustive = false;
                continue;
            }
            visited.insert(fp, depth);
            if depth >= self.budget.max_depth {
                exhaustive = false;
                continue;
            }
            let child_events = step.state.enumerate(scenario);
            stack.push(Frame { state: step.state, via: Some(event), events: child_events, idx: 0 });
        }

        Outcome { states: visited.len(), transitions, exhaustive, violation: None }
    }
}
