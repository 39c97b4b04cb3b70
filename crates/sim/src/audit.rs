//! Every-mutation invariant auditing with first-violation forensics.
//!
//! The periodic loop auditor ([`crate::loopcheck`]) samples the
//! successor graphs at fixed intervals; a loop that forms and heals
//! between samples is invisible, and a sample that *does* catch one
//! says nothing about how it formed. This module closes both gaps when
//! enabled via [`crate::config::SimConfig::invariant_audit`]:
//!
//! * after **every** protocol callback (the only points where route
//!   tables mutate) the auditor re-checks two invariants —
//!   1. *fd-monotonicity per sequence number*: a node's feasible
//!      distance for a destination never increases while its stored
//!      sequence number is unchanged (LDR's Procedure 3 guarantee, the
//!      premise of Theorem 4);
//!   2. *successor-graph acyclicity*: no per-destination successor
//!      graph across all nodes contains a cycle;
//! * the **first** violation freezes a [`ForensicReport`]: the breach,
//!   the involved nodes' full route-table dumps, their recent
//!   routing-decision timeline and the tail of the global trace ring.
//!   Under a fixed seed the report is byte-for-byte reproducible.
//!
//! The cost is O(nodes × routes) per protocol event — strictly a
//! debugging/verification mode, which is why it is opt-in.

use crate::loopcheck::{find_loops, LoopViolation};
use crate::packet::NodeId;
use crate::protocol::RouteDump;
use crate::time::SimTime;
use crate::trace::TraceEvent;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// How many recent trace events the auditor retains for forensics.
pub const FORENSIC_WINDOW: usize = 128;

/// A broken invariant caught by the every-mutation auditor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvariantBreach {
    /// A node's feasible distance rose while its stored sequence number
    /// for the destination was unchanged.
    FdRaised {
        /// The offending node.
        node: NodeId,
        /// The destination whose entry regressed.
        dest: NodeId,
        /// The (unchanged) stored sequence number.
        seqno: Option<u64>,
        /// Feasible distance before the mutation.
        old_fd: u32,
        /// Feasible distance after the mutation.
        new_fd: u32,
    },
    /// A per-destination successor graph contains a cycle.
    RoutingLoop(LoopViolation),
}

impl fmt::Display for InvariantBreach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantBreach::FdRaised { node, dest, seqno, old_fd, new_fd } => write!(
                f,
                "fd-monotonicity broken at {node} towards {dest}: fd rose {old_fd} -> {new_fd} under sn {seqno:?}"
            ),
            InvariantBreach::RoutingLoop(v) => write!(f, "{v}"),
        }
    }
}

/// Everything needed to diagnose the first invariant breach of a run.
///
/// The report is fully determined by `(configuration, seed)`: rerunning
/// the same scenario reproduces it exactly, so its rendered form can be
/// asserted on in tests and diffed across code changes.
#[derive(Clone, Debug, PartialEq)]
pub struct ForensicReport {
    /// Simulated time of the breach.
    pub at: SimTime,
    /// The run's master seed (for replay).
    pub seed: u64,
    /// What broke.
    pub breach: InvariantBreach,
    /// Nodes implicated in the breach (offender + destination, or the
    /// cycle members), ascending.
    pub involved: Vec<NodeId>,
    /// The involved nodes' complete route-table dumps at breach time.
    pub tables: Vec<(NodeId, Vec<RouteDump>)>,
    /// Recent trace events at the involved nodes, oldest first.
    pub timeline: Vec<(SimTime, TraceEvent)>,
    /// The tail of the global trace ring (all nodes), oldest first.
    pub recent: Vec<(SimTime, TraceEvent)>,
}

impl fmt::Display for ForensicReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== invariant breach at t={}s (seed {}) ===", self.at, self.seed)?;
        writeln!(f, "breach: {}", self.breach)?;
        writeln!(f, "involved nodes: {:?}", self.involved)?;
        for (node, dump) in &self.tables {
            writeln!(f, "route table of {node}:")?;
            if dump.is_empty() {
                writeln!(f, "  (empty)")?;
            }
            for r in dump {
                writeln!(
                    f,
                    "  -> {} via {} d={} fd={:?} sn={:?} valid={}",
                    r.dest, r.next, r.dist, r.feasible_dist, r.seqno, r.valid
                )?;
            }
        }
        writeln!(f, "timeline of involved nodes ({} events):", self.timeline.len())?;
        for (t, e) in &self.timeline {
            writeln!(f, "  [{t:?}] {e:?}")?;
        }
        writeln!(f, "last {} trace events overall:", self.recent.len())?;
        for (t, e) in &self.recent {
            writeln!(f, "  [{t:?}] {e:?}")?;
        }
        Ok(())
    }
}

/// The every-mutation invariant auditor.
///
/// Owned by the [`crate::world::World`] when
/// [`crate::config::SimConfig::invariant_audit`] is set. It observes
/// every trace event into a bounded ring and re-checks the invariants
/// after each protocol callback.
#[derive(Debug, Default)]
pub struct InvariantAuditor {
    /// Last seen `(sn, fd)` per `(node, dest)` — the fd-monotonicity
    /// baseline.
    /// Ordered map: `retain` below iterates it, and a breach report must
    /// not depend on process-level hash state.
    baselines: BTreeMap<(NodeId, NodeId), (Option<u64>, u32)>,
    /// Bounded ring of recent trace events (all nodes).
    recent: VecDeque<(SimTime, TraceEvent)>,
    /// Checks performed.
    pub checks: u64,
    /// Breaches found (first one captured in `report`).
    pub breaches: u64,
    report: Option<ForensicReport>,
}

impl InvariantAuditor {
    /// A fresh auditor with no baselines.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one trace event into the forensic ring.
    ///
    /// A [`TraceEvent::NodeRestarted`] additionally clears the restarted
    /// node's fd baselines: a restart loses the table legitimately, so a
    /// later re-learned route at a higher distance under an old sequence
    /// number must not be mistaken for an fd-monotonicity breach — only
    /// mutations *within* one incarnation are bound by Procedure 3.
    pub fn observe(&mut self, t: SimTime, event: &TraceEvent) {
        if let TraceEvent::NodeRestarted { node } = event {
            let node = *node;
            self.baselines.retain(|&(n, _), _| n != node);
        }
        if self.recent.len() == FORENSIC_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back((t, event.clone()));
    }

    /// The first-violation forensic report, if a breach occurred.
    pub fn report(&self) -> Option<&ForensicReport> {
        self.report.as_ref()
    }

    /// Re-checks both invariants against fresh per-node snapshots.
    /// `dumps[i]`/`successors[i]` belong to node `i`. Returns the
    /// number of new breaches found by this check.
    pub fn check(
        &mut self,
        now: SimTime,
        seed: u64,
        dumps: &[Vec<RouteDump>],
        successors: &[Vec<(NodeId, NodeId)>],
    ) -> u64 {
        self.checks += 1;
        let mut found: Vec<InvariantBreach> = Vec::new();

        // 1. fd non-increasing per (node, dest) while sn is unchanged.
        for (i, dump) in dumps.iter().enumerate() {
            let node = NodeId(i as u16);
            for r in dump {
                let Some(fd) = r.feasible_dist else { continue };
                let key = (node, r.dest);
                if let Some(&(sn_old, fd_old)) = self.baselines.get(&key) {
                    if r.seqno == sn_old && fd > fd_old {
                        found.push(InvariantBreach::FdRaised {
                            node,
                            dest: r.dest,
                            seqno: r.seqno,
                            old_fd: fd_old,
                            new_fd: fd,
                        });
                    }
                }
                // Advance the baseline even past a breach so the same
                // regression is reported once, not at every later check.
                self.baselines.insert(key, (r.seqno, fd));
            }
        }

        // 2. Successor-graph acyclicity across all destinations.
        for v in find_loops(successors) {
            found.push(InvariantBreach::RoutingLoop(v));
        }

        let new = found.len() as u64;
        self.breaches += new;
        if self.report.is_none() {
            if let Some(breach) = found.into_iter().next() {
                self.report = Some(self.capture(now, seed, breach, dumps));
            }
        }
        new
    }

    fn capture(
        &self,
        now: SimTime,
        seed: u64,
        breach: InvariantBreach,
        dumps: &[Vec<RouteDump>],
    ) -> ForensicReport {
        let mut involved: Vec<NodeId> = match &breach {
            InvariantBreach::FdRaised { node, dest, .. } => vec![*node, *dest],
            InvariantBreach::RoutingLoop(v) => {
                let mut ns = v.cycle.clone();
                ns.push(v.destination);
                ns
            }
        };
        involved.sort_unstable();
        involved.dedup();
        let tables = involved
            .iter()
            .filter(|n| (n.index()) < dumps.len())
            .map(|&n| (n, dumps[n.index()].clone()))
            .collect();
        let timeline =
            self.recent.iter().filter(|(_, e)| involved.contains(&e.node())).cloned().collect();
        let recent = self.recent.iter().cloned().collect();
        ForensicReport { at: now, seed, breach, involved, tables, timeline, recent }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump(dest: u16, fd: u32, sn: u64) -> RouteDump {
        RouteDump {
            dest: NodeId(dest),
            next: NodeId(1),
            dist: fd,
            feasible_dist: Some(fd),
            seqno: Some(sn),
            valid: true,
        }
    }

    #[test]
    fn fd_raise_under_fixed_sn_is_a_breach() {
        let mut a = InvariantAuditor::new();
        assert_eq!(a.check(SimTime::ZERO, 1, &[vec![dump(9, 3, 5)]], &[vec![]]), 0);
        // fd shrinking is fine.
        assert_eq!(a.check(SimTime::ZERO, 1, &[vec![dump(9, 2, 5)]], &[vec![]]), 0);
        // fd rising under the same sn is the breach.
        let n = a.check(SimTime::from_secs(1), 1, &[vec![dump(9, 4, 5)]], &[vec![]]);
        assert_eq!(n, 1);
        let r = a.report().expect("forensics captured");
        assert!(matches!(r.breach, InvariantBreach::FdRaised { old_fd: 2, new_fd: 4, .. }));
        assert_eq!(r.involved, vec![NodeId(0), NodeId(9)]);
        // Reported once: the baseline advanced past the regression.
        assert_eq!(a.check(SimTime::from_secs(2), 1, &[vec![dump(9, 4, 5)]], &[vec![]]), 0);
    }

    #[test]
    fn fd_reset_on_new_seqno_is_allowed() {
        let mut a = InvariantAuditor::new();
        a.check(SimTime::ZERO, 1, &[vec![dump(9, 2, 5)]], &[vec![]]);
        // Newer sn: fd may jump back up.
        assert_eq!(a.check(SimTime::ZERO, 1, &[vec![dump(9, 10, 6)]], &[vec![]]), 0);
        assert!(a.report().is_none());
    }

    #[test]
    fn successor_cycle_is_a_breach_with_cycle_forensics() {
        let mut a = InvariantAuditor::new();
        a.observe(
            SimTime::ZERO,
            &TraceEvent::RreqStart { node: NodeId(0), dest: NodeId(2), rreqid: 1, ttl: 3 },
        );
        let succ = vec![vec![(NodeId(2), NodeId(1))], vec![(NodeId(2), NodeId(0))], vec![]];
        let n = a.check(SimTime::from_secs(3), 42, &[vec![], vec![], vec![]], &succ);
        assert_eq!(n, 1);
        let r = a.report().expect("forensics captured");
        assert!(matches!(r.breach, InvariantBreach::RoutingLoop(_)));
        assert_eq!(r.involved, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(r.seed, 42);
        assert_eq!(r.timeline.len(), 1, "node 0's RreqStart is on the timeline");
        let rendered = r.to_string();
        assert!(rendered.contains("loop towards"));
        assert!(rendered.contains("seed 42"));
    }

    #[test]
    fn forensic_ring_is_bounded() {
        let mut a = InvariantAuditor::new();
        for i in 0..(FORENSIC_WINDOW + 50) {
            a.observe(SimTime::from_nanos(i as u64), &TraceEvent::RxCollision { node: NodeId(0) });
        }
        assert_eq!(a.recent.len(), FORENSIC_WINDOW);
        assert_eq!(a.recent.front().unwrap().0, SimTime::from_nanos(50));
    }
}
