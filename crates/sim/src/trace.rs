//! Packet-lifecycle and routing-decision tracing.
//!
//! An optional [`TraceSink`] attached to a [`crate::world::World`]
//! receives one event per interesting occurrence on two layers:
//!
//! * **link layer** — transmissions, clean receptions, collision
//!   losses, MAC give-ups, per-hop data forwarding and drops
//!   ([`TraceEvent::DataSend`], [`TraceEvent::DataDrop`] — emitted by
//!   the kernel itself, so they cover every protocol) and application
//!   deliveries;
//! * **routing layer** — route-table mutations ([`RouteInstall`],
//!   [`RouteInvalidate`], [`SeqnoReset`]), per-advertisement
//!   feasibility verdicts with the full `(sn, d, fd)` invariant triple
//!   before and after ([`AdvertConsidered`], [`SolicitVerdict`]) and
//!   the RREQ/RREP/RERR lifecycle ([`RreqStart`], [`RreqRelay`],
//!   [`RrepSend`], [`RerrSend`]). Protocols emit these through
//!   [`crate::protocol::Ctx::trace`]; emission is free when no sink or
//!   auditor is attached (the closure never runs).
//!
//! [`MemoryTrace`] collects events for assertions and debugging; a
//! shared handle to any sink (`Arc<Mutex<S>>`) implements the trait
//! too, so callers can keep access while the world owns the sink.
//!
//! [`RouteInstall`]: TraceEvent::RouteInstall
//! [`RouteInvalidate`]: TraceEvent::RouteInvalidate
//! [`SeqnoReset`]: TraceEvent::SeqnoReset
//! [`AdvertConsidered`]: TraceEvent::AdvertConsidered
//! [`SolicitVerdict`]: TraceEvent::SolicitVerdict
//! [`RreqStart`]: TraceEvent::RreqStart
//! [`RreqRelay`]: TraceEvent::RreqRelay
//! [`RrepSend`]: TraceEvent::RrepSend
//! [`RerrSend`]: TraceEvent::RerrSend

use crate::packet::{ControlKind, NodeId};
use crate::protocol::DropReason;
use crate::time::SimTime;
use std::sync::{Arc, Mutex};

/// A routing entry's `(sn, d, fd)` invariant triple, with the sequence
/// number scalarised (protocols encode their richer sequence-number
/// types — e.g. LDR's `(epoch, counter)` pair — into an
/// order-preserving `u64`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvariantSnapshot {
    /// Destination sequence number, if one is known.
    pub sn: Option<u64>,
    /// Measured distance (hops; `u32::MAX` is infinity).
    pub d: u32,
    /// Feasible distance (minimum `d` attained under the current `sn`).
    pub fd: u32,
}

/// What a protocol's route table decided about one advertisement
/// (mirrors LDR's Procedure 3 outcomes; other protocols map their own
/// accept/reject decisions onto the same vocabulary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteVerdict {
    /// Installed as a new route or successor change.
    Installed,
    /// Refreshed the current successor in place.
    Refreshed,
    /// Feasible (NDC holds) but not better than the current route.
    NotBetter,
    /// Rejected by the feasibility condition (NDC).
    Infeasible,
}

impl RouteVerdict {
    /// Every verdict, in declaration order.
    pub const ALL: [RouteVerdict; 4] = [
        RouteVerdict::Installed,
        RouteVerdict::Refreshed,
        RouteVerdict::NotBetter,
        RouteVerdict::Infeasible,
    ];
}

/// Why a route was invalidated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvalidateCause {
    /// The MAC declared the next-hop link broken.
    LinkFailure,
    /// A received RERR named the destination via our successor.
    RouteError,
    /// The "request as error" optimisation: our successor towards the
    /// destination was itself heard soliciting it.
    RequestAsError,
    /// A higher sequence number was adopted, resetting `fd` history.
    SeqnoAdopted,
}

impl InvalidateCause {
    /// Every cause, in declaration order.
    pub const ALL: [InvalidateCause; 4] = [
        InvalidateCause::LinkFailure,
        InvalidateCause::RouteError,
        InvalidateCause::RequestAsError,
        InvalidateCause::SeqnoAdopted,
    ];
}

/// One traced occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node put a frame on the air (first attempt or retry).
    TxStart {
        /// Transmitter.
        node: NodeId,
        /// Packet uid (`None` for link-layer ACKs).
        uid: Option<u64>,
        /// Link destination; `None` is a broadcast.
        dst: Option<NodeId>,
    },
    /// A frame was received intact.
    RxOk {
        /// Receiver.
        node: NodeId,
        /// Packet uid (`None` for link-layer ACKs).
        uid: Option<u64>,
    },
    /// A reception was corrupted by a collision.
    RxCollision {
        /// Receiver.
        node: NodeId,
    },
    /// The MAC exhausted its retries for a unicast frame.
    MacGiveUp {
        /// Transmitter.
        node: NodeId,
        /// The unreachable next hop.
        dst: NodeId,
        /// Packet uid.
        uid: u64,
    },
    /// A data packet reached its destination application.
    Delivered {
        /// Destination node.
        node: NodeId,
        /// Flow id.
        flow: u32,
        /// Sequence within the flow.
        seq: u32,
    },
    /// A node handed a data packet to its MAC for one forwarding hop
    /// (origination or relay). Emitted by the kernel for every
    /// protocol, so per-packet lifecycles (`tracegrep
    /// --explain-packet`) cover DSR/OLSR too, which never touch
    /// `Ctx::trace` on the data path.
    DataSend {
        /// Forwarding node.
        node: NodeId,
        /// Chosen next hop.
        next: NodeId,
        /// Final destination of the packet.
        dst: NodeId,
        /// Flow id.
        flow: u32,
        /// Sequence within the flow.
        seq: u32,
    },
    /// The routing layer dropped a data packet (kernel-emitted, like
    /// [`DataSend`]).
    ///
    /// [`DataSend`]: TraceEvent::DataSend
    DataDrop {
        /// Dropping node.
        node: NodeId,
        /// Flow id.
        flow: u32,
        /// Sequence within the flow.
        seq: u32,
        /// Why the packet was dropped.
        reason: DropReason,
    },
    /// A control frame failed wire decoding (truncated or mutated by
    /// the fault layer) and was discarded by the routing layer instead
    /// of being processed. Counted under [`DropReason::Malformed`].
    ControlDrop {
        /// The node that rejected the frame.
        node: NodeId,
        /// Claimed message kind of the undecodable frame.
        kind: ControlKind,
    },
    /// A route was installed or its successor replaced.
    RouteInstall {
        /// The node whose table changed.
        node: NodeId,
        /// Destination of the route.
        dest: NodeId,
        /// New successor.
        next: NodeId,
        /// Invariants before the mutation (`None`: no prior entry).
        before: Option<InvariantSnapshot>,
        /// Invariants after the mutation.
        after: InvariantSnapshot,
    },
    /// A route was marked unusable (its `sn`/`fd` history survives).
    RouteInvalidate {
        /// The node whose table changed.
        node: NodeId,
        /// Destination of the route.
        dest: NodeId,
        /// Stored sequence number at invalidation time.
        seqno: Option<u64>,
        /// Why.
        cause: InvalidateCause,
    },
    /// A node raised its *own* destination sequence number (LDR path
    /// reset or an AODV-style increment).
    SeqnoReset {
        /// The destination whose number rose.
        node: NodeId,
        /// Value before.
        old: u64,
        /// Value after.
        new: u64,
    },
    /// The route table judged one advertisement `(sn*, d*)` against the
    /// stored invariants — the per-advert NDC verdict.
    AdvertConsidered {
        /// The judging node.
        node: NodeId,
        /// Advertised destination.
        dest: NodeId,
        /// Neighbour the advertisement arrived from.
        from: NodeId,
        /// Advertised sequence number (scalarised).
        adv_sn: u64,
        /// Advertised distance `d*`.
        adv_d: u32,
        /// Stored invariants before the decision.
        before: Option<InvariantSnapshot>,
        /// Stored invariants after the decision.
        after: Option<InvariantSnapshot>,
        /// The decision.
        verdict: RouteVerdict,
    },
    /// An intermediate node decided whether its stored route may answer
    /// a solicitation in the destination's stead — the SDC verdict.
    SolicitVerdict {
        /// The deciding node.
        node: NodeId,
        /// Solicited destination.
        dest: NodeId,
        /// Whether the solicitation carried the T (path-reset) bit.
        t_bit: bool,
        /// Whether SDC allowed the reply.
        allowed: bool,
    },
    /// A node originated a route request.
    RreqStart {
        /// Origin.
        node: NodeId,
        /// Solicited destination.
        dest: NodeId,
        /// Request id (unique per origin).
        rreqid: u32,
        /// Time-to-live of this (expanding-ring) attempt.
        ttl: u8,
    },
    /// A node relayed a route request it was not the target of.
    RreqRelay {
        /// Relay.
        node: NodeId,
        /// Solicited destination.
        dest: NodeId,
        /// The request's origin.
        origin: NodeId,
    },
    /// A node sent (originated or relayed) a route reply.
    RrepSend {
        /// Sender.
        node: NodeId,
        /// Advertised destination.
        dest: NodeId,
        /// Reverse-path neighbour the reply was unicast to.
        to: NodeId,
        /// Advertised distance.
        dist: u32,
    },
    /// A node broadcast a route error.
    RerrSend {
        /// Sender.
        node: NodeId,
        /// Destinations named in the error.
        dests: Vec<NodeId>,
    },
    /// The fault layer applied a scheduled adverse action
    /// ([`crate::faults::FaultAction`]); recorded so the invariant
    /// auditor can attribute any subsequent breach to the provoking
    /// fault.
    FaultInjected {
        /// The node the fault centres on (an endpoint for link faults,
        /// the first group member for partitions, `NodeId(0)` for a
        /// global heal).
        node: NodeId,
        /// Which kind of fault fired.
        kind: FaultKind,
    },
    /// A crashed node came back up with total state loss, immediately
    /// before its protocol's restart callback runs.
    NodeRestarted {
        /// The restarting node.
        node: NodeId,
    },
}

/// The kind of an injected fault (a compact tag mirroring
/// [`crate::faults::FaultAction`] for trace consumers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A node crashed (its restart is traced separately).
    Crash,
    /// An administrative link cut.
    LinkDown,
    /// An administrative link restoration.
    LinkUp,
    /// A regional partition was installed.
    Partition,
    /// The partition and all link cuts were cleared.
    Heal,
    /// Per-link loss/corruption rates changed.
    Impair,
    /// A stale control frame was re-emitted.
    Replay,
}

impl FaultKind {
    /// Every kind, in declaration order.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::Crash,
        FaultKind::LinkDown,
        FaultKind::LinkUp,
        FaultKind::Partition,
        FaultKind::Heal,
        FaultKind::Impair,
        FaultKind::Replay,
    ];
}

impl TraceEvent {
    /// The node the event happened at (for per-node timelines).
    pub fn node(&self) -> NodeId {
        match *self {
            TraceEvent::TxStart { node, .. }
            | TraceEvent::RxOk { node, .. }
            | TraceEvent::RxCollision { node }
            | TraceEvent::MacGiveUp { node, .. }
            | TraceEvent::Delivered { node, .. }
            | TraceEvent::DataSend { node, .. }
            | TraceEvent::DataDrop { node, .. }
            | TraceEvent::ControlDrop { node, .. }
            | TraceEvent::RouteInstall { node, .. }
            | TraceEvent::RouteInvalidate { node, .. }
            | TraceEvent::SeqnoReset { node, .. }
            | TraceEvent::AdvertConsidered { node, .. }
            | TraceEvent::SolicitVerdict { node, .. }
            | TraceEvent::RreqStart { node, .. }
            | TraceEvent::RreqRelay { node, .. }
            | TraceEvent::RrepSend { node, .. }
            | TraceEvent::RerrSend { node, .. }
            | TraceEvent::FaultInjected { node, .. }
            | TraceEvent::NodeRestarted { node } => node,
        }
    }
}

/// Receives trace events from the simulator.
pub trait TraceSink: Send {
    /// Records one event at simulated time `t`.
    fn record(&mut self, t: SimTime, event: TraceEvent);
}

/// An in-memory event log.
#[derive(Debug, Default)]
pub struct MemoryTrace {
    events: Vec<(SimTime, TraceEvent)>,
}

impl MemoryTrace {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shareable handle usable both as the world's sink and for
    /// later inspection.
    pub fn shared() -> Arc<Mutex<MemoryTrace>> {
        Arc::new(Mutex::new(MemoryTrace::new()))
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[(SimTime, TraceEvent)] {
        &self.events
    }

    /// Number of events matching a predicate.
    pub fn count<F: Fn(&TraceEvent) -> bool>(&self, f: F) -> usize {
        self.events.iter().filter(|(_, e)| f(e)).count()
    }
}

impl TraceSink for MemoryTrace {
    fn record(&mut self, t: SimTime, event: TraceEvent) {
        self.events.push((t, event));
    }
}

/// A shared handle to any sink is a sink: the world owns one clone, the
/// caller reads the other afterwards.
impl<T: TraceSink> TraceSink for Arc<Mutex<T>> {
    fn record(&mut self, t: SimTime, event: TraceEvent) {
        // A poisoned lock means a panic elsewhere already ended the
        // run; silently dropping the event beats a panic-in-panic.
        if let Ok(mut sink) = self.lock() {
            sink.record(t, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_trace_records_in_order() {
        let mut tr = MemoryTrace::new();
        tr.record(SimTime::from_secs(1), TraceEvent::RxCollision { node: NodeId(1) });
        tr.record(
            SimTime::from_secs(2),
            TraceEvent::Delivered { node: NodeId(2), flow: 1, seq: 0 },
        );
        assert_eq!(tr.events().len(), 2);
        assert!(tr.events()[0].0 < tr.events()[1].0);
        assert_eq!(tr.count(|e| matches!(e, TraceEvent::Delivered { .. })), 1);
    }

    #[test]
    fn node_and_layer_classification() {
        let link = TraceEvent::RxCollision { node: NodeId(4) };
        assert_eq!(link.node(), NodeId(4));
        let routing = TraceEvent::RouteInstall {
            node: NodeId(2),
            dest: NodeId(9),
            next: NodeId(3),
            before: None,
            after: InvariantSnapshot { sn: Some(7), d: 2, fd: 2 },
        };
        assert_eq!(routing.node(), NodeId(2));
    }

    #[test]
    fn shared_handle_feeds_the_same_log() {
        let shared = MemoryTrace::shared();
        let mut sink: Box<dyn TraceSink> = Box::new(shared.clone());
        sink.record(SimTime::ZERO, TraceEvent::RxOk { node: NodeId(0), uid: Some(7) });
        assert_eq!(shared.lock().unwrap().events().len(), 1);
    }
}
