//! The interface between the simulator and a routing protocol.
//!
//! A protocol implementation is a per-node state machine driven by five
//! callbacks (packet origination, data reception, control reception,
//! timers, link failures). Each callback receives a [`Ctx`] through which
//! the protocol issues side effects — transmissions, deliveries, timers —
//! that the simulator applies after the callback returns. This keeps
//! protocol code single-threaded, deterministic and easy to unit-test:
//! feed a callback, inspect the queued [`Action`]s.

use crate::packet::{ControlKind, ControlPacket, DataPacket, NodeId, Packet};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;

/// Why a data packet was dropped at the routing layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// No route and discovery failed (or proactive table has no entry).
    NoRoute,
    /// The hop budget was exhausted.
    TtlExpired,
    /// The protocol's buffer for packets awaiting discovery overflowed.
    BufferOverflow,
    /// A source route was broken and the packet could not be salvaged.
    BrokenSourceRoute,
    /// A control frame failed wire decoding (truncated or corrupted by
    /// the fault layer) and was discarded instead of processed.
    Malformed,
    /// Any other protocol-specific reason.
    Other,
}

impl DropReason {
    /// Every reason, in a fixed order — telemetry iterates this instead
    /// of the metrics hash maps so exported field order is stable.
    pub const ALL: [DropReason; 6] = [
        DropReason::NoRoute,
        DropReason::TtlExpired,
        DropReason::BufferOverflow,
        DropReason::BrokenSourceRoute,
        DropReason::Malformed,
        DropReason::Other,
    ];
}

/// Protocol-level statistics the simulator cannot infer from packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtoCounter {
    /// Route discoveries begun.
    DiscoveryStarted,
    /// Route discoveries that obtained a route.
    DiscoverySucceeded,
    /// Route discoveries abandoned after all retries.
    DiscoveryFailed,
    /// RREPs received that were usable (hop-wise) at the receiving node —
    /// the paper's "RREP Recv" metric counts these per RREQ initiated.
    RrepUsableRecv,
    /// LDR path resets (destination sequence-number increments forced by
    /// the T bit); AODV-style own-sequence-number increments also count.
    SeqnoIncrement,
    /// Packets salvaged onto an alternate route (DSR).
    Salvage,
}

/// A side effect requested by a protocol callback.
#[derive(Clone, Debug)]
pub enum Action {
    /// Link-level broadcast of a control message to all neighbours.
    Broadcast {
        /// The message.
        ctrl: ControlPacket,
        /// `true` when this node originated the message (vs. relaying),
        /// for the paper's "initiated" counters.
        initiated: bool,
    },
    /// Unicast a control message to a neighbour.
    UnicastControl {
        /// Next-hop neighbour.
        next: NodeId,
        /// The message.
        ctrl: ControlPacket,
        /// Origination flag, as for [`Action::Broadcast`].
        initiated: bool,
        /// Deliver [`RoutingProtocol::handle_unicast_failure`] if the MAC
        /// exhausts its retries.
        notify_failure: bool,
    },
    /// Forward (or originate) a data packet to a next-hop neighbour.
    /// MAC failure always notifies the protocol.
    SendData {
        /// Next-hop neighbour.
        next: NodeId,
        /// The packet.
        data: DataPacket,
    },
    /// Deliver a data packet to the local application (this node is the
    /// destination). The simulator records delivery and latency.
    Deliver {
        /// The packet.
        data: DataPacket,
    },
    /// Discard a data packet. The simulator records the loss.
    DropData {
        /// The packet.
        data: DataPacket,
        /// Why.
        reason: DropReason,
    },
    /// Discard a control frame whose bytes failed wire decoding. The
    /// simulator records a [`DropReason::Malformed`] drop and a
    /// [`TraceEvent::ControlDrop`] so corruption-fault workloads show up
    /// in metrics instead of vanishing silently.
    DropMalformed {
        /// Claimed kind of the undecodable frame.
        kind: ControlKind,
    },
    /// Request a timer callback `token` after `delay`.
    ///
    /// Timers always fire; protocols must ignore stale tokens (the usual
    /// discrete-event pattern — "cancellation" is a protocol-side check).
    SetTimer {
        /// Delay from now.
        delay: SimDuration,
        /// Opaque value handed back to [`RoutingProtocol::handle_timer`].
        token: u64,
    },
    /// Bump a protocol-level statistic.
    Count {
        /// Which statistic.
        which: ProtoCounter,
        /// Increment.
        amount: u64,
    },
    /// Emit a routing-decision trace event (see [`crate::trace`]).
    /// Queued only when tracing is enabled on the [`Ctx`].
    Trace(TraceEvent),
}

/// Callback context: read-only facts about the node plus an action queue.
#[derive(Debug)]
pub struct Ctx<'a> {
    now: SimTime,
    id: NodeId,
    n_nodes: usize,
    rng: &'a mut SimRng,
    actions: &'a mut Vec<Action>,
    trace_enabled: bool,
}

impl<'a> Ctx<'a> {
    /// Creates a context (used by the simulator and by protocol unit
    /// tests that drive callbacks directly). Tracing starts disabled;
    /// the simulator enables it via [`Ctx::set_trace_enabled`] when a
    /// sink or auditor is attached.
    pub fn new(
        now: SimTime,
        id: NodeId,
        n_nodes: usize,
        rng: &'a mut SimRng,
        actions: &'a mut Vec<Action>,
    ) -> Self {
        Ctx { now, id, n_nodes, rng, actions, trace_enabled: false }
    }

    /// Turns routing-decision tracing on or off for this callback.
    pub fn set_trace_enabled(&mut self, on: bool) {
        self.trace_enabled = on;
    }

    /// Whether [`Ctx::trace`] will record anything.
    pub fn trace_enabled(&self) -> bool {
        self.trace_enabled
    }

    /// Emits a routing-decision trace event. The closure is evaluated
    /// only when tracing is enabled, so event construction (snapshots,
    /// allocation) costs nothing in untraced runs.
    pub fn trace<F: FnOnce() -> TraceEvent>(&mut self, f: F) {
        if self.trace_enabled {
            let event = f();
            self.actions.push(Action::Trace(event));
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of nodes in the network (for network-diameter TTLs).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The node's deterministic random stream (jitter, backoff choices).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Queues an arbitrary action.
    pub fn push(&mut self, action: Action) {
        self.actions.push(action);
    }

    /// Broadcasts a control message to link neighbours.
    pub fn broadcast(&mut self, kind: ControlKind, bytes: Vec<u8>, initiated: bool) {
        self.push(Action::Broadcast { ctrl: ControlPacket { kind, bytes }, initiated });
    }

    /// Unicasts a control message to a neighbour.
    pub fn unicast_control(
        &mut self,
        next: NodeId,
        kind: ControlKind,
        bytes: Vec<u8>,
        initiated: bool,
        notify_failure: bool,
    ) {
        self.push(Action::UnicastControl {
            next,
            ctrl: ControlPacket { kind, bytes },
            initiated,
            notify_failure,
        });
    }

    /// Sends a data packet to a next hop.
    pub fn send_data(&mut self, next: NodeId, data: DataPacket) {
        self.push(Action::SendData { next, data });
    }

    /// Delivers a data packet locally.
    pub fn deliver(&mut self, data: DataPacket) {
        self.push(Action::Deliver { data });
    }

    /// Drops a data packet.
    pub fn drop_data(&mut self, data: DataPacket, reason: DropReason) {
        self.push(Action::DropData { data, reason });
    }

    /// Discards an undecodable control frame, recording the loss.
    pub fn drop_malformed(&mut self, kind: ControlKind) {
        self.push(Action::DropMalformed { kind });
    }

    /// Schedules a timer.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.push(Action::SetTimer { delay, token });
    }

    /// Bumps a protocol counter by one.
    pub fn count(&mut self, which: ProtoCounter) {
        self.push(Action::Count { which, amount: 1 });
    }
}

/// One row of a routing table, for inspection and display.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteDump {
    /// Destination.
    pub dest: NodeId,
    /// Next hop towards the destination.
    pub next: NodeId,
    /// Distance metric (hop count).
    pub dist: u32,
    /// Feasible distance, for protocols that keep one (LDR).
    pub feasible_dist: Option<u32>,
    /// Destination sequence number, for protocols that keep one.
    pub seqno: Option<u64>,
    /// Whether the route is currently usable.
    pub valid: bool,
}

/// Aggregate route-table occupancy, sampled by the telemetry layer
/// ([`crate::telemetry`]) at every `TelemetrySample` kernel event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteTelemetry {
    /// Route-table entries held (valid or not); for DSR, cached paths.
    pub entries: u64,
    /// Entries currently usable for forwarding.
    pub valid: u64,
}

/// A per-node routing protocol instance.
///
/// Implementations must be deterministic given the callback sequence and
/// the `Ctx` RNG stream.
pub trait RoutingProtocol: Send {
    /// Short protocol name ("LDR", "AODV", ...).
    fn name(&self) -> &'static str;

    /// Called once at simulation start (schedule periodic timers here).
    fn start(&mut self, _ctx: &mut Ctx) {}

    /// The local application wants `data` carried to `data.dst`.
    fn handle_data_origination(&mut self, ctx: &mut Ctx, data: DataPacket);

    /// A data packet arrived from link neighbour `prev_hop`. The protocol
    /// must deliver it, forward it, or drop it.
    fn handle_data_packet(&mut self, ctx: &mut Ctx, prev_hop: NodeId, data: DataPacket);

    /// A control message arrived from link neighbour `prev_hop`.
    /// `was_broadcast` distinguishes flooded from unicast receptions.
    fn handle_control(
        &mut self,
        ctx: &mut Ctx,
        prev_hop: NodeId,
        ctrl: &ControlPacket,
        was_broadcast: bool,
    );

    /// A timer set via [`Ctx::set_timer`] fired.
    fn handle_timer(&mut self, ctx: &mut Ctx, token: u64);

    /// The MAC exhausted retries sending `packet` to `next_hop`.
    fn handle_unicast_failure(&mut self, ctx: &mut Ctx, next_hop: NodeId, packet: Packet);

    /// The node crashed and restarted. It is called with no timer
    /// pending: none armed before the crash is ever delivered, so the
    /// new incarnation arms what it needs, as [`RoutingProtocol::start`]
    /// does. Volatile state (routes, caches, pending discoveries) is
    /// gone; a protocol may carry over only what a real node keeps in
    /// stable storage across a power cycle, such as a real-time clock.
    /// The default forgets nothing, which is only right for stateless
    /// protocols.
    fn handle_reboot(&mut self, _ctx: &mut Ctx) {}

    /// The routing table, sorted by destination, with `valid` set on
    /// the rows usable for forwarding right now. This is the one table
    /// view: the loop auditors read [`successors`] of it and the sampler
    /// its occupancy, so no protocol states "usable" twice.
    fn route_table_dump(&self) -> Vec<RouteDump> {
        Vec::new()
    }

    /// The node's own destination sequence number, as a scalar, if the
    /// protocol has one (Fig. 7 metric).
    fn own_seqno_value(&self) -> Option<f64> {
        None
    }

    /// Route-table occupancy for the time-series sampler, derived from
    /// [`RoutingProtocol::route_table_dump`]. Only a protocol whose
    /// state is not a next-hop table (DSR's path cache) overrides it.
    fn telemetry_snapshot(&self) -> RouteTelemetry {
        let dump = self.route_table_dump();
        RouteTelemetry {
            entries: dump.len() as u64,
            valid: dump.iter().filter(|r| r.valid).count() as u64,
        }
    }
}

/// The `(dest, next)` pairs of the valid rows of one node's
/// [`RoutingProtocol::route_table_dump`], in dump order — the successor
/// list the loop auditors check for cycles.
pub fn successors(dump: &[RouteDump]) -> Vec<(NodeId, NodeId)> {
    dump.iter().filter(|r| r.valid).map(|r| (r.dest, r.next)).collect()
}

/// The verification hooks a model checker needs on top of
/// [`RoutingProtocol`]: a canonical state digest for state-space
/// deduplication, the two environment transitions — soft-state expiry
/// and owner sequence-number increments — that the simulator produces
/// through the passage of time, and the liveness executor's probes.
/// Each protocol implements it once, in its own crate; the checker
/// (`modelcheck`) drives any implementor through the same scenarios.
pub trait ProtocolModel: RoutingProtocol + Clone {
    /// Environment transition: the route towards `dest` times out
    /// (soft-state only; history survives). Returns whether an entry
    /// existed to expire.
    fn force_expire(&mut self, dest: NodeId) -> bool;
    /// Environment transition: this node raises its *own* destination
    /// sequence number (the owner-only operation). A no-op for the
    /// protocols without one (DSR; OLSR's ANSN belongs to TC flooding):
    /// scenarios give them a zero bump budget, so the transition is
    /// never enumerated.
    fn bump_own_seqno(&mut self) {}
    /// Appends a canonical byte encoding of the complete protocol state
    /// (sorted map iteration; equal bytes iff behaviourally identical).
    fn digest(&self, out: &mut Vec<u8>);
    /// Full routing-table snapshot, sorted by destination: the
    /// simulator-facing dump, unless the protocol keeps its routes
    /// somewhere that dump does not show.
    fn dump(&self) -> Vec<RouteDump> {
        self.route_table_dump()
    }
    /// Whether a usable route towards `dest` exists right now (the
    /// liveness executor's probe predicate). The default reads the
    /// routing-table dump, which is correct for every table-driven
    /// protocol.
    fn has_route(&self, dest: NodeId) -> bool {
        self.dump().iter().any(|r| r.valid && r.dest == dest)
    }
    /// Whether a route discovery towards `dest` is still in progress
    /// (reported in liveness stalls to distinguish "gave up" from
    /// "still trying"). Proactive protocols have no discoveries.
    fn discovery_pending(&self, _dest: NodeId) -> bool {
        false
    }
    /// Brings derived routing state up to date outside any callback.
    /// Proactive protocols recompute their dirty-gated tables here;
    /// on-demand protocols need nothing.
    fn refresh_routes(&mut self) {}
    /// How many discovery attempts the protocol's own TTL schedule
    /// needs to reach a destination `dist` hops away, starting cold —
    /// `None` when the configured schedule cannot reach it at all (the
    /// probe is then vacuous: the configuration, not a protocol bug,
    /// rules the discovery out). The liveness executor grants a probe
    /// exactly this many attempts (firing the retry timers between
    /// them): expanding-ring searches get their schedule-mandated
    /// retries, but a protocol whose state loss costs *extra* attempts
    /// stalls — which is the deficiency the restart witnesses pin.
    /// Single-flood and proactive protocols need one.
    fn discovery_attempts(&self, _dist: u32) -> Option<u32> {
        Some(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_queues_actions_in_order() {
        let mut rng = SimRng::from_seed(1);
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(SimTime::from_secs(1), NodeId(3), 50, &mut rng, &mut actions);
        assert_eq!(ctx.id(), NodeId(3));
        assert_eq!(ctx.n_nodes(), 50);
        assert_eq!(ctx.now(), SimTime::from_secs(1));
        ctx.broadcast(ControlKind::Rreq, vec![1], true);
        ctx.set_timer(SimDuration::from_millis(40), 7);
        ctx.count(ProtoCounter::DiscoveryStarted);
        assert_eq!(actions.len(), 3);
        assert!(matches!(actions[0], Action::Broadcast { initiated: true, .. }));
        assert!(matches!(actions[1], Action::SetTimer { token: 7, .. }));
        assert!(matches!(
            actions[2],
            Action::Count { which: ProtoCounter::DiscoveryStarted, amount: 1 }
        ));
    }

    #[test]
    fn ctx_trace_is_gated() {
        let mut rng = SimRng::from_seed(3);
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(SimTime::ZERO, NodeId(1), 4, &mut rng, &mut actions);
        let mut built = 0;
        ctx.trace(|| {
            built += 1;
            TraceEvent::SeqnoReset { node: NodeId(1), old: 1, new: 2 }
        });
        assert_eq!(built, 0, "disabled tracing must not even build the event");
        ctx.set_trace_enabled(true);
        ctx.trace(|| {
            built += 1;
            TraceEvent::SeqnoReset { node: NodeId(1), old: 1, new: 2 }
        });
        assert_eq!(built, 1);
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], Action::Trace(TraceEvent::SeqnoReset { old: 1, new: 2, .. })));
    }

    #[test]
    fn ctx_rng_is_usable() {
        let mut rng = SimRng::from_seed(2);
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(SimTime::ZERO, NodeId(0), 1, &mut rng, &mut actions);
        let v = ctx.rng().below(10);
        assert!(v < 10);
    }
}
