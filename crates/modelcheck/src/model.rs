//! The pluggable protocol interface the checker drives.
//!
//! [`ProtocolModel`] mirrors the callback surface of
//! [`manet_sim::protocol::RoutingProtocol`] and adds the three
//! verification hooks a checker needs: a canonical state digest for
//! state-space deduplication, and the two environment transitions —
//! soft-state expiry and owner sequence-number increments — that the
//! simulator normally produces through the passage of time. Both the
//! LDR implementation under test and the AODV baseline implement it,
//! so the same scenarios and invariant checks run against either.

use ldr::Ldr;
use manet_baselines::{Aodv, Dsr, Olsr};
use manet_sim::packet::{ControlPacket, DataPacket, NodeId, Packet};
use manet_sim::protocol::{Ctx, RouteDump, RoutingProtocol};

/// A per-node protocol instance the model checker can drive, clone (to
/// branch the search), and canonically fingerprint.
pub trait ProtocolModel: Clone {
    /// Protocol name for reports ("LDR", "AODV", ...).
    fn protocol_name(&self) -> &'static str;
    /// Simulation-start callback (periodic timers are scheduled here).
    fn on_start(&mut self, ctx: &mut Ctx);
    /// The local application originates `data`.
    fn on_originate(&mut self, ctx: &mut Ctx, data: DataPacket);
    /// A data packet arrived from link neighbour `prev`.
    fn on_data(&mut self, ctx: &mut Ctx, prev: NodeId, data: DataPacket);
    /// A control message arrived from link neighbour `prev`.
    fn on_control(&mut self, ctx: &mut Ctx, prev: NodeId, ctrl: ControlPacket, bcast: bool);
    /// A timer requested via `Ctx::set_timer` fired.
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64);
    /// The link layer gave up delivering `packet` to `next_hop`.
    fn on_unicast_failure(&mut self, ctx: &mut Ctx, next_hop: NodeId, packet: Packet);
    /// Environment transition: the node crashes and restarts with total
    /// state loss (drives the protocol's reboot recovery honestly —
    /// same hook [`Event::Restart`](crate::net::Event::Restart) and the
    /// simulator's `FaultAction::CrashRestart` both exercise).
    fn on_restart(&mut self, ctx: &mut Ctx);
    /// Environment transition: the route towards `dest` times out
    /// (soft-state only; history survives). Returns whether an entry
    /// existed to expire.
    fn force_expire(&mut self, dest: NodeId) -> bool;
    /// Environment transition: this node raises its *own* destination
    /// sequence number (the owner-only operation).
    fn bump_own_seqno(&mut self);
    /// Appends a canonical byte encoding of the complete protocol state
    /// (sorted map iteration; equal bytes iff behaviourally identical).
    fn digest(&self, out: &mut Vec<u8>);
    /// `(dest, next_hop)` pairs of currently usable routes.
    fn successors(&self) -> Vec<(NodeId, NodeId)>;
    /// Full routing-table snapshot, sorted by destination.
    fn dump(&self) -> Vec<RouteDump>;
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

impl ProtocolModel for Ldr {
    fn protocol_name(&self) -> &'static str {
        RoutingProtocol::name(self)
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        RoutingProtocol::start(self, ctx);
    }
    fn on_originate(&mut self, ctx: &mut Ctx, data: DataPacket) {
        self.handle_data_origination(ctx, data);
    }
    fn on_data(&mut self, ctx: &mut Ctx, prev: NodeId, data: DataPacket) {
        self.handle_data_packet(ctx, prev, data);
    }
    fn on_control(&mut self, ctx: &mut Ctx, prev: NodeId, ctrl: ControlPacket, bcast: bool) {
        self.handle_control(ctx, prev, &ctrl, bcast);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        self.handle_timer(ctx, token);
    }
    fn on_unicast_failure(&mut self, ctx: &mut Ctx, next_hop: NodeId, packet: Packet) {
        self.handle_unicast_failure(ctx, next_hop, packet);
    }
    fn on_restart(&mut self, ctx: &mut Ctx) {
        RoutingProtocol::handle_reboot(self, ctx);
    }
    fn force_expire(&mut self, dest: NodeId) -> bool {
        Ldr::force_expire(self, dest)
    }
    fn bump_own_seqno(&mut self) {
        Ldr::bump_own_seqno(self);
    }
    fn digest(&self, out: &mut Vec<u8>) {
        self.verification_digest(out);
    }
    fn successors(&self) -> Vec<(NodeId, NodeId)> {
        self.route_successors()
    }
    fn dump(&self) -> Vec<RouteDump> {
        self.route_table_dump()
    }
    fn discovery_pending(&self, dest: NodeId) -> bool {
        self.is_active_for(dest)
    }
    fn discovery_attempts(&self, dist: u32) -> Option<u32> {
        self.discovery_attempts_for(dist)
    }
}

impl ProtocolModel for Aodv {
    fn protocol_name(&self) -> &'static str {
        RoutingProtocol::name(self)
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        RoutingProtocol::start(self, ctx);
    }
    fn on_originate(&mut self, ctx: &mut Ctx, data: DataPacket) {
        self.handle_data_origination(ctx, data);
    }
    fn on_data(&mut self, ctx: &mut Ctx, prev: NodeId, data: DataPacket) {
        self.handle_data_packet(ctx, prev, data);
    }
    fn on_control(&mut self, ctx: &mut Ctx, prev: NodeId, ctrl: ControlPacket, bcast: bool) {
        self.handle_control(ctx, prev, &ctrl, bcast);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        self.handle_timer(ctx, token);
    }
    fn on_unicast_failure(&mut self, ctx: &mut Ctx, next_hop: NodeId, packet: Packet) {
        self.handle_unicast_failure(ctx, next_hop, packet);
    }
    fn on_restart(&mut self, ctx: &mut Ctx) {
        RoutingProtocol::handle_reboot(self, ctx);
    }
    fn force_expire(&mut self, dest: NodeId) -> bool {
        Aodv::force_expire(self, dest)
    }
    fn bump_own_seqno(&mut self) {
        Aodv::bump_own_seqno(self);
    }
    fn digest(&self, out: &mut Vec<u8>) {
        self.verification_digest(out);
    }
    fn successors(&self) -> Vec<(NodeId, NodeId)> {
        self.route_successors()
    }
    fn dump(&self) -> Vec<RouteDump> {
        self.route_table_dump()
    }
    fn discovery_pending(&self, dest: NodeId) -> bool {
        self.is_discovering(dest)
    }
    fn discovery_attempts(&self, dist: u32) -> Option<u32> {
        self.discovery_attempts_for(dist)
    }
}

impl ProtocolModel for Dsr {
    fn protocol_name(&self) -> &'static str {
        RoutingProtocol::name(self)
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        RoutingProtocol::start(self, ctx);
    }
    fn on_originate(&mut self, ctx: &mut Ctx, data: DataPacket) {
        self.handle_data_origination(ctx, data);
    }
    fn on_data(&mut self, ctx: &mut Ctx, prev: NodeId, data: DataPacket) {
        self.handle_data_packet(ctx, prev, data);
    }
    fn on_control(&mut self, ctx: &mut Ctx, prev: NodeId, ctrl: ControlPacket, bcast: bool) {
        self.handle_control(ctx, prev, &ctrl, bcast);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        self.handle_timer(ctx, token);
    }
    fn on_unicast_failure(&mut self, ctx: &mut Ctx, next_hop: NodeId, packet: Packet) {
        self.handle_unicast_failure(ctx, next_hop, packet);
    }
    fn on_restart(&mut self, ctx: &mut Ctx) {
        RoutingProtocol::handle_reboot(self, ctx);
    }
    fn force_expire(&mut self, dest: NodeId) -> bool {
        Dsr::force_expire(self, dest)
    }
    /// DSR has no sequence numbers; scenarios give it a zero bump
    /// budget, so this transition is never enumerated.
    fn bump_own_seqno(&mut self) {}
    fn digest(&self, out: &mut Vec<u8>) {
        self.verification_digest(out);
    }
    /// Empty by design: DSR keeps no next-hop table, so the
    /// successor-graph loop check is vacuous (source routes are
    /// loop-free per packet by construction).
    fn successors(&self) -> Vec<(NodeId, NodeId)> {
        self.route_successors()
    }
    /// The cache-derived dump (one row per destination with a live
    /// path) rather than the simulator-facing empty
    /// `route_table_dump`, so [`Event::Expire`](crate::net::Event) can
    /// enumerate cache timeouts.
    fn dump(&self) -> Vec<RouteDump> {
        self.verification_route_dump()
    }
    fn discovery_pending(&self, dest: NodeId) -> bool {
        self.is_discovering(dest)
    }
    fn discovery_attempts(&self, dist: u32) -> Option<u32> {
        self.discovery_attempts_for(dist)
    }
}

impl ProtocolModel for Olsr {
    fn protocol_name(&self) -> &'static str {
        RoutingProtocol::name(self)
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        RoutingProtocol::start(self, ctx);
    }
    fn on_originate(&mut self, ctx: &mut Ctx, data: DataPacket) {
        self.handle_data_origination(ctx, data);
    }
    fn on_data(&mut self, ctx: &mut Ctx, prev: NodeId, data: DataPacket) {
        self.handle_data_packet(ctx, prev, data);
    }
    fn on_control(&mut self, ctx: &mut Ctx, prev: NodeId, ctrl: ControlPacket, bcast: bool) {
        self.handle_control(ctx, prev, &ctrl, bcast);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        self.handle_timer(ctx, token);
    }
    fn on_unicast_failure(&mut self, ctx: &mut Ctx, next_hop: NodeId, packet: Packet) {
        self.handle_unicast_failure(ctx, next_hop, packet);
    }
    fn on_restart(&mut self, ctx: &mut Ctx) {
        RoutingProtocol::handle_reboot(self, ctx);
    }
    fn force_expire(&mut self, dest: NodeId) -> bool {
        Olsr::force_expire(self, dest)
    }
    /// OLSR has no destination sequence numbers (ANSN belongs to TC
    /// flooding); scenarios give it a zero bump budget.
    fn bump_own_seqno(&mut self) {}
    fn digest(&self, out: &mut Vec<u8>) {
        self.verification_digest(out);
    }
    fn successors(&self) -> Vec<(NodeId, NodeId)> {
        self.route_successors()
    }
    fn dump(&self) -> Vec<RouteDump> {
        self.route_table_dump()
    }
    fn refresh_routes(&mut self) {
        self.force_recompute();
    }
}
