//! The verification hooks the checker needs on top of the simulator's
//! callback surface.
//!
//! The checker drives a protocol through
//! [`manet_sim::protocol::RoutingProtocol`] itself — `start`, the
//! `handle_*` callbacks, `handle_reboot`, `name`, `route_successors` —
//! exactly as the simulator does. [`ProtocolModel`] adds only what a
//! checker alone asks for: a canonical state digest for state-space
//! deduplication, the two environment transitions — soft-state expiry
//! and owner sequence-number increments — that the simulator normally
//! produces through the passage of time, and the liveness executor's
//! probes. LDR and all three baselines (AODV, DSR, OLSR) implement it,
//! so the same scenarios and invariant checks run against each.

use ldr::Ldr;
use manet_baselines::{Aodv, Dsr, Olsr};
use manet_sim::packet::NodeId;
use manet_sim::protocol::{RouteDump, RoutingProtocol};

/// A per-node protocol instance the model checker can drive (as a
/// [`RoutingProtocol`]), clone (to branch the search), and canonically
/// fingerprint.
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

impl ProtocolModel for Ldr {
    fn force_expire(&mut self, dest: NodeId) -> bool {
        Ldr::force_expire(self, dest)
    }
    fn bump_own_seqno(&mut self) {
        Ldr::bump_own_seqno(self);
    }
    fn digest(&self, out: &mut Vec<u8>) {
        self.verification_digest(out);
    }
    fn discovery_pending(&self, dest: NodeId) -> bool {
        self.is_active_for(dest)
    }
    fn discovery_attempts(&self, dist: u32) -> Option<u32> {
        self.discovery_attempts_for(dist)
    }
}

impl ProtocolModel for Aodv {
    fn force_expire(&mut self, dest: NodeId) -> bool {
        Aodv::force_expire(self, dest)
    }
    fn bump_own_seqno(&mut self) {
        Aodv::bump_own_seqno(self);
    }
    fn digest(&self, out: &mut Vec<u8>) {
        self.verification_digest(out);
    }
    fn discovery_pending(&self, dest: NodeId) -> bool {
        self.is_discovering(dest)
    }
    fn discovery_attempts(&self, dist: u32) -> Option<u32> {
        self.discovery_attempts_for(dist)
    }
}

/// DSR keeps no next-hop table, so `route_successors` is empty by
/// design and the successor-graph loop check is vacuous (source routes
/// are loop-free per packet by construction).
impl ProtocolModel for Dsr {
    fn force_expire(&mut self, dest: NodeId) -> bool {
        Dsr::force_expire(self, dest)
    }
    fn digest(&self, out: &mut Vec<u8>) {
        self.verification_digest(out);
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
    fn force_expire(&mut self, dest: NodeId) -> bool {
        Olsr::force_expire(self, dest)
    }
    fn digest(&self, out: &mut Vec<u8>) {
        self.verification_digest(out);
    }
    fn refresh_routes(&mut self) {
        self.force_recompute();
    }
}
