//! AODV — Ad hoc On-demand Distance Vector routing
//! (draft-ietf-manet-aodv-10, the comparison baseline of the paper).
//!
//! AODV attains loop freedom purely through per-destination sequence
//! numbers: numbers are non-increasing moving away from the
//! destination, and a node that loses a route *increments its stored
//! copy of the destination's number* before re-querying. That inflation
//! is exactly what LDR eliminates — it suppresses replies from
//! downstream nodes holding perfectly good loop-free routes under the
//! previous number, and it is what Fig. 7 measures.

pub mod messages;

use manet_sim::discovery::{
    self, Discoveries, ACTIVE_ROUTE_TIMEOUT, MY_ROUTE_TIMEOUT, PATH_DISCOVERY_TIME, TTL_START,
};
use manet_sim::hash::FxMap;
use manet_sim::packet::{ControlKind, ControlPacket, DataPacket, NodeId, Packet, PacketBody};
use manet_sim::protocol::{
    Ctx, DropReason, ProtoCounter, ProtocolModel, RouteDump, RoutingProtocol,
};
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::wire::{put_u16, put_u32, put_u64};
use messages::{Rerr, RerrEntry, Rrep, Rreq};

/// Timer token for the periodic state sweep.
const CLEANUP_TOKEN: u64 = u64::MAX;
const CLEANUP_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// AODV's one setting; its timing is RFC 3561's, the constants of
/// [`manet_sim::discovery`] it shares with LDR. Link breaks are sensed
/// by the MAC layer only (no hellos), and originated requests never set
/// the `D` flag.
#[derive(Clone, Debug, PartialEq)]
pub struct AodvConfig {
    /// Total discovery attempts before giving up.
    pub max_attempts: u32,
}

impl Default for AodvConfig {
    fn default() -> Self {
        AodvConfig { max_attempts: 5 }
    }
}

/// One AODV routing-table entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// Destination sequence number (`None` = unknown/invalid flag).
    pub seq: Option<u32>,
    /// Hop count.
    pub hops: u32,
    /// Next hop.
    pub next: NodeId,
    /// Validity (false after breaks/errors).
    pub valid: bool,
    /// Soft-state expiry.
    pub expires: SimTime,
    /// Upstream nodes known to route through us (RERR recipients).
    pub precursors: Vec<NodeId>,
}

impl Route {
    fn is_active(&self, now: SimTime) -> bool {
        self.valid && now < self.expires
    }
}

/// An AODV node.
#[derive(Clone)]
pub struct Aodv {
    id: NodeId,
    cfg: AodvConfig,
    own_seq: u32,
    routes: FxMap<NodeId, Route>,
    /// RREQ flood dedup: (origin, rreqid) → expiry.
    seen: FxMap<(NodeId, u32), SimTime>,
    /// Strongest RREP forwarded per (orig, dst): (seq, hops, expiry).
    forwarded: FxMap<(NodeId, NodeId), (u32, u8, SimTime)>,
    pending: Discoveries,
    next_rreqid: u32,
    clock: SimTime,
}

impl Aodv {
    /// A new node.
    pub fn new(id: NodeId, cfg: AodvConfig) -> Self {
        Aodv {
            id,
            cfg,
            own_seq: 0,
            routes: FxMap::default(),
            // Pre-sized: one insert per RREQ flood received; retain
            // keeps capacity, so this removes all growth rehashes.
            seen: FxMap::with_capacity_and_hasher(256, Default::default()),
            forwarded: FxMap::default(),
            pending: Discoveries::default(),
            next_rreqid: 0,
            clock: SimTime::ZERO,
        }
    }

    /// A factory closure for [`manet_sim::world::World::new`].
    pub fn factory(cfg: AodvConfig) -> impl FnMut(NodeId, usize) -> Box<dyn RoutingProtocol> {
        move |id, _| Box::new(Aodv::new(id, cfg.clone()))
    }

    /// This node's own sequence number.
    pub fn own_seq(&self) -> u32 {
        self.own_seq
    }

    /// Routing-table entry for a destination.
    pub fn route(&self, dest: NodeId) -> Option<&Route> {
        self.routes.get(&dest)
    }

    fn active(&self, dest: NodeId, now: SimTime) -> Option<&Route> {
        self.routes.get(&dest).filter(|r| r.is_active(now))
    }

    /// RFC 3561 §6.2 update rule: accept if the sequence number is
    /// newer, or unknown locally, or equal with a shorter hop count, or
    /// equal while the current entry is invalid.
    fn update_route(
        &mut self,
        dest: NodeId,
        seq: Option<u32>,
        hops: u32,
        next: NodeId,
        now: SimTime,
        expires: SimTime,
    ) -> bool {
        match self.routes.get_mut(&dest) {
            None => {
                self.routes.insert(
                    dest,
                    Route { seq, hops, next, valid: true, expires, precursors: Vec::new() },
                );
                true
            }
            Some(r) => {
                let accept = match (seq, r.seq) {
                    (Some(n), Some(o)) => n > o || (n == o && (hops < r.hops || !r.is_active(now))),
                    (Some(_), None) => true,
                    (None, _) => !r.is_active(now),
                };
                if accept {
                    r.seq = seq.or(r.seq);
                    r.hops = hops;
                    r.next = next;
                    r.valid = true;
                    r.expires = r.expires.max(expires);
                    true
                } else {
                    if r.is_active(now) && r.next == next {
                        r.expires = r.expires.max(expires);
                    }
                    false
                }
            }
        }
    }

    fn refresh(&mut self, dest: NodeId, expires: SimTime) {
        if let Some(r) = self.routes.get_mut(&dest) {
            r.expires = r.expires.max(expires);
        }
    }

    /// Invalidates every active route through the dead hop `next`,
    /// incrementing the stored destination sequence numbers (AODV's
    /// signature move), and returns the RERR entries, sorted by
    /// destination so hash-map order cannot reach the wire.
    fn invalidate_via(&mut self, next: NodeId, now: SimTime) -> Vec<RerrEntry> {
        let mut lost = Vec::new();
        #[expect(clippy::iter_over_hash_type, reason = "order-free; `lost` is sorted below")]
        for (&dest, r) in self.routes.iter_mut() {
            if r.next == next && r.is_active(now) {
                r.valid = false;
                let s = r.seq.map_or(1, |s| s.wrapping_add(1));
                r.seq = Some(s);
                lost.push(RerrEntry { dst: dest, dst_seq: s });
            }
        }
        lost.sort_unstable_by_key(|e| e.dst.0);
        lost
    }

    fn add_precursor(&mut self, dest: NodeId, precursor: NodeId) {
        if let Some(r) = self.routes.get_mut(&dest) {
            if !r.precursors.contains(&precursor) {
                r.precursors.push(precursor);
            }
        }
    }

    // ----- discovery ---------------------------------------------------------

    fn queue_and_discover(&mut self, ctx: &mut Ctx, data: DataPacket) {
        let dest = data.dst;
        if let Some(token) = self.pending.buffer_or_open(ctx, data) {
            self.send_rreq(ctx, dest, 1, token);
        }
    }

    /// Floods attempt number `attempt` of the discovery towards `dest`
    /// and arms its retry timer with `token`.
    fn send_rreq(&mut self, ctx: &mut Ctx, dest: NodeId, attempt: u32, token: u64) {
        // "Immediately before a node originates a route discovery, it
        // MUST increment its own sequence number" — this, plus the
        // break-time inflation below, is what Fig. 7 measures.
        self.own_seq = self.own_seq.wrapping_add(1);
        ctx.count(ProtoCounter::SeqnoIncrement);
        let ttl = discovery::ring_ttl(TTL_START, attempt);
        let rreqid = self.next_rreqid;
        self.next_rreqid += 1;
        let rreq = Rreq {
            dst: dest,
            dst_seq: self.routes.get(&dest).and_then(|r| r.seq),
            rreqid,
            src: self.id,
            src_seq: self.own_seq,
            hop_count: 0,
            ttl,
            dest_only: false,
        };
        ctx.broadcast(ControlKind::Rreq, rreq.encode(), true);
        ctx.set_timer(discovery::discovery_timeout(ttl), token);
    }

    fn finish_success(&mut self, ctx: &mut Ctx, dest: NodeId) {
        let Some(queue) = self.pending.close(ctx, dest) else { return };
        let now = ctx.now();
        for p in queue {
            match self.active(dest, now).map(|r| r.next) {
                Some(next) => {
                    self.refresh(dest, now + ACTIVE_ROUTE_TIMEOUT);
                    ctx.send_data(next, p);
                }
                None => ctx.drop_data(p, DropReason::NoRoute),
            }
        }
    }

    // ----- RREQ --------------------------------------------------------------

    fn handle_rreq(&mut self, ctx: &mut Ctx, prev: NodeId, rreq: Rreq) {
        if rreq.src == self.id {
            return;
        }
        let now = ctx.now();
        let key = (rreq.src, rreq.rreqid);
        if self.seen.get(&key).is_some_and(|&e| e > now) {
            return;
        }
        self.seen.insert(key, now + PATH_DISCOVERY_TIME);

        let hops = u32::from(rreq.hop_count) + 1;
        // Reverse route to the originator.
        self.update_route(
            rreq.src,
            Some(rreq.src_seq),
            hops,
            prev,
            now,
            now + ACTIVE_ROUTE_TIMEOUT,
        );

        if rreq.dst == self.id {
            // Destination reply: catch up with inflation done by other
            // nodes, and increment when the request matches our number.
            if let Some(rs) = rreq.dst_seq {
                if rs > self.own_seq {
                    self.own_seq = rs;
                    ctx.count(ProtoCounter::SeqnoIncrement);
                }
                if rs == self.own_seq {
                    self.own_seq = self.own_seq.wrapping_add(1);
                    ctx.count(ProtoCounter::SeqnoIncrement);
                }
            }
            let rrep = Rrep {
                dst: self.id,
                dst_seq: self.own_seq,
                orig: rreq.src,
                hop_count: 0,
                lifetime_ms: MY_ROUTE_TIMEOUT.as_millis() as u32,
            };
            ctx.unicast_control(prev, ControlKind::Rrep, rrep.encode(), true, true);
            return;
        }

        // Intermediate reply: active route with a known, fresh-enough
        // sequence number.
        if !rreq.dest_only {
            if let Some(r) = self.active(rreq.dst, now) {
                if let Some(seq) = r.seq {
                    let fresh = rreq.dst_seq.is_none_or(|rs| seq >= rs);
                    if fresh {
                        let (r_hops, r_next, r_exp) = (r.hops, r.next, r.expires);
                        let rrep = Rrep {
                            dst: rreq.dst,
                            dst_seq: seq,
                            orig: rreq.src,
                            hop_count: r_hops.min(255) as u8,
                            lifetime_ms: r_exp.saturating_since(now).as_millis() as u32,
                        };
                        ctx.unicast_control(prev, ControlKind::Rrep, rrep.encode(), true, true);
                        // Precursor bookkeeping for later RERRs.
                        self.add_precursor(rreq.dst, prev);
                        self.add_precursor(rreq.src, r_next);
                        return;
                    }
                }
            }
        }

        // Relay, raising the requested number to our stored one.
        if rreq.ttl <= 1 {
            return;
        }
        let stored = self.routes.get(&rreq.dst).and_then(|r| r.seq);
        let dst_seq = match (rreq.dst_seq, stored) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let fwd = Rreq {
            dst_seq,
            hop_count: rreq.hop_count.saturating_add(1),
            ttl: rreq.ttl - 1,
            ..rreq
        };
        ctx.broadcast(ControlKind::Rreq, fwd.encode(), false);
    }

    // ----- RREP --------------------------------------------------------------

    fn handle_rrep(&mut self, ctx: &mut Ctx, prev: NodeId, rrep: Rrep) {
        let now = ctx.now();
        let hops = u32::from(rrep.hop_count) + 1;
        let lifetime = SimDuration::from_millis(u64::from(rrep.lifetime_ms));
        let installed =
            self.update_route(rrep.dst, Some(rrep.dst_seq), hops, prev, now, now + lifetime);
        if installed {
            ctx.count(ProtoCounter::RrepUsableRecv);
        }
        if rrep.orig == self.id {
            if self.active(rrep.dst, now).is_some() {
                self.finish_success(ctx, rrep.dst);
            }
            return;
        }
        // Forward towards the originator via the reverse route.
        let Some(rev) = self.active(rrep.orig, now) else { return };
        let rev_next = rev.next;
        // Forward only the first RREP per (orig, dst), or a strictly
        // better one (greater seq, or equal seq and fewer hops).
        let fkey = (rrep.orig, rrep.dst);
        let better = match self.forwarded.get(&fkey) {
            Some(&(s, h, exp)) if exp > now => {
                rrep.dst_seq > s || (rrep.dst_seq == s && rrep.hop_count.saturating_add(1) < h)
            }
            _ => true,
        };
        if !better {
            return;
        }
        self.forwarded.insert(
            fkey,
            (rrep.dst_seq, rrep.hop_count.saturating_add(1), now + PATH_DISCOVERY_TIME),
        );
        let fwd = Rrep { hop_count: rrep.hop_count.saturating_add(1), ..rrep };
        ctx.unicast_control(rev_next, ControlKind::Rrep, fwd.encode(), false, true);
        // Precursors: downstream knows upstream uses it, and vice versa.
        self.add_precursor(rrep.dst, rev_next);
        self.add_precursor(rrep.orig, prev);
    }

    // ----- RERR --------------------------------------------------------------

    fn handle_rerr(&mut self, ctx: &mut Ctx, prev: NodeId, rerr: Rerr) {
        let now = ctx.now();
        let mut propagate = Vec::new();
        for e in &rerr.entries {
            if let Some(r) = self.routes.get_mut(&e.dst) {
                if r.is_active(now) && r.next == prev {
                    r.valid = false;
                    r.seq = Some(e.dst_seq);
                    propagate.push(RerrEntry { dst: e.dst, dst_seq: e.dst_seq });
                }
            }
        }
        if !propagate.is_empty() {
            ctx.broadcast(ControlKind::Rerr, Rerr { entries: propagate }.encode(), false);
        }
    }
}

impl RoutingProtocol for Aodv {
    fn name(&self) -> &'static str {
        "AODV"
    }

    fn start(&mut self, ctx: &mut Ctx) {
        self.clock = ctx.now();
        ctx.set_timer(CLEANUP_INTERVAL, CLEANUP_TOKEN);
    }

    fn handle_reboot(&mut self, ctx: &mut Ctx) {
        // RFC 3561 stores nothing across a power cycle: the routing
        // table, dedup caches, pending discoveries AND the node's own
        // sequence number are all gone. Restarting at own_seq = 0 is
        // exactly the behaviour "Sequence Numbers Do Not Guarantee Loop
        // Freedom" exploits — neighbours still hold stale routes
        // *through* this node with higher destination numbers, so a
        // post-restart discovery can be answered from that stale state
        // and close a loop. We keep it honest rather than adopting the
        // (optional, rarely deployed) DELETE_PERIOD quarantine.
        self.own_seq = 0;
        self.routes.clear();
        self.seen.clear();
        self.forwarded.clear();
        // A fresh `Discoveries`, generation counter included: a retry
        // timer armed before the reboot (the simulator does not retire
        // them, ROADMAP item 3) can name a discovery opened after it. LDR
        // keeps its counter and cannot; unit tests pin each flavour.
        self.pending = Discoveries::default();
        self.next_rreqid = 0;
        self.start(ctx);
    }

    fn handle_data_origination(&mut self, ctx: &mut Ctx, data: DataPacket) {
        self.clock = ctx.now();
        if data.dst == self.id {
            ctx.deliver(data);
            return;
        }
        let now = ctx.now();
        match self.active(data.dst, now).map(|r| r.next) {
            Some(next) => {
                self.refresh(data.dst, now + ACTIVE_ROUTE_TIMEOUT);
                ctx.send_data(next, data);
            }
            None => self.queue_and_discover(ctx, data),
        }
    }

    fn handle_data_packet(&mut self, ctx: &mut Ctx, prev_hop: NodeId, mut data: DataPacket) {
        self.clock = ctx.now();
        let now = ctx.now();
        self.refresh(data.src, now + ACTIVE_ROUTE_TIMEOUT);
        self.refresh(prev_hop, now + ACTIVE_ROUTE_TIMEOUT);
        if data.dst == self.id {
            ctx.deliver(data);
            return;
        }
        if data.ttl == 0 {
            ctx.drop_data(data, DropReason::TtlExpired);
            return;
        }
        data.ttl -= 1;
        match self.active(data.dst, now).map(|r| r.next) {
            Some(next) => {
                self.refresh(data.dst, now + ACTIVE_ROUTE_TIMEOUT);
                ctx.send_data(next, data);
            }
            None => {
                // Unrepairable at a relay: RERR upstream, drop.
                let seq = self
                    .routes
                    .get_mut(&data.dst)
                    .map(|r| {
                        let s = r.seq.map_or(1, |s| s.wrapping_add(1));
                        r.seq = Some(s);
                        s
                    })
                    .unwrap_or(0);
                let rerr = Rerr { entries: vec![RerrEntry { dst: data.dst, dst_seq: seq }] };
                ctx.broadcast(ControlKind::Rerr, rerr.encode(), true);
                ctx.drop_data(data, DropReason::NoRoute);
            }
        }
    }

    fn handle_control(
        &mut self,
        ctx: &mut Ctx,
        prev_hop: NodeId,
        ctrl: &ControlPacket,
        _was_broadcast: bool,
    ) {
        self.clock = ctx.now();
        match ctrl.kind {
            ControlKind::Rreq => match Rreq::decode(&ctrl.bytes) {
                Some(m) => self.handle_rreq(ctx, prev_hop, m),
                None => ctx.drop_malformed(ControlKind::Rreq),
            },
            ControlKind::Rrep => match Rrep::decode(&ctrl.bytes) {
                Some(m) => self.handle_rrep(ctx, prev_hop, m),
                None => ctx.drop_malformed(ControlKind::Rrep),
            },
            ControlKind::Rerr => match Rerr::decode(&ctrl.bytes) {
                Some(m) => self.handle_rerr(ctx, prev_hop, m),
                None => ctx.drop_malformed(ControlKind::Rerr),
            },
            _ => {}
        }
    }

    fn handle_timer(&mut self, ctx: &mut Ctx, token: u64) {
        self.clock = ctx.now();
        if token == CLEANUP_TOKEN {
            let now = ctx.now();
            self.seen.retain(|_, &mut e| e > now);
            self.forwarded.retain(|_, &mut (_, _, e)| e > now);
            ctx.set_timer(CLEANUP_INTERVAL, CLEANUP_TOKEN);
            return;
        }
        let Some(dest) = self.pending.dest_of(token) else { return };
        if self.active(dest, ctx.now()).is_some() {
            self.finish_success(ctx, dest);
        } else if let Some((attempt, token)) = self.pending.retry(ctx, dest, self.cfg.max_attempts)
        {
            self.send_rreq(ctx, dest, attempt, token);
        }
    }

    fn handle_unicast_failure(&mut self, ctx: &mut Ctx, next_hop: NodeId, packet: Packet) {
        self.clock = ctx.now();
        let now = ctx.now();
        let lost = self.invalidate_via(next_hop, now);
        if let PacketBody::Data(data) = packet.body {
            if data.src == self.id {
                self.queue_and_discover(ctx, data);
            } else {
                ctx.drop_data(data, DropReason::NoRoute);
            }
        }
        if !lost.is_empty() {
            ctx.broadcast(ControlKind::Rerr, Rerr { entries: lost }.encode(), true);
        }
    }

    fn route_table_dump(&self) -> Vec<RouteDump> {
        let mut v: Vec<RouteDump> = self
            .routes
            .iter()
            .map(|(&dest, r)| RouteDump {
                dest,
                next: r.next,
                dist: r.hops,
                feasible_dist: None,
                seqno: r.seq.map(u64::from),
                valid: r.is_active(self.clock),
            })
            .collect();
        v.sort_unstable_by_key(|r| r.dest.0);
        v
    }

    fn own_seqno_value(&self) -> Option<f64> {
        Some(f64::from(self.own_seq))
    }
}

/// The model checker's hooks (see `ldr::Ldr`'s implementation), so
/// `crates/modelcheck` drives AODV through the same exhaustive event
/// interleavings.
impl ProtocolModel for Aodv {
    /// A timeout is not an invalidation: `valid` and the stored
    /// sequence number are untouched (RFC 3561 increments the number
    /// only on *detected* breaks, which is exactly the distinction the
    /// known AODV loop scenarios exploit).
    fn force_expire(&mut self, dest: NodeId) -> bool {
        match self.routes.get_mut(&dest) {
            Some(r) => {
                r.expires = SimTime::ZERO;
                true
            }
            None => false,
        }
    }

    fn bump_own_seqno(&mut self) {
        self.own_seq = self.own_seq.wrapping_add(1);
    }

    fn digest(&self, out: &mut Vec<u8>) {
        put_u32(out, self.own_seq);
        put_u32(out, self.next_rreqid);
        put_u64(out, self.clock.as_nanos());

        let mut routes: Vec<(&NodeId, &Route)> = self.routes.iter().collect();
        routes.sort_unstable_by_key(|(d, _)| d.0);
        put_u64(out, routes.len() as u64);
        for (dest, r) in routes {
            put_u16(out, dest.0);
            match r.seq {
                None => out.push(0),
                Some(s) => {
                    out.push(1);
                    put_u32(out, s);
                }
            }
            put_u32(out, r.hops);
            put_u16(out, r.next.0);
            out.push(u8::from(r.valid));
            put_u64(out, r.expires.as_nanos());
            let mut pre: Vec<u16> = r.precursors.iter().map(|n| n.0).collect();
            pre.sort_unstable();
            put_u64(out, pre.len() as u64);
            for p in pre {
                put_u16(out, p);
            }
        }

        let mut seen: Vec<(&(NodeId, u32), &SimTime)> = self.seen.iter().collect();
        seen.sort_unstable_by_key(|((origin, rreqid), _)| (origin.0, *rreqid));
        put_u64(out, seen.len() as u64);
        for ((origin, rreqid), exp) in seen {
            put_u16(out, origin.0);
            put_u32(out, *rreqid);
            put_u64(out, exp.as_nanos());
        }

        let mut fwd: Vec<_> = self.forwarded.iter().collect();
        fwd.sort_unstable_by_key(|((orig, dst), _)| (orig.0, dst.0));
        put_u64(out, fwd.len() as u64);
        for ((orig, dst), (seq, hops, exp)) in fwd {
            put_u16(out, orig.0);
            put_u16(out, dst.0);
            put_u32(out, *seq);
            out.push(*hops);
            put_u64(out, exp.as_nanos());
        }

        self.pending.digest(out);
    }

    fn discovery_pending(&self, dest: NodeId) -> bool {
        self.pending.is_pending(dest)
    }

    /// The expanding-ring attempts the TTL schedule needs.
    fn discovery_attempts(&self, dist: u32) -> Option<u32> {
        discovery::ring_attempts(dist, self.cfg.max_attempts)
    }
}

#[cfg(test)]
mod tests;
