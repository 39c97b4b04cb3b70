//! The LDR protocol state machine (Procedures 1–4 of the paper).
//!
//! Each node keeps a [`RouteTable`] (invariants per destination), a
//! route-request cache recording the computations it is *engaged* in
//! (`(origin, rreqid) → last hop`, which forces replies onto the
//! request's reverse path — Theorem 3), and the set of destinations it
//! is *active* for (its own pending discoveries, with buffered data).
//!
//! * **Procedure 1** (initiate solicitation): expanding-ring RREQ with
//!   the node's feasible distance and last-known destination sequence
//!   number; retries with fresh `rreqid`s, then reports failure.
//! * **Procedure 2** (relay solicitation): become engaged, strengthen
//!   the invariants (Eqs. 5–8), answer if SDC permits, set the `T` bit
//!   on an ordering violation (FDC), unicast the request to the
//!   destination when a path reset is required, otherwise re-broadcast.
//! * **Procedure 3** (set route) lives in [`RouteTable`].
//! * **Procedure 4** (relay advertisement): forward RREPs along the
//!   cached reverse path, substituting the relay's own (always equal or
//!   stronger) invariants.
//!
//! All five §4 optimisations are implemented and individually
//! switchable through [`LdrConfig`].

use crate::config::{LdrConfig, LOCAL_ADD_TTL};
use crate::invariants::{self, Distance, Solicited, INFINITY};
use crate::messages::{Rerr, RerrEntry, Rrep, Rreq};
use crate::route_table::{AdvertOutcome, RouteEntry, RouteTable};
use crate::seqno::SeqNo;
use manet_sim::discovery::{
    self, Discoveries, ACTIVE_ROUTE_TIMEOUT, MY_ROUTE_TIMEOUT, PATH_DISCOVERY_TIME,
};
use manet_sim::hash::FxMap;
use manet_sim::packet::{ControlKind, ControlPacket, DataPacket, NodeId, Packet, PacketBody};
use manet_sim::protocol::{
    Ctx, DropReason, ProtoCounter, ProtocolModel, RouteDump, RoutingProtocol,
};
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::trace::{InvalidateCause, InvariantSnapshot, RouteVerdict, TraceEvent};
use manet_sim::wire::{put_u16, put_u32, put_u64};

/// The `(sn, d, fd)` triple of a table entry, scalarised for tracing.
fn snap(e: Option<&RouteEntry>) -> Option<InvariantSnapshot> {
    e.map(|e| InvariantSnapshot { sn: Some(e.seqno.to_u64()), d: e.dist, fd: e.fd })
}

fn verdict(out: AdvertOutcome) -> RouteVerdict {
    match out {
        AdvertOutcome::Installed => RouteVerdict::Installed,
        AdvertOutcome::Refreshed => RouteVerdict::Refreshed,
        AdvertOutcome::NotBetter => RouteVerdict::NotBetter,
        AdvertOutcome::Infeasible => RouteVerdict::Infeasible,
    }
}

/// Timer token for the periodic state sweep.
const CLEANUP_TOKEN: u64 = u64::MAX;
/// Interval of the periodic state sweep.
const CLEANUP_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// Engagement state for one computation `(origin, rreqid)`.
#[derive(Clone, Debug)]
struct CacheEntry {
    /// The neighbour the solicitation arrived from; replies for this
    /// computation are forced through it (reverse-path forwarding).
    last_hop: NodeId,
    /// When the engagement lapses.
    expires: SimTime,
    /// Strongest `(sn, dist)` advertisement already sent for this
    /// computation (reply dedup; the *multiple RREPs* optimisation
    /// allows strictly stronger ones through).
    relayed: Option<(SeqNo, u32)>,
    /// Whether this node replied (as destination or via SDC).
    replied: bool,
    /// Whether a reverse route to the origin was installed.
    reverse_ok: bool,
}

/// A Labeled Distance Routing node.
///
/// # Example
///
/// Drive a node directly (the unit-test style) — origination without a
/// route buffers the packet and floods a route request:
///
/// ```
/// use ldr::{Ldr, LdrConfig};
/// use manet_sim::packet::{DataPacket, NodeId};
/// use manet_sim::protocol::{Ctx, ProtocolModel, RoutingProtocol};
/// use manet_sim::rng::SimRng;
/// use manet_sim::time::SimTime;
///
/// let mut node = Ldr::new(NodeId(0), LdrConfig::default());
/// let mut rng = SimRng::from_seed(1);
/// let mut actions = Vec::new();
/// let mut ctx = Ctx::new(SimTime::from_secs(1), NodeId(0), 50, &mut rng, &mut actions);
/// node.handle_data_origination(&mut ctx, DataPacket {
///     src: NodeId(0), dst: NodeId(7), flow: 0, seq: 0,
///     created: SimTime::from_secs(1), payload_len: 512, ttl: 64, ext: vec![],
/// });
/// assert!(node.discovery_pending(NodeId(7)));
/// assert!(!actions.is_empty()); // RREQ broadcast + retry timer
/// ```
#[derive(Clone)]
pub struct Ldr {
    id: NodeId,
    cfg: LdrConfig,
    own_seqno: SeqNo,
    routes: RouteTable,
    cache: FxMap<(NodeId, u32), CacheEntry>,
    /// The destinations this node is *active* for: its own pending
    /// discoveries, with their buffered data.
    pending: Discoveries,
    next_rreqid: u32,
    /// Time of the most recent callback (for the auditor snapshot).
    clock: SimTime,
}

impl Ldr {
    /// A new node with the given configuration.
    pub fn new(id: NodeId, cfg: LdrConfig) -> Self {
        Ldr {
            id,
            cfg,
            own_seqno: SeqNo::initial(),
            routes: RouteTable::new(),
            // Pre-sized: one entry per RREQ flood engaged; retain
            // keeps capacity, so this removes all growth rehashes.
            cache: FxMap::with_capacity_and_hasher(256, Default::default()),
            pending: Discoveries::default(),
            next_rreqid: 0,
            clock: SimTime::ZERO,
        }
    }

    /// A factory closure for [`manet_sim::world::World::new`].
    pub fn factory(cfg: LdrConfig) -> impl FnMut(NodeId, usize) -> Box<dyn RoutingProtocol> {
        move |id, _| Box::new(Ldr::new(id, cfg.clone()))
    }

    /// This node's routing table.
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// This node's own destination sequence number.
    pub fn own_seqno(&self) -> SeqNo {
        self.own_seqno
    }

    // ----- traced table mutations ------------------------------------------

    /// Procedure 3 with observability: judge one advertisement through
    /// [`RouteTable::consider_advertisement`], emitting the NDC verdict
    /// (with the `(sn, d, fd)` triple before and after) and, when the
    /// table changed, the mutation itself.
    #[expect(clippy::too_many_arguments, reason = "Procedure 3's inputs plus the trace context")]
    fn consider_traced(
        &mut self,
        ctx: &mut Ctx,
        dest: NodeId,
        adv_sn: SeqNo,
        adv_d: Distance,
        via: NodeId,
        now: SimTime,
        expires: SimTime,
    ) -> AdvertOutcome {
        let before = snap(self.routes.get(dest));
        let out = self.routes.consider_advertisement(dest, adv_sn, adv_d, via, now, expires);
        if ctx.trace_enabled() {
            let id = self.id;
            let after = snap(self.routes.get(dest));
            ctx.trace(|| TraceEvent::AdvertConsidered {
                node: id,
                dest,
                from: via,
                adv_sn: adv_sn.to_u64(),
                adv_d,
                before,
                after,
                verdict: verdict(out),
            });
            if matches!(out, AdvertOutcome::Installed | AdvertOutcome::Refreshed) {
                if let Some(e) = self.routes.get(dest) {
                    let next = e.next_hop;
                    let after =
                        InvariantSnapshot { sn: Some(e.seqno.to_u64()), d: e.dist, fd: e.fd };
                    ctx.trace(|| TraceEvent::RouteInstall { node: id, dest, next, before, after });
                }
            }
        }
        out
    }

    // ----- discovery (Procedure 1) -----------------------------------------

    fn queue_and_discover(&mut self, ctx: &mut Ctx, data: DataPacket) {
        let dest = data.dst;
        if let Some(token) = self.pending.buffer_or_open(ctx, data) {
            self.send_rreq(ctx, dest, 1, token);
        }
    }

    /// Floods attempt number `attempt` of the discovery towards `dest`
    /// and arms its retry timer with `token`.
    fn send_rreq(&mut self, ctx: &mut Ctx, dest: NodeId, attempt: u32, token: u64) {
        let inv = self.routes.invariants(dest);
        let fd_req = self.cfg.answering_distance(inv.fd);
        let prior = (inv.d != INFINITY).then_some((inv.d, fd_req));
        let ttl = discovery::ring_ttl(self.cfg.ring_base(prior), attempt);
        let rreqid = self.next_rreqid;
        self.next_rreqid += 1;
        let rreq = Rreq {
            dst: dest,
            sn_dst: inv.sn,
            rreqid,
            src: self.id,
            sn_src: self.own_seqno,
            fd: fd_req,
            dist: 0,
            ttl,
            t_bit: false,
            n_bit: false,
            d_bit: false,
        };
        ctx.broadcast(ControlKind::Rreq, rreq.encode(), true);
        let id = self.id;
        ctx.trace(|| TraceEvent::RreqStart { node: id, dest, rreqid, ttl });
        ctx.set_timer(discovery::discovery_timeout(ttl), token);
    }

    fn finish_success(&mut self, ctx: &mut Ctx, dest: NodeId) {
        let Some(queue) = self.pending.close(ctx, dest) else { return };
        let now = ctx.now();
        for p in queue {
            match self.routes.active(dest, now).copied() {
                Some(e) => {
                    self.routes.refresh(dest, now + ACTIVE_ROUTE_TIMEOUT);
                    ctx.send_data(e.next_hop, p);
                }
                None => ctx.drop_data(p, DropReason::NoRoute),
            }
        }
    }

    // ----- solicitation handling (Procedure 2) -----------------------------

    fn handle_rreq(&mut self, ctx: &mut Ctx, prev: NodeId, rreq: Rreq) {
        if rreq.src == self.id {
            // A node may not relay its own solicitation (it is active,
            // never engaged, for its own computations).
            return;
        }
        let now = ctx.now();
        let art = ACTIVE_ROUTE_TIMEOUT;

        // The RREQ doubles as an advertisement of the origin: try to
        // install/refresh the reverse route (unless the N bit voided it).
        let reverse_ok = if rreq.n_bit {
            self.routes.active(rreq.src, now).is_some()
        } else {
            let out =
                self.consider_traced(ctx, rreq.src, rreq.sn_src, rreq.dist, prev, now, now + art);
            out.usable() || self.routes.active(rreq.src, now).is_some()
        };

        // "Request as error" (§4): if my successor towards D is itself
        // soliciting D, it evidently lost its route.
        if self.cfg.opt_request_as_error && !rreq.d_bit && rreq.dst != self.id {
            if let Some(e) = self.routes.active(rreq.dst, now).copied() {
                if e.next_hop == prev && rreq.fd > e.dist.saturating_sub(1) {
                    self.routes.invalidate(rreq.dst, now);
                    let id = self.id;
                    let dest = rreq.dst;
                    let sn = e.seqno.to_u64();
                    ctx.trace(|| TraceEvent::RouteInvalidate {
                        node: id,
                        dest,
                        seqno: Some(sn),
                        cause: InvalidateCause::RequestAsError,
                    });
                }
            }
        }

        // Engagement: a node enters each computation at most once; later
        // broadcast copies are ignored. A unicast (D-bit) copy is still
        // *forwarded* by an engaged node — it travels on successor
        // paths, which Theorem 3 shows cannot loop — but the original
        // reverse-path cache entry is retained.
        let key = (rreq.src, rreq.rreqid);
        let engaged = self.cache.get(&key).is_some_and(|c| c.expires > now);
        if engaged && !rreq.d_bit {
            return;
        }
        if !engaged {
            self.cache.insert(
                key,
                CacheEntry {
                    last_hop: prev,
                    expires: now + PATH_DISCOVERY_TIME,
                    relayed: None,
                    replied: false,
                    reverse_ok,
                },
            );
        }

        if rreq.dst == self.id {
            self.reply_as_destination(ctx, prev, &rreq, now);
            return;
        }

        let sol = Solicited { sn: rreq.sn_dst, fd: rreq.fd, rr: rreq.t_bit };
        let active = self.routes.active(rreq.dst, now).copied();

        if let Some(e) = active {
            let lifetime_ok = e.expires.saturating_since(now) >= self.cfg.min_reply_lifetime();
            let mine = e.invariants();
            // SDC; on a D-bit (path-reset) solicitation only a strictly
            // newer sequence number may answer in the destination's
            // stead.
            let allowed = if rreq.d_bit {
                crate::seqno::newer(mine.sn, sol.sn)
            } else {
                invariants::sdc_allows(mine, sol)
            };
            {
                let id = self.id;
                let dest = rreq.dst;
                let t_bit = rreq.t_bit;
                let ok = lifetime_ok && allowed;
                ctx.trace(|| TraceEvent::SolicitVerdict { node: id, dest, t_bit, allowed: ok });
            }
            if lifetime_ok && allowed {
                self.send_rrep_from_route(ctx, prev, &rreq, reverse_ok, now);
                return;
            }
            // Path reset (§2.2): the first node that satisfies SDC
            // ignoring the T bit unicasts the solicitation towards the
            // destination so it can raise its sequence number.
            if !rreq.d_bit
                && rreq.t_bit
                && lifetime_ok
                && invariants::sdc_allows_ignoring_t(mine, sol)
            {
                let st = invariants::strengthen(self.routes.invariants(rreq.dst), sol);
                let needed = (e.dist.min(250) as u8).saturating_add(LOCAL_ADD_TTL);
                let fwd = Rreq {
                    sn_dst: st.sn,
                    fd: st.fd,
                    t_bit: true,
                    d_bit: true,
                    n_bit: rreq.n_bit || !reverse_ok,
                    dist: rreq.dist.saturating_add(1),
                    ttl: needed.max(rreq.ttl),
                    ..rreq
                };
                ctx.unicast_control(e.next_hop, ControlKind::Rreq, fwd.encode(), false, false);
                let id = self.id;
                let (dest, origin) = (rreq.dst, rreq.src);
                ctx.trace(|| TraceEvent::RreqRelay { node: id, dest, origin });
                return;
            }
        }

        // Plain relay with strengthened invariants (Eqs. 5–8).
        if rreq.ttl <= 1 {
            return;
        }
        let st = invariants::strengthen(self.routes.invariants(rreq.dst), sol);
        let fwd = Rreq {
            sn_dst: st.sn,
            fd: st.fd,
            t_bit: st.rr,
            n_bit: rreq.n_bit || !reverse_ok,
            d_bit: rreq.d_bit,
            dist: rreq.dist.saturating_add(1),
            ttl: rreq.ttl - 1,
            ..rreq
        };
        let relayed = if rreq.d_bit {
            if let Some(e) = active {
                ctx.unicast_control(e.next_hop, ControlKind::Rreq, fwd.encode(), false, false);
                true
            } else {
                // Without an active route the reset attempt dies here;
                // the origin's timer will retry.
                false
            }
        } else {
            ctx.broadcast(ControlKind::Rreq, fwd.encode(), false);
            true
        };
        if relayed {
            let id = self.id;
            let (dest, origin) = (rreq.dst, rreq.src);
            ctx.trace(|| TraceEvent::RreqRelay { node: id, dest, origin });
        }
    }

    fn reply_as_destination(&mut self, ctx: &mut Ctx, prev: NodeId, rreq: &Rreq, _now: SimTime) {
        let key = (rreq.src, rreq.rreqid);
        if self.cache.get(&key).is_some_and(|c| c.replied) {
            // Only one advertisement per (source, rreqid) pair.
            return;
        }
        // Only the destination increments its own number. A request can
        // never carry a newer number than ours, but be defensive.
        if let Some(snr) = rreq.sn_dst {
            if snr > self.own_seqno {
                self.own_seqno = snr;
            }
        }
        if rreq.t_bit {
            // Path reset: if our current number does not already exceed
            // the requested one, move past it.
            let exceeds = rreq.sn_dst.is_some_and(|snr| self.own_seqno > snr);
            if !exceeds {
                let old = self.own_seqno.to_u64();
                self.own_seqno.increment();
                ctx.count(ProtoCounter::SeqnoIncrement);
                let id = self.id;
                let new = self.own_seqno.to_u64();
                ctx.trace(|| TraceEvent::SeqnoReset { node: id, old, new });
            }
        }
        let reverse_ok = self.cache.get(&key).is_some_and(|c| c.reverse_ok);
        let rrep = Rrep {
            dst: self.id,
            sn_dst: self.own_seqno,
            src: rreq.src,
            rreqid: rreq.rreqid,
            dist: 0,
            lifetime_ms: MY_ROUTE_TIMEOUT.as_millis().min(u64::from(u32::MAX)) as u32,
            n_bit: rreq.n_bit || !reverse_ok,
        };
        ctx.unicast_control(prev, ControlKind::Rrep, rrep.encode(), true, true);
        let id = self.id;
        ctx.trace(|| TraceEvent::RrepSend { node: id, dest: id, to: prev, dist: 0 });
        if let Some(c) = self.cache.get_mut(&key) {
            c.replied = true;
            c.relayed = Some((self.own_seqno, 0));
        }
    }

    /// SDC reply from an intermediate node's active route.
    fn send_rrep_from_route(
        &mut self,
        ctx: &mut Ctx,
        prev: NodeId,
        rreq: &Rreq,
        reverse_ok: bool,
        now: SimTime,
    ) {
        let Some(e) = self.routes.active(rreq.dst, now).copied() else { return };
        let remaining = e.expires.saturating_since(now).as_millis().min(u64::from(u32::MAX)) as u32;
        let rrep = Rrep {
            dst: rreq.dst,
            sn_dst: e.seqno,
            src: rreq.src,
            rreqid: rreq.rreqid,
            dist: e.dist,
            lifetime_ms: remaining,
            n_bit: rreq.n_bit || !reverse_ok,
        };
        ctx.unicast_control(prev, ControlKind::Rrep, rrep.encode(), true, true);
        let id = self.id;
        let (dest, dist) = (rreq.dst, e.dist);
        ctx.trace(|| TraceEvent::RrepSend { node: id, dest, to: prev, dist });
        if let Some(c) = self.cache.get_mut(&(rreq.src, rreq.rreqid)) {
            c.replied = true;
            c.relayed = Some((e.seqno, e.dist));
        }
    }

    // ----- advertisement handling (Procedures 3 & 4) -----------------------

    fn handle_rrep(&mut self, ctx: &mut Ctx, prev: NodeId, rrep: Rrep) {
        let now = ctx.now();
        let lifetime = SimDuration::from_millis(u64::from(rrep.lifetime_ms));
        let out =
            self.consider_traced(ctx, rrep.dst, rrep.sn_dst, rrep.dist, prev, now, now + lifetime);
        if out.usable() {
            ctx.count(ProtoCounter::RrepUsableRecv);
        }
        if rrep.src == self.id {
            // Terminus: the computation ends on the first feasible
            // advertisement.
            if self.routes.active(rrep.dst, now).is_some() {
                self.finish_success(ctx, rrep.dst);
            }
            return;
        }
        // Relay along the computation's reverse path (never the routing
        // table), substituting this node's own invariants (Procedure 4).
        let key = (rrep.src, rrep.rreqid);
        let Some(c) = self.cache.get(&key) else { return };
        if c.expires <= now {
            return;
        }
        let last_hop = c.last_hop;
        let reverse_ok = c.reverse_ok;
        let relayed = c.relayed;
        let Some(e) = self.routes.active(rrep.dst, now).copied() else {
            // Cannot issue an advertisement without an active route —
            // even when our stored invariants are stronger (§2.2).
            return;
        };
        let allowed = match relayed {
            None => true,
            Some((psn, pd)) => {
                self.cfg.opt_multiple_rreps && (e.seqno > psn || (e.seqno == psn && e.dist < pd))
            }
        };
        if !allowed {
            return;
        }
        if let Some(c) = self.cache.get_mut(&key) {
            c.relayed = Some((e.seqno, e.dist));
        }
        let remaining = e.expires.saturating_since(now).as_millis().min(u64::from(u32::MAX)) as u32;
        let fwd = Rrep {
            dst: rrep.dst,
            sn_dst: e.seqno,
            src: rrep.src,
            rreqid: rrep.rreqid,
            dist: e.dist,
            lifetime_ms: remaining,
            n_bit: rrep.n_bit || !reverse_ok,
        };
        ctx.unicast_control(last_hop, ControlKind::Rrep, fwd.encode(), false, true);
        let id = self.id;
        let (dest, dist) = (rrep.dst, e.dist);
        ctx.trace(|| TraceEvent::RrepSend { node: id, dest, to: last_hop, dist });
    }

    // ----- errors -----------------------------------------------------------

    fn handle_rerr(&mut self, ctx: &mut Ctx, prev: NodeId, rerr: Rerr) {
        let now = ctx.now();
        let mut propagate = Vec::new();
        let id = self.id;
        for en in &rerr.entries {
            if let Some(me) = self.routes.get(en.dst).copied() {
                if me.is_active(now) && me.next_hop == prev {
                    self.routes.invalidate(en.dst, now);
                    let dest = en.dst;
                    let sn = me.seqno.to_u64();
                    ctx.trace(|| TraceEvent::RouteInvalidate {
                        node: id,
                        dest,
                        seqno: Some(sn),
                        cause: InvalidateCause::RouteError,
                    });
                    propagate.push(RerrEntry { dst: en.dst, sn: Some(me.seqno) });
                }
            }
            if let Some(sn) = en.sn {
                let adopts = self.routes.get(en.dst).is_none_or(|e| sn > e.seqno);
                self.routes.adopt_seqno(en.dst, sn);
                if adopts {
                    let dest = en.dst;
                    let snv = sn.to_u64();
                    ctx.trace(|| TraceEvent::RouteInvalidate {
                        node: id,
                        dest,
                        seqno: Some(snv),
                        cause: InvalidateCause::SeqnoAdopted,
                    });
                }
            }
        }
        if !propagate.is_empty() {
            let dests: Vec<NodeId> = propagate.iter().map(|e| e.dst).collect();
            ctx.broadcast(ControlKind::Rerr, Rerr { entries: propagate }.encode(), false);
            ctx.trace(|| TraceEvent::RerrSend { node: id, dests });
        }
    }
}

impl RoutingProtocol for Ldr {
    fn name(&self) -> &'static str {
        "LDR"
    }

    fn start(&mut self, ctx: &mut Ctx) {
        self.clock = ctx.now();
        ctx.set_timer(CLEANUP_INTERVAL, CLEANUP_TOKEN);
    }

    fn handle_data_origination(&mut self, ctx: &mut Ctx, data: DataPacket) {
        self.clock = ctx.now();
        if data.dst == self.id {
            ctx.deliver(data);
            return;
        }
        let now = ctx.now();
        match self.routes.active(data.dst, now).copied() {
            Some(e) => {
                self.routes.refresh(data.dst, now + ACTIVE_ROUTE_TIMEOUT);
                ctx.send_data(e.next_hop, data);
            }
            None => self.queue_and_discover(ctx, data),
        }
    }

    fn handle_data_packet(&mut self, ctx: &mut Ctx, _prev_hop: NodeId, mut data: DataPacket) {
        self.clock = ctx.now();
        let now = ctx.now();
        // Data traffic keeps both route directions warm.
        self.routes.refresh(data.src, now + ACTIVE_ROUTE_TIMEOUT);
        if data.dst == self.id {
            ctx.deliver(data);
            return;
        }
        if data.ttl == 0 {
            ctx.drop_data(data, DropReason::TtlExpired);
            return;
        }
        data.ttl -= 1;
        match self.routes.active(data.dst, now).copied() {
            Some(e) => {
                self.routes.refresh(data.dst, now + ACTIVE_ROUTE_TIMEOUT);
                ctx.send_data(e.next_hop, data);
            }
            None => {
                // Mid-path break: tell the upstream and drop.
                let sn = self.routes.get(data.dst).map(|e| e.seqno);
                let rerr = Rerr { entries: vec![RerrEntry { dst: data.dst, sn }] };
                ctx.broadcast(ControlKind::Rerr, rerr.encode(), true);
                let id = self.id;
                let dst = data.dst;
                ctx.trace(|| TraceEvent::RerrSend { node: id, dests: vec![dst] });
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
            self.cache.retain(|_, c| c.expires > now);
            ctx.set_timer(CLEANUP_INTERVAL, CLEANUP_TOKEN);
            return;
        }
        let Some(dest) = self.pending.dest_of(token) else { return };
        if self.routes.active(dest, ctx.now()).is_some() {
            self.finish_success(ctx, dest);
        } else if let Some((attempt, token)) = self.pending.retry(ctx, dest, self.cfg.max_attempts)
        {
            self.send_rreq(ctx, dest, attempt, token);
        }
    }

    fn handle_unicast_failure(&mut self, ctx: &mut Ctx, next_hop: NodeId, packet: Packet) {
        self.clock = ctx.now();
        let now = ctx.now();
        let lost = self.routes.invalidate_via(next_hop, now);
        let id = self.id;
        for &(dst, sn) in &lost {
            let snv = sn.to_u64();
            ctx.trace(|| TraceEvent::RouteInvalidate {
                node: id,
                dest: dst,
                seqno: Some(snv),
                cause: InvalidateCause::LinkFailure,
            });
        }
        if let PacketBody::Data(data) = packet.body {
            if data.src == self.id {
                // Re-discover with the feasible-distance invariant
                // intact — LDR does *not* raise anyone's sequence
                // number here (that is AODV's move).
                self.queue_and_discover(ctx, data);
            } else {
                ctx.drop_data(data, DropReason::NoRoute);
            }
        }
        if !lost.is_empty() {
            let dests: Vec<NodeId> = lost.iter().map(|&(dst, _)| dst).collect();
            let entries =
                lost.into_iter().map(|(dst, sn)| RerrEntry { dst, sn: Some(sn) }).collect();
            ctx.broadcast(ControlKind::Rerr, Rerr { entries }.encode(), true);
            ctx.trace(|| TraceEvent::RerrSend { node: id, dests });
        }
    }

    fn handle_reboot(&mut self, ctx: &mut Ctx) {
        // The explicit restart callback: driven by the simulator's
        // fault layer (`FaultAction::CrashRestart`) and by the model
        // checker's `Restart` transition, so destination sequence-number
        // recovery is exercised honestly rather than assumed.
        self.clock = ctx.now();
        // Volatile state is gone. The real-time clock survives, so the
        // fresh epoch dominates every number we issued before the crash
        // — no AODV-style reboot-hold quarantine is needed (§3).
        let epoch = self.own_seqno.epoch + 1;
        self.own_seqno = SeqNo::after_reboot(epoch);
        self.routes = RouteTable::new();
        self.cache.clear();
        // `clear`, not a fresh `Discoveries`: the generation counter
        // keeps running, so a retry timer armed before the reboot (the
        // simulator does not retire them, ROADMAP item 3) never matches a
        // discovery opened after it. AODV and DSR start over at zero and
        // can alias; each flavour is pinned by its protocol's unit tests.
        self.pending.clear();
        ctx.set_timer(CLEANUP_INTERVAL, CLEANUP_TOKEN);
    }

    fn route_table_dump(&self) -> Vec<RouteDump> {
        let mut v: Vec<RouteDump> = self
            .routes
            .iter()
            .map(|(&dest, e)| RouteDump {
                dest,
                next: e.next_hop,
                dist: e.dist,
                feasible_dist: Some(e.fd),
                seqno: Some(e.seqno.to_u64()),
                valid: e.is_active(self.clock),
            })
            .collect();
        v.sort_unstable_by_key(|r| r.dest.0);
        v
    }

    fn own_seqno_value(&self) -> Option<f64> {
        Some(
            f64::from(self.own_seqno.epoch - 1) * 2f64.powi(32) + f64::from(self.own_seqno.counter),
        )
    }
}

/// The model checker (`crates/modelcheck`) drives the callbacks
/// directly; these hooks give it a canonical encoding of the full node
/// state for state-space deduplication, plus the environment
/// transitions — soft-state expiry, the destination raising its own
/// number — that the simulator produces via the passage of time.
impl ProtocolModel for Ldr {
    /// Forces the route towards `dest` (if any) to expire immediately.
    /// Soft-state only: `sn`/`fd` history is untouched, exactly as with
    /// a natural timeout.
    fn force_expire(&mut self, dest: NodeId) -> bool {
        self.routes.force_expire(dest)
    }

    /// Raises this node's own destination sequence number by one (the
    /// owner-only operation of §3).
    fn bump_own_seqno(&mut self) {
        self.own_seqno.increment();
    }

    /// Two `Ldr` values produce the same bytes iff they are
    /// behaviourally identical. All map iteration is sorted, so the
    /// encoding is independent of hash-map order.
    fn digest(&self, out: &mut Vec<u8>) {
        put_u64(out, self.own_seqno.to_u64());
        put_u32(out, self.next_rreqid);
        put_u64(out, self.clock.as_nanos());

        let mut routes: Vec<(&NodeId, &RouteEntry)> = self.routes.iter().collect();
        routes.sort_unstable_by_key(|(d, _)| d.0);
        put_u64(out, routes.len() as u64);
        for (dest, e) in routes {
            put_u16(out, dest.0);
            put_u64(out, e.seqno.to_u64());
            put_u32(out, e.dist);
            put_u32(out, e.fd);
            put_u16(out, e.next_hop.0);
            out.push(u8::from(e.valid));
            put_u64(out, e.expires.as_nanos());
        }

        let mut cache: Vec<(&(NodeId, u32), &CacheEntry)> = self.cache.iter().collect();
        cache.sort_unstable_by_key(|((origin, rreqid), _)| (origin.0, *rreqid));
        put_u64(out, cache.len() as u64);
        for ((origin, rreqid), c) in cache {
            put_u16(out, origin.0);
            put_u32(out, *rreqid);
            put_u16(out, c.last_hop.0);
            put_u64(out, c.expires.as_nanos());
            match c.relayed {
                None => out.push(0),
                Some((sn, d)) => {
                    out.push(1);
                    put_u64(out, sn.to_u64());
                    put_u32(out, d);
                }
            }
            out.push(u8::from(c.replied));
            out.push(u8::from(c.reverse_ok));
        }

        self.pending.digest(out);
    }

    fn discovery_pending(&self, dest: NodeId) -> bool {
        self.pending.is_pending(dest)
    }

    /// The expanding-ring attempts the *cold* TTL schedule needs
    /// (capped at `max_attempts`). The *optimal TTL* optimisation can
    /// only seed the ring at TTL_START or above, so this is an upper
    /// bound for warm starts too.
    fn discovery_attempts(&self, dist: u32) -> Option<u32> {
        discovery::ring_attempts(dist, self.cfg.max_attempts)
    }
}

#[cfg(test)]
mod tests;
