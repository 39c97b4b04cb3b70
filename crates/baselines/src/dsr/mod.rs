//! DSR — Dynamic Source Routing (draft-ietf-manet-dsr-03 behaviour,
//! with a draft-07 flavour for the paper's Fig. 6 Qualnet cross-check).
//!
//! Every data packet carries its complete route in an extension header;
//! loop freedom is by construction (source routes never repeat a node).
//! Route discovery floods an RREQ that accumulates the traversed path;
//! any node holding a cached route to the destination may answer with
//! the concatenation. Route maintenance detects broken links hop-by-hop
//! and reports them to sources with RERRs; packets can be *salvaged*
//! onto alternate cached routes mid-path.
//!
//! The paper observes DSR's delivery collapsing under mobility and
//! load — stale route caches keep answering discoveries with dead
//! routes (draft-03 caches never expire). This implementation
//! reproduces that behaviour faithfully. Promiscuous-mode optimisations
//! (overhearing, automatic route shortening) are not modelled — the
//! simulator's MAC does not deliver frames promiscuously.

pub mod cache;
pub mod messages;

use cache::{has_repeat, RouteCache};
use manet_sim::discovery::Discoveries;
use manet_sim::hash::FxMap;
use manet_sim::packet::{ControlKind, ControlPacket, DataPacket, NodeId, Packet, PacketBody};
use manet_sim::protocol::{
    Ctx, DropReason, ProtoCounter, ProtocolModel, RouteDump, RouteTelemetry, RoutingProtocol,
};
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::trace::{InvalidateCause, InvariantSnapshot, TraceEvent};
use manet_sim::wire::{put_u16, put_u32, put_u64};
use messages::{Rerr, Rrep, RrepRef, Rreq, RreqRef, SourceRoute, SourceRouteRef};

const CLEANUP_TOKEN: u64 = u64::MAX;
const CLEANUP_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// Route-cache capacity, in paths.
const CACHE_CAPACITY: usize = 64;
/// How long the request table remembers a seen `(initiator, id)`.
const REQUEST_TABLE_HOLD: SimDuration = SimDuration::from_secs(30);
/// RequestPeriod: the first retransmission timeout; it doubles per
/// attempt.
const REQUEST_PERIOD: SimDuration = SimDuration::from_millis(500);
/// TTL of a propagating request.
const FLOOD_TTL: u8 = 35;
/// MaxSalvageCount: how often one packet may be salvaged.
const MAX_SALVAGE_COUNT: u8 = 4;

/// The DSR settings the two drafts and the model checker vary; the rest
/// are the constants above, and discovery buffers up to
/// [`manet_sim::discovery::DISCOVERY_BUFFER`] packets per destination.
#[derive(Clone, Debug, PartialEq)]
pub struct DsrConfig {
    /// Cache entry lifetime: `None` = draft-03 (never expires),
    /// `Some(300 s)` approximates draft-07's RouteCacheTimeout.
    pub cache_timeout: Option<SimDuration>,
    /// Discovery attempts before giving up.
    pub max_attempts: u32,
    /// First attempt is a non-propagating (TTL 1) neighbourhood query.
    pub non_propagating_first: bool,
}

impl Default for DsrConfig {
    fn default() -> Self {
        Self::draft3()
    }
}

impl DsrConfig {
    /// Draft-03 behaviour (the paper's GloMoSim runs).
    pub fn draft3() -> Self {
        DsrConfig { cache_timeout: None, max_attempts: 6, non_propagating_first: true }
    }

    /// Draft-07 flavour (the paper's Qualnet cross-check, Fig. 6):
    /// cached routes expire, which slightly improves mobile delivery.
    pub fn draft7() -> Self {
        DsrConfig { cache_timeout: Some(SimDuration::from_secs(300)), ..Self::draft3() }
    }
}

/// The retransmission timeout of discovery attempt `attempt` (1-based):
/// exponential backoff from RequestPeriod.
fn discovery_timeout(attempt: u32) -> SimDuration {
    REQUEST_PERIOD.saturating_mul(1u64 << (attempt - 1).min(10))
}

/// A node-local buffer for the paths a handler assembles (a reversed
/// route record, a carried route, a cache reply's splice). What it
/// holds means nothing once the callback returns, so a clone starts it
/// empty: the model checker's per-state clones neither copy nor digest
/// it.
#[derive(Default)]
struct Scratch(Vec<NodeId>);

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

/// A DSR node.
#[derive(Clone)]
pub struct Dsr {
    id: NodeId,
    cfg: DsrConfig,
    cache: RouteCache,
    seen: FxMap<(NodeId, u32), SimTime>,
    pending: Discoveries,
    next_id: u32,
    clock: SimTime,
    scratch: Scratch,
}

impl Dsr {
    /// A new node.
    pub fn new(id: NodeId, cfg: DsrConfig) -> Self {
        let cache = RouteCache::new(id, CACHE_CAPACITY, cfg.cache_timeout);
        Dsr {
            id,
            cfg,
            cache,
            // Pre-sized: one insert per RREQ flood received; retain
            // keeps capacity, so this removes all growth rehashes.
            seen: FxMap::with_capacity_and_hasher(256, Default::default()),
            pending: Discoveries::default(),
            next_id: 0,
            clock: SimTime::ZERO,
            scratch: Scratch::default(),
        }
    }

    /// A factory closure for [`manet_sim::world::World::new`].
    pub fn factory(cfg: DsrConfig) -> impl FnMut(NodeId, usize) -> Box<dyn RoutingProtocol> {
        move |id, _| Box::new(Dsr::new(id, cfg.clone()))
    }

    /// The route cache (for tests and inspection).
    pub fn cache(&self) -> &RouteCache {
        &self.cache
    }

    /// Sends `data` from `me` along the cached path `cached` (first hop
    /// first), its source-route header written into its own `ext`.
    fn send_with_route(ctx: &mut Ctx, me: NodeId, mut data: DataPacket, cached: &[NodeId]) {
        SourceRoute::encode_into(&mut data.ext, 1, 0, me, cached);
        ctx.send_data(cached[0], data);
    }

    fn queue_and_discover(&mut self, ctx: &mut Ctx, data: DataPacket) {
        let dest = data.dst;
        if let Some(token) = self.pending.buffer_or_open(ctx, data) {
            self.send_rreq(ctx, dest, 1, token);
        }
    }

    /// Floods attempt number `attempt` of the discovery towards `dest`
    /// and arms its retry timer with `token`.
    fn send_rreq(&mut self, ctx: &mut Ctx, dest: NodeId, attempt: u32, token: u64) {
        let ttl = if attempt == 1 && self.cfg.non_propagating_first { 1 } else { FLOOD_TTL };
        let id = self.next_id;
        self.next_id += 1;
        let rreq = Rreq { src: self.id, dst: dest, id, ttl, route: vec![] };
        ctx.broadcast(ControlKind::Rreq, rreq.encode(), true);
        ctx.set_timer(discovery_timeout(attempt), token);
    }

    fn finish_success(&mut self, ctx: &mut Ctx, dest: NodeId) {
        let Some(queue) = self.pending.close(ctx, dest) else { return };
        let now = ctx.now();
        for p in queue {
            match self.cache.lookup(dest, now) {
                Some(cached) => Self::send_with_route(ctx, self.id, p, cached),
                None => ctx.drop_data(p, DropReason::NoRoute),
            }
        }
    }

    // ----- cache mutation (traced) ---------------------------------------------

    /// Inserts a path into the route cache, emitting a
    /// [`TraceEvent::RouteInstall`] when a path is actually stored. DSR
    /// has no `(sn, d, fd)` triple, so the snapshot scalarises the
    /// path: `d = fd =` hop count, no sequence number.
    /// (A function of the cache, not of `self`, so that `path` can be
    /// the node's scratch buffer.)
    fn cache_insert(
        cache: &mut RouteCache,
        node: NodeId,
        ctx: &mut Ctx,
        path: &[NodeId],
        now: SimTime,
    ) {
        if !cache.insert(path, now) {
            return;
        }
        let (Some(&next), Some(&dest)) = (path.first(), path.last()) else { return };
        let hops = path.len() as u32;
        ctx.trace(|| TraceEvent::RouteInstall {
            node,
            dest,
            next,
            before: None,
            after: InvariantSnapshot { sn: None, d: hops, fd: hops },
        });
    }

    /// Removes every cached path over `from → to`, emitting one
    /// [`TraceEvent::RouteInvalidate`] (dest = the link's head, DSR's
    /// closest analogue of an invalidated table entry) when at least
    /// one path was actually dropped.
    fn cache_remove_link(
        &mut self,
        ctx: &mut Ctx,
        from: NodeId,
        to: NodeId,
        cause: InvalidateCause,
    ) {
        if self.cache.remove_link(from, to) == 0 {
            return;
        }
        let node = self.id;
        ctx.trace(|| TraceEvent::RouteInvalidate { node, dest: to, seqno: None, cause });
    }

    // ----- control ------------------------------------------------------------

    fn handle_rreq(&mut self, ctx: &mut Ctx, _prev: NodeId, m: RreqRef) {
        if m.src == self.id || m.on_route(self.id) {
            return;
        }
        let now = ctx.now();
        // Learn the reverse path to the originator.
        let path = &mut self.scratch.0;
        path.clear();
        path.extend(m.route().rev());
        path.push(m.src);
        Self::cache_insert(&mut self.cache, self.id, ctx, path, now);

        let expiry = self.seen.entry((m.src, m.id)).or_insert(SimTime::ZERO);
        if *expiry > now {
            return;
        }
        *expiry = now + REQUEST_TABLE_HOLD;

        // The accumulated record, this node appended.
        path.clear();
        path.push(m.src);
        path.extend(m.route());
        path.push(self.id);
        if m.dst == self.id {
            // Target reply: the record is the route. The reply's idx
            // always addresses the node it is sent to.
            let idx = (path.len() - 2) as u8;
            let back_hop = path[path.len() - 2];
            let rrep = Rrep::encode_parts(m.src, m.id, idx, path);
            ctx.unicast_control(back_hop, ControlKind::Rrep, rrep, true, true);
            return;
        }

        // Cache reply: concatenate the record with a cached route,
        // provided the splice repeats no node.
        if let Some(cached) = self.cache.lookup(m.dst, now) {
            path.extend_from_slice(cached);
            if !has_repeat(path) {
                // This node sits at position route.len() + 1; the reply
                // goes to the previous hop, whose position is idx.
                let idx = m.route().len() as u8;
                let back_hop = path[idx as usize];
                let rrep = Rrep::encode_parts(m.src, m.id, idx, path);
                ctx.unicast_control(back_hop, ControlKind::Rrep, rrep, true, true);
                return;
            }
        }

        if let Some(fwd) = m.forwarded(self.id) {
            ctx.broadcast(ControlKind::Rreq, fwd, false);
        }
    }

    fn handle_rrep(&mut self, ctx: &mut Ctx, _prev: NodeId, m: RrepRef) {
        let now = ctx.now();
        let idx = m.idx as usize;
        if m.node_at(idx) != Some(self.id) {
            return;
        }
        // Learn both directions.
        let path = &mut self.scratch.0;
        path.clear();
        path.extend(m.path());
        let dst = path.last().copied();
        if idx + 1 < path.len() {
            Self::cache_insert(&mut self.cache, self.id, ctx, &path[idx + 1..], now);
        }
        if idx > 0 {
            path.truncate(idx);
            path.reverse();
            Self::cache_insert(&mut self.cache, self.id, ctx, path, now);
        }
        ctx.count(ProtoCounter::RrepUsableRecv);
        if idx == 0 {
            // We are the originator.
            if let Some(dst) = dst {
                self.finish_success(ctx, dst);
            }
            return;
        }
        if let Some(back_hop) = m.node_at(idx - 1) {
            let fwd = m.with_idx((idx - 1) as u8);
            ctx.unicast_control(back_hop, ControlKind::Rrep, fwd, false, true);
        }
    }

    fn handle_rerr(&mut self, ctx: &mut Ctx, _prev: NodeId, m: Rerr) {
        self.cache_remove_link(ctx, m.from, m.to, InvalidateCause::RouteError);
        if m.target == self.id || m.path.is_empty() {
            return;
        }
        let next = m.path[0];
        let fwd = Rerr { path: m.path[1..].to_vec(), ..m };
        ctx.unicast_control(next, ControlKind::Rerr, fwd.encode(), false, false);
    }
}

impl RoutingProtocol for Dsr {
    fn name(&self) -> &'static str {
        "DSR"
    }

    fn start(&mut self, ctx: &mut Ctx) {
        self.clock = ctx.now();
        ctx.set_timer(CLEANUP_INTERVAL, CLEANUP_TOKEN);
    }

    fn handle_reboot(&mut self, ctx: &mut Ctx) {
        // Everything DSR knows is soft state: the route cache, RREQ
        // dedup set and pending discoveries vanish with the power.
        *self = Self::new(self.id, self.cfg.clone());
        self.start(ctx);
    }

    fn handle_data_origination(&mut self, ctx: &mut Ctx, data: DataPacket) {
        self.clock = ctx.now();
        if data.dst == self.id {
            ctx.deliver(data);
            return;
        }
        match self.cache.lookup(data.dst, ctx.now()) {
            Some(cached) => Self::send_with_route(ctx, self.id, data, cached),
            None => self.queue_and_discover(ctx, data),
        }
    }

    fn handle_data_packet(&mut self, ctx: &mut Ctx, _prev_hop: NodeId, mut data: DataPacket) {
        self.clock = ctx.now();
        let now = ctx.now();
        let Some(sr) = SourceRouteRef::parse(&data.ext) else {
            ctx.drop_data(data, DropReason::BrokenSourceRoute);
            return;
        };
        let idx = sr.idx as usize;
        if sr.node_at(idx) != Some(self.id) {
            ctx.drop_data(data, DropReason::BrokenSourceRoute);
            return;
        }
        let next = sr.node_at(idx + 1);
        // Learn from the carried route.
        let path = &mut self.scratch.0;
        path.clear();
        path.extend(sr.path());
        if idx + 1 < path.len() {
            Self::cache_insert(&mut self.cache, self.id, ctx, &path[idx + 1..], now);
        }
        if idx > 0 {
            path.truncate(idx);
            path.reverse();
            Self::cache_insert(&mut self.cache, self.id, ctx, path, now);
        }
        if data.dst == self.id {
            ctx.deliver(data);
            return;
        }
        if data.ttl == 0 {
            ctx.drop_data(data, DropReason::TtlExpired);
            return;
        }
        data.ttl -= 1;
        let Some(next) = next else {
            ctx.drop_data(data, DropReason::BrokenSourceRoute);
            return;
        };
        SourceRouteRef::set_idx(&mut data.ext, (idx + 1) as u8);
        ctx.send_data(next, data);
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
            ControlKind::Rreq => match RreqRef::parse(&ctrl.bytes) {
                Some(m) => self.handle_rreq(ctx, prev_hop, m),
                None => ctx.drop_malformed(ControlKind::Rreq),
            },
            ControlKind::Rrep => match RrepRef::parse(&ctrl.bytes) {
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
            ctx.set_timer(CLEANUP_INTERVAL, CLEANUP_TOKEN);
            return;
        }
        let Some(dest) = self.pending.dest_of(token) else { return };
        if self.cache.lookup(dest, ctx.now()).is_some() {
            self.finish_success(ctx, dest);
        } else if let Some((attempt, token)) = self.pending.retry(ctx, dest, self.cfg.max_attempts)
        {
            self.send_rreq(ctx, dest, attempt, token);
        }
    }

    fn handle_unicast_failure(&mut self, ctx: &mut Ctx, next_hop: NodeId, packet: Packet) {
        self.clock = ctx.now();
        let now = ctx.now();
        self.cache_remove_link(ctx, self.id, next_hop, InvalidateCause::LinkFailure);
        let PacketBody::Data(mut data) = packet.body else { return };
        let Some(sr) = SourceRouteRef::parse(&data.ext) else {
            ctx.drop_data(data, DropReason::BrokenSourceRoute);
            return;
        };
        let salvage = sr.salvage;
        // Report the broken link to the packet's source, back along the
        // part of its route already travelled.
        let holder = (sr.idx as usize).saturating_sub(1).min(sr.path().len().saturating_sub(1));
        if let Some(target) = sr.node_at(0) {
            if target != self.id && holder > 0 {
                let mut back: Vec<NodeId> = sr.path().take(holder).rev().collect();
                let first = back.remove(0);
                let rerr = Rerr { from: self.id, to: next_hop, target, path: back };
                ctx.unicast_control(first, ControlKind::Rerr, rerr.encode(), true, false);
            }
        }
        // Salvage onto an alternate cached route, or drop / re-discover.
        if data.src == self.id {
            data.ext.clear();
            self.handle_data_origination(ctx, data);
            return;
        }
        if salvage < MAX_SALVAGE_COUNT {
            if let Some(alt) = self.cache.lookup_avoiding(data.dst, self.id, next_hop, now) {
                SourceRoute::encode_into(&mut data.ext, 1, salvage + 1, self.id, alt);
                ctx.count(ProtoCounter::Salvage);
                ctx.send_data(alt[0], data);
                return;
            }
        }
        ctx.drop_data(data, DropReason::BrokenSourceRoute);
    }

    fn telemetry_snapshot(&self) -> RouteTelemetry {
        // `route_table_dump` keeps the empty default: DSR has no
        // next-hop table, and loop freedom is per packet (source routes
        // never repeat a node), so the successor-graph auditors have
        // nothing to check. Its "table" is the path cache: entries =
        // cached paths, valid = paths still alive under the draft-07
        // timeout (all of them under draft-03's never-expiring caches).
        RouteTelemetry {
            entries: self.cache.len() as u64,
            valid: self.cache.live_paths(self.clock) as u64,
        }
    }
}

/// The model checker's hooks (see `ldr::Ldr`'s implementation), so
/// `crates/modelcheck` drives DSR through the same exhaustive event
/// interleavings. The loop check reads successors off the empty
/// `route_table_dump`, so it is vacuous here by design.
impl ProtocolModel for Dsr {
    /// Every cached path towards `dest` times out — the draft-07
    /// RouteCacheTimeout, collapsed to an instant.
    fn force_expire(&mut self, dest: NodeId) -> bool {
        self.cache.remove_dest(dest) > 0
    }

    fn digest(&self, out: &mut Vec<u8>) {
        put_u32(out, self.next_id);
        put_u64(out, self.clock.as_nanos());
        let entries = self.cache.entries_sorted();
        put_u64(out, entries.len() as u64);
        for (path, added) in entries {
            put_u64(out, path.len() as u64);
            for n in path {
                put_u16(out, n.0);
            }
            put_u64(out, added.as_nanos());
        }
        let mut seen: Vec<(&(NodeId, u32), &SimTime)> = self.seen.iter().collect();
        seen.sort_unstable_by_key(|((origin, id), _)| (origin.0, *id));
        put_u64(out, seen.len() as u64);
        for ((origin, id), exp) in seen {
            put_u16(out, origin.0);
            put_u32(out, *id);
            put_u64(out, exp.as_nanos());
        }
        self.pending.digest(out);
    }

    /// The route cache in the dump shape: one row per destination (the
    /// shortest cached path), `d = fd =` hop count, no sequence number.
    /// The simulator-facing `route_table_dump` stays empty, so this view
    /// exists only for verification: it lets the checker's expiry
    /// transition enumerate cache timeouts.
    fn dump(&self) -> Vec<RouteDump> {
        let now = self.clock;
        let mut rows: Vec<RouteDump> = Vec::new();
        for (path, _) in self.cache.entries_sorted() {
            let (Some(&next), Some(&dest)) = (path.first(), path.last()) else { continue };
            let hops = path.len() as u32;
            match rows.iter_mut().find(|r| r.dest == dest) {
                Some(row) => {
                    if hops < row.dist {
                        row.next = next;
                        row.dist = hops;
                    }
                }
                None => rows.push(RouteDump {
                    dest,
                    next,
                    dist: hops,
                    feasible_dist: None,
                    seqno: None,
                    valid: self.cache.lookup(dest, now).is_some(),
                }),
            }
        }
        rows.sort_unstable_by_key(|r| r.dest.0);
        rows
    }

    fn discovery_pending(&self, dest: NodeId) -> bool {
        self.pending.is_pending(dest)
    }

    /// Two attempts when the first is a non-propagating (TTL 1)
    /// neighbourhood query that cannot get there, one otherwise —
    /// `None` if the attempt budget forbids the propagating retry.
    fn discovery_attempts(&self, dist: u32) -> Option<u32> {
        if self.cfg.non_propagating_first && dist > 1 {
            (self.cfg.max_attempts >= 2).then_some(2)
        } else {
            Some(1)
        }
    }
}

#[cfg(test)]
mod tests;
