//! OLSR — Optimized Link State Routing
//! (draft-ietf-manet-olsr-06, the paper's proactive baseline).
//!
//! Periodic HELLOs perform link sensing and signal each node's chosen
//! *multipoint relays* (MPRs — the minimal neighbour subset covering
//! the two-hop neighbourhood); only MPRs forward topology-control (TC)
//! floods, and only MPR-selector links are advertised. Routes are
//! hop-count shortest paths, recomputed by breadth-first search over
//! the learned topology.
//!
//! The functions that dominate the protocol's cost at paper scale work
//! on the layout their access pattern wants. TC receipt keeps one
//! advertised set per originator (`handle_tc`), and HELLOs and TCs are
//! read off the received bytes ([`messages::HelloRef`],
//! [`messages::TcRef`]). The two graph computations share one idea: the
//! ids a node knows are few but sparse in `u16`, so one id-indexed slot
//! table (`Labels`) hands each id met in a computation a dense *label*,
//! and the graph becomes bitset rows over labels. MPR selection
//! (`recompute_mprs`) is a greedy set cover over one row per neighbour;
//! the route search (`recompute_routes`) is a breadth-first search over
//! one adjacency row per vertex, a level step being `row & !seen`. The
//! map-based formulations they replaced live on in `tests.rs` as the
//! oracle a differential proptest holds them to.
//!
//! The paper found the INRIA OLSR code suffered packet-jitter problems
//! and added "a new FIFO jitter queue … a uniformly chosen inter-packet
//! jitter between 0 and 15 ms" that "performs substantially better than
//! the base OLSR" — reproduced here as [`Olsr`]'s outgoing control
//! queue (enabled by default, switchable for ablation).

pub mod messages;

use manet_sim::hash::FxBuild;
use manet_sim::packet::{ControlKind, ControlPacket, DataPacket, NodeId, Packet, PacketBody};
use manet_sim::protocol::{Ctx, DropReason, RouteDump, RouteTelemetry, RoutingProtocol};
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::trace::{InvalidateCause, InvariantSnapshot, TraceEvent};
use manet_sim::wire::{put_u16, put_u32, put_u64};
use messages::{Hello, HelloRef, Tc, TcRef};
use std::collections::{HashMap, VecDeque};

/// Protocol state maps use the deterministic Fx hasher: every iteration
/// over them is order-insensitive (sorted or commutative afterwards),
/// and SipHash was a measurable slice of OLSR's per-hello and
/// per-recompute cost at paper scale.
type FxMap<K, V> = HashMap<K, V, FxBuild>;

const HELLO_TOKEN: u64 = 1;
const TC_TOKEN: u64 = 2;
const JITTER_TOKEN: u64 = 3;
const CLEANUP_TOKEN: u64 = u64::MAX;

/// OLSR parameters (draft defaults).
#[derive(Clone, Debug, PartialEq)]
pub struct OlsrConfig {
    /// HELLO_INTERVAL.
    pub hello_interval: SimDuration,
    /// TC_INTERVAL.
    pub tc_interval: SimDuration,
    /// NEIGHB_HOLD_TIME.
    pub neighbor_hold: SimDuration,
    /// TOP_HOLD_TIME.
    pub topology_hold: SimDuration,
    /// Duplicate-set hold time.
    pub duplicate_hold: SimDuration,
    /// The paper's FIFO jitter queue: uniform inter-packet spacing in
    /// `[0, jitter_max]`; `None` disables the queue (base OLSR).
    pub jitter_max: Option<SimDuration>,
    /// Treat MAC retry exhaustion as link loss (link-layer feedback).
    pub link_layer_feedback: bool,
    /// TC flood TTL.
    pub tc_ttl: u8,
}

impl Default for OlsrConfig {
    fn default() -> Self {
        OlsrConfig {
            hello_interval: SimDuration::from_secs(2),
            tc_interval: SimDuration::from_secs(5),
            neighbor_hold: SimDuration::from_secs(6),
            topology_hold: SimDuration::from_secs(15),
            duplicate_hold: SimDuration::from_secs(30),
            jitter_max: Some(SimDuration::from_millis(15)),
            link_layer_feedback: true,
            tc_ttl: 32,
        }
    }
}

impl OlsrConfig {
    /// The un-fixed variant the paper compares against (no FIFO jitter
    /// queue).
    pub fn without_jitter_queue() -> Self {
        OlsrConfig { jitter_max: None, ..OlsrConfig::default() }
    }
}

#[derive(Clone, Copy, Debug)]
struct LinkState {
    sym: bool,
    expires: SimTime,
}

/// An OLSR node.
#[derive(Clone)]
pub struct Olsr {
    id: NodeId,
    cfg: OlsrConfig,
    links: FxMap<NodeId, LinkState>,
    /// neighbour → (its symmetric neighbours, expiry).
    two_hop: FxMap<NodeId, (Vec<NodeId>, SimTime)>,
    /// Selected multipoint relays, ascending by id.
    mpr_set: Vec<NodeId>,
    mpr_selectors: FxMap<NodeId, SimTime>,
    /// originator → (ansn, [(selector, expiry)]): the advertised link
    /// `(originator, selector)` is known under `ansn` until `expiry`.
    ///
    /// One ANSN per originator is not a simplification: entries are only
    /// written by the accepting arm of [`Olsr::handle_tc`], which either
    /// finds the set empty, clears it because the TC is newer, or finds
    /// the TC's ANSN equal to the stored one (of two distinct ANSNs
    /// exactly one is [`ansn_newer`], and an older TC is rejected) — so
    /// all of an originator's entries always carry the same ANSN. An
    /// empty set is the same as no set, whatever ANSN it last held.
    topology: FxMap<NodeId, (u16, Vec<(NodeId, SimTime)>)>,
    /// TC duplicate set: (originator, seq) → expiry.
    dup: FxMap<(NodeId, u16), SimTime>,
    /// The routing table, indexed by destination id: `(next hop, hops)`,
    /// with `hops == 0` for "no route" (and for this node itself).
    table: Vec<(NodeId, u32)>,
    dirty: bool,
    ansn: u16,
    tc_seq: u16,
    /// Outgoing control queue (the paper's FIFO jitter fix).
    outq: VecDeque<(ControlKind, Vec<u8>, bool)>,
    drain_scheduled: bool,
    clock: SimTime,
    /// Reusable buffers for [`Olsr::recompute_routes`] and
    /// [`Olsr::recompute_mprs`] (no protocol state — purely an
    /// allocation cache).
    scratch: Scratch,
}

/// The labels a route search starts with room for: one row word. A
/// search that meets more starts over with twice the room.
const INITIAL_LABELS: usize = 64;

/// Scratch space reused across route and MPR recomputations.
#[derive(Debug, Default)]
struct Scratch {
    labels: Labels,
    /// Route search: the symmetric neighbours, ascending by id.
    n1: Vec<NodeId>,
    /// Route search: one adjacency bitset row per label, bit `v` of row
    /// `u` set for a live link `u → v`.
    rows: Vec<u64>,
    /// Words per row the last search's labels needed — where the next
    /// one starts, so a neighbourhood that has outgrown
    /// [`INITIAL_LABELS`] pays for starting over once, not on every
    /// search.
    row_words: usize,
    /// Route search: the labels claimed so far, one bit each.
    seen: Vec<u64>,
    /// Route search: the BFS queue of labels; nothing is popped, a
    /// cursor walks it.
    queue: Vec<usize>,
    /// MPR selection: every listing of a strict two-hop node as (its
    /// bit, index of the listing neighbour in the one-hop set).
    pairs: Vec<(usize, usize)>,
    /// MPR selection: listings per two-hop bit.
    listings: Vec<u32>,
    /// MPR selection: one coverage bitset row per one-hop neighbour,
    /// then one row of still-uncovered two-hop nodes.
    cover: Vec<u64>,
    /// Per one-hop neighbour: chosen as an MPR in this selection.
    selected: Vec<bool>,
    /// Traced recomputation: the table as it was before, to diff the
    /// new one against.
    prev_table: Vec<(NodeId, u32)>,
}

/// A clone starts with empty scratch: there is no state in it to carry
/// over, and `modelcheck` clones a node per explored state.
impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

/// Dense labels `0, 1, 2, …` in order of first sight for the sparse ids
/// of one computation, as many as it has made room for.
#[derive(Debug, Default)]
struct Labels {
    /// How many labels this computation may hand out.
    room: usize,
    /// By id: its label plus one, or 0 for an id this computation has
    /// not met. As long as the highest id ever met (a corrupt 65535
    /// makes it 256 KB, once), but only the entries of `ids` are ever
    /// non-zero, so starting afresh costs the labels, not the table.
    slot: Vec<u32>,
    /// By label: the id.
    ids: Vec<NodeId>,
}

impl Labels {
    /// Forgets every label and makes room for `room` new ones.
    fn reset(&mut self, room: usize) {
        for id in self.ids.drain(..) {
            self.slot[id.index()] = 0;
        }
        self.room = room;
    }

    /// The label of `id`, the next free one if it has none yet — `None`
    /// if there is no room for another.
    #[inline]
    fn of(&mut self, id: NodeId) -> Option<usize> {
        match self.slot.get(id.index()) {
            Some(&slot) if slot != 0 => Some(slot as usize - 1),
            _ => self.first_sight(id),
        }
    }

    #[cold]
    fn first_sight(&mut self, id: NodeId) -> Option<usize> {
        if self.ids.len() == self.room {
            return None;
        }
        if self.slot.len() <= id.index() {
            self.slot.resize(id.index() + 1, 0);
        }
        self.ids.push(id);
        self.slot[id.index()] = self.ids.len() as u32; // at most 65 536 ids
        Some(self.ids.len() - 1)
    }
}

impl Olsr {
    /// A new node.
    pub fn new(id: NodeId, cfg: OlsrConfig) -> Self {
        Olsr {
            id,
            cfg,
            links: FxMap::default(),
            two_hop: FxMap::default(),
            mpr_set: Vec::new(),
            mpr_selectors: FxMap::default(),
            topology: FxMap::default(),
            // Pre-sized: one insert per flooded TC received; the
            // periodic retain keeps capacity, so reserving once
            // removes every growth rehash from the hot path.
            dup: FxMap::with_capacity_and_hasher(256, Default::default()),
            table: Vec::new(),
            dirty: false,
            ansn: 0,
            tc_seq: 0,
            outq: VecDeque::new(),
            drain_scheduled: false,
            clock: SimTime::ZERO,
            scratch: Scratch::default(),
        }
    }

    /// A factory closure for [`manet_sim::world::World::new`].
    pub fn factory(cfg: OlsrConfig) -> impl FnMut(NodeId, usize) -> Box<dyn RoutingProtocol> {
        move |id, _| Box::new(Olsr::new(id, cfg.clone()))
    }

    /// Currently selected multipoint relays, ascending by id.
    pub fn mprs(&self) -> &[NodeId] {
        &self.mpr_set
    }

    /// The computed route towards `dest`: (next hop, hops).
    pub fn route(&self, dest: NodeId) -> Option<(NodeId, u32)> {
        table_route(&self.table, dest.index())
    }

    /// Every computed route as (destination, next hop, hops), ascending
    /// by destination.
    fn routes(&self) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        (0..=u16::MAX)
            .zip(&self.table)
            .filter(|(_, &(_, hops))| hops != 0)
            .map(|(dest, &(next, hops))| (NodeId(dest), next, hops))
    }

    // ----- verification hooks ----------------------------------------------
    //
    // Counterparts of the `ldr::Ldr` hooks, used by `crates/modelcheck`
    // to drive OLSR through the same exhaustive event interleavings.

    /// Forces the link-state soft state behind the route towards `dest`
    /// to time out — the model checker's soft-state-expiry transition
    /// (NEIGHB_HOLD_TIME / TOP_HOLD_TIME lapsing, collapsed to an
    /// instant). The derived routing table is left to the next
    /// recomputation, exactly as with a natural timeout. Returns
    /// whether any state existed to expire.
    pub fn force_expire(&mut self, dest: NodeId) -> bool {
        let mut removed = self.links.remove(&dest).is_some();
        removed |= self.two_hop.remove(&dest).is_some();
        removed |= self.topology.remove(&dest).is_some_and(|(_, sels)| !sels.is_empty());
        for (_, sels) in self.topology.values_mut() {
            let before = sels.len();
            sels.retain(|&(sel, _)| sel != dest);
            removed |= sels.len() != before;
        }
        if removed {
            self.dirty = true;
        }
        removed
    }

    /// Recomputes the routing table immediately if the topology is
    /// dirty — the model checker's way of observing the table a node
    /// *would* forward with, outside any callback.
    pub fn force_recompute(&mut self) {
        if self.dirty {
            self.recompute_routes(self.clock);
        }
    }

    /// Appends a canonical byte encoding of the complete protocol state
    /// to `out` (sorted iteration everywhere; see
    /// `ldr::Ldr::verification_digest` for the contract). The
    /// allocation scratch is excluded — it carries no protocol state.
    pub fn verification_digest(&self, out: &mut Vec<u8>) {
        let mut links: Vec<(&NodeId, &LinkState)> = self.links.iter().collect();
        links.sort_unstable_by_key(|(n, _)| n.0);
        put_u64(out, links.len() as u64);
        for (n, l) in links {
            put_u16(out, n.0);
            out.push(u8::from(l.sym));
            put_u64(out, l.expires.as_nanos());
        }
        let mut two_hop: Vec<(&NodeId, &(Vec<NodeId>, SimTime))> = self.two_hop.iter().collect();
        two_hop.sort_unstable_by_key(|(n, _)| n.0);
        put_u64(out, two_hop.len() as u64);
        for (n, (twos, exp)) in two_hop {
            put_u16(out, n.0);
            put_u64(out, twos.len() as u64);
            for t in twos {
                put_u16(out, t.0);
            }
            put_u64(out, exp.as_nanos());
        }
        put_u64(out, self.mpr_set.len() as u64);
        for &n in &self.mpr_set {
            put_u16(out, n.0);
        }
        let mut selectors: Vec<(&NodeId, &SimTime)> = self.mpr_selectors.iter().collect();
        selectors.sort_unstable_by_key(|(n, _)| n.0);
        put_u64(out, selectors.len() as u64);
        for (n, exp) in selectors {
            put_u16(out, n.0);
            put_u64(out, exp.as_nanos());
        }
        let mut topology = self.topology_entries();
        topology.sort_unstable_by_key(|&(o, s, ..)| (o.0, s.0));
        put_u64(out, topology.len() as u64);
        for (orig, sel, ansn, exp) in topology {
            put_u16(out, orig.0);
            put_u16(out, sel.0);
            put_u16(out, ansn);
            put_u64(out, exp.as_nanos());
        }
        let mut dup: Vec<(&(NodeId, u16), &SimTime)> = self.dup.iter().collect();
        dup.sort_unstable_by_key(|((o, s), _)| (o.0, *s));
        put_u64(out, dup.len() as u64);
        for ((orig, seq), exp) in dup {
            put_u16(out, orig.0);
            put_u16(out, *seq);
            put_u64(out, exp.as_nanos());
        }
        put_u64(out, self.routes().count() as u64);
        for (dest, next, hops) in self.routes() {
            put_u16(out, dest.0);
            put_u16(out, next.0);
            put_u32(out, hops);
        }
        out.push(u8::from(self.dirty));
        put_u16(out, self.ansn);
        put_u16(out, self.tc_seq);
        put_u64(out, self.outq.len() as u64);
        for (kind, bytes, initiated) in &self.outq {
            out.push(*kind as u8);
            put_u64(out, bytes.len() as u64);
            out.extend_from_slice(bytes);
            out.push(u8::from(*initiated));
        }
        out.push(u8::from(self.drain_scheduled));
        put_u64(out, self.clock.as_nanos());
    }

    /// The topology set flattened to (originator, selector, ansn,
    /// expiry), in no particular order.
    fn topology_entries(&self) -> Vec<(NodeId, NodeId, u16, SimTime)> {
        let mut v = Vec::new();
        for (&orig, (ansn, sels)) in &self.topology {
            v.extend(sels.iter().map(|&(sel, exp)| (orig, sel, *ansn, exp)));
        }
        v
    }

    pub(crate) fn sym_neighbors(&self, now: SimTime) -> Vec<NodeId> {
        let mut v = Vec::new();
        sym_links_into(&self.links, now, &mut v);
        v
    }

    fn heard_neighbors(&self, now: SimTime) -> Vec<NodeId> {
        let mut v: Vec<NodeId> =
            self.links.iter().filter(|(_, l)| !l.sym && l.expires > now).map(|(&n, _)| n).collect();
        v.sort_unstable_by_key(|n| n.0);
        v
    }

    /// Greedy MPR selection over `n1`, the current symmetric
    /// neighbours ascending by id: cover every strict two-hop neighbour.
    ///
    /// This node and `n1` take the first labels, so an id listed by a
    /// neighbour is a strict two-hop node exactly when its label lies
    /// past them, and that excess is its bit: each neighbour gets a
    /// bitset row of the two-hop nodes it reaches. A neighbour is
    /// mandatory when it is the only *listing* of some `t`. Multiplicity
    /// counts: a (corrupt) hello naming `t` twice makes two listings,
    /// which the greedy step covers like any other. That step takes the
    /// neighbour covering the most uncovered nodes, the smallest id
    /// among equals (`n1` order and a strict `>`). Bits are numbered in
    /// the order a hash map happened to be walked, and that cannot reach
    /// the MPR set: the greedy step only ever counts the bits of a row.
    pub(crate) fn recompute_mprs(&mut self, now: SimTime, n1: &[NodeId]) {
        let scr = &mut self.scratch;
        scr.labels.reset(usize::MAX);
        scr.labels.of(self.id);
        for &n in n1 {
            scr.labels.of(n);
        }
        let one_hop = scr.labels.ids.len();
        scr.pairs.clear();
        scr.listings.clear();
        for (p, n) in n1.iter().enumerate() {
            let Some((twos, _)) = self.two_hop.get(n).filter(|(_, exp)| *exp > now) else {
                continue;
            };
            for &t in twos {
                if let Some(bit) = scr.labels.of(t).and_then(|l| l.checked_sub(one_hop)) {
                    if bit == scr.listings.len() {
                        scr.listings.push(0);
                    }
                    scr.listings[bit] += 1;
                    scr.pairs.push((bit, p));
                }
            }
        }
        let bits = scr.listings.len();
        let words = bits.div_ceil(64);
        scr.cover.clear();
        scr.cover.resize((n1.len() + 1) * words, 0);
        scr.selected.clear();
        scr.selected.resize(n1.len(), false);
        let (cover, uncovered) = scr.cover.split_at_mut(n1.len() * words);
        for &(bit, p) in &scr.pairs {
            cover[p * words + bit / 64] |= 1 << (bit % 64);
            if scr.listings[bit] == 1 {
                scr.selected[p] = true;
            }
        }
        for bit in 0..bits {
            uncovered[bit / 64] |= 1 << (bit % 64);
        }
        let row = |p: usize| &cover[p * words..(p + 1) * words];
        let strike = |uncovered: &mut [u64], p: usize| {
            uncovered.iter_mut().zip(row(p)).for_each(|(u, c)| *u &= !c);
        };
        for p in 0..n1.len() {
            if scr.selected[p] {
                strike(uncovered, p);
            }
        }
        while uncovered.iter().any(|&w| w != 0) {
            let mut best = (0, 0);
            for p in (0..n1.len()).filter(|&p| !scr.selected[p]) {
                let covers: u32 =
                    row(p).iter().zip(&*uncovered).map(|(c, u)| (c & u).count_ones()).sum();
                if covers > best.0 {
                    best = (covers, p);
                }
            }
            if best.0 == 0 {
                break; // unreachable: every uncovered node has an unselected provider
            }
            scr.selected[best.1] = true;
            strike(uncovered, best.1);
        }
        self.mpr_set.clear();
        self.mpr_set.extend(n1.iter().zip(&scr.selected).filter(|(_, &s)| s).map(|(&n, _)| n));
    }

    /// Labels every vertex of the known graph — this node 0, `n1` next
    /// in its own order, everything else on first sight — and ORs each
    /// live directed link into `rows`, `words` words per row. `None` if
    /// the graph has more than `64 * words` vertices: nothing built is
    /// usable then.
    fn build_rows(&mut self, now: SimTime, words: usize) -> Option<()> {
        let Scratch { labels, n1, rows, .. } = &mut self.scratch;
        labels.reset(64 * words);
        rows.clear();
        rows.resize(64 * words * words, 0);
        labels.of(self.id)?;
        for &n in &*n1 {
            labels.of(n)?;
        }
        for (&n, (twos, exp)) in &self.two_hop {
            if *exp > now {
                let row = labels.of(n)? * words;
                for &t in twos {
                    let v = labels.of(t)?;
                    rows[row + v / 64] |= 1 << (v % 64);
                }
            }
        }
        for (&orig, (_, sels)) in &self.topology {
            for &(sel, _) in sels.iter().filter(|(_, exp)| *exp > now) {
                let (u, v) = (labels.of(orig)?, labels.of(sel)?);
                rows[u * words + v / 64] |= 1 << (v % 64);
                rows[v * words + u / 64] |= 1 << (u % 64);
            }
        }
        Some(())
    }

    /// Hop-count shortest paths by breadth-first search over links,
    /// two-hop lists and topology.
    ///
    /// Runs once per forwarding decision after a topology change, so it
    /// is the hottest code in the protocol at paper scale. The graph is
    /// built as one bitset row per vertex over dense labels
    /// ([`Olsr::build_rows`]; a repeated or doubly-learned link vanishes
    /// in the OR), and expanding a vertex is `row & !seen` a word at a
    /// time, each new bit claimed on the spot — every vertex exactly
    /// once. Storage follows the number of vertices, not the size of
    /// their ids (`64 · words²` row words, 2 KB for up to 128 vertices);
    /// only the table is indexed by id, and it is sized to the highest
    /// id alive in this search, so what a corrupt id costs ends when its
    /// entry expires.
    ///
    /// A vertex's children are claimed in label order, which is `n1`
    /// order for the one-hop set and otherwise the order a hash map was
    /// walked in. That does not reach the table: the queue starts as the
    /// one-hop set ascending by id, so at every level the vertices
    /// sharing a first hop sit together, smaller first hops before
    /// larger ones, however each parent's children are ordered among
    /// themselves. A vertex is claimed by its earliest-queued parent,
    /// which therefore carries the smallest first hop of any shortest
    /// path to it (DESIGN.md §3 has the induction).
    fn recompute_routes(&mut self, now: SimTime) {
        self.dirty = false;
        sym_links_into(&self.links, now, &mut self.scratch.n1);
        let mut words = self.scratch.row_words.max(INITIAL_LABELS / 64);
        while self.build_rows(now, words).is_none() {
            words *= 2;
        }
        let Scratch { labels: Labels { ids, .. }, n1, rows, row_words, seen, queue, .. } =
            &mut self.scratch;
        *row_words = ids.len().div_ceil(64);
        let highest = ids.iter().map(|id| id.index()).max().unwrap_or(0);
        self.table.clear();
        self.table.resize(highest + 1, (NodeId(0), 0));
        // Labels 1.. are `n1` in order, less this node should it list
        // itself: level one. This node, label 0, is seen from the start.
        let level_one = 1..=n1.iter().filter(|&&n| n != self.id).count();
        seen.clear();
        seen.resize(words, 0);
        seen[0] = 1;
        queue.clear();
        for l in level_one {
            seen[l / 64] |= 1 << (l % 64);
            self.table[ids[l].index()] = (ids[l], 1);
            queue.push(l);
        }
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let (first_hop, hops) = self.table[ids[u].index()];
            for (w, (row, seen)) in rows[u * words..].iter().zip(seen.iter_mut()).enumerate() {
                let mut new = row & !*seen;
                *seen |= new;
                while new != 0 {
                    let v = 64 * w + new.trailing_zeros() as usize;
                    new &= new - 1;
                    self.table[ids[v].index()] = (first_hop, hops + 1);
                    queue.push(v);
                }
            }
        }
    }

    /// Recomputes routes if the topology is dirty, emitting
    /// [`TraceEvent::RouteInstall`] / [`TraceEvent::RouteInvalidate`]
    /// diffs against the previous table when tracing is on: one walk over
    /// the old table for routes that are gone, then one over the new for
    /// routes that are new or changed, both by destination. OLSR has no
    /// `(sn, d, fd)` machinery, so installs scalarise as `d = fd =` hop
    /// count with no sequence number.
    fn recompute_traced(&mut self, ctx: &mut Ctx) {
        if !self.dirty {
            return;
        }
        if !ctx.trace_enabled() {
            self.recompute_routes(ctx.now());
            return;
        }
        std::mem::swap(&mut self.table, &mut self.scratch.prev_table);
        self.recompute_routes(ctx.now());
        let (before, after, node) = (&self.scratch.prev_table, &self.table, self.id);
        for dest in 0..before.len() {
            if table_route(before, dest).is_some() && table_route(after, dest).is_none() {
                ctx.trace(|| TraceEvent::RouteInvalidate {
                    node,
                    dest: NodeId(dest as u16),
                    seqno: None,
                    cause: InvalidateCause::LinkFailure,
                });
            }
        }
        for dest in 0..after.len() {
            let Some((next, hops)) = table_route(after, dest) else { continue };
            let prev = table_route(before, dest);
            if prev != Some((next, hops)) {
                let before_snap = prev.map(|(_, h)| InvariantSnapshot { sn: None, d: h, fd: h });
                ctx.trace(|| TraceEvent::RouteInstall {
                    node,
                    dest: NodeId(dest as u16),
                    next,
                    before: before_snap,
                    after: InvariantSnapshot { sn: None, d: hops, fd: hops },
                });
            }
        }
    }

    fn enqueue_control(
        &mut self,
        ctx: &mut Ctx,
        kind: ControlKind,
        bytes: Vec<u8>,
        initiated: bool,
    ) {
        match self.cfg.jitter_max {
            None => ctx.broadcast(kind, bytes, initiated),
            Some(maxj) => {
                self.outq.push_back((kind, bytes, initiated));
                if !self.drain_scheduled {
                    self.drain_scheduled = true;
                    let j = SimDuration::from_nanos(ctx.rng().below(maxj.as_nanos().max(1)));
                    ctx.set_timer(j, JITTER_TOKEN);
                }
            }
        }
    }

    fn drain_one(&mut self, ctx: &mut Ctx) {
        self.drain_scheduled = false;
        if let Some((kind, bytes, initiated)) = self.outq.pop_front() {
            ctx.broadcast(kind, bytes, initiated);
        }
        if !self.outq.is_empty() {
            self.drain_scheduled = true;
            let maxj = self.cfg.jitter_max.unwrap_or(SimDuration::from_millis(1));
            let j = SimDuration::from_nanos(ctx.rng().below(maxj.as_nanos().max(1)));
            ctx.set_timer(j, JITTER_TOKEN);
        }
    }

    fn send_hello(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let sym = self.sym_neighbors(now);
        self.recompute_mprs(now, &sym);
        let hello = Hello { sym, heard: self.heard_neighbors(now), mpr: self.mpr_set.clone() };
        self.enqueue_control(ctx, ControlKind::Hello, hello.encode(), true);
    }

    fn send_tc(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        self.mpr_selectors.retain(|_, &mut e| e > now);
        if self.mpr_selectors.is_empty() {
            return;
        }
        self.ansn = self.ansn.wrapping_add(1);
        self.tc_seq = self.tc_seq.wrapping_add(1);
        let mut selectors: Vec<NodeId> = self.mpr_selectors.keys().copied().collect();
        selectors.sort_unstable_by_key(|n| n.0);
        let tc = Tc {
            originator: self.id,
            ansn: self.ansn,
            seq: self.tc_seq,
            ttl: self.cfg.tc_ttl,
            selectors,
        };
        self.enqueue_control(ctx, ControlKind::Tc, tc.encode(), true);
    }

    fn handle_hello(&mut self, ctx: &mut Ctx, prev: NodeId, h: HelloRef) {
        let now = ctx.now();
        let hold = self.cfg.neighbor_hold;
        // Link sensing: symmetric once the neighbour lists us.
        let hears_us = h.sym().chain(h.heard()).any(|n| n == self.id);
        let selects_us = h.mpr().any(|n| n == self.id);
        self.links.insert(prev, LinkState { sym: hears_us, expires: now + hold });
        // Two-hop set (only via symmetric links): the neighbour's list
        // replaces the one it sent before, in the same allocation.
        let (twos, expires) = self.two_hop.entry(prev).or_default();
        twos.clear();
        twos.extend(h.sym());
        *expires = now + hold;
        // MPR selector set.
        if selects_us {
            self.mpr_selectors.insert(prev, now + hold);
        } else {
            self.mpr_selectors.remove(&prev);
        }
        self.dirty = true;
    }

    fn handle_tc(&mut self, ctx: &mut Ctx, prev: NodeId, tc: TcRef) {
        let now = ctx.now();
        if tc.originator == self.id {
            return;
        }
        let dkey = (tc.originator, tc.seq);
        let seen = self.dup.get(&dkey).is_some_and(|&e| e > now);
        if !seen {
            self.dup.insert(dkey, now + self.cfg.duplicate_hold);
            // ANSN logic: ignore stale sets; replace older ones.
            let (ansn, sels) = self.topology.entry(tc.originator).or_default();
            let stale = !sels.is_empty() && ansn_newer(*ansn, tc.ansn);
            if !stale {
                if *ansn != tc.ansn {
                    sels.clear();
                    *ansn = tc.ansn;
                }
                let expires = now + self.cfg.topology_hold;
                for sel in tc.selectors() {
                    match sels.iter_mut().find(|(s, _)| *s == sel) {
                        Some(known) => known.1 = expires,
                        None => sels.push((sel, expires)),
                    }
                }
                self.dirty = true;
            }
            // Default forwarding: retransmit only if the sender selected
            // us as an MPR.
            if self.mpr_selectors.get(&prev).is_some_and(|&e| e > now) {
                if let Some(relayed) = tc.forwarded() {
                    self.enqueue_control(ctx, ControlKind::Tc, relayed, false);
                }
            }
        }
    }
}

/// The route an id-indexed table holds towards `dest`, if any.
fn table_route(table: &[(NodeId, u32)], dest: usize) -> Option<(NodeId, u32)> {
    table.get(dest).copied().filter(|&(_, hops)| hops != 0)
}

/// Refills `out` with the neighbours `links` holds a live symmetric
/// link to, ascending by id.
fn sym_links_into(links: &FxMap<NodeId, LinkState>, now: SimTime, out: &mut Vec<NodeId>) {
    out.clear();
    out.extend(links.iter().filter(|(_, l)| l.sym && l.expires > now).map(|(&n, _)| n));
    out.sort_unstable_by_key(|n| n.0);
}

/// Sequence-number comparison with wraparound (RFC 3626 §19).
fn ansn_newer(a: u16, b: u16) -> bool {
    a != b && ((a > b && a - b <= 32768) || (b > a && b - a > 32768))
}

impl RoutingProtocol for Olsr {
    fn name(&self) -> &'static str {
        "OLSR"
    }

    fn start(&mut self, ctx: &mut Ctx) {
        self.clock = ctx.now();
        // Stagger the first hello across the interval to avoid
        // network-wide synchronisation.
        let h = ctx.rng().below(self.cfg.hello_interval.as_nanos().max(1));
        ctx.set_timer(SimDuration::from_nanos(h), HELLO_TOKEN);
        let t = ctx.rng().below(self.cfg.tc_interval.as_nanos().max(1));
        ctx.set_timer(SimDuration::from_nanos(t), TC_TOKEN);
        ctx.set_timer(SimDuration::from_secs(30), CLEANUP_TOKEN);
    }

    fn handle_reboot(&mut self, ctx: &mut Ctx) {
        // Link-state soft state is all volatile; neighbours age the
        // crashed incarnation's TCs out on their own timers.
        self.links.clear();
        self.two_hop.clear();
        self.mpr_set.clear();
        self.mpr_selectors.clear();
        self.topology.clear();
        self.dup.clear();
        self.table.clear();
        self.dirty = false;
        self.ansn = 0;
        self.tc_seq = 0;
        self.outq.clear();
        self.drain_scheduled = false;
        self.start(ctx);
    }

    fn handle_data_origination(&mut self, ctx: &mut Ctx, data: DataPacket) {
        self.clock = ctx.now();
        if data.dst == self.id {
            ctx.deliver(data);
            return;
        }
        self.recompute_traced(ctx);
        match self.route(data.dst) {
            Some((next, _)) => ctx.send_data(next, data),
            None => ctx.drop_data(data, DropReason::NoRoute),
        }
    }

    fn handle_data_packet(&mut self, ctx: &mut Ctx, _prev_hop: NodeId, mut data: DataPacket) {
        self.clock = ctx.now();
        if data.dst == self.id {
            ctx.deliver(data);
            return;
        }
        if data.ttl == 0 {
            ctx.drop_data(data, DropReason::TtlExpired);
            return;
        }
        data.ttl -= 1;
        self.recompute_traced(ctx);
        match self.route(data.dst) {
            Some((next, _)) => ctx.send_data(next, data),
            None => ctx.drop_data(data, DropReason::NoRoute),
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
            ControlKind::Hello => match HelloRef::parse(&ctrl.bytes) {
                Some(h) => self.handle_hello(ctx, prev_hop, h),
                None => ctx.drop_malformed(ControlKind::Hello),
            },
            ControlKind::Tc => match TcRef::parse(&ctrl.bytes) {
                Some(t) => self.handle_tc(ctx, prev_hop, t),
                None => ctx.drop_malformed(ControlKind::Tc),
            },
            _ => {}
        }
    }

    fn handle_timer(&mut self, ctx: &mut Ctx, token: u64) {
        self.clock = ctx.now();
        match token {
            HELLO_TOKEN => {
                self.send_hello(ctx);
                ctx.set_timer(self.cfg.hello_interval, HELLO_TOKEN);
            }
            TC_TOKEN => {
                self.send_tc(ctx);
                ctx.set_timer(self.cfg.tc_interval, TC_TOKEN);
            }
            JITTER_TOKEN => self.drain_one(ctx),
            CLEANUP_TOKEN => {
                let now = ctx.now();
                self.dup.retain(|_, &mut e| e > now);
                self.topology.retain(|_, (_, sels)| {
                    sels.retain(|&(_, e)| e > now);
                    !sels.is_empty()
                });
                self.links.retain(|_, l| l.expires > now);
                self.two_hop.retain(|_, (_, e)| *e > now);
                self.dirty = true;
                ctx.set_timer(SimDuration::from_secs(30), CLEANUP_TOKEN);
            }
            _ => {}
        }
    }

    fn handle_unicast_failure(&mut self, ctx: &mut Ctx, next_hop: NodeId, packet: Packet) {
        self.clock = ctx.now();
        if self.cfg.link_layer_feedback {
            self.links.remove(&next_hop);
            self.two_hop.remove(&next_hop);
            self.dirty = true;
        }
        if let PacketBody::Data(data) = packet.body {
            // Try once more over the recomputed topology.
            self.recompute_traced(ctx);
            match self.route(data.dst) {
                Some((next, _)) if next != next_hop => ctx.send_data(next, data),
                _ => ctx.drop_data(data, DropReason::NoRoute),
            }
        }
    }

    fn route_successors(&self) -> Vec<(NodeId, NodeId)> {
        self.routes().map(|(dest, next, _)| (dest, next)).collect()
    }

    fn route_table_dump(&self) -> Vec<RouteDump> {
        self.routes()
            .map(|(dest, next, hops)| RouteDump {
                dest,
                next,
                dist: hops,
                feasible_dist: None,
                seqno: None,
                valid: true,
            })
            .collect()
    }

    fn telemetry_snapshot(&self) -> RouteTelemetry {
        // Every BFS-computed entry is usable until the next recompute,
        // so entries and valid coincide.
        let n = self.routes().count() as u64;
        RouteTelemetry { entries: n, valid: n }
    }
}

#[cfg(test)]
mod tests;
