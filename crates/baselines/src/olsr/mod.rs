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
//! [`messages::TcRef`]). The ids a node knows are few but sparse in
//! `u16`, so one id-indexed slot table (`Labels`) hands each id a dense
//! *label* once, on receipt, when it enters the link state; the CLEANUP
//! sweep relabels the ids still live. Beside its entries the link state
//! (`Sets`) keeps each neighbour's two-hop list and each originator's
//! selectors as label bitsets, `⌈labels / 64⌉` words a row, so the two
//! graph computations are word operations with no per-id work. MPR
//! selection (`recompute_mprs`) is a greedy set cover over one row per
//! neighbour; the route search (`recompute_routes`) is a breadth-first
//! search over one adjacency row per label, a level step being
//! `row & !seen`. The bodies they replaced, which labelled afresh in
//! every computation, live on in `tests.rs` as the oracles a
//! differential proptest holds them to.
//!
//! The paper found the INRIA OLSR code suffered packet-jitter problems
//! and added "a new FIFO jitter queue … a uniformly chosen inter-packet
//! jitter between 0 and 15 ms" that "performs substantially better than
//! the base OLSR" — reproduced here as [`Olsr`]'s outgoing control
//! queue (enabled by default; [`OlsrConfig::jitter_max`] `None` is base
//! OLSR, which the model checker runs).

pub mod messages;

use manet_sim::hash::FxMap;
use manet_sim::packet::{ControlKind, ControlPacket, DataPacket, NodeId, Packet, PacketBody};
use manet_sim::protocol::{Ctx, DropReason, ProtocolModel, RouteDump, RoutingProtocol};
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::trace::{InvalidateCause, InvariantSnapshot, TraceEvent};
use manet_sim::wire::{put_u16, put_u32, put_u64};
use messages::{Hello, HelloRef, Tc, TcRef};
use std::collections::VecDeque;

const HELLO_TOKEN: u64 = 1;
const TC_TOKEN: u64 = 2;
const JITTER_TOKEN: u64 = 3;
const CLEANUP_TOKEN: u64 = u64::MAX;

/// HELLO_INTERVAL.
const HELLO_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// TC_INTERVAL.
const TC_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// NEIGHB_HOLD_TIME: the lifetime of link, two-hop and MPR-selector
/// state learned from a HELLO.
const NEIGHB_HOLD_TIME: SimDuration = SimDuration::from_secs(6);
/// TOP_HOLD_TIME: the lifetime of topology learned from a TC.
const TOP_HOLD_TIME: SimDuration = SimDuration::from_secs(15);
/// DUP_HOLD_TIME: how long a TC's `(originator, seq)` is remembered.
const DUP_HOLD_TIME: SimDuration = SimDuration::from_secs(30);
/// TTL of an originated TC flood.
const TC_TTL: u8 = 32;

/// OLSR's one setting; the draft's timers are the constants above, and
/// MAC retry exhaustion always counts as link loss (link-layer
/// feedback).
#[derive(Clone, Debug, PartialEq)]
pub struct OlsrConfig {
    /// The paper's FIFO jitter queue: uniform inter-packet spacing in
    /// `[0, jitter_max]`; `None` disables the queue (base OLSR).
    pub jitter_max: Option<SimDuration>,
}

impl Default for OlsrConfig {
    fn default() -> Self {
        OlsrConfig { jitter_max: Some(SimDuration::from_millis(15)) }
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
    /// The two-hop and topology sets, indexed by label.
    sets: Sets,
    /// Selected multipoint relays, ascending by id.
    mpr_set: Vec<NodeId>,
    mpr_selectors: FxMap<NodeId, SimTime>,
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

/// Scratch space reused across route and MPR recomputations.
#[derive(Debug, Default)]
struct Scratch {
    /// Route search: the symmetric neighbours, ascending by id.
    n1: Vec<NodeId>,
    /// Route search: one adjacency bitset row per label, bit `v` of row
    /// `u` set for a live link `u → v`.
    rows: Vec<u64>,
    /// Route search: the labels claimed so far, one bit each.
    seen: Vec<u64>,
    /// Route search: the BFS queue of labels; nothing is popped, a
    /// cursor walks it.
    queue: Vec<usize>,
    /// MPR selection: one coverage bitset row per one-hop neighbour,
    /// then the rows of two-hop nodes listed at least once, listed at
    /// least twice, and of this node and its one-hop set.
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

/// Dense labels `0, 1, 2, …` for the sparse ids of the link state.
#[derive(Clone, Debug, Default)]
struct Labels {
    /// By id: its label plus one, or 0 for an id with no label. As long
    /// as the highest id ever labelled (a corrupt 65535 makes it 256 KB,
    /// once), but only the entries of `ids` are ever non-zero.
    slot: Vec<u32>,
    /// By label: the id.
    ids: Vec<NodeId>,
}

impl Labels {
    /// The label of `id`, which must have one: every id in the link
    /// state, and every key of `links`, does.
    #[inline]
    fn get(&self, id: NodeId) -> usize {
        self.slot[id.index()] as usize - 1
    }

    /// The label of `id`, if it has one.
    fn find(&self, id: NodeId) -> Option<usize> {
        self.slot.get(id.index()).filter(|&&s| s != 0).map(|&s| s as usize - 1)
    }
}

/// A neighbour's two-hop entry: its last HELLO's symmetric list,
/// verbatim, until `expires`.
#[derive(Clone, Debug)]
struct TwoHop {
    /// The neighbour's label.
    label: usize,
    list: Vec<NodeId>,
    expires: SimTime,
}

/// An originator's topology entry: the advertised link `(originator,
/// selector)` is known under `ansn` until its expiry.
///
/// One ANSN per originator is not a simplification: entries are only
/// written by [`Sets::advertise`], which either finds the set empty,
/// clears it because the TC is newer, or finds the TC's ANSN equal to
/// the stored one (of two distinct ANSNs exactly one is [`ansn_newer`],
/// and an older TC is rejected) — so all of an originator's entries
/// always carry the same ANSN. An empty set is the same as no set,
/// whatever ANSN it last held: `advertise` reads the ANSN only beside a
/// non-empty set, and every other reader skips empty ones.
#[derive(Clone, Debug)]
struct Origin {
    ansn: u16,
    /// `(selector, expiry)`, each selector once.
    entries: Vec<(NodeId, SimTime)>,
    /// No later than the earliest expiry among the selectors in this
    /// originator's [`Sets::selectors`] row, [`SimTime::MAX`] for none.
    /// Before it (time only moves forward), that row is exactly the live
    /// entries; once a search finds it passed, the search re-derives both
    /// ([`Sets::derive`]).
    earliest: SimTime,
}

impl Default for Origin {
    fn default() -> Self {
        Origin { ansn: 0, entries: Vec::new(), earliest: SimTime::MAX }
    }
}

/// The two-hop and topology sets over persistent labels.
///
/// An id gets a label the moment it enters the link state — as a HELLO
/// sender or in its list, as a TC originator or selector — and keeps it
/// until the CLEANUP sweep ([`Sets::sweep`]) relabels the ids still
/// live, densely; this node is always label 0. Beside the entries sit
/// their bitset rows, `words` words each, bit `v` standing for label
/// `v`, so the route search and the MPR cover work on words with no
/// per-id translation. Every label may originate a TC, so the topology
/// set is indexed by label; only the few one-hop neighbours have
/// two-hop entries, so those sit in a table of their own that `hop`
/// indexes.
#[derive(Clone, Debug)]
struct Sets {
    labels: Labels,
    /// Words per bitset row: ⌈labels / 64⌉.
    words: usize,
    /// By label: the position of its two-hop entry plus one, 0 for none.
    hop: Vec<u32>,
    /// The two-hop entries, in no particular order.
    two_hop: Vec<TwoHop>,
    /// By two-hop entry, two rows each: the labels its list names, then
    /// those it names more than once.
    listed: Vec<u64>,
    /// By label: the originator's topology entry.
    topology: Vec<Origin>,
    /// By label, one row each: the originator's selectors whose entries
    /// were live at the last derive ([`Origin::earliest`]).
    selectors: Vec<u64>,
}

impl Sets {
    /// Empty sets, with this node labelled 0.
    fn new(me: NodeId) -> Self {
        let mut sets = Sets {
            labels: Labels::default(),
            words: 1,
            hop: Vec::new(),
            two_hop: Vec::new(),
            listed: Vec::new(),
            topology: Vec::new(),
            selectors: Vec::new(),
        };
        sets.label(me);
        sets
    }

    /// The label of `id`, the next free one if it has none yet.
    #[inline]
    fn label(&mut self, id: NodeId) -> usize {
        match self.labels.find(id) {
            Some(label) => label,
            None => self.first_sight(id),
        }
    }

    #[cold]
    fn first_sight(&mut self, id: NodeId) -> usize {
        let label = self.labels.ids.len();
        if label == 64 * self.words {
            let words = self.words + 1;
            self.listed = relayout(&self.listed, self.words, words, |_| true, Some);
            self.selectors = relayout(&self.selectors, self.words, words, |_| true, Some);
            self.words = words;
        }
        if self.labels.slot.len() <= id.index() {
            self.labels.slot.resize(id.index() + 1, 0);
        }
        self.labels.slot[id.index()] = label as u32 + 1; // at most 65 536 ids
        self.labels.ids.push(id);
        self.hop.push(0);
        self.topology.push(Origin::default());
        self.selectors.resize((label + 1) * self.words, 0);
        label
    }

    /// The two-hop entry of the neighbour labelled `label`, with its
    /// position, if it has one.
    #[inline]
    fn two_hop_of(&self, label: usize) -> Option<(usize, &TwoHop)> {
        let i = (self.hop[label] as usize).checked_sub(1)?;
        Some((i, &self.two_hop[i]))
    }

    /// Replaces `from`'s two-hop entry with `list`, alive until
    /// `expires`.
    fn hear(&mut self, from: NodeId, list: impl Iterator<Item = NodeId>, expires: SimTime) {
        let p = self.label(from);
        let i = match self.hop[p] {
            0 => {
                self.two_hop.push(TwoHop { label: p, list: Vec::new(), expires });
                self.listed.resize(self.listed.len() + 2 * self.words, 0);
                self.hop[p] = self.two_hop.len() as u32;
                self.two_hop.len() - 1
            }
            pos => pos as usize - 1,
        };
        // The old list's allocation is reused; labelling a listed id may
        // widen every row, so the rows are addressed afresh for each.
        let mut twos = std::mem::take(&mut self.two_hop[i].list);
        twos.clear();
        self.listed[2 * i * self.words..2 * (i + 1) * self.words].fill(0);
        for t in list {
            twos.push(t);
            let v = self.label(t);
            let (at, bit) = (2 * i * self.words + v / 64, 1 << (v % 64));
            self.listed[at + self.words] |= self.listed[at] & bit;
            self.listed[at] |= bit;
        }
        self.two_hop[i].list = twos;
        self.two_hop[i].expires = expires;
    }

    /// Drops `n`'s two-hop entry; whether it had one.
    fn forget(&mut self, n: NodeId) -> bool {
        let Some((i, _)) = self.labels.find(n).and_then(|p| self.two_hop_of(p)) else {
            return false;
        };
        self.remove_two_hop(i);
        true
    }

    /// Removes the two-hop entry at position `i`; the last takes its place.
    fn remove_two_hop(&mut self, i: usize) {
        let rows = 2 * self.words;
        let last = self.two_hop.len() - 1;
        self.listed.copy_within(last * rows..(last + 1) * rows, i * rows);
        self.listed.truncate(last * rows);
        let gone = self.two_hop.swap_remove(i);
        self.hop[gone.label] = 0;
        if let Some(moved) = self.two_hop.get(i) {
            self.hop[moved.label] = i as u32 + 1;
        }
    }

    /// TC receipt: the ANSN logic — a stale set is ignored, an older one
    /// replaced — then `selectors` known under `ansn` until `expires`.
    /// Whether the TC was accepted.
    fn advertise(
        &mut self,
        originator: NodeId,
        ansn: u16,
        selectors: impl Iterator<Item = NodeId>,
        expires: SimTime,
    ) -> bool {
        let o = self.label(originator);
        let origin = &mut self.topology[o];
        if !origin.entries.is_empty() && ansn_newer(origin.ansn, ansn) {
            return false;
        }
        if origin.ansn != ansn {
            origin.entries.clear();
            origin.ansn = ansn;
            origin.earliest = SimTime::MAX;
            self.selectors[o * self.words..(o + 1) * self.words].fill(0);
        }
        for sel in selectors {
            let s = self.label(sel);
            let origin = &mut self.topology[o];
            match origin.entries.iter_mut().find(|(known, _)| *known == sel) {
                Some(known) => known.1 = expires,
                None => origin.entries.push((sel, expires)),
            }
            origin.earliest = origin.earliest.min(expires);
            set_bit(&mut self.selectors[o * self.words..], s);
        }
        true
    }

    /// Drops `dest`'s own topology entries and every entry naming it as
    /// a selector; whether there were any.
    fn expire_topology(&mut self, dest: NodeId) -> bool {
        let Some(d) = self.labels.find(dest) else { return false };
        let w = self.words;
        let mut removed = !self.topology[d].entries.is_empty();
        self.topology[d].entries.clear();
        self.selectors[d * w..(d + 1) * w].fill(0);
        for (origin, row) in self.topology.iter_mut().zip(self.selectors.chunks_exact_mut(w)) {
            let before = origin.entries.len();
            origin.entries.retain(|&(sel, _)| sel != dest);
            removed |= origin.entries.len() != before;
            row[d / 64] &= !(1 << (d % 64));
        }
        removed
    }

    /// Re-derives originator `o`'s selector row and earliest expiry from
    /// its entries alive at `now`.
    fn derive(&mut self, o: usize, now: SimTime) {
        let w = self.words;
        let row = &mut self.selectors[o * w..(o + 1) * w];
        row.fill(0);
        let origin = &mut self.topology[o];
        origin.earliest = SimTime::MAX;
        for &(sel, exp) in origin.entries.iter().filter(|&&(_, exp)| exp > now) {
            set_bit(row, self.labels.get(sel));
            origin.earliest = origin.earliest.min(exp);
        }
    }

    /// The CLEANUP sweep: drops the two-hop entries and topology entries
    /// that have expired by `now`, then relabels what is still live —
    /// this node, `neighbours`, the two-hop entries and what they list,
    /// the originators with entries and their selectors — densely, in
    /// label order. Every other id loses its label and its `slot` entry,
    /// and the rows narrow to the labels left.
    fn sweep(&mut self, now: SimTime, neighbours: impl Iterator<Item = NodeId>) {
        for i in (0..self.two_hop.len()).rev() {
            if self.two_hop[i].expires <= now {
                self.remove_two_hop(i);
            }
        }
        let (n, w) = (self.labels.ids.len(), self.words);
        let mut live = vec![0u64; w];
        set_bit(&mut live, 0);
        for (e, rows) in self.two_hop.iter().zip(self.listed.chunks_exact(2 * w)) {
            set_bit(&mut live, e.label);
            live.iter_mut().zip(rows).for_each(|(l, r)| *l |= r);
        }
        for o in 0..n {
            self.topology[o].entries.retain(|&(_, e)| e > now);
            self.derive(o, now);
            if !self.topology[o].entries.is_empty() {
                set_bit(&mut live, o);
                live.iter_mut().zip(&self.selectors[o * w..]).for_each(|(l, r)| *l |= r);
            }
        }
        for id in neighbours {
            set_bit(&mut live, self.labels.get(id));
        }
        let is_live = |v: usize| live[v / 64] & 1 << (v % 64) != 0;
        if (0..n).all(is_live) {
            return; // every label is still live: nothing moves
        }
        let mut new = vec![None; n];
        let mut kept = 0usize;
        for v in (0..n).filter(|&v| is_live(v)) {
            new[v] = Some(kept);
            kept += 1;
        }
        let words = kept.div_ceil(64);
        self.listed = relayout(&self.listed, w, words, |_| true, |v| new[v]);
        self.selectors = relayout(&self.selectors, w, words, is_live, |v| new[v]);
        self.words = words;
        for e in &mut self.two_hop {
            e.label = new[e.label].unwrap_or(0); // every entry's label is live
        }
        let Labels { slot, ids } = &mut self.labels;
        for id in &*ids {
            slot[id.index()] = 0;
        }
        let mut v = 0..;
        ids.retain(|_| v.next().is_some_and(is_live));
        for (label, id) in ids.iter().enumerate() {
            slot[id.index()] = label as u32 + 1;
        }
        let mut v = 0..;
        self.hop.retain(|_| v.next().is_some_and(is_live));
        let mut v = 0..;
        self.topology.retain(|_| v.next().is_some_and(is_live));
    }
}

/// `rows` of `old` words rewritten `words` words wide: row `u` is kept
/// where `keep(u)`, and each of its bits `v` moves to `new(v)`, or goes
/// where that is `None`.
fn relayout(
    rows: &[u64],
    old: usize,
    words: usize,
    keep: impl Fn(usize) -> bool,
    new: impl Fn(usize) -> Option<usize>,
) -> Vec<u64> {
    let mut out = Vec::with_capacity(rows.len() / old * words);
    for (u, row) in rows.chunks_exact(old).enumerate() {
        if !keep(u) {
            continue;
        }
        let at = out.len();
        out.resize(at + words, 0);
        for (k, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                if let Some(v) = new(64 * k + bits.trailing_zeros() as usize) {
                    set_bit(&mut out[at..], v);
                }
                bits &= bits - 1;
            }
        }
    }
    out
}

/// Sets bit `v` of a bitset row.
#[inline]
fn set_bit(row: &mut [u64], v: usize) {
    row[v / 64] |= 1 << (v % 64);
}

impl Olsr {
    /// A new node.
    pub fn new(id: NodeId, cfg: OlsrConfig) -> Self {
        Olsr {
            id,
            cfg,
            links: FxMap::default(),
            sets: Sets::new(id),
            mpr_set: Vec::new(),
            mpr_selectors: FxMap::default(),
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

    /// The topology set flattened to (originator, selector, ansn,
    /// expiry), in no particular order.
    fn topology_entries(&self) -> Vec<(NodeId, NodeId, u16, SimTime)> {
        let mut v = Vec::new();
        for (&orig, origin) in self.sets.labels.ids.iter().zip(&self.sets.topology) {
            v.extend(origin.entries.iter().map(|&(sel, exp)| (orig, sel, origin.ansn, exp)));
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
    /// Each neighbour's cover row is its two-hop bitset less this node
    /// and `n1`. A neighbour is mandatory when it is the only *listing*
    /// of some `t`. Multiplicity counts: a (corrupt) hello naming `t`
    /// twice makes two listings, which the greedy step covers like any
    /// other — so the bits listed exactly once are those a ones/twos
    /// accumulator over the rows, fed the listed-twice bits besides,
    /// leaves in `ones` alone. The greedy step takes the neighbour
    /// covering the most uncovered nodes, the smallest id among equals
    /// (`n1` order and a strict `>`). Which bit a two-hop node has is
    /// label order, and that cannot reach the MPR set: the greedy step
    /// only ever counts the bits of a row.
    pub(crate) fn recompute_mprs(&mut self, now: SimTime, n1: &[NodeId]) {
        let (sets, scr, w) = (&self.sets, &mut self.scratch, self.sets.words);
        scr.cover.clear();
        scr.cover.resize((n1.len() + 3) * w, 0);
        scr.selected.clear();
        scr.selected.resize(n1.len(), false);
        let (cover, acc) = scr.cover.split_at_mut(n1.len() * w);
        let (ones, acc) = acc.split_at_mut(w);
        let (twos, near) = acc.split_at_mut(w);
        set_bit(near, 0);
        for &n in n1 {
            set_bit(near, sets.labels.get(n));
        }
        for (p, &n) in n1.iter().enumerate() {
            let Some((i, _)) = sets.two_hop_of(sets.labels.get(n)).filter(|(_, e)| e.expires > now)
            else {
                continue;
            };
            let (listed, twice) = sets.listed[2 * i * w..2 * (i + 1) * w].split_at(w);
            for (k, (&listed, &twice)) in listed.iter().zip(twice).enumerate() {
                let row = listed & !near[k];
                cover[p * w + k] = row;
                twos[k] |= (ones[k] | twice) & row;
                ones[k] |= row;
            }
        }
        let row = |p: usize| &cover[p * w..(p + 1) * w];
        for (p, selected) in scr.selected.iter_mut().enumerate() {
            *selected = row(p).iter().zip(&*ones).zip(&*twos).any(|((c, o), t)| c & o & !t != 0);
        }
        let uncovered = ones;
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

    /// ORs every live directed link into `rows`, one row of
    /// [`Sets::words`] words per label: each live two-hop row copied,
    /// then each live originator's selector row and its transpose,
    /// after re-deriving the rows whose earliest expiry has passed.
    fn build_rows(&mut self, now: SimTime) {
        let (sets, rows) = (&mut self.sets, &mut self.scratch.rows);
        let (n, w) = (sets.labels.ids.len(), sets.words);
        rows.clear();
        rows.resize(n * w, 0);
        for (e, listed) in sets.two_hop.iter().zip(sets.listed.chunks_exact(2 * w)) {
            if e.expires > now {
                rows[e.label * w..(e.label + 1) * w].copy_from_slice(&listed[..w]);
            }
        }
        for o in 0..n {
            let origin = &sets.topology[o];
            if origin.entries.is_empty() {
                continue;
            }
            if origin.earliest <= now {
                sets.derive(o, now);
            }
            for k in 0..w {
                let mut bits = sets.selectors[o * w + k];
                rows[o * w + k] |= bits;
                while bits != 0 {
                    let v = 64 * k + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    set_bit(&mut rows[v * w..], o);
                }
            }
        }
    }

    /// Hop-count shortest paths by breadth-first search over links,
    /// two-hop lists and topology.
    ///
    /// Runs once per forwarding decision after a topology change, so it
    /// is the hottest code in the protocol at paper scale. The graph is
    /// one bitset row per label ([`Olsr::build_rows`]; a repeated or
    /// doubly-learned link vanishes in the OR), and expanding a vertex is
    /// `row & !seen` a word at a time, each new bit claimed on the spot —
    /// every vertex exactly once. Storage follows the number of labels —
    /// handed out on receipt, persistent, dense again after each CLEANUP
    /// — not the size of their ids: `labels × words` row words, 1.6 KB
    /// for 100 labels. Only the table is indexed by id, and it grows to
    /// the highest id this search reaches, so what a corrupt id costs the
    /// table ends when its entry expires, and its label and row width at
    /// the next CLEANUP.
    ///
    /// A vertex's children are claimed in label order, which is the
    /// order the ids entered the link state, relabelled at each CLEANUP.
    /// That does not reach the table: the queue starts as the one-hop
    /// set ascending by id, so at every level the vertices sharing a
    /// first hop sit together, smaller first hops before larger ones,
    /// however each parent's children are ordered among themselves. A
    /// vertex is claimed by its earliest-queued parent, which therefore
    /// carries the smallest first hop of any shortest path to it
    /// (DESIGN.md §3 has the induction).
    fn recompute_routes(&mut self, now: SimTime) {
        self.dirty = false;
        sym_links_into(&self.links, now, &mut self.scratch.n1);
        self.build_rows(now);
        let (ids, w) = (&self.sets.labels.ids, self.sets.words);
        let Scratch { n1, rows, seen, queue, .. } = &mut self.scratch;
        let table = &mut self.table;
        table.clear();
        // Level one is `n1`, less this node should it list itself. This
        // node, label 0, is seen from the start.
        seen.clear();
        seen.resize(w, 0);
        seen[0] = 1;
        queue.clear();
        for &n in n1.iter().filter(|&&n| n != self.id) {
            let l = self.sets.labels.get(n);
            set_bit(seen, l);
            install(table, n, (n, 1));
            queue.push(l);
        }
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let (first_hop, hops) = table[ids[u].index()];
            for (k, (row, seen)) in rows[u * w..].iter().zip(seen.iter_mut()).enumerate() {
                let mut new = row & !*seen;
                *seen |= new;
                while new != 0 {
                    let v = 64 * k + new.trailing_zeros() as usize;
                    new &= new - 1;
                    install(table, ids[v], (first_hop, hops + 1));
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
        let tc =
            Tc { originator: self.id, ansn: self.ansn, seq: self.tc_seq, ttl: TC_TTL, selectors };
        self.enqueue_control(ctx, ControlKind::Tc, tc.encode(), true);
    }

    fn handle_hello(&mut self, ctx: &mut Ctx, prev: NodeId, h: HelloRef) {
        let expires = ctx.now() + NEIGHB_HOLD_TIME;
        // Link sensing: symmetric once the neighbour lists us.
        let hears_us = h.sym().chain(h.heard()).any(|n| n == self.id);
        let selects_us = h.mpr().any(|n| n == self.id);
        self.links.insert(prev, LinkState { sym: hears_us, expires });
        // Two-hop set (only via symmetric links): the neighbour's list
        // replaces the one it sent before, in the same allocation.
        self.sets.hear(prev, h.sym(), expires);
        // MPR selector set.
        if selects_us {
            self.mpr_selectors.insert(prev, expires);
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
            self.dup.insert(dkey, now + DUP_HOLD_TIME);
            let expires = now + TOP_HOLD_TIME;
            if self.sets.advertise(tc.originator, tc.ansn, tc.selectors(), expires) {
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

/// Writes `route` towards `dest` into an id-indexed table, growing it
/// to `dest` first if it is shorter.
#[inline]
fn install(table: &mut Vec<(NodeId, u32)>, dest: NodeId, route: (NodeId, u32)) {
    if table.len() <= dest.index() {
        table.resize(dest.index() + 1, (NodeId(0), 0));
    }
    table[dest.index()] = route;
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
        let h = ctx.rng().below(HELLO_INTERVAL.as_nanos().max(1));
        ctx.set_timer(SimDuration::from_nanos(h), HELLO_TOKEN);
        let t = ctx.rng().below(TC_INTERVAL.as_nanos().max(1));
        ctx.set_timer(SimDuration::from_nanos(t), TC_TOKEN);
        ctx.set_timer(SimDuration::from_secs(30), CLEANUP_TOKEN);
    }

    fn handle_reboot(&mut self, ctx: &mut Ctx) {
        // Link-state soft state is all volatile; neighbours age the
        // crashed incarnation's TCs out on their own timers.
        *self = Self::new(self.id, self.cfg.clone());
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
                ctx.set_timer(HELLO_INTERVAL, HELLO_TOKEN);
            }
            TC_TOKEN => {
                self.send_tc(ctx);
                ctx.set_timer(TC_INTERVAL, TC_TOKEN);
            }
            JITTER_TOKEN => self.drain_one(ctx),
            CLEANUP_TOKEN => {
                let now = ctx.now();
                self.dup.retain(|_, &mut e| e > now);
                self.links.retain(|_, l| l.expires > now);
                self.sets.sweep(now, self.links.keys().copied());
                self.dirty = true;
                ctx.set_timer(SimDuration::from_secs(30), CLEANUP_TOKEN);
            }
            _ => {}
        }
    }

    fn handle_unicast_failure(&mut self, ctx: &mut Ctx, next_hop: NodeId, packet: Packet) {
        self.clock = ctx.now();
        self.links.remove(&next_hop);
        self.sets.forget(next_hop);
        self.dirty = true;
        if let PacketBody::Data(data) = packet.body {
            // Try once more over the recomputed topology.
            self.recompute_traced(ctx);
            match self.route(data.dst) {
                Some((next, _)) if next != next_hop => ctx.send_data(next, data),
                _ => ctx.drop_data(data, DropReason::NoRoute),
            }
        }
    }

    fn route_table_dump(&self) -> Vec<RouteDump> {
        // Every computed entry is usable until the next recompute.
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
}

/// The model checker's hooks (see `ldr::Ldr`'s implementation), so
/// `crates/modelcheck` drives OLSR through the same exhaustive event
/// interleavings.
impl ProtocolModel for Olsr {
    /// Forces the link-state soft state behind the route towards `dest`
    /// to time out (NEIGHB_HOLD_TIME / TOP_HOLD_TIME lapsing, collapsed
    /// to an instant). The derived routing table is left to the next
    /// recomputation, exactly as with a natural timeout.
    fn force_expire(&mut self, dest: NodeId) -> bool {
        let mut removed = self.links.remove(&dest).is_some();
        removed |= self.sets.forget(dest);
        removed |= self.sets.expire_topology(dest);
        if removed {
            self.dirty = true;
        }
        removed
    }

    /// The allocation scratch is excluded — it carries no protocol
    /// state — and so are the labels and bitset rows: every entry is
    /// written by id, and label order never reaches a table or an MPR
    /// set.
    fn digest(&self, out: &mut Vec<u8>) {
        let mut links: Vec<(&NodeId, &LinkState)> = self.links.iter().collect();
        links.sort_unstable_by_key(|(n, _)| n.0);
        put_u64(out, links.len() as u64);
        for (n, l) in links {
            put_u16(out, n.0);
            out.push(u8::from(l.sym));
            put_u64(out, l.expires.as_nanos());
        }
        let ids = &self.sets.labels.ids;
        let mut two_hop: Vec<(NodeId, &TwoHop)> =
            self.sets.two_hop.iter().map(|e| (ids[e.label], e)).collect();
        two_hop.sort_unstable_by_key(|(n, _)| n.0);
        put_u64(out, two_hop.len() as u64);
        for (n, TwoHop { list, expires, .. }) in two_hop {
            put_u16(out, n.0);
            put_u64(out, list.len() as u64);
            for t in list {
                put_u16(out, t.0);
            }
            put_u64(out, expires.as_nanos());
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

    /// Recomputes the routing table if the topology is dirty: the table
    /// a node *would* forward with, observed outside any callback.
    fn refresh_routes(&mut self) {
        if self.dirty {
            self.recompute_routes(self.clock);
        }
    }
}

#[cfg(test)]
mod tests;
