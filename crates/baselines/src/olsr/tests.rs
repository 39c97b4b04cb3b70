//! OLSR unit tests.

use super::*;
use manet_sim::protocol::Action;
use manet_sim::rng::SimRng;

struct Node {
    olsr: Olsr,
    rng: SimRng,
    now: SimTime,
}

impl Node {
    fn new(id: u16) -> Self {
        Self::with_cfg(id, OlsrConfig::default())
    }

    fn with_cfg(id: u16, cfg: OlsrConfig) -> Self {
        Node {
            olsr: Olsr::new(NodeId(id), cfg),
            rng: SimRng::from_seed(u64::from(id)),
            now: SimTime::from_secs(1),
        }
    }

    fn call<F: FnOnce(&mut Olsr, &mut Ctx)>(&mut self, f: F) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(self.now, self.olsr.id, 50, &mut self.rng, &mut actions);
        f(&mut self.olsr, &mut ctx);
        actions
    }

    fn hello_from(&mut self, prev: u16, h: Hello) -> Vec<Action> {
        let frame = h.encode();
        let h = HelloRef::parse(&frame).expect("an encoded hello parses");
        self.call(|o, ctx| o.handle_hello(ctx, NodeId(prev), h))
    }

    fn tc_from(&mut self, prev: u16, t: Tc) -> Vec<Action> {
        let frame = t.encode();
        let t = TcRef::parse(&frame).expect("an encoded TC parses");
        self.call(|o, ctx| o.handle_tc(ctx, NodeId(prev), t))
    }

    fn select_mprs(&mut self) {
        let n1 = self.olsr.sym_neighbors(self.now);
        self.olsr.recompute_mprs(self.now, &n1);
    }

    /// Whether the topology set holds the link `orig → sel`.
    fn knows(&self, orig: u16, sel: u16) -> bool {
        self.olsr.topology_entries().iter().any(|&(o, s, ..)| (o, s) == (NodeId(orig), NodeId(sel)))
    }
}

fn ids(v: &[u16]) -> Vec<NodeId> {
    v.iter().map(|&i| NodeId(i)).collect()
}

fn hello(sym: &[u16], heard: &[u16], mpr: &[u16]) -> Hello {
    Hello { sym: ids(sym), heard: ids(heard), mpr: ids(mpr) }
}

fn data(src: u16, dst: u16) -> DataPacket {
    DataPacket {
        src: NodeId(src),
        dst: NodeId(dst),
        flow: 1,
        seq: 0,
        created: SimTime::from_secs(1),
        payload_len: 512,
        ttl: 64,
        ext: vec![],
    }
}

fn broadcasts(actions: &[Action], kind: ControlKind) -> usize {
    actions
        .iter()
        .filter(|a| matches!(a, Action::Broadcast { ctrl, .. } if ctrl.kind == kind))
        .count()
}

#[test]
fn link_sensing_two_phase() {
    let mut n = Node::new(0);
    // Neighbour 2 hellos without listing us: asymmetric.
    n.hello_from(2, hello(&[], &[], &[]));
    assert_eq!(n.olsr.sym_neighbors(n.now), vec![]);
    assert_eq!(n.olsr.heard_neighbors(n.now), ids(&[2]));
    // Once it lists us: symmetric.
    n.hello_from(2, hello(&[], &[0], &[]));
    assert_eq!(n.olsr.sym_neighbors(n.now), ids(&[2]));
}

#[test]
fn links_expire_after_hold_time() {
    let mut n = Node::new(0);
    n.hello_from(2, hello(&[0], &[], &[]));
    assert_eq!(n.olsr.sym_neighbors(n.now), ids(&[2]));
    n.now = SimTime::from_secs(8); // hold is 6 s from t=1
    assert_eq!(n.olsr.sym_neighbors(n.now), vec![]);
}

#[test]
fn mpr_selection_covers_two_hop_neighbourhood() {
    let mut n = Node::new(0);
    // Neighbours 1 and 2; 1 reaches {3, 4}, 2 reaches {4}.
    n.hello_from(1, hello(&[0, 3, 4], &[], &[]));
    n.hello_from(2, hello(&[0, 4], &[], &[]));
    n.select_mprs();
    // 1 alone covers everything; greedy picks it.
    assert!(n.olsr.mprs().contains(&NodeId(1)));
    assert!(!n.olsr.mprs().contains(&NodeId(2)), "2 adds no coverage");
}

#[test]
fn sole_provider_is_mandatory_mpr() {
    let mut n = Node::new(0);
    n.hello_from(1, hello(&[0, 3], &[], &[]));
    n.hello_from(2, hello(&[0, 3, 4], &[], &[]));
    n.select_mprs();
    // Only 2 reaches 4 — it must be selected.
    assert!(n.olsr.mprs().contains(&NodeId(2)));
}

#[test]
fn hello_advertises_mprs_and_selector_set_updates() {
    let mut n = Node::new(0);
    n.hello_from(1, hello(&[0, 3], &[], &[0]));
    assert!(n.olsr.mpr_selectors.contains_key(&NodeId(1)), "1 selected us");
    n.hello_from(1, hello(&[0, 3], &[], &[]));
    assert!(!n.olsr.mpr_selectors.contains_key(&NodeId(1)), "deselected");
}

#[test]
fn tc_only_generated_by_selected_relays() {
    let mut n = Node::new(0);
    let acts = n.call(|o, ctx| o.send_tc(ctx));
    assert!(acts.is_empty(), "no selectors: no TC");
    n.hello_from(1, hello(&[0], &[], &[0]));
    let acts = n.call(|o, ctx| o.send_tc(ctx));
    // With the jitter queue, the TC lands in the queue + a timer.
    assert!(acts.iter().any(|a| matches!(a, Action::SetTimer { .. })));
    let acts = n.call(|o, ctx| o.drain_one(ctx));
    assert_eq!(broadcasts(&acts, ControlKind::Tc), 1);
}

#[test]
fn tc_forwarded_only_by_mprs_of_the_sender() {
    let cfg = OlsrConfig { jitter_max: None };
    let mut n = Node::with_cfg(0, cfg.clone());
    // Node 5 selected us as MPR.
    n.hello_from(5, hello(&[0], &[], &[0]));
    let tc = Tc { originator: NodeId(9), ansn: 1, seq: 1, ttl: 10, selectors: ids(&[4]) };
    let acts = n.tc_from(5, tc.clone());
    assert_eq!(broadcasts(&acts, ControlKind::Tc), 1, "selector's TC is relayed");
    // Duplicate suppressed.
    let acts = n.tc_from(5, tc.clone());
    assert_eq!(broadcasts(&acts, ControlKind::Tc), 0);
    // From a node that did NOT select us: processed but not relayed.
    let mut m = Node::with_cfg(0, cfg);
    m.hello_from(5, hello(&[0], &[], &[]));
    let acts = m.tc_from(5, tc);
    assert_eq!(broadcasts(&acts, ControlKind::Tc), 0);
    assert!(m.knows(9, 4), "still learned");
}

#[test]
fn stale_ansn_ignored_newer_replaces() {
    let mut n = Node::new(0);
    let tc1 = Tc { originator: NodeId(9), ansn: 5, seq: 1, ttl: 10, selectors: ids(&[4]) };
    n.tc_from(5, tc1);
    // Older ANSN (different seq so it passes dup check): ignored.
    let old = Tc { originator: NodeId(9), ansn: 4, seq: 2, ttl: 10, selectors: ids(&[6]) };
    n.tc_from(5, old);
    assert!(n.knows(9, 4));
    assert!(!n.knows(9, 6));
    // Newer ANSN replaces the set.
    let new = Tc { originator: NodeId(9), ansn: 6, seq: 3, ttl: 10, selectors: ids(&[7]) };
    n.tc_from(5, new);
    assert!(!n.knows(9, 4));
    assert!(n.knows(9, 7));
}

#[test]
fn routes_computed_over_links_and_topology() {
    let mut n = Node::new(0);
    // Sym neighbour 1, which reaches 2; TC says 2 reaches 3.
    n.hello_from(1, hello(&[0, 2], &[], &[]));
    let tc = Tc { originator: NodeId(2), ansn: 1, seq: 1, ttl: 10, selectors: ids(&[3]) };
    n.tc_from(1, tc);
    n.olsr.recompute_routes(n.now);
    assert_eq!(n.olsr.route(NodeId(1)), Some((NodeId(1), 1)));
    assert_eq!(n.olsr.route(NodeId(2)), Some((NodeId(1), 2)));
    assert_eq!(n.olsr.route(NodeId(3)), Some((NodeId(1), 3)));
    assert_eq!(n.olsr.route(NodeId(0)), None, "no route to ourselves");
    assert_eq!(n.olsr.route(NodeId(4)), None);
}

#[test]
fn data_forwarded_by_table_or_dropped() {
    let mut n = Node::new(0);
    n.hello_from(1, hello(&[0, 9], &[], &[]));
    let acts = n.call(|o, ctx| o.handle_data_origination(ctx, data(0, 9)));
    assert!(acts.iter().any(|a| matches!(a, Action::SendData { next, .. } if *next == NodeId(1))));
    let acts = n.call(|o, ctx| o.handle_data_origination(ctx, data(0, 33)));
    assert!(acts.iter().any(|a| matches!(a, Action::DropData { reason: DropReason::NoRoute, .. })));
}

#[test]
fn jitter_queue_preserves_fifo_order() {
    let mut n = Node::new(0);
    n.call(|o, ctx| {
        o.enqueue_control(ctx, ControlKind::Hello, vec![1], true);
        o.enqueue_control(ctx, ControlKind::Tc, vec![2], true);
        o.enqueue_control(ctx, ControlKind::Hello, vec![3], true);
    });
    let mut order = Vec::new();
    for _ in 0..3 {
        let acts = n.call(|o, ctx| o.drain_one(ctx));
        for a in &acts {
            if let Action::Broadcast { ctrl, .. } = a {
                order.push(ctrl.bytes[0]);
            }
        }
    }
    assert_eq!(order, vec![1, 2, 3], "FIFO preserved across jitter");
}

#[test]
fn jitter_disabled_broadcasts_immediately() {
    let mut n = Node::with_cfg(0, OlsrConfig { jitter_max: None });
    let acts = n.call(|o, ctx| {
        o.enqueue_control(ctx, ControlKind::Hello, vec![1], true);
    });
    assert_eq!(broadcasts(&acts, ControlKind::Hello), 1);
}

#[test]
fn link_layer_feedback_reroutes_or_drops() {
    let mut n = Node::new(0);
    n.hello_from(1, hello(&[0, 9], &[], &[]));
    n.hello_from(2, hello(&[0, 9], &[], &[]));
    n.olsr.recompute_routes(n.now);
    let (next, _) = n.olsr.route(NodeId(9)).expect("9 is two hops away");
    let other = if next == NodeId(1) { NodeId(2) } else { NodeId(1) };
    let p = Packet { uid: 1, origin: NodeId(0), body: PacketBody::Data(data(0, 9)) };
    let acts = n.call(|o, ctx| o.handle_unicast_failure(ctx, next, p));
    assert!(
        acts.iter().any(|a| matches!(a, Action::SendData { next: nn, .. } if *nn == other)),
        "rerouted around the dead link"
    );
}

#[test]
fn ansn_wraparound_comparison() {
    assert!(ansn_newer(1, 0));
    assert!(!ansn_newer(0, 1));
    assert!(ansn_newer(0, 65535), "wrap");
    assert!(!ansn_newer(65535, 0));
    assert!(!ansn_newer(5, 5));
}

#[test]
fn start_schedules_periodic_timers() {
    let mut n = Node::new(0);
    let acts = n.call(|o, ctx| o.start(ctx));
    let timers = acts.iter().filter(|a| matches!(a, Action::SetTimer { .. })).count();
    assert!(timers >= 3, "hello, tc and cleanup timers");
}

/// Two level-2 vertices (3 via first hop 2, 4 via first hop 1) both
/// reach the level-3 vertex 9. The queue holds level 2 as [4, 3] — 4
/// was claimed by the earlier-queued parent 1 — so 9 must inherit first
/// hop 1, although the smaller-id level-2 vertex 3 says 2. The order in
/// which 9's links were learned must not matter either.
#[test]
fn bfs_tie_goes_to_the_earlier_queued_parent_not_the_smaller_id() {
    for selectors in [[3, 4], [4, 3]] {
        let mut n = Node::new(0);
        n.hello_from(1, hello(&[0, 4], &[], &[]));
        n.hello_from(2, hello(&[0, 3], &[], &[]));
        n.tc_from(
            1,
            Tc { originator: NodeId(9), ansn: 1, seq: 1, ttl: 10, selectors: ids(&selectors) },
        );
        n.olsr.recompute_routes(n.now);
        assert_eq!(n.olsr.route(NodeId(4)), Some((NodeId(1), 2)));
        assert_eq!(n.olsr.route(NodeId(3)), Some((NodeId(2), 2)));
        assert_eq!(n.olsr.route(NodeId(9)), Some((NodeId(1), 3)), "parent 4 was queued before 3");
    }
}

/// Neighbour 5 is the only one listing two-hop node 20, but lists it
/// twice: two listings are not a sole provider, so nobody is mandatory
/// and the greedy step starts from nothing — 7 covers three nodes and
/// goes first, then only 20 is left and 5 takes it. (Were 5 mandatory,
/// its 10 would be struck first, 3 and 7 would tie on {11, 12} and 3
/// would be chosen instead of 7.)
#[test]
fn doubly_listed_two_hop_node_does_not_make_its_lister_mandatory() {
    let mut n = Node::new(0);
    n.hello_from(3, hello(&[0, 11, 12], &[], &[]));
    n.hello_from(5, hello(&[0, 20, 20, 10], &[], &[]));
    n.hello_from(7, hello(&[0, 10, 11, 12], &[], &[]));
    n.select_mprs();
    assert_eq!(n.olsr.mprs(), ids(&[5, 7]));
}

/// 3 and 7 cover the same number of two-hop nodes: the smaller id wins,
/// whichever hello arrived first, and 7 then has nothing left to add.
#[test]
fn mpr_coverage_tie_goes_to_the_smaller_id() {
    let mut n = Node::new(0);
    n.hello_from(7, hello(&[0, 10, 11], &[], &[]));
    n.hello_from(3, hello(&[0, 11, 10], &[], &[]));
    n.select_mprs();
    assert_eq!(n.olsr.mprs(), ids(&[3]));
}

/// A node and its [`reference::Reference`] fed the same frames at the
/// same times, for the tests that compare freshly computed routes.
struct Twin {
    node: Node,
    reference: reference::Reference,
}

impl Twin {
    fn new(id: u16) -> Self {
        let reference = reference::Reference::new(NodeId(id));
        Twin { node: Node::new(id), reference }
    }

    fn hello_from(&mut self, prev: u16, h: Hello) {
        self.reference.handle_hello(self.node.now, NodeId(prev), &h);
        self.node.hello_from(prev, h);
    }

    fn tc(&mut self, originator: u16, seq: u16, selectors: &[u16]) {
        let tc =
            Tc { originator: NodeId(originator), ansn: 1, seq, ttl: 10, selectors: ids(selectors) };
        self.reference.handle_tc(self.node.now, &tc);
        self.node.tc_from(1, tc);
    }

    fn cleanup(&mut self) {
        self.reference.cleanup(self.node.now);
        self.node.call(|o, ctx| o.handle_timer(ctx, CLEANUP_TOKEN));
    }

    /// Recomputes both tables and returns the node's, which must be the
    /// reference's.
    fn routes(&mut self) -> Vec<(NodeId, NodeId, u32)> {
        self.node.olsr.recompute_routes(self.node.now);
        self.reference.recompute_routes(self.node.now);
        let routes: Vec<_> = self.node.olsr.routes().collect();
        let expected: Vec<_> = self.reference.table.iter().map(|(&d, &(n, h))| (d, n, h)).collect();
        assert_eq!(routes, expected);
        routes
    }
}

/// The label count, row width and route-search row storage of `o`.
fn layout(o: &Olsr) -> (usize, usize, usize) {
    (o.sets.labels.ids.len(), o.sets.words, o.scratch.rows.len())
}

/// Whether every non-zero `slot` entry belongs to a label: what a label
/// leaves behind when it goes is nothing.
fn slots_match_labels(o: &Olsr) -> bool {
    let Labels { slot, ids } = &o.sets.labels;
    slot.iter().filter(|&&s| s != 0).count() == ids.len()
        && ids.iter().enumerate().all(|(l, id)| slot[id.index()] as usize == l + 1)
}

/// One TC naming id 65535 makes the id-indexed table 65 536 entries
/// long, but only while the entry lives: the search after
/// TOP_HOLD_TIME has lapsed is sized by the small ids again. The
/// corrupt id's label, and the row it adds, last until the next CLEANUP
/// relabels what is live; row storage is `labels × words` throughout.
#[test]
fn a_corrupt_id_costs_a_long_table_only_while_its_entry_lives() {
    let mut t = Twin::new(0);
    let small = |t: &mut Twin, seq| {
        t.hello_from(1, hello(&[0, 2], &[], &[]));
        t.tc(2, seq, &[3]);
        let routes = t.routes();
        assert_eq!(routes.len(), 3);
    };
    small(&mut t, 1);
    assert_eq!((t.node.olsr.table.len(), layout(&t.node.olsr)), (4, (4, 1, 4)));
    t.tc(3, 1, &[65535]);
    assert_eq!(t.routes().last(), Some(&(NodeId(65535), NodeId(1), 4)));
    assert_eq!((t.node.olsr.table.len(), layout(&t.node.olsr)), (65536, (5, 1, 5)));
    t.node.now += TOP_HOLD_TIME + SimDuration::from_secs(1);
    small(&mut t, 2);
    assert_eq!((t.node.olsr.table.len(), layout(&t.node.olsr)), (4, (5, 1, 5)));
    t.cleanup();
    t.routes();
    assert_eq!((t.node.olsr.table.len(), layout(&t.node.olsr)), (4, (4, 1, 4)));
    assert!(slots_match_labels(&t.node.olsr));
    assert_eq!(t.node.olsr.sets.labels.find(NodeId(65535)), None);
}

/// Self and 63 one-hop-listed ids fill one row word; a corrupt 65535
/// takes label 64 and widens every row to two words. Once its entry has
/// expired, the next CLEANUP takes its label, its `slot` entry and the
/// second word away again.
#[test]
fn a_corrupt_ids_label_and_row_width_are_gone_after_the_next_cleanup() {
    let mut t = Twin::new(0);
    let listed: Vec<u16> = (0..64).filter(|&i| i != 1).collect();
    t.hello_from(1, hello(&listed, &[], &[]));
    t.routes();
    assert_eq!(layout(&t.node.olsr), (64, 1, 64));
    t.tc(2, 1, &[65535]);
    assert_eq!(t.routes().last(), Some(&(NodeId(65535), NodeId(1), 3)));
    assert_eq!(layout(&t.node.olsr), (65, 2, 130));
    assert_eq!(t.node.olsr.sets.labels.find(NodeId(65535)), Some(64));
    t.node.now += TOP_HOLD_TIME + SimDuration::from_secs(1);
    t.hello_from(1, hello(&listed, &[], &[]));
    t.cleanup();
    assert_eq!(t.routes().len(), 63);
    assert_eq!(layout(&t.node.olsr), (64, 1, 64));
    assert_eq!(t.node.olsr.sets.labels.find(NodeId(65535)), None);
    assert!(t.node.olsr.sets.labels.slot.len() == 65536 && slots_match_labels(&t.node.olsr));
}

/// A chain `0 – id(1) – id(2) – … – id(200)` learned from 200 TCs: 201
/// labels, so the rows widen from one word to four as the labels arrive
/// — past 64 and past 128 labels, the two doublings of the label count
/// the search once started over at — and the search runs on four-word
/// rows, 201 of them. Ids are sparse and descending, so no label equals
/// its id.
#[test]
fn a_two_hundred_hop_chain_is_walked_across_two_doublings() {
    let id = |i: u16| 40_000 - 7 * i;
    let mut t = Twin::new(0);
    t.hello_from(id(1), hello(&[0], &[], &[]));
    let mut widths = vec![t.node.olsr.sets.words];
    for i in (1..200).rev() {
        t.tc(id(i), 1, &[id(i + 1)]);
        widths.extend(Some(t.node.olsr.sets.words).filter(|w| widths.last() != Some(w)));
    }
    assert_eq!(widths, [1, 2, 3, 4]);
    for again in [false, true] {
        let routes = t.routes();
        let expected: Vec<_> =
            (1..=200).rev().map(|i| (NodeId(id(i)), NodeId(id(1)), u32::from(i))).collect();
        assert_eq!(routes, expected, "again: {again}");
        assert_eq!((layout(&t.node.olsr), t.node.olsr.scratch.seen.len()), ((201, 4, 201 * 4), 4));
    }
}

/// `modelcheck` clones a node per explored state: the clone must not
/// copy the scratch, must carry the labels (link state now), and must
/// compute what the original computes.
#[test]
fn a_clone_drops_the_scratch_and_computes_the_same() {
    let mut n = Node::new(0);
    n.hello_from(1, hello(&[0, 3, 4], &[], &[]));
    n.hello_from(2, hello(&[0, 4, 5], &[], &[0]));
    n.tc_from(1, Tc { originator: NodeId(5), ansn: 1, seq: 1, ttl: 10, selectors: ids(&[6, 7]) });
    n.select_mprs();
    n.olsr.recompute_routes(n.now);
    n.hello_from(3, hello(&[0, 8], &[], &[])); // dirty again
    let scr = &n.olsr.scratch;
    assert!(!scr.rows.is_empty() && !scr.cover.is_empty() && !scr.queue.is_empty());
    let mut c = Node { olsr: n.olsr.clone(), rng: SimRng::from_seed(0), now: n.now };
    let scr = &c.olsr.scratch;
    assert_eq!(scr.rows.capacity() + scr.cover.capacity() + scr.queue.capacity(), 0);
    assert_eq!(c.olsr.sets.labels.ids, n.olsr.sets.labels.ids);
    assert_eq!(c.olsr.sets.labels.ids.len(), 9, "0–8");
    let observe = |n: &mut Node| {
        n.select_mprs();
        n.olsr.refresh_routes();
        let mut digest = Vec::new();
        n.olsr.digest(&mut digest);
        (digest, n.olsr.mprs().to_vec(), n.olsr.routes().collect::<Vec<_>>())
    };
    let original = observe(&mut n);
    assert_eq!(observe(&mut c), original);
    assert_eq!(original.2.len(), 8, "routes to 1–8");
}

/// The map-based formulation of the link-state core that `mod.rs`
/// shipped before it moved to per-originator topology sets, bitset MPR
/// cover and BFS over bitset rows: the oracle for [`differential`].
/// `handle_tc`'s ANSN logic and `recompute_mprs` are the old bodies
/// verbatim; `recompute_routes` is the old search — FIFO queue over
/// ascending, duplicate-free adjacency lists — with ordered maps where
/// the old body had already grown id-indexed arrays. The state around
/// them is the node's soft state over ordered std maps, so every
/// iteration is already in digest order. The jitter queue is not
/// modelled — the digest takes it from the node under test.
mod reference {
    use super::super::*;
    use manet_sim::hash::FxSet;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    pub struct Reference {
        pub id: NodeId,
        pub links: BTreeMap<NodeId, LinkState>,
        pub two_hop: BTreeMap<NodeId, (Vec<NodeId>, SimTime)>,
        pub mpr_set: BTreeSet<NodeId>,
        pub mpr_selectors: BTreeMap<NodeId, SimTime>,
        /// (originator, selector) → (ansn, expiry).
        pub topology: BTreeMap<(NodeId, NodeId), (u16, SimTime)>,
        pub dup: BTreeMap<(NodeId, u16), SimTime>,
        pub table: BTreeMap<NodeId, (NodeId, u32)>,
        pub dirty: bool,
        pub ansn: u16,
        pub tc_seq: u16,
        pub clock: SimTime,
    }

    impl Reference {
        pub fn new(id: NodeId) -> Self {
            Reference {
                id,
                links: BTreeMap::new(),
                two_hop: BTreeMap::new(),
                mpr_set: BTreeSet::new(),
                mpr_selectors: BTreeMap::new(),
                topology: BTreeMap::new(),
                dup: BTreeMap::new(),
                table: BTreeMap::new(),
                dirty: false,
                ansn: 0,
                tc_seq: 0,
                clock: SimTime::ZERO,
            }
        }

        pub fn sym_neighbors(&self, now: SimTime) -> Vec<NodeId> {
            self.links.iter().filter(|(_, l)| l.sym && l.expires > now).map(|(&n, _)| n).collect()
        }

        pub fn recompute_mprs(&mut self, now: SimTime) {
            let n1: Vec<NodeId> = self.sym_neighbors(now);
            let n1_set: FxSet<NodeId> = n1.iter().copied().collect();
            let mut coverage: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
            for &n in &n1 {
                if let Some((twos, exp)) = self.two_hop.get(&n) {
                    if *exp > now {
                        for &t in twos {
                            if t != self.id && !n1_set.contains(&t) {
                                coverage.entry(t).or_default().push(n);
                            }
                        }
                    }
                }
            }
            let mut mprs: BTreeSet<NodeId> = BTreeSet::new();
            let mut uncovered: BTreeSet<NodeId> = coverage.keys().copied().collect();
            // Mandatory: sole providers.
            for providers in coverage.values() {
                if providers.len() == 1 {
                    mprs.insert(providers[0]);
                }
            }
            uncovered.retain(|t| !coverage[t].iter().any(|p| mprs.contains(p)));
            // Greedy: max coverage, ties by smallest id (deterministic).
            while !uncovered.is_empty() {
                let mut best: Option<(usize, NodeId)> = None;
                for &n in &n1 {
                    if mprs.contains(&n) {
                        continue;
                    }
                    let covers = uncovered.iter().filter(|t| coverage[t].contains(&n)).count();
                    if covers > 0 {
                        let cand = (covers, n);
                        best = Some(match best {
                            None => cand,
                            Some((bc, bn)) => {
                                if covers > bc || (covers == bc && n.0 < bn.0) {
                                    cand
                                } else {
                                    (bc, bn)
                                }
                            }
                        });
                    }
                }
                match best {
                    Some((_, n)) => {
                        mprs.insert(n);
                        uncovered.retain(|t| !coverage[t].contains(&n));
                    }
                    None => break, // unreachable two-hop nodes
                }
            }
            self.mpr_set = mprs;
        }

        pub fn recompute_routes(&mut self, now: SimTime) {
            self.dirty = false;
            let n1 = self.sym_neighbors(now);
            // Ascending, duplicate-free adjacency lists.
            let mut edges: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
            edges.entry(self.id).or_default().extend(&n1);
            for (&n, (twos, exp)) in &self.two_hop {
                if *exp > now {
                    edges.entry(n).or_default().extend(twos);
                }
            }
            for (&(orig, sel), &(_, exp)) in &self.topology {
                if exp > now {
                    edges.entry(orig).or_default().insert(sel);
                    edges.entry(sel).or_default().insert(orig);
                }
            }
            let mut seen: BTreeSet<NodeId> = BTreeSet::from([self.id]);
            let mut queue = VecDeque::new();
            self.table.clear();
            for &n in &n1 {
                if seen.insert(n) {
                    self.table.insert(n, (n, 1));
                    queue.push_back(n);
                }
            }
            while let Some(u) = queue.pop_front() {
                let (first_hop, hops) = self.table[&u];
                for &v in edges.get(&u).into_iter().flatten() {
                    if seen.insert(v) {
                        self.table.insert(v, (first_hop, hops + 1));
                        queue.push_back(v);
                    }
                }
            }
        }

        pub fn recompute_if_dirty(&mut self, now: SimTime) {
            if self.dirty {
                self.recompute_routes(now);
            }
        }

        pub fn handle_hello(&mut self, now: SimTime, prev: NodeId, h: &Hello) {
            let hold = NEIGHB_HOLD_TIME;
            let hears_us = h.sym.contains(&self.id) || h.heard.contains(&self.id);
            self.links.insert(prev, LinkState { sym: hears_us, expires: now + hold });
            self.two_hop.insert(prev, (h.sym.clone(), now + hold));
            if h.mpr.contains(&self.id) {
                self.mpr_selectors.insert(prev, now + hold);
            } else {
                self.mpr_selectors.remove(&prev);
            }
            self.dirty = true;
        }

        pub fn handle_tc(&mut self, now: SimTime, tc: &Tc) {
            if tc.originator == self.id {
                return;
            }
            let dkey = (tc.originator, tc.seq);
            let seen = self.dup.get(&dkey).is_some_and(|&e| e > now);
            if !seen {
                self.dup.insert(dkey, now + DUP_HOLD_TIME);
                // ANSN logic: ignore stale sets; replace older ones.
                let current = self
                    .topology
                    .iter()
                    .filter(|((o, _), _)| *o == tc.originator)
                    .map(|(_, &(a, _))| a)
                    .max();
                let stale = current.is_some_and(|a| ansn_newer(a, tc.ansn));
                if !stale {
                    if current.is_some_and(|a| ansn_newer(tc.ansn, a)) {
                        self.topology.retain(|(o, _), _| *o != tc.originator);
                    }
                    for &sel in &tc.selectors {
                        self.topology.insert((tc.originator, sel), (tc.ansn, now + TOP_HOLD_TIME));
                    }
                    self.dirty = true;
                }
            }
        }

        /// The TC timer's effect on soft state (the TC itself goes to
        /// the unmodelled queue).
        pub fn send_tc(&mut self, now: SimTime) {
            self.mpr_selectors.retain(|_, &mut e| e > now);
            if !self.mpr_selectors.is_empty() {
                self.ansn = self.ansn.wrapping_add(1);
                self.tc_seq = self.tc_seq.wrapping_add(1);
            }
        }

        pub fn cleanup(&mut self, now: SimTime) {
            self.dup.retain(|_, &mut e| e > now);
            self.topology.retain(|_, &mut (_, e)| e > now);
            self.links.retain(|_, l| l.expires > now);
            self.two_hop.retain(|_, (_, e)| *e > now);
            self.dirty = true;
        }

        pub fn link_failure(&mut self, next_hop: NodeId) {
            self.links.remove(&next_hop);
            self.two_hop.remove(&next_hop);
            self.dirty = true;
        }

        pub fn force_expire(&mut self, dest: NodeId) -> bool {
            let mut removed = self.links.remove(&dest).is_some();
            removed |= self.two_hop.remove(&dest).is_some();
            let before = self.topology.len();
            self.topology.retain(|&(orig, sel), _| orig != dest && sel != dest);
            removed |= self.topology.len() != before;
            if removed {
                self.dirty = true;
            }
            removed
        }

        pub fn reboot(&mut self) {
            *self = Reference { clock: self.clock, ..Reference::new(self.id) };
        }

        /// [`Olsr`]'s [`ProtocolModel::digest`] as it was, over this
        /// state and the jitter queue of `node`.
        pub fn digest(&self, node: &Olsr, out: &mut Vec<u8>) {
            put_u64(out, self.links.len() as u64);
            for (n, l) in &self.links {
                put_u16(out, n.0);
                out.push(u8::from(l.sym));
                put_u64(out, l.expires.as_nanos());
            }
            put_u64(out, self.two_hop.len() as u64);
            for (n, (twos, exp)) in &self.two_hop {
                put_u16(out, n.0);
                put_u64(out, twos.len() as u64);
                for t in twos {
                    put_u16(out, t.0);
                }
                put_u64(out, exp.as_nanos());
            }
            put_u64(out, self.mpr_set.len() as u64);
            for n in &self.mpr_set {
                put_u16(out, n.0);
            }
            put_u64(out, self.mpr_selectors.len() as u64);
            for (n, exp) in &self.mpr_selectors {
                put_u16(out, n.0);
                put_u64(out, exp.as_nanos());
            }
            put_u64(out, self.topology.len() as u64);
            for ((orig, sel), (ansn, exp)) in &self.topology {
                put_u16(out, orig.0);
                put_u16(out, sel.0);
                put_u16(out, *ansn);
                put_u64(out, exp.as_nanos());
            }
            put_u64(out, self.dup.len() as u64);
            for ((orig, seq), exp) in &self.dup {
                put_u16(out, orig.0);
                put_u16(out, *seq);
                put_u64(out, exp.as_nanos());
            }
            put_u64(out, self.table.len() as u64);
            for (dest, (next, hops)) in &self.table {
                put_u16(out, dest.0);
                put_u16(out, next.0);
                put_u32(out, *hops);
            }
            out.push(u8::from(self.dirty));
            put_u16(out, self.ansn);
            put_u16(out, self.tc_seq);
            put_u64(out, node.outq.len() as u64);
            for (kind, bytes, initiated) in &node.outq {
                out.push(*kind as u8);
                put_u64(out, bytes.len() as u64);
                out.extend_from_slice(bytes);
                out.push(u8::from(*initiated));
            }
            out.push(u8::from(node.drain_scheduled));
            put_u64(out, self.clock.as_nanos());
        }
    }
}

/// One node under test next to its [`reference::Reference`], driven
/// through random HELLO / TC / timer / data / link-failure /
/// `force_expire` / reboot sequences with everything observable
/// compared after every step.
mod differential {
    use super::reference::Reference;
    use super::*;
    use proptest::prelude::*;

    const ME: u16 = 2;

    /// How a case draws node ids: from a pool of `pool` small ids (this
    /// node among them, so ids collide and repeat), and in a `wide`
    /// case also from the very top of the id range and anywhere in it.
    /// Only one case in 64 is wide: a single id near 65535 makes every
    /// id-indexed array that long, and the debug build then spends
    /// ~15 ms on each step of the case. A *crowd* case (three in 64)
    /// has a pool of 150–200 ids and turns every drawn id of a list
    /// into a `run` of neighbouring ones, so that one hello or TC names
    /// dozens: the node soon knows more than 64 and more than 128
    /// vertices, the route search starts over with twice the room, and
    /// rows, `seen` and the MPR cover run to several words.
    #[derive(Clone, Copy)]
    pub(super) struct Ids {
        pool: u16,
        wide: bool,
        run: u16,
    }

    impl Ids {
        pub(super) fn shape(shape: u16) -> Self {
            match shape {
                0 => Ids { pool: 6, wide: true, run: 1 },
                1..=3 => Ids { pool: 125 + 25 * shape, wide: false, run: 12 },
                _ => Ids { pool: 6 + shape % 8, wide: false, run: 1 },
            }
        }

        pub(super) fn node(self, raw: u16) -> NodeId {
            match raw % 8 {
                0 if self.wide => NodeId(raw),
                1 if self.wide => NodeId(u16::MAX - raw / 8 % 3),
                _ => NodeId(raw / 8 % self.pool),
            }
        }

        pub(super) fn nodes(self, raw: &[u16]) -> Vec<NodeId> {
            // `node` reads the id off `raw / 8`: steps of 8 are neighbours.
            let run = |r: u16| (0..self.run).map(move |k| self.node(r.wrapping_add(8 * k)));
            raw.iter().flat_map(|&r| run(r)).collect()
        }
    }

    /// An ANSN near `base`: equal, just older, just newer, or half the
    /// number space away (where "newer" flips) — and since each draw
    /// moves `base`, around every wrap position in turn.
    pub(super) fn ansn(base: u16, pick: u16) -> u16 {
        const STEPS: [u16; 9] = [0, 0, 1, 2, u16::MAX, u16::MAX - 1, 32767, 32768, 32769];
        base.wrapping_add(STEPS[usize::from(pick) % STEPS.len()])
    }

    /// Clock steps in ms: mostly sub-second, sometimes across
    /// NEIGHB_HOLD_TIME (6 s) or TOP_HOLD_TIME (15 s).
    pub(super) const CLOCK_STEPS_MS: [u64; 16] =
        [0, 0, 1, 1, 50, 300, 300, 900, 900, 2100, 2100, 2100, 2100, 3100, 6100, 16000];

    /// One step: (what, two raw ids, three raw id lists, a free pick).
    type Step = (u8, u16, u16, Vec<u16>, Vec<u16>, Vec<u16>, u16);

    struct Pair {
        node: Node,
        reference: Reference,
        ids: Ids,
        /// The ANSN the next TC is drawn around.
        last_ansn: u16,
    }

    impl Pair {
        fn new(ids: Ids) -> Self {
            Pair {
                node: Node::new(ME),
                reference: Reference::new(NodeId(ME)),
                ids,
                last_ansn: 65533,
            }
        }

        fn step(&mut self, (what, a, b, xs, ys, zs, pick): Step) {
            let (n, r, ids) = (&mut self.node, &mut self.reference, self.ids);
            n.now += SimDuration::from_millis(CLOCK_STEPS_MS[usize::from(b) % 16]);
            let now = n.now;
            let expire = what % 16 == 15 && pick % 4 != 0;
            if !expire {
                r.clock = now; // every callback stamps the clock; the verification hook does not
            }
            let control = |n: &mut Node, prev: NodeId, kind, bytes| {
                n.call(|o, ctx| o.handle_control(ctx, prev, &ControlPacket { kind, bytes }, true));
            };
            match what % 16 {
                0..=4 => {
                    let mut h =
                        Hello { sym: ids.nodes(&xs), heard: ids.nodes(&ys), mpr: ids.nodes(&zs) };
                    if pick % 4 != 0 {
                        h.sym.push(NodeId(ME)); // most neighbours hear us: symmetric links
                    }
                    if pick / 4 % 4 == 0 {
                        h.sym.extend(h.sym.first().copied()); // a double listing
                    }
                    r.handle_hello(now, ids.node(a), &h);
                    control(n, ids.node(a), ControlKind::Hello, h.encode());
                }
                5..=8 => {
                    self.last_ansn = ansn(self.last_ansn, pick);
                    let tc = Tc {
                        originator: ids.node(a),
                        ansn: self.last_ansn,
                        seq: pick % 5, // collides often: the duplicate arm
                        ttl: 3,
                        selectors: ids.nodes(if pick % 2 == 0 { &xs } else { &ys }),
                    };
                    r.handle_tc(now, &tc);
                    control(n, ids.node(b), ControlKind::Tc, tc.encode());
                }
                9 => {
                    r.recompute_mprs(now);
                    n.call(|o, ctx| o.handle_timer(ctx, HELLO_TOKEN));
                }
                10 => {
                    r.send_tc(now);
                    n.call(|o, ctx| o.handle_timer(ctx, TC_TOKEN));
                }
                11 => {
                    r.cleanup(now);
                    n.call(|o, ctx| o.handle_timer(ctx, CLEANUP_TOKEN));
                }
                12 | 13 => {
                    let dst = ids.node(a);
                    if dst.0 != ME {
                        r.recompute_if_dirty(now); // data for ourselves is delivered, not routed
                    }
                    let acts = n.call(|o, ctx| o.handle_data_origination(ctx, data(ME, dst.0)));
                    let sent = acts.iter().find_map(|act| match act {
                        Action::SendData { next, .. } => Some(*next),
                        _ => None,
                    });
                    let expected = r.table.get(&dst).map(|&(next, _)| next).filter(|_| dst.0 != ME);
                    assert_eq!(sent, expected, "forwarding decision towards {dst:?}");
                }
                14 => {
                    r.link_failure(ids.node(a));
                    r.recompute_if_dirty(now);
                    let body = PacketBody::Data(data(ME, ids.node(b).0));
                    let p = Packet { uid: 1, origin: NodeId(ME), body };
                    n.call(|o, ctx| o.handle_unicast_failure(ctx, ids.node(a), p));
                }
                _ if expire => {
                    assert_eq!(n.olsr.force_expire(ids.node(a)), r.force_expire(ids.node(a)));
                }
                _ => {
                    r.reboot();
                    n.call(|o, ctx| o.handle_reboot(ctx));
                }
            }
        }

        /// Brings both derived states up to date, so that every step —
        /// not only the timer and data steps — ends in a comparison of
        /// freshly selected MPRs and freshly computed routes. Neither
        /// is an input to anything but its own next recomputation.
        fn recompute(&mut self) {
            self.node.select_mprs();
            self.node.olsr.refresh_routes();
            self.reference.recompute_mprs(self.node.now);
            self.reference.recompute_if_dirty(self.reference.clock);
        }

        fn assert_same(&self) {
            let (o, r) = (&self.node.olsr, &self.reference);
            assert_eq!(o.mprs(), r.mpr_set.iter().copied().collect::<Vec<_>>(), "mprs");
            let mut topology = o.topology_entries();
            topology.sort_unstable();
            let expected: Vec<_> =
                r.topology.iter().map(|(&(o, s), &(a, e))| (o, s, a, e)).collect();
            assert_eq!(topology, expected, "topology");
            let successors: Vec<_> = r.table.iter().map(|(&d, &(n, _))| (d, n)).collect();
            assert_eq!(
                manet_sim::protocol::successors(&o.route_table_dump()),
                successors,
                "successors"
            );
            let dump: Vec<_> =
                o.route_table_dump().iter().map(|e| (e.dest, e.next, e.dist)).collect();
            let expected: Vec<_> = r.table.iter().map(|(&d, &(n, h))| (d, n, h)).collect();
            assert_eq!(dump, expected, "route_table_dump");
            assert_eq!(o.telemetry_snapshot().entries, r.table.len() as u64);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            o.digest(&mut got);
            r.digest(o, &mut want);
            assert_eq!(got, want, "digest");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn rewritten_core_matches_the_map_based_reference(
            shape in 0u16..64,
            steps in prop::collection::vec(
                (
                    any::<u8>(),
                    any::<u16>(),
                    any::<u16>(),
                    prop::collection::vec(any::<u16>(), 0..7),
                    prop::collection::vec(any::<u16>(), 0..4),
                    prop::collection::vec(any::<u16>(), 0..4),
                    any::<u16>(),
                ),
                1..60,
            ),
        ) {
            let mut pair = Pair::new(Ids::shape(shape));
            for step in steps {
                pair.step(step);
                pair.assert_same();
                pair.recompute();
                pair.assert_same();
            }
        }
    }
}

/// `recompute_mprs`, `build_rows` and the route search as they were
/// while each computation handed out labels of its own, in order of
/// first sight, reading the link state entry by entry and id by id: the
/// oracles for [`labelled`].
mod oracle {
    use super::super::*;

    /// Dense labels `0, 1, 2, …` in order of first sight for the sparse
    /// ids of one computation, as many as it has made room for.
    struct Labels {
        room: usize,
        /// By id: its label plus one, or 0 for an id not met yet.
        slot: Vec<u32>,
        /// By label: the id.
        ids: Vec<NodeId>,
    }

    impl Labels {
        fn new(room: usize) -> Self {
            Labels { room, slot: Vec::new(), ids: Vec::new() }
        }

        /// The label of `id`, the next free one if it has none yet —
        /// `None` if there is no room for another.
        fn of(&mut self, id: NodeId) -> Option<usize> {
            match self.slot.get(id.index()) {
                Some(&slot) if slot != 0 => Some(slot as usize - 1),
                _ => {
                    if self.ids.len() == self.room {
                        return None;
                    }
                    if self.slot.len() <= id.index() {
                        self.slot.resize(id.index() + 1, 0);
                    }
                    self.ids.push(id);
                    self.slot[id.index()] = self.ids.len() as u32;
                    Some(self.ids.len() - 1)
                }
            }
        }
    }

    /// The two-hop set as `(neighbour, list, expiry)`.
    fn two_hop(o: &Olsr) -> impl Iterator<Item = (NodeId, &[NodeId], SimTime)> {
        o.sets.two_hop.iter().map(|e| (o.sets.labels.ids[e.label], &e.list[..], e.expires))
    }

    /// The topology set as `(originator, [(selector, expiry)])`.
    fn topology(o: &Olsr) -> impl Iterator<Item = (NodeId, &[(NodeId, SimTime)])> {
        o.sets.labels.ids.iter().zip(&o.sets.topology).map(|(&id, t)| (id, &t.entries[..]))
    }

    /// Greedy MPR selection over `n1`: this node and `n1` take the first
    /// labels, a listed id labelled past them is a strict two-hop node
    /// and the excess is its cover bit, with a listing count beside it.
    pub fn mprs(o: &Olsr, now: SimTime, n1: &[NodeId]) -> Vec<NodeId> {
        let mut labels = Labels::new(usize::MAX);
        labels.of(o.id);
        for &n in n1 {
            labels.of(n);
        }
        let one_hop = labels.ids.len();
        let (mut pairs, mut listings) = (Vec::new(), Vec::<u32>::new());
        for (p, n) in n1.iter().enumerate() {
            let Some((_, twos, _)) = two_hop(o).find(|&(m, _, exp)| m == *n && exp > now) else {
                continue;
            };
            for &t in twos {
                if let Some(bit) = labels.of(t).and_then(|l| l.checked_sub(one_hop)) {
                    if bit == listings.len() {
                        listings.push(0);
                    }
                    listings[bit] += 1;
                    pairs.push((bit, p));
                }
            }
        }
        let bits = listings.len();
        let words = bits.div_ceil(64);
        let mut cover = vec![0u64; (n1.len() + 1) * words];
        let mut selected = vec![false; n1.len()];
        let (cover, uncovered) = cover.split_at_mut(n1.len() * words);
        for &(bit, p) in &pairs {
            cover[p * words + bit / 64] |= 1 << (bit % 64);
            if listings[bit] == 1 {
                selected[p] = true;
            }
        }
        for bit in 0..bits {
            uncovered[bit / 64] |= 1 << (bit % 64);
        }
        let row = |p: usize| &cover[p * words..(p + 1) * words];
        let strike = |uncovered: &mut [u64], p: usize| {
            uncovered.iter_mut().zip(row(p)).for_each(|(u, c)| *u &= !c);
        };
        for p in (0..n1.len()).filter(|&p| selected[p]) {
            strike(uncovered, p);
        }
        while uncovered.iter().any(|&w| w != 0) {
            let mut best = (0, 0);
            for p in (0..n1.len()).filter(|&p| !selected[p]) {
                let covers: u32 =
                    row(p).iter().zip(&*uncovered).map(|(c, u)| (c & u).count_ones()).sum();
                if covers > best.0 {
                    best = (covers, p);
                }
            }
            if best.0 == 0 {
                break;
            }
            selected[best.1] = true;
            strike(uncovered, best.1);
        }
        n1.iter().zip(&selected).filter(|(_, &s)| s).map(|(&n, _)| n).collect()
    }

    /// Labels every vertex of the known graph — this node 0, `n1` next
    /// in its own order, everything else on first sight — and ORs each
    /// live directed link into rows of `words` words. `None` if the
    /// graph has more than `64 * words` vertices.
    fn build_rows(
        o: &Olsr,
        now: SimTime,
        n1: &[NodeId],
        words: usize,
    ) -> Option<(Labels, Vec<u64>)> {
        let mut labels = Labels::new(64 * words);
        let mut rows = vec![0u64; 64 * words * words];
        labels.of(o.id)?;
        for &n in n1 {
            labels.of(n)?;
        }
        for (n, twos, exp) in two_hop(o) {
            if exp > now {
                let row = labels.of(n)? * words;
                for &t in twos {
                    let v = labels.of(t)?;
                    rows[row + v / 64] |= 1 << (v % 64);
                }
            }
        }
        for (orig, sels) in topology(o) {
            for &(sel, _) in sels.iter().filter(|(_, exp)| *exp > now) {
                let (u, v) = (labels.of(orig)?, labels.of(sel)?);
                rows[u * words + v / 64] |= 1 << (v % 64);
                rows[v * words + u / 64] |= 1 << (u % 64);
            }
        }
        Some((labels, rows))
    }

    /// The route search over [`build_rows`], starting over with twice
    /// the room until the graph fits: `(destination, next hop, hops)`,
    /// ascending by destination.
    pub fn routes(o: &Olsr, now: SimTime) -> Vec<(NodeId, NodeId, u32)> {
        let mut n1 = Vec::new();
        sym_links_into(&o.links, now, &mut n1);
        let mut words = 1;
        let (Labels { ids, .. }, rows) = loop {
            match build_rows(o, now, &n1, words) {
                Some(built) => break built,
                None => words *= 2,
            }
        };
        let highest = ids.iter().map(|id| id.index()).max().unwrap_or(0);
        let mut table = vec![(NodeId(0), 0); highest + 1];
        // Labels 1.. are `n1` in order, less this node should it list
        // itself: level one. This node, label 0, is seen from the start.
        let mut seen = vec![0u64; words];
        seen[0] = 1;
        let mut queue = Vec::new();
        for l in 1..=n1.iter().filter(|&&n| n != o.id).count() {
            seen[l / 64] |= 1 << (l % 64);
            table[ids[l].index()] = (ids[l], 1);
            queue.push(l);
        }
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let (first_hop, hops) = table[ids[u].index()];
            for (w, (row, seen)) in rows[u * words..].iter().zip(seen.iter_mut()).enumerate() {
                let mut new = row & !*seen;
                *seen |= new;
                while new != 0 {
                    let v = 64 * w + new.trailing_zeros() as usize;
                    new &= new - 1;
                    table[ids[v].index()] = (first_hop, hops + 1);
                    queue.push(v);
                }
            }
        }
        (0..=u16::MAX)
            .zip(table)
            .filter(|&(_, (_, hops))| hops != 0)
            .map(|(dest, (next, hops))| (NodeId(dest), next, hops))
            .collect()
    }
}

/// One node driven through random HELLO / TC / clock / CLEANUP /
/// link-failure / reboot sequences. After every step its MPR selection
/// and its route search run, and each must match its [`oracle`] on the
/// same state; the labels must be one per labelled id and the rows as
/// wide and as many as the labels need, and right after a CLEANUP the
/// labelled ids must be exactly those the link state still holds.
mod labelled {
    use super::differential::{ansn, Ids, CLOCK_STEPS_MS};
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const ME: u16 = 2;

    /// Every id the link state holds, and this node.
    fn held_ids(o: &Olsr) -> BTreeSet<NodeId> {
        let mut held = BTreeSet::from([o.id]);
        held.extend(o.links.keys());
        for (orig, sel, ..) in o.topology_entries() {
            held.extend([orig, sel]);
        }
        for e in &o.sets.two_hop {
            held.insert(o.sets.labels.ids[e.label]);
            held.extend(&e.list);
        }
        held
    }

    fn assert_layout(o: &Olsr) {
        let s = &o.sets;
        let (n, w) = (s.labels.ids.len(), s.words);
        assert!(slots_match_labels(o), "a slot entry outlived its label");
        assert_eq!(s.labels.ids[0], o.id, "this node is label 0");
        assert_eq!(w, n.div_ceil(64), "row words for {n} labels");
        assert_eq!((s.hop.len(), s.topology.len(), s.selectors.len()), (n, n, n * w));
        assert_eq!(s.listed.len(), s.two_hop.len() * 2 * w);
        assert_eq!(s.hop.iter().filter(|&&h| h != 0).count(), s.two_hop.len());
        for (i, e) in s.two_hop.iter().enumerate() {
            assert_eq!(s.hop[e.label] as usize, i + 1, "hop index of label {}", e.label);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn persistent_labels_compute_what_per_computation_labels_did(
            shape in 0u16..64,
            steps in prop::collection::vec(
                (
                    any::<u8>(),
                    any::<u16>(),
                    prop::collection::vec(any::<u16>(), 0..7),
                    any::<u16>(),
                ),
                1..60,
            ),
        ) {
            let ids = Ids::shape(shape);
            let mut n = Node::new(ME);
            let (mut tc_seq, mut last_ansn) = (0u16, 65533);
            for (what, a, xs, pick) in steps {
                n.now += SimDuration::from_millis(CLOCK_STEPS_MS[usize::from(pick % 16)]);
                let now = n.now;
                match what % 8 {
                    0..=2 => {
                        let mut sym = ids.nodes(&xs);
                        if pick / 16 % 4 != 0 {
                            sym.push(NodeId(ME)); // mostly symmetric links
                        }
                        if pick / 64 % 4 == 0 {
                            sym.extend(sym.first().copied()); // a double listing
                        }
                        let mpr = ids.nodes(&xs[..xs.len() / 2]);
                        n.hello_from(ids.node(a).0, Hello { sym, heard: vec![], mpr });
                    }
                    3 | 4 => {
                        tc_seq = tc_seq.wrapping_add(1);
                        last_ansn = ansn(last_ansn, pick / 16);
                        let (originator, selectors) = (ids.node(a), ids.nodes(&xs));
                        let tc = Tc { originator, ansn: last_ansn, seq: tc_seq, ttl: 3, selectors };
                        n.tc_from(ids.node(pick).0, tc);
                    }
                    5 => {
                        n.call(|o, ctx| o.handle_timer(ctx, CLEANUP_TOKEN));
                        let labelled: BTreeSet<NodeId> =
                            n.olsr.sets.labels.ids.iter().copied().collect();
                        prop_assert_eq!(labelled, held_ids(&n.olsr), "labels right after CLEANUP");
                    }
                    6 => {
                        let ctrl = ControlPacket { kind: ControlKind::Hello, bytes: vec![] };
                        let body = PacketBody::Control(ctrl);
                        let p = Packet { uid: 1, origin: NodeId(ME), body };
                        n.call(|o, ctx| o.handle_unicast_failure(ctx, ids.node(a), p));
                    }
                    _ if pick % 8 == 0 => {
                        n.call(|o, ctx| o.handle_reboot(ctx));
                    }
                    _ => {} // the clock alone moves
                }
                assert_layout(&n.olsr);
                let n1 = n.olsr.sym_neighbors(now);
                n.olsr.recompute_mprs(now, &n1);
                prop_assert_eq!(n.olsr.mprs(), &oracle::mprs(&n.olsr, now, &n1)[..], "mprs");
                n.olsr.recompute_routes(now);
                let routes: Vec<_> = n.olsr.routes().collect();
                prop_assert_eq!(routes, oracle::routes(&n.olsr, now), "routes");
                let (labels, words, rows) = layout(&n.olsr);
                prop_assert_eq!(rows, labels * words, "row storage");
            }
        }
    }
}

/// `recompute_traced` as it was before it walked the two id-indexed
/// tables: a sorted snapshot of the routes before and after the
/// recomputation, each binary-searched in the other. The oracle for
/// [`traced`].
fn recompute_traced_oracle(o: &mut Olsr, ctx: &mut Ctx) {
    if !o.dirty {
        return;
    }
    let snapshot = |o: &Olsr| o.routes().map(|(d, n, h)| (d, (n, h))).collect::<Vec<_>>();
    let before = snapshot(o);
    o.recompute_routes(ctx.now());
    let after = snapshot(o);
    let node = o.id;
    // Destinations that dropped out of the shortest-path tree.
    for &(dest, _) in &before {
        if after.binary_search_by_key(&dest.0, |&(d, _)| d.0).is_err() {
            ctx.trace(|| TraceEvent::RouteInvalidate {
                node,
                dest,
                seqno: None,
                cause: InvalidateCause::LinkFailure,
            });
        }
    }
    // New or changed entries.
    for &(dest, (next, hops)) in &after {
        let prev = before.binary_search_by_key(&dest.0, |&(d, _)| d.0).ok().map(|i| before[i].1);
        if prev != Some((next, hops)) {
            let before_snap = prev.map(|(_, h)| InvariantSnapshot { sn: None, d: h, fd: h });
            ctx.trace(|| TraceEvent::RouteInstall {
                node,
                dest,
                next,
                before: before_snap,
                after: InvariantSnapshot { sn: None, d: hops, fd: hops },
            });
        }
    }
}

/// A node driven through link-state changes with tracing on, each
/// recomputation traced by the node and by [`recompute_traced_oracle`]
/// on a clone of it taken just before.
mod traced {
    use super::*;
    use proptest::prelude::*;

    const ME: u16 = 2;

    struct Traced {
        node: Node,
        /// Sequence number and ANSN of the next TC: each one is new.
        tc_seq: u16,
    }

    impl Traced {
        fn new() -> Self {
            Traced { node: Node::new(ME), tc_seq: 0 }
        }

        fn hello_from(&mut self, prev: NodeId, sym: Vec<NodeId>) {
            self.node.hello_from(prev.0, Hello { sym, heard: vec![], mpr: vec![] });
        }

        fn tc(&mut self, originator: NodeId, selectors: Vec<NodeId>) {
            self.tc_seq += 1;
            let (ansn, seq) = (self.tc_seq, self.tc_seq);
            self.node.tc_from(1, Tc { originator, ansn, seq, ttl: 3, selectors });
        }

        /// Link-layer feedback for a control frame: the link goes, and
        /// nothing is recomputed.
        fn link_failure(&mut self, next_hop: NodeId) {
            let ctrl = ControlPacket { kind: ControlKind::Hello, bytes: vec![] };
            let p = Packet { uid: 1, origin: NodeId(ME), body: PacketBody::Control(ctrl) };
            self.node.call(|o, ctx| o.handle_unicast_failure(ctx, next_hop, p));
        }

        /// Recomputes through `recompute_traced` — called directly, or
        /// by a data packet for `via_data` — and through the oracle on a
        /// clone; returns both traces, node's first.
        fn recompute(&mut self, via_data: Option<NodeId>) -> (Vec<TraceEvent>, Vec<TraceEvent>) {
            let mut twin = self.node.olsr.clone();
            let want = traced_call(&mut twin, self.node.now, |o, ctx| {
                recompute_traced_oracle(o, ctx);
            });
            let got = traced_call(&mut self.node.olsr, self.node.now, |o, ctx| match via_data {
                Some(dst) => o.handle_data_origination(ctx, data(ME, dst.0)),
                None => o.recompute_traced(ctx),
            });
            (got, want)
        }
    }

    /// Runs `f` under a tracing `Ctx` and returns the events it traced.
    fn traced_call(
        o: &mut Olsr,
        now: SimTime,
        f: impl FnOnce(&mut Olsr, &mut Ctx),
    ) -> Vec<TraceEvent> {
        let (mut rng, mut actions) = (SimRng::from_seed(0), Vec::new());
        let mut ctx = Ctx::new(now, o.id, 50, &mut rng, &mut actions);
        ctx.set_trace_enabled(true);
        f(o, &mut ctx);
        actions
            .into_iter()
            .filter_map(|a| match a {
                Action::Trace(e) => Some(e),
                _ => None,
            })
            .collect()
    }

    /// Mostly 0–11, this node among them; in a `wide` case one draw in
    /// sixteen is the corrupt 65535. Only one case in eight is wide: an
    /// id near 65535 makes every table walk that long, and the debug
    /// build then spends milliseconds on each step of the case.
    fn id(raw: u16, wide: bool) -> NodeId {
        match raw % 16 {
            0 if wide => NodeId(u16::MAX),
            _ => NodeId(raw / 16 % 12),
        }
    }

    /// Clock steps in ms: mostly sub-second, sometimes across
    /// NEIGHB_HOLD_TIME (6 s) or TOP_HOLD_TIME (15 s), which is how the
    /// highest live id falls again.
    const CLOCK_STEPS_MS: [u64; 8] = [0, 1, 300, 900, 2100, 3100, 6100, 16000];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The same `RouteInvalidate` / `RouteInstall` events in the
        /// same order as the snapshot diff, over HELLOs, TCs, expiry,
        /// link failure and cleanup, while the tables grow and shrink.
        #[test]
        fn table_walk_traces_what_the_snapshot_diff_did(
            shape in 0u8..8,
            steps in prop::collection::vec(
                (any::<u8>(), any::<u16>(), prop::collection::vec(any::<u16>(), 0..6), any::<u16>()),
                1..40,
            ),
        ) {
            let mut t = Traced::new();
            let id = |raw| id(raw, shape == 0);
            for (what, a, xs, pick) in steps {
                t.node.now += SimDuration::from_millis(CLOCK_STEPS_MS[usize::from(pick % 8)]);
                let mut nodes: Vec<NodeId> = xs.iter().map(|&x| id(x)).collect();
                match what % 8 {
                    0..=2 => {
                        nodes.push(NodeId(ME)); // a symmetric link
                        t.hello_from(id(a), nodes);
                    }
                    3 | 4 => t.tc(id(a), nodes),
                    5 => {
                        t.node.olsr.force_expire(id(a));
                    }
                    6 => t.link_failure(id(a)),
                    _ => {
                        t.node.call(|o, ctx| o.handle_timer(ctx, CLEANUP_TOKEN));
                    }
                }
                let via_data = (pick / 8 % 2 == 0).then(|| id(pick / 16)).filter(|&d| d.0 != ME);
                let (got, want) = t.recompute(via_data);
                prop_assert_eq!(got, want);
            }
        }
    }

    /// A TC naming 65535 grows the table to 65 536 entries and its
    /// expiry shrinks it back; a smaller highest id than before must
    /// still invalidate the routes past it, and a larger one install
    /// them. The label 65535 took on receipt outlives the route until
    /// the next CLEANUP, which drops it and traces nothing.
    #[test]
    fn a_corrupt_id_is_installed_and_invalidated_as_the_table_grows_and_shrinks() {
        let mut t = Traced::new();
        t.hello_from(NodeId(1), ids(&[ME, 3]));
        let (got, want) = t.recompute(None);
        assert_eq!(got, want);
        assert_eq!(got.len(), 2, "routes to 1 and 3: {got:?}");
        t.tc(NodeId(3), ids(&[65535]));
        let (got, want) = t.recompute(Some(NodeId(65535)));
        assert_eq!(got, want);
        assert!(matches!(got[..], [TraceEvent::RouteInstall { dest: NodeId(65535), .. }]));
        assert_eq!(t.node.olsr.table.len(), 65536);
        t.node.now += TOP_HOLD_TIME;
        t.hello_from(NodeId(1), ids(&[ME, 3]));
        let (got, want) = t.recompute(None);
        assert_eq!(got, want);
        assert!(matches!(got[..], [TraceEvent::RouteInvalidate { dest: NodeId(65535), .. }]));
        assert_eq!(t.node.olsr.table.len(), 4);
        assert_eq!(t.node.olsr.sets.labels.find(NodeId(65535)), Some(3), "after 2, 1 and 3");
        t.node.call(|o, ctx| o.handle_timer(ctx, CLEANUP_TOKEN));
        let (got, want) = t.recompute(None);
        assert_eq!((got, want), (vec![], vec![]));
        assert_eq!((t.node.olsr.table.len(), t.node.olsr.sets.labels.ids.len()), (4, 3));
        assert_eq!(t.node.olsr.sets.labels.find(NodeId(65535)), None);
        // Neighbour 1 goes; its replacement 9 lists 3 and a new 5.
        t.link_failure(NodeId(1));
        t.hello_from(NodeId(9), ids(&[ME, 3, 5]));
        let (got, want) = t.recompute(None);
        assert_eq!(got, want);
        let kinds: Vec<_> = got
            .iter()
            .map(|e| match e {
                TraceEvent::RouteInvalidate { dest, .. } => ('-', dest.0),
                TraceEvent::RouteInstall { dest, .. } => ('+', dest.0),
                _ => ('?', 0),
            })
            .collect();
        assert_eq!(kinds, [('-', 1), ('+', 3), ('+', 5), ('+', 9)]);
    }
}
