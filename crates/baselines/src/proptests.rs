//! Crate-level property tests for the baseline protocols.

#![cfg(test)]

use crate::dsr::cache::RouteCache;
use crate::olsr::{Olsr, OlsrConfig};
use manet_sim::hash::FxSet;
use manet_sim::packet::NodeId;
use manet_sim::protocol::{Ctx, RoutingProtocol};
use manet_sim::rng::SimRng;
use manet_sim::time::SimTime;
use proptest::prelude::*;

fn ids(v: &[u16]) -> Vec<NodeId> {
    v.iter().map(|&i| NodeId(i)).collect()
}

proptest! {
    /// DSR cache invariant: after `remove_link(a, b)`, no retrievable
    /// path traverses the directed link `a → b` (including the implicit
    /// first hop from the owner), and untouched paths survive.
    #[test]
    fn dsr_cache_remove_link_is_complete(
        paths in proptest::collection::vec(
            proptest::collection::vec(1u16..10, 1..6),
            1..12,
        ),
        link in (0u16..10, 1u16..10),
    ) {
        let owner = NodeId(0);
        let mut cache = RouteCache::new(owner, 64, None);
        let t = SimTime::from_secs(1);
        for p in &paths {
            cache.insert(&ids(p), t);
        }
        let (a, b) = link;
        cache.remove_link(NodeId(a), NodeId(b));
        // Every destination still retrievable must avoid the link.
        for dst in 1u16..10 {
            if let Some(path) = cache.lookup(NodeId(dst), t) {
                let full: Vec<NodeId> =
                    std::iter::once(owner).chain(path.iter().copied()).collect();
                for w in full.windows(2) {
                    prop_assert!(
                        !(w[0] == NodeId(a) && w[1] == NodeId(b)),
                        "retrieved a path through the removed link"
                    );
                }
            }
        }
    }

    /// DSR cache lookups always return a loop-free path ending at the
    /// requested destination, and the shortest one stored.
    #[test]
    fn dsr_cache_lookup_shortest_loop_free(
        paths in proptest::collection::vec(
            proptest::collection::vec(1u16..12, 1..6),
            1..12,
        ),
        dst in 1u16..12,
    ) {
        let mut cache = RouteCache::new(NodeId(0), 64, None);
        let t = SimTime::from_secs(1);
        let mut stored: Vec<Vec<NodeId>> = Vec::new();
        for p in &paths {
            if cache.insert(&ids(p), t) {
                stored.push(ids(p));
            }
        }
        if let Some(path) = cache.lookup(NodeId(dst), t) {
            prop_assert_eq!(path.last(), Some(&NodeId(dst)));
            let mut uniq = FxSet::default();
            prop_assert!(path.iter().all(|n| uniq.insert(*n)), "looping path");
            let best = stored
                .iter()
                .filter(|p| p.last() == Some(&NodeId(dst)))
                .map(|p| p.len())
                .min()
                .expect("something stored");
            prop_assert_eq!(path.len(), best, "not the shortest stored path");
        }
    }

    /// OLSR MPR selection covers the entire strict two-hop
    /// neighbourhood reachable through one-hop neighbours.
    #[test]
    fn olsr_mpr_selection_covers_two_hop_set(
        neighbours in proptest::collection::vec(
            proptest::collection::vec(0u16..25, 0..8), // each 1-hop's 2-hop list
            1..8,
        ),
    ) {
        let me = NodeId(0);
        let mut olsr = Olsr::new(me, OlsrConfig::default());
        let mut rng = SimRng::from_seed(1);
        let now = SimTime::from_secs(1);
        // Node ids 100.. for the one-hop neighbours, arbitrary small ids
        // (possibly overlapping with each other) for the two-hop set.
        let mut n1_twos: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for (i, twos) in neighbours.iter().enumerate() {
            let n1 = NodeId(100 + i as u16);
            let mut sym: Vec<NodeId> = ids(twos)
                .into_iter()
                .filter(|t| *t != me)
                .collect();
            sym.push(me); // hears us: symmetric
            let hello = crate::olsr::messages::Hello {
                sym: sym.clone(),
                heard: vec![],
                mpr: vec![],
            };
            let mut actions = Vec::new();
            let mut ctx = Ctx::new(now, me, 200, &mut rng, &mut actions);
            olsr.handle_control(
                &mut ctx,
                n1,
                &manet_sim::packet::ControlPacket {
                    kind: manet_sim::packet::ControlKind::Hello,
                    bytes: hello.encode(),
                },
                true,
            );
            n1_twos.push((n1, sym));
        }
        olsr.recompute_mprs(now, &olsr.sym_neighbors(now));
        let mprs = olsr.mprs();
        // Every strict two-hop node must be covered by an MPR.
        let n1_set: FxSet<NodeId> = n1_twos.iter().map(|(n, _)| *n).collect();
        let mut uncovered = Vec::new();
        for (n1, twos) in &n1_twos {
            for t in twos {
                if *t == me || n1_set.contains(t) {
                    continue;
                }
                let covered = n1_twos
                    .iter()
                    .any(|(n, tw)| mprs.contains(n) && tw.contains(t));
                if !covered {
                    uncovered.push((*n1, *t));
                }
            }
        }
        prop_assert!(uncovered.is_empty(), "two-hop nodes uncovered: {uncovered:?}");
    }
}
