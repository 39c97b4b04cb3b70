//! Crate-level property tests for the simulator substrate.

#![cfg(test)]

use crate::hash::{FxMap, FxSet};
use crate::loopcheck::find_loops;
use crate::packet::NodeId;
use proptest::prelude::*;

/// Brute-force oracle: for each destination, walk the successor chain
/// from every node with a visited set; revisiting any node before
/// terminating (at the destination or at a node without a successor)
/// means the chain contains a cycle.
fn has_loop_oracle(tables: &[Vec<(NodeId, NodeId)>]) -> bool {
    let mut succ: FxMap<NodeId, FxMap<NodeId, NodeId>> = FxMap::default();
    for (i, entries) in tables.iter().enumerate() {
        for &(dest, next) in entries {
            succ.entry(dest).or_default().insert(NodeId(i as u16), next);
        }
    }
    for (dest, map) in &succ {
        for &start in map.keys() {
            let mut seen = FxSet::default();
            let mut cur = start;
            loop {
                if cur == *dest {
                    break;
                }
                if !seen.insert(cur) {
                    return true; // revisited a node: cycle
                }
                match map.get(&cur) {
                    Some(&next) => cur = next,
                    None => break,
                }
            }
        }
    }
    false
}

proptest! {
    /// The loop auditor agrees with the brute-force oracle on random
    /// successor tables.
    #[test]
    fn loopcheck_matches_oracle(
        entries in proptest::collection::vec(
            (0u16..8, 0u16..8, 0u16..8), // (node, dest, next)
            0..40,
        )
    ) {
        let mut tables: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); 8];
        let mut seen = FxSet::default();
        for (node, dest, next) in entries {
            // One successor per (node, dest).
            if seen.insert((node, dest)) && node != next {
                tables[node as usize].push((NodeId(dest), NodeId(next)));
            }
        }
        let found = !find_loops(&tables).is_empty();
        let oracle = has_loop_oracle(&tables);
        prop_assert_eq!(found, oracle, "auditor and oracle disagree on {:?}", tables);
    }

    /// Every reported cycle is a genuine cycle: consecutive nodes are
    /// successor-linked and the ends meet.
    #[test]
    fn reported_cycles_are_real(
        entries in proptest::collection::vec(
            (0u16..6, 0u16..6, 0u16..6),
            0..30,
        )
    ) {
        let mut tables: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); 6];
        let mut seen = FxSet::default();
        for (node, dest, next) in entries {
            if seen.insert((node, dest)) && node != next {
                tables[node as usize].push((NodeId(dest), NodeId(next)));
            }
        }
        for v in find_loops(&tables) {
            prop_assert!(v.cycle.len() >= 3);
            prop_assert_eq!(v.cycle.first(), v.cycle.last());
            for w in v.cycle.windows(2) {
                let hop = tables[w[0].index()]
                    .iter()
                    .find(|(d, _)| *d == v.destination)
                    .map(|(_, n)| *n);
                prop_assert_eq!(hop, Some(w[1]), "cycle edge not in tables");
            }
        }
    }

    /// Frame airtime is monotone in payload size and positive.
    #[test]
    fn tx_duration_monotone(a in 0usize..4096, b in 0usize..4096) {
        let phy = crate::config::PhyConfig::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(phy.tx_duration(lo) <= phy.tx_duration(hi));
        prop_assert!(phy.tx_duration(lo) > crate::time::SimDuration::ZERO);
    }

    /// Random-waypoint positions stay within the terrain for arbitrary
    /// parameters and query times.
    #[test]
    fn rwp_always_in_bounds(
        seed in any::<u64>(),
        pause in 0u64..200,
        times in proptest::collection::vec(0u64..2000, 1..20),
    ) {
        use crate::mobility::{MobilityModel, RandomWaypoint};
        let terrain = crate::geometry::Terrain::new(1500.0, 300.0);
        let m = RandomWaypoint::new(
            5,
            terrain,
            crate::time::SimDuration::from_secs(pause),
            1.0,
            20.0,
            crate::rng::SimRng::from_seed(seed),
        );
        let mut sorted = times;
        sorted.sort_unstable();
        for t in sorted {
            for node in 0..5u16 {
                let p = m.position(NodeId(node), crate::time::SimTime::from_secs(t));
                prop_assert!(terrain.contains(p), "escaped: {p:?}");
            }
        }
    }
}
