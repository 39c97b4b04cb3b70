//! Online routing-loop auditor.
//!
//! LDR's central claim (Theorem 4) is instantaneous loop-freedom: at no
//! instant may the per-destination successor graph implied by the
//! routing tables contain a cycle. The auditor snapshots every node's
//! `(destination, next hop)` pairs and follows successor chains; a
//! revisited node is a violation. The simulator can run it periodically
//! or after every protocol event.

use crate::packet::NodeId;

/// A routing loop found by the auditor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopViolation {
    /// Destination whose successor graph is cyclic.
    pub destination: NodeId,
    /// The cycle, as the sequence of nodes revisiting the first entry.
    pub cycle: Vec<NodeId>,
}

impl std::fmt::Display for LoopViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "loop towards {}: ", self.destination)?;
        for (i, n) in self.cycle.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{n}")?;
        }
        Ok(())
    }
}

/// Checks the per-destination successor graphs for cycles.
///
/// `tables[i]` is node `i`'s list of `(destination, next_hop)` pairs for
/// its currently usable routes; a node's later pair for a destination
/// overrides its earlier one. Returns every cycle once, by destination
/// ascending, then in the order the walks from each node (ascending, a
/// node met by an earlier walk skipped) reach them; a cycle is listed
/// from the node where its walk entered it, and closed by it again. Ids
/// at or past `tables.len()` have no table: a walk ends there, as at
/// the destination.
///
/// It runs once per explored state in `modelcheck` and, in a simulation,
/// once per `audit_interval` or per callback, so it works on arrays
/// indexed by node id — a successor and a colour per node, each stamped
/// with the destination it belongs to, so neither is cleared between
/// destinations.
pub fn find_loops(tables: &[Vec<(NodeId, NodeId)>]) -> Vec<LoopViolation> {
    let n = tables.len();
    // Every (destination, node, next hop), by destination then node; the
    // sort is stable, so of one node's pairs for a destination the later
    // is written later and wins.
    let mut entries: Vec<(NodeId, NodeId, NodeId)> = tables
        .iter()
        .enumerate()
        .flat_map(|(i, pairs)| {
            pairs.iter().map(move |&(dest, next)| (dest, NodeId(i as u16), next))
        })
        .collect();
    entries.sort_by_key(|&(dest, node, _)| (dest, node));
    // Stamps for destination `k` (from 0): successors carry `k + 1`;
    // colours are `2k + 1` on the current path, `2k + 2` done, and
    // anything lower is unvisited.
    let mut succ = vec![(0u32, NodeId(0)); n];
    let mut colour = vec![0u32; n];
    let mut path = Vec::new();
    let mut violations = Vec::new();
    for (k, group) in entries.chunk_by(|a, b| a.0 == b.0).enumerate() {
        let dest = group[0].0;
        let stamp = k as u32 + 1;
        let (on_path, done) = (2 * stamp - 1, 2 * stamp);
        for &(_, node, next) in group {
            succ[node.index()] = (stamp, next);
        }
        for &(_, start, _) in group {
            if colour[start.index()] >= on_path {
                continue;
            }
            path.clear();
            let mut cur = start;
            while let Some(c) = colour.get_mut(cur.index()) {
                if *c == on_path {
                    // Found a cycle: trim the path to its start. Only
                    // nodes pushed onto `path` are ever on it, so the
                    // search always succeeds; falling back to 0 keeps
                    // this panic-free.
                    let pos = path.iter().position(|&p| p == cur).unwrap_or(0);
                    let mut cycle = path[pos..].to_vec();
                    cycle.push(cur);
                    violations.push(LoopViolation { destination: dest, cycle });
                    break;
                }
                if *c == done {
                    break;
                }
                *c = on_path;
                path.push(cur);
                match succ[cur.index()] {
                    (s, next) if s == stamp && cur != dest => cur = next,
                    _ => break,
                }
            }
            for p in &path {
                colour[p.index()] = done;
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxMap;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The map-based body `find_loops` had before it moved to stamped
    /// arrays, verbatim: the oracle of the differential below.
    fn find_loops_oracle(tables: &[Vec<(NodeId, NodeId)>]) -> Vec<LoopViolation> {
        // successor[dest] : node -> next hop. Ordered maps so the
        // destination sweep and start order are hash-state independent.
        let mut successor: BTreeMap<NodeId, BTreeMap<NodeId, NodeId>> = BTreeMap::new();
        for (i, entries) in tables.iter().enumerate() {
            let me = NodeId(i as u16);
            for &(dest, next) in entries {
                successor.entry(dest).or_default().insert(me, next);
            }
        }
        let mut violations = Vec::new();
        for (&dest, succ) in &successor {
            // Colour nodes: 0 unvisited, 1 on current path, 2 done.
            let mut colour: FxMap<NodeId, u8> = FxMap::default();
            let starts: Vec<NodeId> = succ.keys().copied().collect();
            'outer: for &start in &starts {
                if colour.get(&start).copied().unwrap_or(0) != 0 {
                    continue;
                }
                let mut path = Vec::new();
                let mut cur = start;
                loop {
                    match colour.get(&cur).copied().unwrap_or(0) {
                        1 => {
                            let pos = path.iter().position(|&n| n == cur).unwrap_or(0);
                            let mut cycle: Vec<NodeId> = path[pos..].to_vec();
                            cycle.push(cur);
                            violations.push(LoopViolation { destination: dest, cycle });
                            for &n in &path {
                                colour.insert(n, 2);
                            }
                            continue 'outer;
                        }
                        2 => break,
                        _ => {}
                    }
                    colour.insert(cur, 1);
                    path.push(cur);
                    if cur == dest {
                        break;
                    }
                    match succ.get(&cur) {
                        Some(&next) => cur = next,
                        None => break,
                    }
                }
                for &n in &path {
                    colour.insert(n, 2);
                }
            }
        }
        violations
    }

    /// An id drawn mostly from 0–13 (around the 0–12 tables, so ids
    /// repeat, collide with their own node and fall just past the last
    /// table), sometimes from anywhere, sometimes from the very top.
    fn id(raw: u16) -> NodeId {
        match raw % 16 {
            0 => NodeId(raw),
            1 => NodeId(u16::MAX - raw / 16 % 2),
            _ => NodeId(raw / 16 % 14),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The whole report, not just "found a loop", on unfiltered
        /// tables: repeated destinations in one table (the later wins),
        /// `node == next`, a destination's own entry, ids up to 65535.
        #[test]
        fn flat_audit_reports_what_the_map_based_one_did(
            raw in prop::collection::vec(
                prop::collection::vec((any::<u16>(), any::<u16>()), 0..9),
                0..13,
            ),
        ) {
            let tables: Vec<Vec<(NodeId, NodeId)>> = raw
                .iter()
                .map(|pairs| pairs.iter().map(|&(d, n)| (id(d), id(n))).collect())
                .collect();
            prop_assert_eq!(find_loops(&tables), find_loops_oracle(&tables), "{:?}", tables);
        }
    }

    /// Hand-built cases the differential might draw rarely.
    #[test]
    fn overrides_own_entries_and_corrupt_ids_match_the_oracle() {
        let cases = [
            // A later entry replaces a looping one, and the reverse.
            vec![vec![(n(2), n(1)), (n(2), n(2))], vec![(n(2), n(0))], vec![]],
            vec![vec![(n(2), n(2)), (n(2), n(1))], vec![(n(2), n(0))], vec![]],
            // The destination's own entry points back into a cycle.
            vec![vec![(n(1), n(2))], vec![(n(1), n(0))], vec![(n(1), n(0))]],
            // A corrupt next hop ends a walk; a self-loop is a cycle.
            vec![vec![(n(9), n(65535))], vec![(n(9), n(0))], vec![(n(9), n(2))]],
            vec![vec![(n(65535), n(1))], vec![(n(65535), n(0))]],
        ];
        for tables in &cases {
            assert_eq!(find_loops(tables), find_loops_oracle(tables), "{tables:?}");
        }
        assert_eq!(find_loops(&cases[1]).len(), 1);
        assert_eq!(find_loops(&cases[3])[0].cycle, vec![n(2), n(2)]);
    }

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_tables_have_no_loops() {
        assert!(find_loops(&[vec![], vec![], vec![]]).is_empty());
    }

    #[test]
    fn straight_chain_is_loop_free() {
        // 0 -> 1 -> 2 -> 3 (dest 3)
        let tables = vec![vec![(n(3), n(1))], vec![(n(3), n(2))], vec![(n(3), n(3))], vec![]];
        assert!(find_loops(&tables).is_empty());
    }

    #[test]
    fn two_cycle_detected() {
        // 0 -> 1 -> 0 for dest 2.
        let tables = vec![vec![(n(2), n(1))], vec![(n(2), n(0))], vec![]];
        let v = find_loops(&tables);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].destination, n(2));
        assert_eq!(v[0].cycle.first(), v[0].cycle.last());
        assert!(v[0].cycle.len() == 3); // a, b, a
    }

    #[test]
    fn three_cycle_detected_with_tail() {
        // 3 -> 0 -> 1 -> 2 -> 0 for dest 9.
        let tables =
            vec![vec![(n(9), n(1))], vec![(n(9), n(2))], vec![(n(9), n(0))], vec![(n(9), n(0))]];
        let v = find_loops(&tables);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].cycle.len(), 4);
    }

    #[test]
    fn loops_for_different_destinations_both_reported() {
        let tables = vec![vec![(n(5), n(1)), (n(6), n(1))], vec![(n(5), n(0)), (n(6), n(0))]];
        let v = find_loops(&tables);
        assert_eq!(v.len(), 2);
        let dests: Vec<NodeId> = v.iter().map(|x| x.destination).collect();
        assert_eq!(dests, vec![n(5), n(6)]);
    }

    #[test]
    fn self_successor_to_destination_is_fine() {
        // Node 0's next hop *is* the destination: no loop.
        let tables = vec![vec![(n(1), n(1))], vec![]];
        assert!(find_loops(&tables).is_empty());
    }

    #[test]
    fn diamond_converging_paths_are_loop_free() {
        // 0 -> {1}, 1 -> 3, 2 -> 1, all towards 3.
        let tables = vec![vec![(n(3), n(1))], vec![(n(3), n(3))], vec![(n(3), n(1))], vec![]];
        assert!(find_loops(&tables).is_empty());
    }

    #[test]
    fn display_is_readable() {
        let v = LoopViolation { destination: n(7), cycle: vec![n(1), n(2), n(1)] };
        assert_eq!(format!("{v}"), "loop towards n7: n1 -> n2 -> n1");
    }
}
