//! The LDR routing table and Procedure 3 ("set route").
//!
//! Each entry keeps, per destination: the destination sequence number,
//! the measured distance `d`, the feasible distance `fd` (the minimum
//! `d` ever attained under the current sequence number), the next hop,
//! validity and an expiry time. `sn` and `fd` are *history* — they
//! survive invalidation and expiry, because the loop-freedom invariant
//! depends on them even when no usable route exists.

use crate::invariants::{ndc_accepts, Distance, Invariants, INFINITY};
use crate::seqno::SeqNo;
use manet_sim::hash::FxMap;
use manet_sim::packet::NodeId;
use manet_sim::time::SimTime;

/// One destination's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteEntry {
    /// Destination sequence number.
    pub seqno: SeqNo,
    /// Measured distance (hops).
    pub dist: Distance,
    /// Feasible distance: minimum `dist` under the current `seqno`.
    pub fd: Distance,
    /// Successor towards the destination.
    pub next_hop: NodeId,
    /// `false` once the route is revoked (link break, RERR).
    pub valid: bool,
    /// Soft-state expiry; the route is unusable after this instant.
    pub expires: SimTime,
}

impl RouteEntry {
    /// Whether the route can carry data right now.
    pub fn is_active(&self, now: SimTime) -> bool {
        self.valid && now < self.expires
    }

    /// The `(sn, d, fd)` triple this entry contributes to the
    /// invariant conditions.
    pub fn invariants(&self) -> Invariants {
        Invariants { sn: Some(self.seqno), d: self.dist, fd: self.fd }
    }
}

/// What [`RouteTable::consider_advertisement`] decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdvertOutcome {
    /// The advertisement was installed (new route or successor change).
    Installed,
    /// The advertisement refreshed the current successor (distance
    /// and/or lifetime updated; successor unchanged).
    Refreshed,
    /// Usable under NDC but not better than the active route; table
    /// unchanged except possibly `fd` bookkeeping.
    NotBetter,
    /// Rejected by NDC.
    Infeasible,
}

impl AdvertOutcome {
    /// Whether the advertisement was usable at this node under NDC
    /// (the paper's "RREP Recv" counts these).
    pub fn usable(self) -> bool {
        !matches!(self, AdvertOutcome::Infeasible)
    }
}

/// The routing table of one LDR node.
///
/// # Example
///
/// Procedure 3 keeps the feasible distance non-increasing for a fixed
/// sequence number, which is what makes successor changes loop-safe:
///
/// ```
/// use ldr::route_table::{AdvertOutcome, RouteTable};
/// use ldr::seqno::SeqNo;
/// use manet_sim::packet::NodeId;
/// use manet_sim::time::SimTime;
///
/// let mut rt = RouteTable::new();
/// let sn = SeqNo::initial();
/// let (now, exp) = (SimTime::from_secs(1), SimTime::from_secs(10));
/// rt.consider_advertisement(NodeId(9), sn, 4, NodeId(2), now, exp);
/// assert_eq!(rt.get(NodeId(9)).unwrap().fd, 5);
/// // A shorter advert from another neighbour is feasible (4 - 1 < 5):
/// let out = rt.consider_advertisement(NodeId(9), sn, 2, NodeId(3), now, exp);
/// assert_eq!(out, AdvertOutcome::Installed);
/// assert_eq!(rt.get(NodeId(9)).unwrap().fd, 3);
/// // An equal-distance advert is not (NDC): the table is unchanged.
/// let out = rt.consider_advertisement(NodeId(9), sn, 3, NodeId(4), now, exp);
/// assert_eq!(out, AdvertOutcome::Infeasible);
/// ```
///
/// Loop freedom (Theorem 4) needs every entry change to go through
/// Procedure 3 here, so no method hands out a `&mut RouteEntry`: code
/// outside this module can read entries but not write them.
///
/// ```compile_fail,E0599
/// # use ldr::route_table::RouteTable;
/// # use manet_sim::packet::NodeId;
/// let mut rt = RouteTable::new();
/// if let Some(e) = rt.get_mut(NodeId(9)) {
///     e.fd = 0;
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    /// Keyed by destination; every iteration is sorted before it can
    /// influence anything observable, so the deterministic fast hasher
    /// is sound here.
    entries: FxMap<NodeId, RouteEntry>,
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow an entry.
    pub fn get(&self, dest: NodeId) -> Option<&RouteEntry> {
        self.entries.get(&dest)
    }

    /// The invariants this node holds for `dest` (history included).
    pub fn invariants(&self, dest: NodeId) -> Invariants {
        self.get(dest).map_or(Invariants::NONE, |e| e.invariants())
    }

    /// The active entry for `dest`, if usable now.
    pub fn active(&self, dest: NodeId, now: SimTime) -> Option<&RouteEntry> {
        self.get(dest).filter(|e| e.is_active(now))
    }

    /// Processes an advertisement `(sn*, d*)` for `dest` from
    /// neighbour `via` (Procedure 3 guarded by NDC and the stable-path
    /// rule). `lifetime` is the fresh expiry to apply on success.
    ///
    /// Procedure 3: `sn ← sn*`, `d ← d* + 1`, and `fd ← d` when the
    /// sequence number increased, `fd ← min(fd, d)` when it stayed the
    /// same. The feasible distance is therefore non-increasing for a
    /// fixed sequence number.
    pub fn consider_advertisement(
        &mut self,
        dest: NodeId,
        adv_sn: SeqNo,
        adv_d: Distance,
        via: NodeId,
        now: SimTime,
        expires: SimTime,
    ) -> AdvertOutcome {
        let new_dist = adv_d.saturating_add(1);
        match self.entries.get_mut(&dest) {
            None => {
                self.entries.insert(
                    dest,
                    RouteEntry {
                        seqno: adv_sn,
                        dist: new_dist,
                        fd: new_dist,
                        next_hop: via,
                        valid: true,
                        expires,
                    },
                );
                AdvertOutcome::Installed
            }
            Some(e) => {
                if adv_sn > e.seqno {
                    // Newer sequence number: unconditional reset of the
                    // feasible distance (this is LDR's "path reset").
                    *e = RouteEntry {
                        seqno: adv_sn,
                        dist: new_dist,
                        fd: new_dist,
                        next_hop: via,
                        valid: true,
                        expires,
                    };
                    AdvertOutcome::Installed
                } else if adv_sn == e.seqno {
                    if e.is_active(now) {
                        if via == e.next_hop {
                            // Update through the current successor: the
                            // distance may rise or fall freely (the
                            // successor graph is unchanged), fd only
                            // shrinks.
                            e.dist = new_dist;
                            e.fd = e.fd.min(new_dist);
                            e.expires = e.expires.max(expires);
                            AdvertOutcome::Refreshed
                        } else if adv_d < e.fd && new_dist < e.dist {
                            // NDC-feasible and strictly shorter: switch
                            // (the stable-path rule: prefer the current
                            // successor unless the route improves).
                            e.dist = new_dist;
                            e.fd = e.fd.min(new_dist);
                            e.next_hop = via;
                            e.expires = e.expires.max(expires);
                            AdvertOutcome::Installed
                        } else if adv_d < e.fd {
                            AdvertOutcome::NotBetter
                        } else {
                            AdvertOutcome::Infeasible
                        }
                    } else if adv_d < e.fd {
                        // Re-validating an invalid route needs NDC.
                        e.dist = new_dist;
                        e.fd = e.fd.min(new_dist);
                        e.next_hop = via;
                        e.valid = true;
                        e.expires = expires;
                        AdvertOutcome::Installed
                    } else {
                        AdvertOutcome::Infeasible
                    }
                } else {
                    AdvertOutcome::Infeasible
                }
            }
        }
    }

    /// Whether NDC alone would accept `(sn*, d*)` for `dest`.
    pub fn ndc(&self, dest: NodeId, adv_sn: SeqNo, adv_d: Distance) -> bool {
        ndc_accepts(self.invariants(dest), adv_sn, adv_d)
    }

    /// Invalidates the route to `dest` (keeping `sn`/`fd` history).
    /// Returns the entry if it was active.
    pub fn invalidate(&mut self, dest: NodeId, now: SimTime) -> Option<RouteEntry> {
        let e = self.entries.get_mut(&dest)?;
        let was_active = e.is_active(now);
        e.valid = false;
        was_active.then_some(*e)
    }

    /// Invalidates every active route whose next hop is `via`; returns
    /// the affected destinations with their stored sequence numbers.
    pub fn invalidate_via(&mut self, via: NodeId, now: SimTime) -> Vec<(NodeId, SeqNo)> {
        let mut out = Vec::new();
        #[expect(clippy::iter_over_hash_type, reason = "order-free flag clear; `out` is sorted")]
        for (&dest, e) in self.entries.iter_mut() {
            if e.next_hop == via && e.is_active(now) {
                e.valid = false;
                out.push((dest, e.seqno));
            }
        }
        out.sort_unstable_by_key(|(d, _)| d.0);
        out
    }

    /// Adopts a higher sequence number learned from a RERR: the stored
    /// number rises and the feasible distance resets to infinity (no
    /// distance is yet known under the new number). The route becomes
    /// invalid.
    pub fn adopt_seqno(&mut self, dest: NodeId, sn: SeqNo) {
        match self.entries.get_mut(&dest) {
            Some(e) if sn > e.seqno => {
                e.seqno = sn;
                e.fd = INFINITY;
                e.dist = INFINITY;
                e.valid = false;
            }
            Some(_) => {}
            None => {
                self.entries.insert(
                    dest,
                    RouteEntry {
                        seqno: sn,
                        dist: INFINITY,
                        fd: INFINITY,
                        next_hop: dest,
                        valid: false,
                        expires: SimTime::ZERO,
                    },
                );
            }
        }
    }

    /// Forces the entry for `dest` to expire immediately, as if its
    /// soft-state lifetime had elapsed: `expires` drops to the epoch
    /// while `valid` and the `sn`/`fd` history are untouched (a timeout
    /// is not an invalidation). Returns whether an entry existed.
    ///
    /// This models the passage of time for callers that drive the
    /// protocol without a clock — the model checker's
    /// route-table-timeout transition.
    pub fn force_expire(&mut self, dest: NodeId) -> bool {
        match self.entries.get_mut(&dest) {
            Some(e) => {
                e.expires = SimTime::ZERO;
                true
            }
            None => false,
        }
    }

    /// Extends the lifetime of an entry (route used by data traffic).
    pub fn refresh(&mut self, dest: NodeId, expires: SimTime) {
        if let Some(e) = self.entries.get_mut(&dest) {
            e.expires = e.expires.max(expires);
        }
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (&NodeId, &RouteEntry)> {
        self.entries.iter()
    }

    /// Number of entries (history included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sn(c: u32) -> SeqNo {
        SeqNo { epoch: 1, counter: c }
    }
    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn install_fresh_route_sets_fd_to_dist() {
        let mut rt = RouteTable::new();
        let out = rt.consider_advertisement(NodeId(9), sn(1), 3, NodeId(2), t(0), t(10));
        assert_eq!(out, AdvertOutcome::Installed);
        let e = rt.get(NodeId(9)).unwrap();
        assert_eq!((e.dist, e.fd, e.next_hop), (4, 4, NodeId(2)));
        assert!(e.is_active(t(5)));
        assert!(!e.is_active(t(10)));
    }

    #[test]
    fn newer_seqno_resets_fd_even_to_larger_distance() {
        let mut rt = RouteTable::new();
        rt.consider_advertisement(NodeId(9), sn(1), 1, NodeId(2), t(0), t(10));
        // fd is now 2. A newer seqno at much larger distance must win.
        let out = rt.consider_advertisement(NodeId(9), sn(2), 9, NodeId(3), t(1), t(10));
        assert_eq!(out, AdvertOutcome::Installed);
        let e = rt.get(NodeId(9)).unwrap();
        assert_eq!((e.seqno, e.dist, e.fd, e.next_hop), (sn(2), 10, 10, NodeId(3)));
    }

    #[test]
    fn same_seqno_shorter_route_switches_successor() {
        let mut rt = RouteTable::new();
        rt.consider_advertisement(NodeId(9), sn(1), 4, NodeId(2), t(0), t(10));
        // fd = 5; a d* = 2 advert from another neighbour is feasible
        // and shorter.
        let out = rt.consider_advertisement(NodeId(9), sn(1), 2, NodeId(4), t(1), t(10));
        assert_eq!(out, AdvertOutcome::Installed);
        let e = rt.get(NodeId(9)).unwrap();
        assert_eq!((e.dist, e.fd, e.next_hop), (3, 3, NodeId(4)));
    }

    #[test]
    fn same_seqno_equal_or_longer_does_not_switch() {
        let mut rt = RouteTable::new();
        rt.consider_advertisement(NodeId(9), sn(1), 2, NodeId(2), t(0), t(10));
        // fd = 3. d* = 2 from another neighbour: feasible but not an
        // improvement over dist 3 -> NotBetter... new_dist = 3 == dist.
        let out = rt.consider_advertisement(NodeId(9), sn(1), 2, NodeId(4), t(1), t(10));
        assert_eq!(out, AdvertOutcome::NotBetter);
        assert_eq!(rt.get(NodeId(9)).unwrap().next_hop, NodeId(2));
        // d* >= fd: infeasible outright.
        let out = rt.consider_advertisement(NodeId(9), sn(1), 3, NodeId(4), t(1), t(10));
        assert_eq!(out, AdvertOutcome::Infeasible);
    }

    #[test]
    fn current_successor_may_report_longer_distance() {
        let mut rt = RouteTable::new();
        rt.consider_advertisement(NodeId(9), sn(1), 2, NodeId(2), t(0), t(10));
        // Same successor, distance grew (mobility): accept, fd keeps.
        let out = rt.consider_advertisement(NodeId(9), sn(1), 6, NodeId(2), t(1), t(12));
        assert_eq!(out, AdvertOutcome::Refreshed);
        let e = rt.get(NodeId(9)).unwrap();
        assert_eq!((e.dist, e.fd), (7, 3));
        assert_eq!(e.expires, t(12));
    }

    #[test]
    fn fd_is_monotone_nonincreasing_for_fixed_seqno() {
        let mut rt = RouteTable::new();
        rt.consider_advertisement(NodeId(9), sn(1), 5, NodeId(2), t(0), t(10));
        let mut last_fd = rt.get(NodeId(9)).unwrap().fd;
        for (d, via) in [(4u32, 3u16), (6, 2), (3, 4), (2, 5), (9, 5)] {
            rt.consider_advertisement(NodeId(9), sn(1), d, NodeId(via), t(1), t(10));
            let fd = rt.get(NodeId(9)).unwrap().fd;
            assert!(fd <= last_fd, "fd rose from {last_fd} to {fd}");
            last_fd = fd;
        }
    }

    #[test]
    fn invalid_route_revalidation_requires_ndc() {
        let mut rt = RouteTable::new();
        rt.consider_advertisement(NodeId(9), sn(1), 2, NodeId(2), t(0), t(10));
        rt.invalidate(NodeId(9), t(1));
        // fd = 3 survives invalidation; d* = 3 >= fd rejected.
        let out = rt.consider_advertisement(NodeId(9), sn(1), 3, NodeId(4), t(2), t(10));
        assert_eq!(out, AdvertOutcome::Infeasible);
        // d* = 2 < fd = 3 accepted.
        let out = rt.consider_advertisement(NodeId(9), sn(1), 2, NodeId(4), t(2), t(10));
        assert_eq!(out, AdvertOutcome::Installed);
        assert!(rt.get(NodeId(9)).unwrap().valid);
    }

    #[test]
    fn invalidate_via_collects_only_active_routes_through_neighbour() {
        let mut rt = RouteTable::new();
        rt.consider_advertisement(NodeId(5), sn(1), 1, NodeId(2), t(0), t(10));
        rt.consider_advertisement(NodeId(6), sn(3), 2, NodeId(2), t(0), t(10));
        rt.consider_advertisement(NodeId(7), sn(1), 1, NodeId(3), t(0), t(10));
        rt.consider_advertisement(NodeId(8), sn(1), 1, NodeId(2), t(0), t(2));
        let lost = rt.invalidate_via(NodeId(2), t(5)); // entry 8 already expired
        let dests: Vec<u16> = lost.iter().map(|(d, _)| d.0).collect();
        assert_eq!(dests, vec![5, 6]);
        assert!(!rt.get(NodeId(5)).unwrap().valid);
        assert!(rt.get(NodeId(7)).unwrap().is_active(t(5)));
    }

    #[test]
    fn adopt_seqno_resets_fd_to_infinity() {
        let mut rt = RouteTable::new();
        rt.consider_advertisement(NodeId(9), sn(1), 2, NodeId(2), t(0), t(10));
        rt.adopt_seqno(NodeId(9), sn(4));
        let e = rt.get(NodeId(9)).unwrap();
        assert_eq!(e.seqno, sn(4));
        assert_eq!(e.fd, INFINITY);
        assert!(!e.valid);
        // Older adoption is a no-op.
        rt.adopt_seqno(NodeId(9), sn(2));
        assert_eq!(rt.get(NodeId(9)).unwrap().seqno, sn(4));
        // Unknown destination: records history.
        rt.adopt_seqno(NodeId(11), sn(2));
        assert_eq!(rt.invariants(NodeId(11)).sn, Some(sn(2)));
    }

    #[test]
    fn successors_lists_active_only() {
        let mut rt = RouteTable::new();
        rt.consider_advertisement(NodeId(5), sn(1), 1, NodeId(2), t(0), t(10));
        rt.consider_advertisement(NodeId(6), sn(1), 1, NodeId(3), t(0), t(10));
        rt.invalidate(NodeId(6), t(1));
        // The loop auditors' successor lists keep only active entries.
        assert_eq!(rt.active(NodeId(5), t(1)).map(|e| e.next_hop), Some(NodeId(2)));
        assert!(rt.active(NodeId(6), t(1)).is_none());
        assert!(rt.get(NodeId(6)).is_some(), "invalidation keeps the history");
    }

    #[test]
    fn refresh_extends_but_never_shortens() {
        let mut rt = RouteTable::new();
        rt.consider_advertisement(NodeId(5), sn(1), 1, NodeId(2), t(0), t(10));
        rt.refresh(NodeId(5), t(20));
        assert_eq!(rt.get(NodeId(5)).unwrap().expires, t(20));
        rt.refresh(NodeId(5), t(15));
        assert_eq!(rt.get(NodeId(5)).unwrap().expires, t(20));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Whatever sequence of advertisements arrives, for a fixed
        /// sequence number the feasible distance never increases, and
        /// fd <= dist always holds (the paper's key table invariant).
        #[test]
        fn fd_invariants_hold_under_random_advertisements() {
            proptest!(|(ops in proptest::collection::vec(
                (0u32..3, 0u32..15, 0u16..6), 1..80
            ))| {
                let mut rt = RouteTable::new();
                let mut fd_per_sn: FxMap<u32, u32> = FxMap::default();
                for (i, (c, d, via)) in ops.iter().enumerate() {
                    let now = t(i as u64);
                    let expires = t(i as u64 + 5);
                    rt.consider_advertisement(NodeId(99), sn(*c), *d, NodeId(*via), now, expires);
                    let e = *rt.get(NodeId(99)).unwrap();
                    prop_assert!(e.fd <= e.dist, "fd {} > dist {}", e.fd, e.dist);
                    if let Some(prev) = fd_per_sn.get(&e.seqno.counter) {
                        prop_assert!(e.fd <= *prev, "fd rose under fixed sn");
                    }
                    fd_per_sn.insert(e.seqno.counter, e.fd);
                }
            });
        }
    }
}
