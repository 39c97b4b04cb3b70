//! LDR protocol parameters.

use manet_sim::discovery::{ACTIVE_ROUTE_TIMEOUT, NET_DIAMETER, TTL_START};
use manet_sim::time::SimDuration;

/// LOCAL_ADD_TTL (RFC 3561 §10): the TTL margin of the *optimal TTL*
/// seed and of unicast path-reset forwarding.
pub const LOCAL_ADD_TTL: u8 = 2;

/// The discovery retry budget and the §4 optimisations.
///
/// Timing is AODV's, shared through `manet_sim::discovery`'s RFC 3561
/// constants. Defaults match the evaluation, all five suggested
/// optimisations enabled ("The LDR results reflect using the suggested
/// optimizations"). Each optimisation can be disabled individually for
/// the ablation benchmarks.
#[derive(Clone, Debug, PartialEq)]
pub struct LdrConfig {
    /// Total discovery attempts (ring steps plus network-wide retries)
    /// before the route request is abandoned.
    pub max_attempts: u32,

    /// *Multiple RREPs*: a node may relay additional RREPs for the same
    /// `(originator, rreqid)` as long as only strictly stronger
    /// invariants cross over time.
    pub opt_multiple_rreps: bool,
    /// *Request as error*: an RREQ for `D` arriving from this node's
    /// own next hop towards `D` implies that hop lost its route.
    pub opt_request_as_error: bool,
    /// *Reduced distance*: advertise an answering distance of
    /// `max(1, ⌊factor · fd⌋)` in RREQs (paper uses 0.8).
    pub opt_reduced_distance: Option<f64>,
    /// *Minimum lifetime*: do not answer an RREQ from a route with less
    /// than ⅓ ACTIVE_ROUTE_TIMEOUT remaining; relay instead.
    pub opt_minimum_lifetime: bool,
    /// *Optimal TTL*: seed the expanding ring with
    /// `D − FD + LOCAL_ADD_TTL` when prior route state exists.
    pub opt_optimal_ttl: bool,
}

impl Default for LdrConfig {
    fn default() -> Self {
        LdrConfig {
            max_attempts: 5,
            opt_multiple_rreps: true,
            opt_request_as_error: true,
            opt_reduced_distance: Some(0.8),
            opt_minimum_lifetime: true,
            opt_optimal_ttl: true,
        }
    }
}

impl LdrConfig {
    /// LDR with every §4 optimisation disabled (the ablation baseline).
    pub fn without_optimizations() -> Self {
        LdrConfig {
            opt_multiple_rreps: false,
            opt_request_as_error: false,
            opt_reduced_distance: None,
            opt_minimum_lifetime: false,
            opt_optimal_ttl: false,
            ..LdrConfig::default()
        }
    }

    /// The answering distance advertised for a feasible distance `fd`
    /// (*reduced distance* optimisation): "any distance no greater than
    /// the node's feasible distance", here `max(1, ⌊factor · fd⌋)`.
    ///
    /// SDC tests the replier's distance *strictly below* the carried
    /// value, so the bound a replier's distance may *equal* is
    /// `answering_distance − 1`; we therefore advertise
    /// `min(fd, ⌊factor·fd⌋ + 1)`. (With the pure floor the previous
    /// next hop — at distance `fd − 1` — could never answer a
    /// re-discovery over the short paths of these scenarios, forcing a
    /// destination reset on almost every route break, which contradicts
    /// the paper's measured sub-1 mean sequence numbers.) Loop safety
    /// never depends on this value: NDC still gates acceptance at the
    /// requester.
    pub fn answering_distance(&self, fd: u32) -> u32 {
        if fd == u32::MAX {
            return u32::MAX;
        }
        match self.opt_reduced_distance {
            Some(f) => ((((fd as f64) * f).floor() as u32).max(1).saturating_add(1)).min(fd.max(1)),
            None => fd.max(1),
        }
    }

    /// The minimum remaining lifetime a route needs before it may
    /// answer an RREQ (⅓ of ACTIVE_ROUTE_TIMEOUT when the optimisation
    /// is on, zero otherwise).
    pub fn min_reply_lifetime(&self) -> SimDuration {
        if self.opt_minimum_lifetime {
            SimDuration::from_nanos(ACTIVE_ROUTE_TIMEOUT.as_nanos() / 3)
        } else {
            SimDuration::ZERO
        }
    }

    /// The first ring TTL of a discovery (Procedure 1). With prior
    /// route state `(dist, fd#)` and *optimal TTL* enabled it is
    /// `dist − fd# + LOCAL_ADD_TTL`, kept within
    /// `[TTL_START, NET_DIAMETER]`; otherwise TTL_START.
    pub fn ring_base(&self, prior: Option<(u32, u32)>) -> u8 {
        match (self.opt_optimal_ttl, prior) {
            (true, Some((dist, fd_req))) if dist != u32::MAX => {
                let extra = dist.saturating_sub(fd_req) as u8;
                extra.saturating_add(LOCAL_ADD_TTL).clamp(TTL_START, NET_DIAMETER)
            }
            _ => TTL_START,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::discovery::{discovery_timeout, ring_ttl};

    #[test]
    fn defaults_enable_all_optimizations() {
        let c = LdrConfig::default();
        assert!(c.opt_multiple_rreps && c.opt_request_as_error && c.opt_minimum_lifetime);
        assert!(c.opt_optimal_ttl);
        assert_eq!(c.opt_reduced_distance, Some(0.8));
        let b = LdrConfig::without_optimizations();
        assert!(!b.opt_multiple_rreps && b.opt_reduced_distance.is_none());
    }

    #[test]
    fn answering_distance_factor() {
        let c = LdrConfig::default();
        assert_eq!(c.answering_distance(10), 9, "floor(8) + 1");
        assert_eq!(c.answering_distance(6), 5, "floor(4.8) -> 4, + 1");
        // The bound never exceeds fd and never goes below 1.
        assert_eq!(c.answering_distance(5), 5, "short paths effectively unreduced");
        assert_eq!(c.answering_distance(1), 1);
        assert_eq!(c.answering_distance(2), 2);
        assert_eq!(c.answering_distance(u32::MAX), u32::MAX);
        let plain = LdrConfig { opt_reduced_distance: None, ..c };
        assert_eq!(plain.answering_distance(10), 10);
    }

    #[test]
    fn expanding_ring_ttl_sequence() {
        let c = LdrConfig { opt_optimal_ttl: false, ..LdrConfig::default() };
        let ttl = |attempt| ring_ttl(c.ring_base(Some((6, 4))), attempt);
        assert_eq!(ttl(1), 2);
        assert_eq!(ttl(2), 4);
        assert_eq!(ttl(3), 6);
        assert_eq!(ttl(4), 35, "past threshold: diameter");
        assert_eq!(ttl(5), 35);
    }

    #[test]
    fn optimal_ttl_uses_known_distance() {
        let c = LdrConfig::default();
        let first = |prior| ring_ttl(c.ring_base(prior), 1);
        // dist 6, requested fd 4: 6 - 4 + 2 = 4.
        assert_eq!(first(Some((6, 4))), 4);
        // No history falls back to the ring start.
        assert_eq!(first(None), 2);
        // Infinite distance falls back too.
        assert_eq!(first(Some((u32::MAX, 3))), 2);
        // Never below ttl_start nor above the diameter.
        assert_eq!(first(Some((3, 3))), 2);
        assert_eq!(first(Some((200, 1))), 35);
    }

    #[test]
    fn discovery_timeout_scales_with_ttl() {
        assert_eq!(discovery_timeout(2), SimDuration::from_millis(160));
        assert_eq!(discovery_timeout(35), SimDuration::from_millis(2800));
    }

    #[test]
    fn min_reply_lifetime_is_third_of_art() {
        let c = LdrConfig::default();
        assert_eq!(c.min_reply_lifetime(), SimDuration::from_secs(1));
        let off = LdrConfig { opt_minimum_lifetime: false, ..c };
        assert_eq!(off.min_reply_lifetime(), SimDuration::ZERO);
    }
}
