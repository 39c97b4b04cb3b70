//! Deterministic spatial neighbor index for the unit-disk radio.
//!
//! [`World::propagate`](crate::world::World) and
//! [`World::neighbors`](crate::world::World::neighbors) need "every node
//! within radio range of X, in ascending node order" for every frame on
//! the air. The naive answer scans all N nodes per query — O(N) position
//! lookups per transmission, the dominant cost of paper-scale (100-node,
//! 900 s) runs. [`NeighborGrid`] answers the same query from per-node
//! *kinetic candidate lists*: once per simulated second it measures
//! every pair of nodes, and between rebuilds a query walks only the
//! sender's own list and decides most entries from the distance
//! recorded at the rebuild, evaluating exact positions only for the
//! few nodes near the edge of the radio disc. (The type keeps the name
//! of the cell grid it replaced only because the `benchmark/`
//! scoreboard imports it.)
//!
//! # Byte-identity with the linear scan
//!
//! The lists are an *index*, not an approximation. The world builds
//! one exactly when the mobility model promises a finite speed bound
//! ([`MobilityModel::max_speed_mps`]) and scans all nodes otherwise;
//! the same trajectories produce bit-for-bit identical metrics and
//! traces either way. Three properties make this hold:
//!
//! 1. **The slack bound.** A rebuild at `t_r` records every pair's
//!    distance `d_r`. Neither endpoint outruns `v_max` (the model's
//!    promise, [`MobilityModel::max_speed_mps`]; models that promise no
//!    bound get no index), so by the triangle inequality the
//!    distance at `now = t_r + dt` is within `s(dt) = 2 · v_max · dt`
//!    of `d_r`: `d_r > range + s(dt)` proves the pair out of range,
//!    `d_r ≤ range − s(dt)` proves it in range without looking at
//!    either node, and a list holding every pair with
//!    `d_r ≤ range + s(T)`, `T` the rebuild period, misses nobody
//!    before the next rebuild. `s` is padded to
//!    `2 · v_max · dt · (1 + 1e-9) + 1 µm` because the promise holds in
//!    real arithmetic only: a leg's travel time is rounded to whole
//!    nanoseconds (≤ `v_max` × 0.5 ns ≈ 10 nm of overshoot per leg, a
//!    relative speed excess under 1e-9 on legs of a second or more),
//!    and `d_r`, the lerp and the distance test round near 1e-12 m. The
//!    pad dwarfs all of it, so a verdict from the bound is the verdict
//!    the float test below would have reached.
//! 2. **Exact filter, same order.** Entries the bound cannot decide —
//!    the annulus `range ± s(dt)` — are filtered by the *exact*
//!    squared-distance test on the *exact* model position, the very
//!    float expression the linear scan evaluates. Lists are built in
//!    ascending node order (the order the linear scan visits), so the
//!    surviving set, its order and — where asked for — the reported
//!    distances are bitwise equal to the linear scan's.
//! 3. **Order-independent mobility.** Positions for nodes the index
//!    never inspects are simply not queried. This is only sound
//!    because every mobility model's trajectory is independent of its
//!    query pattern (random waypoint splits one RNG stream per node at
//!    construction; see [`crate::mobility`]).
//!
//! Builds with `debug_assertions` re-derive every answer from the exact
//! test over *all* nodes, so a mobility model that breaks its speed
//! promise panics instead of silently dropping a neighbour.
//!
//! A node accepted from the bound has no exact distance. Distances have
//! one consumer in the kernel, first-frame capture
//! ([`crate::config::PhyConfig::capture_distance_ratio`]), so the world
//! asks for them ([`NeighborGrid::query_into`], which evaluates every
//! entry not proven *out*) only when capture is configured and takes
//! ids alone (`query_ids_into`) otherwise.
//!
//! # Epoch-based position caching
//!
//! Exact positions are served through a per-node cache keyed on the
//! mobility *leg*: [`MobilityModel::motion_leg`] returns the node's
//! current straight-line segment plus a `valid_until` instant through
//! which the model promises the leg describes the trajectory exactly
//! (the rest of a random-waypoint leg and its pause, forever for
//! static nodes). A cache entry is valid for every query time
//! `t ≤ valid_until` — the epoch invalidation rule — and positions
//! inside the window are evaluated with the *same* canonical
//! [`MotionLeg::pos_at`] formula the model itself uses, so cached
//! answers are bitwise equal to direct lookups. Simulation time never
//! decreases, so expired entries are refreshed in place and never
//! resurrected.
//!
//! # Determinism
//!
//! The index draws no randomness, reads no clocks and iterates only
//! `Vec`s in index order (no hash maps). Rebuild instants are a pure function of query
//! times, which are simulation times.

use crate::geometry::Position;
use crate::mobility::{MobilityModel, MotionLeg};
use crate::packet::NodeId;
use crate::time::{SimDuration, SimTime};

/// Per-node kinetic candidate lists over the node population. Owned by
/// the [`World`](crate::world::World) behind a `RefCell` (range queries
/// are logically read-only but advance the cache and the rebuild epoch).
#[derive(Clone, Debug)]
pub struct NeighborGrid {
    /// Radio range in metres (the unit-disk radius).
    range: f64,
    /// Promised upper bound on node speed, m/s.
    v_max: f64,
    /// How often the lists are rebuilt from fresh positions.
    rebuild_every: SimDuration,
    /// When the lists were last rebuilt; `None` before first use.
    rebuilt_at: Option<SimTime>,
    /// Per node, ascending by id (the linear scan's visit order, so
    /// survivors need no sort): every node within `range + s(T)` at
    /// the last rebuild, with the pair's distance `d_r` then.
    candidates: Vec<Vec<(NodeId, f64)>>,
    /// Rebuild scratch: every node's position at the rebuild instant.
    positions: Vec<Position>,
    /// Motion-leg cache, one entry per node (see the module docs).
    cache: Vec<MotionLeg>,
}

/// The exact position of `node` at `now`, from the epoch cache while
/// the leg promise covers `now`, from the model otherwise — bitwise
/// equal to `mobility.position(node, now)` either way, because hit and
/// miss alike evaluate the canonical [`MotionLeg::pos_at`].
fn position_of(
    cache: &mut [MotionLeg],
    mobility: &dyn MobilityModel,
    node: NodeId,
    now: SimTime,
) -> Position {
    let leg = &mut cache[node.index()];
    if now > leg.valid_until {
        *leg = mobility.motion_leg(node, now);
    }
    leg.pos_at(now)
}

impl NeighborGrid {
    /// Builds an (initially unpopulated) index for `n` nodes with the
    /// given radio range and speed bound. The first query populates it.
    ///
    /// # Panics
    ///
    /// Panics unless `range` is positive and finite and `v_max` is
    /// finite and non-negative.
    pub fn new(n: usize, range: f64, v_max: f64) -> Self {
        assert!(range.is_finite() && range > 0.0, "bad radio range {range}");
        assert!(v_max.is_finite() && v_max >= 0.0, "bad speed bound {v_max}");
        NeighborGrid {
            range,
            v_max,
            // One rebuild per simulated second keeps the slack under
            // `2 · v_max` metres (40 m for the paper's random waypoint,
            // small against the 275 m range, so few entries need the
            // exact test) and amortises the O(N²) rebuild over the
            // thousands of queries a second holds.
            rebuild_every: SimDuration::from_secs(1),
            rebuilt_at: None,
            candidates: vec![Vec::new(); n],
            positions: Vec::with_capacity(n),
            cache: vec![MotionLeg::parked(Position::new(0.0, 0.0), SimTime::ZERO); n],
        }
    }

    /// Number of nodes the index covers.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the index covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// `s(dt)`: how far a pair's distance can have changed in `dt`,
    /// padded against rounding (module docs, property 1).
    fn slack(&self, dt: SimDuration) -> f64 {
        2.0 * self.v_max * dt.as_secs_f64() * (1.0 + 1e-9) + 1e-6
    }

    /// Rebuilds the lists from fresh positions if the epoch has lapsed
    /// (or on first use); returns the age of the lists as they now are.
    fn epoch_age(&mut self, mobility: &dyn MobilityModel, now: SimTime) -> SimDuration {
        match self.rebuilt_at {
            Some(at) if now < at + self.rebuild_every => return now.saturating_since(at),
            _ => {}
        }
        let first = self.rebuilt_at.is_none();
        self.positions.clear();
        for (i, leg) in self.cache.iter_mut().enumerate() {
            if first || now > leg.valid_until {
                *leg = mobility.motion_leg(NodeId(i as u16), now);
            }
            self.positions.push(leg.pos_at(now));
        }
        let reach = self.range + self.slack(self.rebuild_every);
        let reach_sq = reach * reach;
        self.candidates.iter_mut().for_each(Vec::clear);
        // List k receives ids below k while the outer loop is below k,
        // then ids above k from its own inner loop: ascending.
        for i in 0..self.positions.len() {
            for j in i + 1..self.positions.len() {
                let d_sq = self.positions[i].distance_sq(self.positions[j]);
                if d_sq <= reach_sq {
                    let d_r = d_sq.sqrt();
                    self.candidates[i].push((NodeId(j as u16), d_r));
                    self.candidates[j].push((NodeId(i as u16), d_r));
                }
            }
        }
        self.rebuilt_at = Some(now);
        SimDuration::ZERO
    }

    /// The walk behind both entry points: with `DIST` every survivor
    /// carries its exact squared distance; without, entries the slack
    /// bound proves in range are accepted untouched and slots are NaN.
    fn walk<const DIST: bool>(
        &mut self,
        mobility: &dyn MobilityModel,
        of: NodeId,
        now: SimTime,
        out: &mut Vec<(NodeId, f64)>,
    ) {
        out.clear();
        let age = self.epoch_age(mobility, now);
        let slack = self.slack(age);
        let (sure_in, sure_out) = (self.range - slack, self.range + slack);
        let range_sq = self.range * self.range;
        // The sender's position, evaluated by the first entry to need it.
        let mut center = None;
        for &(id, d_r) in &self.candidates[of.index()] {
            if d_r > sure_out {
                continue;
            }
            if !DIST && d_r <= sure_in {
                out.push((id, f64::NAN));
                continue;
            }
            let center =
                *center.get_or_insert_with(|| position_of(&mut self.cache, mobility, of, now));
            let d = position_of(&mut self.cache, mobility, id, now).distance_sq(center);
            if d <= range_sq {
                out.push((id, if DIST { d } else { f64::NAN }));
            }
        }
        if cfg!(debug_assertions) {
            self.assert_matches_scan(mobility, of, now, out);
        }
    }

    /// The `debug_assertions` cross-check: the answer in `out` must be
    /// exactly the set the exact test admits over *all* nodes — every
    /// sure-in and sure-out verdict, and every pair left off the list.
    fn assert_matches_scan(
        &mut self,
        mobility: &dyn MobilityModel,
        of: NodeId,
        now: SimTime,
        out: &[(NodeId, f64)],
    ) {
        let center = position_of(&mut self.cache, mobility, of, now);
        let mut listed = out.iter().map(|&(id, _)| id).peekable();
        for id in (0..self.cache.len() as u16).map(NodeId).filter(|&id| id != of) {
            let d = position_of(&mut self.cache, mobility, id, now).distance_sq(center);
            assert_eq!(
                listed.next_if_eq(&id).is_some(),
                d <= self.range * self.range,
                "neighbour index disagrees with the exact test for {of:?}–{id:?} at {now:?}: \
                 the mobility model broke its max_speed_mps promise of {} m/s",
                self.v_max
            );
        }
    }

    /// Every node within radio range of `of` at `now`, **excluding**
    /// `of` itself, in ascending node order, with its exact squared
    /// distance — appended to `out` (cleared first). Bitwise equal
    /// (set, order and distances) to the linear scan over all nodes.
    pub fn query_into(
        &mut self,
        mobility: &dyn MobilityModel,
        of: NodeId,
        now: SimTime,
        out: &mut Vec<(NodeId, f64)>,
    ) {
        self.walk::<true>(mobility, of, now, out);
    }

    /// [`NeighborGrid::query_into`] without the distances: the same
    /// nodes in the same order, every distance slot NaN, and nodes the
    /// slack bound proves in range never looked at.
    pub(crate) fn query_ids_into(
        &mut self,
        mobility: &dyn MobilityModel,
        of: NodeId,
        now: SimTime,
        out: &mut Vec<(NodeId, f64)>,
    ) {
        self.walk::<false>(mobility, of, now, out);
    }

    /// Allocating convenience wrapper around [`NeighborGrid::query_into`].
    pub fn query(
        &mut self,
        mobility: &dyn MobilityModel,
        of: NodeId,
        now: SimTime,
    ) -> Vec<(NodeId, f64)> {
        let mut out = Vec::new();
        self.query_into(mobility, of, now, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Terrain;
    use crate::mobility::{RandomWaypoint, StaticMobility};
    use crate::rng::SimRng;

    /// Reference linear scan matching `World`'s un-indexed path.
    fn linear(
        mobility: &dyn MobilityModel,
        of: NodeId,
        now: SimTime,
        range: f64,
    ) -> Vec<(NodeId, f64)> {
        let p = mobility.position(of, now);
        let range_sq = range * range;
        (0..mobility.len() as u16)
            .map(NodeId)
            .filter(|&m| m != of)
            .filter_map(|m| {
                let d = mobility.position(m, now).distance_sq(p);
                (d <= range_sq).then_some((m, d))
            })
            .collect()
    }

    #[test]
    fn matches_linear_scan_on_static_line() {
        let m = StaticMobility::line(10, 200.0);
        let mut g = NeighborGrid::new(10, 275.0, 0.0);
        for node in 0..10u16 {
            let got = g.query(&m, NodeId(node), SimTime::from_secs(1));
            assert_eq!(got, linear(&m, NodeId(node), SimTime::from_secs(1), 275.0));
        }
    }

    #[test]
    fn matches_linear_scan_under_random_waypoint_over_time() {
        let terrain = Terrain::new(1500.0, 300.0);
        let mk = || {
            RandomWaypoint::new(
                30,
                terrain,
                SimDuration::from_secs(2),
                1.0,
                20.0,
                SimRng::stream(42, "mobility"),
            )
        };
        // Two independent copies: the grid must not perturb trajectories.
        let for_grid = mk();
        let for_linear = mk();
        let mut g = NeighborGrid::new(30, 275.0, 20.0);
        for step in 0..240u64 {
            let now = SimTime::from_millis(step * 250);
            let node = NodeId((step % 30) as u16);
            let got = g.query(&for_grid, node, now);
            let want = linear(&for_linear, node, now, 275.0);
            assert_eq!(got, want, "node {node:?} at {now:?}");
        }
    }

    #[test]
    fn range_boundary_is_inclusive_exactly_like_the_scan() {
        // Node 1 exactly at range, node 2 one ULP-ish beyond.
        let m = StaticMobility::new(vec![
            Position::new(0.0, 0.0),
            Position::new(275.0, 0.0),
            Position::new(275.0000001, 0.0),
        ]);
        let mut g = NeighborGrid::new(3, 275.0, 0.0);
        let got = g.query(&m, NodeId(0), SimTime::ZERO);
        assert_eq!(got, linear(&m, NodeId(0), SimTime::ZERO, 275.0));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, NodeId(1));
    }

    #[test]
    fn cell_edge_nodes_are_not_missed() {
        // Nodes sitting exactly on cell boundaries (multiples of the
        // 275 m cell edge) on both axes.
        let mut positions = Vec::new();
        for i in 0..5 {
            for j in 0..3 {
                positions.push(Position::new(i as f64 * 275.0, j as f64 * 275.0));
            }
        }
        let n = positions.len();
        let m = StaticMobility::new(positions);
        let mut g = NeighborGrid::new(n, 275.0, 0.0);
        for node in 0..n as u16 {
            let got = g.query(&m, NodeId(node), SimTime::from_secs(3));
            assert_eq!(got, linear(&m, NodeId(node), SimTime::from_secs(3), 275.0), "node {node}");
        }
    }

    #[test]
    fn stale_buckets_between_rebuilds_still_answer_exactly() {
        let terrain = Terrain::new(600.0, 600.0);
        let mk = || {
            RandomWaypoint::new(
                12,
                terrain,
                SimDuration::ZERO,
                20.0,
                20.0, // fastest legal nodes: maximum drift per epoch
                SimRng::stream(5, "mobility"),
            )
        };
        let for_grid = mk();
        let for_linear = mk();
        let mut g = NeighborGrid::new(12, 275.0, 20.0);
        // Force a rebuild at t=0, then query just before the next
        // rebuild instant, when drift slack is at its maximum.
        g.query(&for_grid, NodeId(0), SimTime::ZERO);
        let now = SimTime::from_millis(999);
        for node in 0..12u16 {
            let got = g.query(&for_grid, NodeId(node), now);
            assert_eq!(got, linear(&for_linear, NodeId(node), now, 275.0), "node {node}");
        }
    }

    #[test]
    fn single_node_population() {
        let m = StaticMobility::line(1, 100.0);
        let mut g = NeighborGrid::new(1, 275.0, 0.0);
        assert_eq!(g.len(), 1);
        assert!(g.query(&m, NodeId(0), SimTime::ZERO).is_empty());
    }

    /// The ids-only entry's answer, checked to carry no distances.
    fn ids(
        g: &mut NeighborGrid,
        mobility: &dyn MobilityModel,
        of: NodeId,
        now: SimTime,
    ) -> Vec<NodeId> {
        let mut out = Vec::new();
        g.query_ids_into(mobility, of, now, &mut out);
        assert!(out.iter().all(|(_, d)| d.is_nan()), "ids-only slots must stay NaN");
        out.into_iter().map(|(id, _)| id).collect()
    }

    fn linear_ids(
        mobility: &dyn MobilityModel,
        of: NodeId,
        now: SimTime,
        range: f64,
    ) -> Vec<NodeId> {
        linear(mobility, of, now, range).into_iter().map(|(id, _)| id).collect()
    }

    #[test]
    fn ids_only_matches_linear_scan_coarsely_and_across_a_rebuild_instant() {
        let mk = || {
            RandomWaypoint::new(
                30,
                Terrain::new(1500.0, 300.0),
                SimDuration::from_secs(2),
                1.0,
                20.0,
                SimRng::stream(43, "mobility"),
            )
        };
        let (for_grid, for_linear) = (mk(), mk());
        let mut g = NeighborGrid::new(30, 275.0, 20.0);
        let mut check = |now: SimTime| {
            for node in (0..30).map(NodeId) {
                let got = ids(&mut g, &for_grid, node, now);
                assert_eq!(got, linear_ids(&for_linear, node, now, 275.0), "{node:?} at {now:?}");
            }
        };
        // 61 s in 250 ms steps: every fourth step lands exactly on a
        // rebuild instant (the rebuild-on-equality edge, `dt = 0`).
        (0..=244).for_each(|step| check(SimTime::from_millis(step * 250)));
        // 1 µs steps from 10 µs before the next rebuild instant to 10 µs
        // after it: `dt → T`, the rebuild itself, `dt` just above 0.
        (0..=20).for_each(|us| check(SimTime::from_nanos(61_999_990_000 + us * 1_000)));
    }

    #[test]
    fn ids_only_on_static_nodes_decides_the_boundary_by_the_exact_test() {
        // `v_max = 0`: the slack is the 1 µm pad alone, at any age.
        // Node 1 sits exactly at range, node 2 one nanometre beyond,
        // node 3 well inside (accepted from the bound, never evaluated).
        let m = StaticMobility::new(vec![
            Position::new(0.0, 0.0),
            Position::new(275.0, 0.0),
            Position::new(275.000000001, 0.0),
            Position::new(0.0, 100.0),
        ]);
        let mut g = NeighborGrid::new(4, 275.0, 0.0);
        for now in [SimTime::ZERO, SimTime::from_millis(999), SimTime::from_secs(7)] {
            for node in (0..4).map(NodeId) {
                let got = ids(&mut g, &m, node, now);
                assert_eq!(got, linear_ids(&m, node, now, 275.0), "{node:?} at {now:?}");
            }
            assert_eq!(ids(&mut g, &m, NodeId(0), now), vec![NodeId(1), NodeId(3)]);
        }
    }

    #[test]
    fn degenerate_speed_bound_still_matches_the_linear_scan() {
        // 2 · 200 m/s · 1 s > 275 m: nothing is ever sure-in, and on a
        // field this small every node is every node's candidate.
        let mk = || {
            RandomWaypoint::new(
                16,
                Terrain::new(500.0, 300.0),
                SimDuration::ZERO,
                100.0,
                200.0,
                SimRng::stream(44, "mobility"),
            )
        };
        let (for_grid, for_linear) = (mk(), mk());
        let mut g = NeighborGrid::new(16, 275.0, 200.0);
        for step in 0..120u64 {
            let now = SimTime::from_millis(step * 130);
            for node in (0..16).map(NodeId) {
                let want = linear(&for_linear, node, now, 275.0);
                assert_eq!(g.query(&for_grid, node, now), want, "{node:?} at {now:?}");
                let want_ids: Vec<_> = want.into_iter().map(|(id, _)| id).collect();
                assert_eq!(ids(&mut g, &for_grid, node, now), want_ids, "{node:?} at {now:?}");
            }
        }
        assert!(g.candidates.iter().all(|list| list.len() == 15));
    }

    /// A model that outruns the speed bound the index was given: the
    /// release build would silently miss the neighbour, the
    /// `debug_assertions` cross-check must not.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "broke its max_speed_mps promise")]
    fn broken_speed_promise_fails_loudly_under_debug_assertions() {
        use crate::mobility::ScriptedMobility;
        let m = ScriptedMobility::new(vec![
            vec![(SimTime::ZERO, Position::new(0.0, 0.0))],
            vec![
                (SimTime::ZERO, Position::new(400.0, 0.0)),
                (SimTime::from_secs(1), Position::new(100.0, 0.0)),
            ],
        ]);
        let mut g = NeighborGrid::new(2, 275.0, 0.0);
        assert!(g.query(&m, NodeId(0), SimTime::ZERO).is_empty());
        g.query(&m, NodeId(0), SimTime::from_millis(900));
    }

    /// Property-based differential suite: for arbitrary populations,
    /// terrains, speeds and query schedules, the grid's answer must be
    /// `Vec`-equal (same set, same ascending order, bitwise-same
    /// distances) to the linear scan's. The generators deliberately
    /// construct the adversarial geometries — nodes exactly on cell
    /// edges and exactly at the range boundary — where an off-by-one in
    /// the cell walk or a `<` / `<=` slip in the filter would show.
    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Random-waypoint differential: independent mobility
            /// copies (the grid must not perturb trajectories), a
            /// randomized query schedule crossing several rebuild
            /// epochs, arbitrary terrain shapes and speed bounds.
            #[test]
            fn grid_matches_linear_under_random_waypoint(
                seed in 1u64..1_000_000,
                n in 2usize..40,
                width in 300u32..2500,
                height in 100u32..900,
                pause in prop::sample::select(vec![0u64, 1, 30]),
                vmax_dm in 10u32..300, // 1.0 .. 30.0 m/s in decimetres
                step_ms in 37u64..900,
            ) {
                let vmax = f64::from(vmax_dm) / 10.0;
                let terrain = Terrain::new(f64::from(width), f64::from(height));
                let mk = || {
                    RandomWaypoint::new(
                        n,
                        terrain,
                        SimDuration::from_secs(pause),
                        0.5,
                        vmax,
                        SimRng::stream(seed, "mobility"),
                    )
                };
                let for_grid = mk();
                let for_linear = mk();
                let mut g = NeighborGrid::new(n, 275.0, vmax);
                for step in 0..60u64 {
                    let now = SimTime::from_millis(step * step_ms);
                    let node = NodeId((step as usize % n) as u16);
                    let got = g.query(&for_grid, node, now);
                    let want = linear(&for_linear, node, now, 275.0);
                    prop_assert_eq!(got, want, "node {:?} at {:?}", node, now);
                }
            }

            /// The random-waypoint differential again, for the ids-only
            /// entry, with every query instant jittered off the step
            /// lattice so the age of the lists at query time is
            /// arbitrary.
            #[test]
            fn ids_only_matches_linear_under_random_waypoint_with_jitter(
                seed in 1u64..1_000_000,
                n in 2usize..40,
                width in 300u32..2500,
                height in 100u32..900,
                pause in prop::sample::select(vec![0u64, 1, 30]),
                vmax_dm in 10u32..300,
                step_ms in 37u64..900,
                jitter_ns in proptest::collection::vec(0u64..30_000_000, 60..61),
            ) {
                let vmax = f64::from(vmax_dm) / 10.0;
                let terrain = Terrain::new(f64::from(width), f64::from(height));
                let mk = || {
                    RandomWaypoint::new(
                        n,
                        terrain,
                        SimDuration::from_secs(pause),
                        0.5,
                        vmax,
                        SimRng::stream(seed, "mobility"),
                    )
                };
                let for_grid = mk();
                let for_linear = mk();
                let mut g = NeighborGrid::new(n, 275.0, vmax);
                for (step, jitter) in jitter_ns.iter().enumerate() {
                    let now = SimTime::from_nanos(step as u64 * step_ms * 1_000_000 + jitter);
                    let node = NodeId((step % n) as u16);
                    let got = ids(&mut g, &for_grid, node, now);
                    let want = linear_ids(&for_linear, node, now, 275.0);
                    prop_assert_eq!(got, want, "node {:?} at {:?}", node, now);
                }
            }

            /// Static lattice differential: nodes on exact multiples of
            /// the cell edge (cell-boundary aliasing) with tiny per-node
            /// jitters on either side, plus one node at *exactly* the
            /// radio range from the origin node (the inclusive-boundary
            /// case) and one just beyond it.
            #[test]
            fn grid_matches_linear_on_cell_edges_and_range_boundary(
                range_dm in 500u32..4000, // 50.0 .. 400.0 m in decimetres
                cols in 1usize..6,
                rows in 1usize..4,
                jitters in proptest::collection::vec(
                    prop::sample::select(vec![-0.5f64, -1e-6, 0.0, 1e-6, 0.5]),
                    8..48,
                ),
            ) {
                let range = f64::from(range_dm) / 10.0;
                let mut positions = Vec::new();
                let mut j = jitters.iter().cycle();
                let mut jit = || *j.next().unwrap_or(&0.0);
                for i in 0..cols {
                    for k in 0..rows {
                        positions.push(Position::new(
                            i as f64 * range + jit(),
                            k as f64 * range + jit(),
                        ));
                    }
                }
                // The inclusive boundary, measured from the first
                // lattice node, and a point strictly beyond it.
                let origin = positions[0];
                positions.push(Position::new(origin.x + range, origin.y));
                positions.push(Position::new(origin.x + range + 1e-7, origin.y));
                let n = positions.len();
                let m = StaticMobility::new(positions);
                let mut g = NeighborGrid::new(n, range, 0.0);
                for t in [SimTime::ZERO, SimTime::from_secs(2)] {
                    for node in 0..n as u16 {
                        let got = g.query(&m, NodeId(node), t);
                        let want = linear(&m, NodeId(node), t, range);
                        prop_assert_eq!(got, want, "node {} at {:?}", node, t);
                    }
                }
            }
        }
    }
}
