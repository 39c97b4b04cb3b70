//! Node mobility models.
//!
//! The evaluation uses the random waypoint model (speeds uniform in
//! [1, 20] m/s, configurable pause time). Static and scripted models are
//! provided for unit tests and worked examples.
//!
//! Every model answers "where is node `i` at time `t`" one way: with
//! the [`MotionLeg`] the node is on ([`MobilityModel::motion_leg`]).
//! [`MotionLeg::pos_at`] is the one interpolation formula, and
//! [`MobilityModel::position`] is the two composed.
//!
//! # Determinism contract
//!
//! Mobility is a pure function of the trial seed: every model draws
//! exclusively from the [`SimRng`] it was constructed with and never
//! consults wall-clock time or OS entropy, so node trajectories — and
//! therefore connectivity, collisions and every downstream metric — are
//! bit-for-bit reproducible for a given seed (see [`crate::rng`]).
//!
//! [`RandomWaypoint`] additionally splits its seed RNG into one
//! independent stream *per node* at construction, so each node's
//! trajectory is a pure function of `(seed, node)` alone. This makes
//! `position` queries order-independent: skipping or reordering
//! queries (as the spatial neighbor index in [`crate::spatial`] does)
//! cannot change any trajectory, which is what lets grid-backed and
//! linear-scan runs stay byte-identical.

use crate::geometry::{Position, Terrain};
use crate::packet::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;

/// One straight-line motion segment plus the promise horizon through
/// which it describes a node's trajectory exactly.
///
/// `pos_at` is **the** canonical position formula: every model answers
/// position queries through it ([`MobilityModel::position`] is
/// `motion_leg(node, t).pos_at(t)`), and so does the epoch cache in
/// [`crate::spatial`], which is what makes cached and direct lookups
/// bitwise identical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MotionLeg {
    /// Where the node sits until `move_start`.
    pub from: Position,
    /// Where it sits from `move_end` on.
    pub to: Position,
    /// Departure instant.
    pub move_start: SimTime,
    /// Arrival instant.
    pub move_end: SimTime,
    /// The promise: for every `t'` from the query time through
    /// `valid_until`, `pos_at(t')` equals `position(node, t')` bit for
    /// bit. Queries beyond it must fetch a fresh leg — the epoch-cache
    /// invalidation rule.
    pub valid_until: SimTime,
}

impl MotionLeg {
    /// A node parked at `pos` through `valid_until` (degenerate leg).
    pub fn parked(pos: Position, valid_until: SimTime) -> Self {
        MotionLeg {
            from: pos,
            to: pos,
            move_start: SimTime::ZERO,
            move_end: SimTime::ZERO,
            valid_until,
        }
    }

    /// The leg's position at `t`: `from` before departure, `to` from
    /// arrival on, linear interpolation in between.
    pub fn pos_at(&self, t: SimTime) -> Position {
        if t <= self.move_start {
            self.from
        } else if t >= self.move_end {
            self.to
        } else {
            let span = (self.move_end - self.move_start).as_nanos();
            let f = (t - self.move_start).as_nanos() as f64 / span as f64;
            self.from.lerp(self.to, f)
        }
    }
}

/// A mobility model answers "where is node `i` at time `t`" one way:
/// with the [`MotionLeg`] the node is on, which a position cache may
/// keep until the leg's promise runs out.
///
/// Queries take `&self` so that position lookups compose with other
/// immutable borrows of the simulator (`World::neighbors` is a
/// read-only query). Models that advance internal state lazily (e.g.
/// [`RandomWaypoint`]'s legs) keep it behind interior mutability; the
/// simulator only ever queries with non-decreasing times per run
/// (arbitrary re-queries at earlier times are not required to be exact
/// for lazy models, and the built-in models never receive them).
pub trait MobilityModel: Send {
    /// The motion leg covering `node` at `t`, with
    /// [`MotionLeg::valid_until`] `≥ t`.
    fn motion_leg(&self, node: NodeId, t: SimTime) -> MotionLeg;
    /// Position of `node` at time `t`: `motion_leg(node, t).pos_at(t)`.
    fn position(&self, node: NodeId, t: SimTime) -> Position {
        self.motion_leg(node, t).pos_at(t)
    }
    /// Number of nodes this model covers.
    fn len(&self) -> usize;
    /// Whether the model covers zero nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// An upper bound on any node's speed in metres per second, if the
    /// model can promise one. The spatial neighbor index needs a finite
    /// bound to size its query slack; `None` (the conservative default)
    /// disables grid-backed queries and falls back to the linear scan.
    fn max_speed_mps(&self) -> Option<f64> {
        None
    }
}

/// Nodes that never move.
#[derive(Clone, Debug)]
pub struct StaticMobility {
    positions: Vec<Position>,
}

impl StaticMobility {
    /// Fixed positions, one per node.
    pub fn new(positions: Vec<Position>) -> Self {
        StaticMobility { positions }
    }

    /// `n` nodes in a straight horizontal line with the given spacing —
    /// the classic "chain" topology for protocol tests.
    pub fn line(n: usize, spacing: f64) -> Self {
        StaticMobility {
            positions: (0..n).map(|i| Position::new(i as f64 * spacing, 0.0)).collect(),
        }
    }
}

impl MobilityModel for StaticMobility {
    fn motion_leg(&self, node: NodeId, _t: SimTime) -> MotionLeg {
        MotionLeg::parked(self.positions[node.index()], SimTime::MAX)
    }
    fn len(&self) -> usize {
        self.positions.len()
    }
    fn max_speed_mps(&self) -> Option<f64> {
        Some(0.0)
    }
}

/// Piecewise-linear scripted motion: each node follows (time, position)
/// keyframes with linear interpolation, holding the last position
/// afterwards. Used to stage link breaks at exact instants in tests.
#[derive(Clone, Debug)]
pub struct ScriptedMobility {
    /// Per node: keyframes sorted by time; must be non-empty.
    tracks: Vec<Vec<(SimTime, Position)>>,
}

impl ScriptedMobility {
    /// Builds a scripted model.
    ///
    /// # Panics
    ///
    /// Panics if any track is empty or has out-of-order keyframes.
    pub fn new(tracks: Vec<Vec<(SimTime, Position)>>) -> Self {
        for (i, tr) in tracks.iter().enumerate() {
            assert!(!tr.is_empty(), "node {i} has an empty track");
            assert!(tr.windows(2).all(|w| w[0].0 <= w[1].0), "node {i} keyframes out of order");
        }
        ScriptedMobility { tracks }
    }
}

impl MobilityModel for ScriptedMobility {
    fn motion_leg(&self, node: NodeId, t: SimTime) -> MotionLeg {
        let tr = &self.tracks[node.index()];
        // `t` lies on the first keyframe pair ending at or after it;
        // before the first keyframe that pair's leg has not departed.
        let Some(&[(t0, p0), (t1, p1)]) = tr.windows(2).find(|w| t <= w[1].0) else {
            // Past the final keyframe the node parks there for good.
            return MotionLeg::parked(tr[tr.len() - 1].1, SimTime::MAX);
        };
        // The leg answers every instant through the arrival, where
        // `pos_at` reads the keyframe `p1` itself (a zero-span first
        // pair answers the instants through `t0`, at `p0`).
        MotionLeg { from: p0, to: p1, move_start: t0, move_end: t1, valid_until: t1 }
    }
    fn len(&self) -> usize {
        self.tracks.len()
    }
    fn max_speed_mps(&self) -> Option<f64> {
        let mut bound = 0.0f64;
        for tr in &self.tracks {
            for w in tr.windows(2) {
                let (t0, p0) = w[0];
                let (t1, p1) = w[1];
                let span_s = (t1 - t0).as_nanos() as f64 / 1e9;
                let dist = p0.distance(p1);
                if span_s == 0.0 {
                    if dist > 0.0 {
                        // Instant teleport: no finite speed bound exists.
                        return None;
                    }
                } else {
                    bound = bound.max(dist / span_s);
                }
            }
        }
        Some(bound)
    }
}

/// The lazily advanced part of [`RandomWaypoint`], one entry per node:
/// that node's private RNG stream and its current leg (pause at `from`
/// until `move_start`, travel to `to` arriving at `move_end`, then pause
/// through `valid_until`). Kept behind a `RefCell` so queries can take
/// `&self` (they are logically read-only; the legs are a cache of the
/// trajectory the seed determines). Because every node draws from its
/// own stream, advancing one node's legs never perturbs another's —
/// queries are order-independent, which the spatial grid's
/// byte-identity guarantee relies on.
#[derive(Clone, Debug)]
struct NodeRwp {
    rng: SimRng,
    leg: MotionLeg,
}

fn next_leg(
    rng: &mut SimRng,
    terrain: Terrain,
    pause: SimDuration,
    min_speed: f64,
    max_speed: f64,
    from: Position,
    pause_from: SimTime,
) -> MotionLeg {
    let to = terrain.random_position(rng);
    let speed = rng.range_f64(min_speed, max_speed);
    let dist = from.distance(to);
    let move_start = pause_from + pause;
    let move_end = move_start + SimDuration::from_secs_f64(dist / speed);
    // The leg stays current through the post-arrival pause: at the next
    // departure instant the node is still at `to`, the next leg's origin.
    MotionLeg { from, to, move_start, move_end, valid_until: move_end + pause }
}

/// The random waypoint model of the evaluation (§4): each node pauses
/// for `pause`, picks a uniform destination in the terrain and a uniform
/// speed in `[min_speed, max_speed]`, travels there, and repeats.
#[derive(Clone, Debug)]
pub struct RandomWaypoint {
    terrain: Terrain,
    pause: SimDuration,
    min_speed: f64,
    max_speed: f64,
    state: RefCell<Vec<NodeRwp>>,
}

impl RandomWaypoint {
    /// Creates the model with `n` nodes at uniform random initial
    /// positions, initially pausing. The seed RNG is split into one
    /// independent stream per node (in node order), so each trajectory
    /// depends only on `(seed, node)` — never on query order.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_speed <= max_speed`.
    pub fn new(
        n: usize,
        terrain: Terrain,
        pause: SimDuration,
        min_speed: f64,
        max_speed: f64,
        mut rng: SimRng,
    ) -> Self {
        assert!(
            min_speed > 0.0 && min_speed <= max_speed,
            "speeds must satisfy 0 < min <= max (got {min_speed}..{max_speed})"
        );
        let state = (0..n)
            .map(|_| {
                let mut node_rng = rng.split();
                // A real first leg (pause at the start, then move), all
                // drawn from this node's private stream.
                let start = terrain.random_position(&mut node_rng);
                let leg = next_leg(
                    &mut node_rng,
                    terrain,
                    pause,
                    min_speed,
                    max_speed,
                    start,
                    SimTime::ZERO,
                );
                NodeRwp { rng: node_rng, leg }
            })
            .collect();
        RandomWaypoint { terrain, pause, min_speed, max_speed, state: RefCell::new(state) }
    }
}

impl MobilityModel for RandomWaypoint {
    /// Advances `node` past any completed legs and returns its current
    /// leg at `t`.
    fn motion_leg(&self, node: NodeId, t: SimTime) -> MotionLeg {
        let mut st = self.state.borrow_mut();
        let node = &mut st[node.index()];
        while t > node.leg.valid_until {
            node.leg = next_leg(
                &mut node.rng,
                self.terrain,
                self.pause,
                self.min_speed,
                self.max_speed,
                node.leg.to,
                node.leg.move_end,
            );
        }
        node.leg
    }
    fn len(&self) -> usize {
        self.state.borrow().len()
    }
    fn max_speed_mps(&self) -> Option<f64> {
        Some(self.max_speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_line_spacing() {
        let m = StaticMobility::line(4, 200.0);
        assert_eq!(m.len(), 4);
        assert_eq!(m.position(NodeId(3), SimTime::from_secs(5)).x, 600.0);
        assert_eq!(m.position(NodeId(0), SimTime::ZERO).y, 0.0);
    }

    #[test]
    fn scripted_interpolates() {
        let m = ScriptedMobility::new(vec![vec![
            (SimTime::ZERO, Position::new(0.0, 0.0)),
            (SimTime::from_secs(10), Position::new(100.0, 0.0)),
        ]]);
        assert_eq!(m.position(NodeId(0), SimTime::from_secs(5)).x, 50.0);
        assert_eq!(m.position(NodeId(0), SimTime::from_secs(20)).x, 100.0);
        assert_eq!(m.position(NodeId(0), SimTime::ZERO).x, 0.0);
    }

    #[test]
    #[should_panic]
    fn scripted_rejects_empty_track() {
        ScriptedMobility::new(vec![vec![]]);
    }

    #[test]
    fn rwp_stays_in_terrain_with_monotone_queries() {
        let terrain = Terrain::new(1500.0, 300.0);
        let rng = SimRng::stream(1, "mobility");
        let m = RandomWaypoint::new(10, terrain, SimDuration::from_secs(30), 1.0, 20.0, rng);
        for step in 0..900 {
            let t = SimTime::from_secs(step);
            for n in 0..10 {
                let p = m.position(NodeId(n), t);
                assert!(terrain.contains(p), "node {n} escaped at {t:?}: {p:?}");
            }
        }
    }

    #[test]
    fn rwp_nodes_actually_move() {
        let terrain = Terrain::new(1500.0, 300.0);
        let rng = SimRng::stream(2, "mobility");
        let m = RandomWaypoint::new(5, terrain, SimDuration::ZERO, 5.0, 5.0, rng);
        let before = m.position(NodeId(0), SimTime::ZERO);
        let after = m.position(NodeId(0), SimTime::from_secs(60));
        assert!(before.distance(after) > 1.0, "node never moved");
    }

    #[test]
    fn rwp_respects_pause() {
        let terrain = Terrain::new(1000.0, 1000.0);
        let rng = SimRng::stream(3, "mobility");
        let m = RandomWaypoint::new(3, terrain, SimDuration::from_secs(100), 1.0, 2.0, rng);
        // During the initial pause nodes must hold still.
        let p0 = m.position(NodeId(1), SimTime::ZERO);
        let p1 = m.position(NodeId(1), SimTime::from_secs(50));
        let p2 = m.position(NodeId(1), SimTime::from_secs(99));
        assert_eq!(p0, p1);
        assert_eq!(p1, p2);
    }

    #[test]
    fn rwp_speed_bound_respected() {
        let terrain = Terrain::new(2200.0, 600.0);
        let rng = SimRng::stream(4, "mobility");
        let m = RandomWaypoint::new(8, terrain, SimDuration::ZERO, 1.0, 20.0, rng);
        let mut prev: Vec<Position> =
            (0..8).map(|n| m.position(NodeId(n), SimTime::ZERO)).collect();
        for step in 1..=300 {
            let t = SimTime::from_secs(step);
            for n in 0..8u16 {
                let p = m.position(NodeId(n), t);
                let moved = prev[n as usize].distance(p);
                assert!(moved <= 20.0 + 1e-6, "node {n} moved {moved} m in 1 s");
                prev[n as usize] = p;
            }
        }
    }

    #[test]
    #[should_panic]
    fn rwp_rejects_zero_speed() {
        let terrain = Terrain::new(100.0, 100.0);
        RandomWaypoint::new(1, terrain, SimDuration::ZERO, 0.0, 1.0, SimRng::from_seed(0));
    }

    /// The per-node RNG streams make trajectories query-order
    /// independent: a copy that skipped most queries (as the spatial
    /// grid's epoch cache does) must agree with a copy that queried
    /// every node at every step. Queries stay non-decreasing per node,
    /// matching the trait's lazy-advancement contract.
    #[test]
    fn rwp_queries_are_order_independent() {
        let terrain = Terrain::new(1500.0, 300.0);
        let mk = || {
            RandomWaypoint::new(
                6,
                terrain,
                SimDuration::from_secs(5),
                1.0,
                20.0,
                SimRng::stream(7, "mobility"),
            )
        };
        let a = mk();
        let b = mk();
        // Copy `a` skips everyone but node 3 for the first 600 s...
        for step in 0..600 {
            a.position(NodeId(3), SimTime::from_secs(step));
        }
        // ...while copy `b` answers every node at every step.
        for step in 0..600 {
            for n in 0..6 {
                b.position(NodeId(n), SimTime::from_secs(step));
            }
        }
        // From 600 s on the two copies must agree exactly, for every
        // node: the skipped queries perturbed nothing.
        for step in 600..800 {
            let t = SimTime::from_secs(step);
            for n in 0..6 {
                assert_eq!(
                    a.position(NodeId(n), t),
                    b.position(NodeId(n), t),
                    "node {n} diverged at {t:?}"
                );
            }
        }
    }

    /// A leg must agree with `position` through its whole promise, and
    /// a node must sit still before departure and after arrival.
    #[test]
    fn rwp_position_hold_promise_is_sound() {
        let terrain = Terrain::new(1000.0, 1000.0);
        let rng = SimRng::stream(11, "mobility");
        let m = RandomWaypoint::new(4, terrain, SimDuration::from_secs(20), 1.0, 10.0, rng);
        for step in 0..300 {
            let t = SimTime::from_secs(step);
            for n in 0..4 {
                let leg = m.motion_leg(NodeId(n), t);
                let p = m.position(NodeId(n), t);
                assert!(leg.valid_until >= t);
                // Sample inside and at the end of the promise.
                let mid = t + SimDuration::from_nanos((leg.valid_until - t).as_nanos() / 2);
                for x in [mid, leg.valid_until] {
                    assert_eq!(m.position(NodeId(n), x), leg.pos_at(x), "node {n} left its leg");
                    if t <= leg.move_start && x <= leg.move_start || t >= leg.move_end {
                        assert_eq!(leg.pos_at(x), p, "node {n} moved while parked");
                    }
                }
            }
        }
    }

    #[test]
    fn max_speed_bounds() {
        assert_eq!(StaticMobility::line(3, 10.0).max_speed_mps(), Some(0.0));
        let terrain = Terrain::new(100.0, 100.0);
        let rwp =
            RandomWaypoint::new(2, terrain, SimDuration::ZERO, 1.0, 17.5, SimRng::from_seed(9));
        assert_eq!(rwp.max_speed_mps(), Some(17.5));
        // Scripted: 100 m in 10 s = 10 m/s.
        let s = ScriptedMobility::new(vec![vec![
            (SimTime::ZERO, Position::new(0.0, 0.0)),
            (SimTime::from_secs(10), Position::new(100.0, 0.0)),
        ]]);
        assert_eq!(s.max_speed_mps(), Some(10.0));
        // A zero-duration teleport has no finite bound.
        let tele = ScriptedMobility::new(vec![vec![
            (SimTime::ZERO, Position::new(0.0, 0.0)),
            (SimTime::ZERO, Position::new(5.0, 0.0)),
        ]]);
        assert_eq!(tele.max_speed_mps(), None);
    }

    fn bits(p: Position) -> (u64, u64) {
        (p.x.to_bits(), p.y.to_bits())
    }

    /// `position(node, t)` is `motion_leg(node, t).pos_at(t)` bit for
    /// bit, and the leg's promise covers `t`.
    fn assert_leg_answers(m: &dyn MobilityModel, node: NodeId, t: SimTime) {
        let leg = m.motion_leg(node, t);
        assert!(t <= leg.valid_until, "{node:?} at {t:?}: leg ends {:?}", leg.valid_until);
        let (p, q) = (m.position(node, t), leg.pos_at(t));
        assert_eq!(bits(p), bits(q), "{node:?} at {t:?}: position {p:?}, leg {q:?}");
    }

    /// `t` and its two nanosecond neighbours.
    fn around(t: SimTime) -> [SimTime; 3] {
        let ns = t.as_nanos();
        [ns.saturating_sub(1), ns, ns.saturating_add(1)].map(SimTime::from_nanos)
    }

    #[test]
    fn static_position_is_its_leg() {
        let m = StaticMobility::new(vec![Position::new(0.1, 299.9), Position::new(524.56, 3.159)]);
        for node in [NodeId(0), NodeId(1)] {
            for t in [SimTime::ZERO, SimTime::from_millis(1500), SimTime::from_secs(900)] {
                assert_leg_answers(&m, node, t);
            }
            assert_leg_answers(&m, node, SimTime::MAX);
        }
    }

    /// Node 0: a wait before its first keyframe, a move for which
    /// `p0 + (p1 - p0)` is not `p1` in floating point, a stationary
    /// segment, a zero-span teleport, a last move and a park. Node 1: a
    /// single keyframe. Node 2: a teleport at its first instant.
    fn scripted_fixture() -> ScriptedMobility {
        let s = SimTime::from_secs;
        let p = Position::new;
        ScriptedMobility::new(vec![
            vec![
                (s(2), p(524.56, 802.855)),
                (s(7), p(3.159, 45.885)),
                (s(9), p(3.159, 45.885)),
                (s(9), p(700.25, 12.5)),
                (s(12), p(150.0, 250.0)),
            ],
            vec![(s(3), p(40.0, 60.0))],
            vec![(SimTime::ZERO, p(1.0, 1.0)), (SimTime::ZERO, p(5.0, 5.0)), (s(4), p(6.0, 5.0))],
        ])
    }

    #[test]
    fn scripted_position_is_its_leg() {
        let m = scripted_fixture();
        for node in 0..3 {
            let mut times: Vec<SimTime> = (0..=60).map(|k| SimTime::from_millis(250 * k)).collect();
            times.extend(m.tracks[node].iter().flat_map(|&(t, _)| around(t)));
            times.sort_unstable();
            times.dedup();
            for t in times {
                assert_leg_answers(&m, NodeId(node as u16), t);
            }
        }
    }

    /// The positions at every keyframe instant: an arrival is its
    /// keyframe's own bits, every other instant what the model reported
    /// before it answered through legs.
    #[test]
    fn scripted_keyframe_positions_are_pinned() {
        let m = scripted_fixture();
        let got: Vec<(u16, u64, (u64, u64))> = (0..3u16)
            .flat_map(|n| m.tracks[n as usize].iter().map(move |&(t, _)| (n, t)))
            .map(|(n, t)| (n, t.as_nanos(), bits(m.position(NodeId(n), t))))
            .collect();
        let pinned = [
            (0, 2_000_000_000, (0x4080_647a_e147_ae14, 0x4089_16d7_0a3d_70a4)),
            // An arrival reads its keyframe, where `p0 + (p1 - p0)` is 18
            // and 1 ulp off.
            (0, 7_000_000_000, (0x4009_45a1_cac0_8312, 0x4046_f147_ae14_7ae1)),
            (0, 9_000_000_000, (0x4009_45a1_cac0_8312, 0x4046_f147_ae14_7ae1)),
            (0, 9_000_000_000, (0x4009_45a1_cac0_8312, 0x4046_f147_ae14_7ae1)),
            (0, 12_000_000_000, (0x4062_c000_0000_0000, 0x406f_4000_0000_0000)),
            (1, 3_000_000_000, (0x4044_0000_0000_0000, 0x404e_0000_0000_0000)),
            (2, 0, (0x3ff0_0000_0000_0000, 0x3ff0_0000_0000_0000)),
            (2, 0, (0x3ff0_0000_0000_0000, 0x3ff0_0000_0000_0000)),
            (2, 4_000_000_000, (0x4018_0000_0000_0000, 0x4014_0000_0000_0000)),
        ];
        assert_eq!(got, pinned);
    }

    /// Every leg boundary of every node, with its nanosecond
    /// neighbours, plus the middle of each move.
    fn assert_rwp_legs(pause: SimDuration) {
        let terrain = Terrain::new(1000.0, 300.0);
        let m = RandomWaypoint::new(4, terrain, pause, 1.0, 20.0, SimRng::stream(5, "mobility"));
        let until = SimTime::from_secs(300);
        for node in (0..4).map(NodeId) {
            let mut t = SimTime::ZERO;
            while t < until {
                let leg = m.motion_leg(node, t);
                let mid = leg.move_start.as_nanos() / 2 + leg.move_end.as_nanos() / 2;
                let mut times = vec![t, SimTime::from_nanos(mid), leg.valid_until];
                times.extend(around(leg.move_start));
                times.extend(around(leg.move_end));
                times.retain(|&x| x >= t && x <= leg.valid_until);
                times.sort_unstable();
                times.dedup();
                for x in times {
                    assert_leg_answers(&m, node, x);
                }
                t = SimTime::from_nanos(leg.valid_until.as_nanos() + 1);
            }
        }
    }

    #[test]
    fn rwp_position_is_its_leg() {
        assert_rwp_legs(SimDuration::ZERO);
        assert_rwp_legs(SimDuration::from_secs(7));
    }

    #[test]
    fn static_hold_is_forever() {
        let m = StaticMobility::line(2, 50.0);
        let leg = m.motion_leg(NodeId(1), SimTime::from_secs(3));
        assert_eq!(leg.pos_at(SimTime::from_secs(3)).x, 50.0);
        assert_eq!(leg.valid_until, SimTime::MAX);
    }
}
