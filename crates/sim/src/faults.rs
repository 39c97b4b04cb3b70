//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a declarative, seeded schedule of adverse events —
//! node crashes with state loss, administrative link churn, regional
//! partitions, per-link loss/corruption impairment, and stale-advert
//! replay. The plan is installed through
//! [`SimConfig::fault_plan`](crate::config::SimConfig) and executed by
//! the event kernel itself: each entry becomes an
//! [`Event::Fault`](crate::event::Event) on the future event list, so
//! fault actions interleave with MAC, traffic and mobility events under
//! the kernel's usual total order. Combined with the named-stream RNG
//! discipline ([`SimRng::stream`]), every fault trial replays
//! byte-identically from `(plan, seed)`.
//!
//! # Determinism contract
//!
//! This module must never consult wall-clock time or OS entropy, and all
//! of its runtime collections are order-deterministic (`Vec`, `BTreeMap`,
//! `BTreeSet` — never a hash map, whose iteration order depends on its
//! hasher). The workspace's `clippy.toml` bans the wall clock and std's
//! hash maps, and `clippy::iter_over_hash_type` flags any loop over an
//! [`FxMap`](crate::hash::FxMap).
//!
//! # Fault semantics
//!
//! * **Crash/restart** ([`FaultAction::CrashRestart`]): the node goes
//!   silent immediately — pending MAC state, in-progress receptions and
//!   queued frames are discarded, and its incarnation ends: no protocol
//!   timer armed before the crash is ever delivered. After `downtime` the
//!   node restarts *with total state loss*: the kernel emits a
//!   [`NodeRestarted`](crate::trace::TraceEvent::NodeRestarted) trace
//!   event and invokes the protocol's restart callback
//!   (`RoutingProtocol::handle_reboot`), which must rebuild from
//!   nothing. For LDR this exercises the paper's destination
//!   sequence-number recovery (epoch bump); for AODV it honestly
//!   reproduces the counter reset that "Sequence Numbers Do Not
//!   Guarantee Loop Freedom" exploits.
//! * **Link churn** ([`FaultAction::LinkDown`]/[`FaultAction::LinkUp`]):
//!   an administrative cut of a single bidirectional link, independent
//!   of radio range. Frames on a cut link are silently not received.
//! * **Partition/heal** ([`FaultAction::Partition`]/[`FaultAction::Heal`]):
//!   a regional cut — every link between the group and the rest of the
//!   network is severed until a `Heal` clears it (healing also clears
//!   single-link cuts).
//! * **Impairment** ([`FaultAction::LinkImpair`]): independent per-frame
//!   loss and corruption draws on one link, in parts-per-million, from
//!   the dedicated `"faults"` RNG stream.
//! * **Replay** ([`FaultAction::ReplayLastControl`]): re-emits the last
//!   control frame the node transmitted, modelling a delayed duplicate
//!   of a (possibly stale) advertisement arriving long after the state
//!   that justified it is gone. Loop-free protocols must reject such
//!   adverts via their feasibility condition (LDR's NDC).

use crate::packet::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// One adverse action, applied at a scheduled instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash `node` now; restart it with total state loss after
    /// `downtime`. Ignored if the node is already down.
    CrashRestart {
        /// The node to crash.
        node: NodeId,
        /// How long the node stays silent before restarting.
        downtime: SimDuration,
    },
    /// Administratively cut the bidirectional link `a <-> b`.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Restore a previously cut link `a <-> b`.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Sever every link between `group` and the rest of the network.
    /// A later partition replaces the current one.
    Partition {
        /// Nodes on one side of the cut.
        group: Vec<NodeId>,
    },
    /// Clear the current partition and all administrative link cuts.
    Heal,
    /// Impose independent per-frame loss and corruption on `a <-> b`.
    /// Rates are in parts per million; a rate of zero clears that
    /// impairment component.
    LinkImpair {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Probability (ppm) that a frame on this link is lost outright.
        loss_ppm: u32,
        /// Probability (ppm) that a frame survives but arrives corrupted.
        corrupt_ppm: u32,
    },
    /// Re-emit the last control frame `node` transmitted (a delayed
    /// stale duplicate). No-op if the node is down or has not yet sent
    /// a control frame.
    ReplayLastControl {
        /// The node whose last advertisement is replayed.
        node: NodeId,
    },
}

/// A declarative, time-ordered schedule of fault actions.
///
/// The plan is part of [`SimConfig`](crate::config::SimConfig): two runs
/// with the same `(plan, seed)` produce byte-identical traces and
/// metrics.
///
/// ```
/// use manet_sim::faults::{FaultAction, FaultPlan};
/// use manet_sim::packet::NodeId;
/// use manet_sim::time::{SimDuration, SimTime};
/// let plan = FaultPlan::new(vec![(
///     SimTime::from_secs(5),
///     FaultAction::CrashRestart { node: NodeId(2), downtime: SimDuration::from_secs(1) },
/// )]);
/// assert_eq!(plan.len(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// Builds a plan from `(time, action)` entries, sorting them by
    /// time (stably, so same-instant actions keep their given order).
    pub fn new(mut entries: Vec<(SimTime, FaultAction)>) -> Self {
        entries.sort_by_key(|(t, _)| *t);
        FaultPlan { entries }
    }

    /// The scheduled entries, in time order.
    pub fn entries(&self) -> &[(SimTime, FaultAction)] {
        &self.entries
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Generates a random plan at intensity `level` for an
    /// `n_nodes`-node world, with every action in `(0, horizon)`,
    /// deterministically from `rng`. Level 0 is fault-free; level `L`
    /// schedules `L` crash/restarts (downtime uniform in
    /// `(0, 500 ms · max(L, 1)]`), `2L` link down/up pairs, `L / 2`
    /// partition/heal pairs, `L` link impairments (loss and corruption
    /// each uniform in `[0, min(50 000 · L, 400 000)]` ppm) and `L`
    /// stale-advert replays. Down/up and partition/heal actions come in
    /// matched pairs so a finite schedule always lets the network heal.
    ///
    /// The generator draws nothing for a kind whose count is zero, and
    /// is pure in `(rng state, n_nodes, horizon, level)` — it is the
    /// seed boundary for property-based fault soaking.
    pub fn random(rng: &mut SimRng, n_nodes: u16, horizon: SimDuration, level: u32) -> Self {
        let max_downtime = SimDuration::from_millis(500).saturating_mul(u64::from(level.max(1)));
        let max_impair_ppm = (50_000 * level).min(400_000);
        let mut entries: Vec<(SimTime, FaultAction)> = Vec::new();
        let horizon = horizon.as_nanos().max(2);
        let n = u64::from(n_nodes.max(1));
        let at = |rng: &mut SimRng| SimTime::from_nanos(1 + rng.below(horizon - 1));

        for _ in 0..level {
            let node = NodeId(rng.below(n) as u16);
            let downtime = SimDuration::from_nanos(1 + rng.below(max_downtime.as_nanos()));
            entries.push((at(rng), FaultAction::CrashRestart { node, downtime }));
        }
        for _ in 0..2 * level {
            let (a, b) = distinct_pair(rng, n_nodes);
            let down = at(rng);
            let up_ns = down.as_nanos() + 1 + rng.below(horizon / 2);
            entries.push((down, FaultAction::LinkDown { a, b }));
            entries.push((SimTime::from_nanos(up_ns), FaultAction::LinkUp { a, b }));
        }
        for _ in 0..level / 2 {
            let group = random_group(rng, n_nodes);
            let cut = at(rng);
            let heal_ns = cut.as_nanos() + 1 + rng.below(horizon / 2);
            entries.push((cut, FaultAction::Partition { group }));
            entries.push((SimTime::from_nanos(heal_ns), FaultAction::Heal));
        }
        for _ in 0..level {
            let (a, b) = distinct_pair(rng, n_nodes);
            let cap = u64::from(max_impair_ppm);
            let loss_ppm = rng.below(cap + 1) as u32;
            let corrupt_ppm = rng.below(cap + 1) as u32;
            entries.push((at(rng), FaultAction::LinkImpair { a, b, loss_ppm, corrupt_ppm }));
        }
        for _ in 0..level {
            let node = NodeId(rng.below(n) as u16);
            entries.push((at(rng), FaultAction::ReplayLastControl { node }));
        }
        FaultPlan::new(entries)
    }
}

/// Picks two distinct node ids (falls back to `(0, 0)` when the world
/// has fewer than two nodes — such an action is then inert).
fn distinct_pair(rng: &mut SimRng, n_nodes: u16) -> (NodeId, NodeId) {
    if n_nodes < 2 {
        return (NodeId(0), NodeId(0));
    }
    let a = rng.below(u64::from(n_nodes)) as u16;
    let mut b = rng.below(u64::from(n_nodes) - 1) as u16;
    if b >= a {
        b += 1;
    }
    (NodeId(a), NodeId(b))
}

/// Picks a non-empty proper subset of the nodes (the partition group).
fn random_group(rng: &mut SimRng, n_nodes: u16) -> Vec<NodeId> {
    if n_nodes < 2 {
        return vec![NodeId(0)];
    }
    let mut ids: Vec<NodeId> = (0..n_nodes).map(NodeId).collect();
    rng.shuffle(&mut ids);
    let size = 1 + rng.below(u64::from(n_nodes) - 1) as usize;
    ids.truncate(size);
    ids.sort_unstable_by_key(|n| n.0);
    ids
}

/// Normalises an undirected link key so `(a, b)` and `(b, a)` collide.
fn link_key(a: NodeId, b: NodeId) -> (u16, u16) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// Per-link impairment rates, in parts per million.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Impairment {
    loss_ppm: u32,
    corrupt_ppm: u32,
}

/// The kernel-side runtime state of an executing [`FaultPlan`]:
/// which nodes are down, which links are administratively severed or
/// impaired, and the dedicated RNG stream for impairment draws.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    down: Vec<bool>,
    /// Per node: how many times it has crashed.
    incarnation: Vec<u32>,
    cut: BTreeSet<(u16, u16)>,
    partition: Vec<bool>,
    partitioned: bool,
    impair: BTreeMap<(u16, u16), Impairment>,
    rng: SimRng,
}

/// The verdict of the per-frame impairment draw for one receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxFate {
    /// The frame arrives intact (subject to normal collision rules).
    Deliver,
    /// The frame is lost outright; the receiver never sees energy.
    Lose,
    /// The frame arrives but fails its checksum.
    Corrupt,
}

impl FaultState {
    /// Builds the runtime state for `plan` over an `n_nodes`-node world.
    /// `rng` must be the dedicated `"faults"` stream of the trial seed.
    pub fn new(plan: FaultPlan, n_nodes: usize, rng: SimRng) -> Self {
        FaultState {
            plan,
            down: vec![false; n_nodes],
            incarnation: vec![0; n_nodes],
            cut: BTreeSet::new(),
            partition: vec![false; n_nodes],
            partitioned: false,
            impair: BTreeMap::new(),
            rng,
        }
    }

    /// The scheduled action at plan index `idx`, if any.
    pub fn action(&self, idx: usize) -> Option<&FaultAction> {
        self.plan.entries().get(idx).map(|(_, a)| a)
    }

    /// Whether `node` is currently crashed.
    pub fn node_down(&self, node: NodeId) -> bool {
        self.down.get(node.index()).copied().unwrap_or(false)
    }

    /// `node`'s incarnation: 0 until its first crash, and one more per
    /// crash. Every timer the kernel delivers to `node` was armed in
    /// the incarnation it is delivered in.
    pub fn incarnation(&self, node: NodeId) -> u32 {
        self.incarnation.get(node.index()).copied().unwrap_or(0)
    }

    /// Marks `node` crashed, ending its incarnation. Returns `false`
    /// (and does nothing) if it was already down.
    pub fn set_down(&mut self, node: NodeId) -> bool {
        match self.down.get_mut(node.index()) {
            Some(d) if !*d => {
                *d = true;
                self.incarnation[node.index()] += 1;
                true
            }
            _ => false,
        }
    }

    /// Marks `node` back up (restart instant). Returns `false` if it
    /// was not down.
    pub fn set_up(&mut self, node: NodeId) -> bool {
        match self.down.get_mut(node.index()) {
            Some(d) if *d => {
                *d = false;
                true
            }
            _ => false,
        }
    }

    /// Administratively cuts the link `a <-> b`.
    pub fn sever_link(&mut self, a: NodeId, b: NodeId) {
        self.cut.insert(link_key(a, b));
    }

    /// Restores an administratively cut link.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId) {
        self.cut.remove(&link_key(a, b));
    }

    /// Installs a partition separating `group` from everyone else.
    pub fn set_partition(&mut self, group: &[NodeId]) {
        for side in self.partition.iter_mut() {
            *side = false;
        }
        for n in group {
            if let Some(side) = self.partition.get_mut(n.index()) {
                *side = true;
            }
        }
        self.partitioned = true;
    }

    /// Clears the partition and every administrative link cut.
    pub fn heal(&mut self) {
        self.partitioned = false;
        self.cut.clear();
    }

    /// Installs (or, with zero rates, clears) impairment on `a <-> b`.
    pub fn set_impairment(&mut self, a: NodeId, b: NodeId, loss_ppm: u32, corrupt_ppm: u32) {
        let key = link_key(a, b);
        if loss_ppm == 0 && corrupt_ppm == 0 {
            self.impair.remove(&key);
        } else {
            self.impair.insert(key, Impairment { loss_ppm, corrupt_ppm });
        }
    }

    /// Whether the link `a <-> b` is severed by a cut or the partition.
    pub fn link_severed(&self, a: NodeId, b: NodeId) -> bool {
        if self.cut.contains(&link_key(a, b)) {
            return true;
        }
        if self.partitioned {
            let sa = self.partition.get(a.index()).copied().unwrap_or(false);
            let sb = self.partition.get(b.index()).copied().unwrap_or(false);
            if sa != sb {
                return true;
            }
        }
        false
    }

    /// Draws the impairment fate of one frame on `a <-> b`. Consumes
    /// RNG state only when the link actually carries an impairment, so
    /// fault-free links never perturb the stream.
    pub fn rx_draw(&mut self, a: NodeId, b: NodeId) -> RxFate {
        let Some(&imp) = self.impair.get(&link_key(a, b)) else {
            return RxFate::Deliver;
        };
        if imp.loss_ppm > 0 && self.rng.below(1_000_000) < u64::from(imp.loss_ppm) {
            return RxFate::Lose;
        }
        if imp.corrupt_ppm > 0 && self.rng.below(1_000_000) < u64::from(imp.corrupt_ppm) {
            return RxFate::Corrupt;
        }
        RxFate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECS_30: SimDuration = SimDuration::from_secs(30);

    #[test]
    fn plan_sorts_entries_by_time() {
        let plan = FaultPlan::new(vec![
            (SimTime::from_secs(9), FaultAction::Heal),
            (SimTime::from_secs(1), FaultAction::LinkDown { a: NodeId(0), b: NodeId(1) }),
        ]);
        assert_eq!(plan.entries()[0].0, SimTime::from_secs(1));
        assert_eq!(plan.entries()[1].0, SimTime::from_secs(9));
        assert!(!plan.is_empty());
    }

    #[test]
    fn random_plan_is_deterministic_in_seed() {
        let plan = |seed| FaultPlan::random(&mut SimRng::stream(seed, "plan"), 10, SECS_30, 3);
        let a = plan(7);
        let b = plan(7);
        assert_eq!(a, b);
        let c = plan(8);
        assert_ne!(a, c);
    }

    /// The ladder plan at `level` for 10 nodes over a 30 s horizon.
    fn ladder_plan(level: u32) -> FaultPlan {
        FaultPlan::random(&mut SimRng::stream(2024, "plan"), 10, SECS_30, level)
    }

    /// Per-kind counts `[crash, down, up, partition, heal, impair,
    /// replay]` and an FNV-1a digest over every entry's nanosecond time
    /// and action fields.
    fn census(plan: &FaultPlan) -> ([usize; 7], u64) {
        fn feed(h: &mut u64, v: u64) {
            *h = crate::hash::fnv1a(&v.to_le_bytes(), *h);
        }
        let mut counts = [0; 7];
        let mut h = crate::hash::FNV_OFFSET;
        for (t, action) in plan.entries() {
            let (kind, fields): (usize, Vec<u64>) = match action {
                FaultAction::CrashRestart { node, downtime } => {
                    (0, vec![node.0.into(), downtime.as_nanos()])
                }
                FaultAction::LinkDown { a, b } => (1, vec![a.0.into(), b.0.into()]),
                FaultAction::LinkUp { a, b } => (2, vec![a.0.into(), b.0.into()]),
                FaultAction::Partition { group } => (
                    3,
                    std::iter::once(group.len() as u64)
                        .chain(group.iter().map(|n| n.0.into()))
                        .collect(),
                ),
                FaultAction::Heal => (4, vec![]),
                FaultAction::LinkImpair { a, b, loss_ppm, corrupt_ppm } => {
                    (5, vec![a.0.into(), b.0.into(), (*loss_ppm).into(), (*corrupt_ppm).into()])
                }
                FaultAction::ReplayLastControl { node } => (6, vec![node.0.into()]),
            };
            counts[kind] += 1;
            feed(&mut h, t.as_nanos());
            feed(&mut h, kind as u64);
            fields.into_iter().for_each(|v| feed(&mut h, v));
        }
        (counts, h)
    }

    /// Pins the whole fault ladder, levels 0–4: what each level draws
    /// and, through the digest, every draw's order and value.
    #[test]
    fn ladder_plans_are_pinned() {
        let got: Vec<([usize; 7], u64)> = (0..5).map(|level| census(&ladder_plan(level))).collect();
        assert_eq!(
            got,
            [
                ([0, 0, 0, 0, 0, 0, 0], 0xcbf2_9ce4_8422_2325),
                ([1, 2, 2, 0, 0, 1, 1], 0x427e_90b9_281c_5aef),
                ([2, 4, 4, 1, 1, 2, 2], 0x3a5c_4fa5_79a3_7f1c),
                ([3, 6, 6, 1, 1, 3, 3], 0xda09_9130_5bd0_4c7c),
                ([4, 8, 8, 2, 2, 4, 4], 0xff6e_664c_2dfa_0e6d),
            ]
        );
    }

    /// Every down is followed by an up of the same link, and every
    /// partition by a heal.
    #[test]
    fn random_plan_pairs_churn_and_partitions() {
        let plan = FaultPlan::random(&mut SimRng::from_seed(3), 6, SimDuration::from_secs(20), 4);
        let entries = plan.entries();
        let mut matched = vec![false; entries.len()];
        let (mut downs, mut partitions) = (0, 0);
        for (t, action) in entries {
            let closes = |other: &FaultAction| match action {
                FaultAction::LinkDown { a, b } => *other == FaultAction::LinkUp { a: *a, b: *b },
                FaultAction::Partition { .. } => *other == FaultAction::Heal,
                _ => false,
            };
            match action {
                FaultAction::LinkDown { .. } => downs += 1,
                FaultAction::Partition { .. } => partitions += 1,
                _ => continue,
            }
            let close = (0..entries.len())
                .find(|&j| !matched[j] && entries[j].0 > *t && closes(&entries[j].1));
            let Some(j) = close else { panic!("{action:?} at {t:?} is never undone") };
            matched[j] = true;
        }
        assert_eq!((downs, partitions), (8, 2));
        let undos = entries
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::LinkUp { .. } | FaultAction::Heal))
            .count();
        assert_eq!(undos, downs + partitions, "an up or heal without its cause");
    }

    #[test]
    fn level_zero_is_fault_free() {
        let plan = FaultPlan::random(&mut SimRng::from_seed(1), 10, SECS_30, 0);
        assert!(plan.is_empty());
    }

    #[test]
    fn down_up_round_trip() {
        let mut fs = FaultState::new(FaultPlan::default(), 3, SimRng::from_seed(0));
        assert!(!fs.node_down(NodeId(1)));
        assert!(fs.set_down(NodeId(1)));
        assert!(!fs.set_down(NodeId(1)), "double crash is inert");
        assert!(fs.node_down(NodeId(1)));
        assert!(fs.set_up(NodeId(1)));
        assert!(!fs.set_up(NodeId(1)));
        assert!(!fs.node_down(NodeId(1)));
    }

    #[test]
    fn link_cut_is_undirected_and_heals() {
        let mut fs = FaultState::new(FaultPlan::default(), 4, SimRng::from_seed(0));
        fs.sever_link(NodeId(2), NodeId(0));
        assert!(fs.link_severed(NodeId(0), NodeId(2)));
        assert!(fs.link_severed(NodeId(2), NodeId(0)));
        fs.restore_link(NodeId(0), NodeId(2));
        assert!(!fs.link_severed(NodeId(0), NodeId(2)));
        fs.sever_link(NodeId(1), NodeId(3));
        fs.heal();
        assert!(!fs.link_severed(NodeId(1), NodeId(3)));
    }

    #[test]
    fn partition_severs_cross_links_only() {
        let mut fs = FaultState::new(FaultPlan::default(), 4, SimRng::from_seed(0));
        fs.set_partition(&[NodeId(0), NodeId(1)]);
        assert!(fs.link_severed(NodeId(0), NodeId(2)));
        assert!(fs.link_severed(NodeId(1), NodeId(3)));
        assert!(!fs.link_severed(NodeId(0), NodeId(1)));
        assert!(!fs.link_severed(NodeId(2), NodeId(3)));
        fs.heal();
        assert!(!fs.link_severed(NodeId(0), NodeId(2)));
    }

    #[test]
    fn impairment_draws_only_on_impaired_links() {
        let mut fs = FaultState::new(FaultPlan::default(), 3, SimRng::from_seed(5));
        let before = fs.rng.clone();
        assert_eq!(fs.rx_draw(NodeId(0), NodeId(1)), RxFate::Deliver);
        assert_eq!(fs.rng, before, "clean link consumed rng state");
        fs.set_impairment(NodeId(0), NodeId(1), 1_000_000, 0);
        assert_eq!(fs.rx_draw(NodeId(1), NodeId(0)), RxFate::Lose);
        fs.set_impairment(NodeId(0), NodeId(1), 0, 1_000_000);
        assert_eq!(fs.rx_draw(NodeId(0), NodeId(1)), RxFate::Corrupt);
        fs.set_impairment(NodeId(0), NodeId(1), 0, 0);
        assert_eq!(fs.rx_draw(NodeId(0), NodeId(1)), RxFate::Deliver);
    }
}
