//! The radio medium: frames on the air, collision marking, reception
//! and link-layer ACKs — the receive half of the kernel. A child module
//! of [`super`], so these `impl World` blocks see the private fields.

use super::{take_pooled, World};
use crate::event::Event;
use crate::faults::RxFate;
use crate::mac::MacState;
use crate::packet::{NodeId, Packet, PacketBody};
use crate::prof::{PHASE_NEIGHBOR_GRID, PHASE_NEIGHBOR_LINEAR};
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;
#[cfg(test)]
use std::collections::{HashSet, VecDeque};

/// Link-layer frame payload.
#[derive(Clone, Debug)]
pub(super) enum FramePayload {
    /// A network-layer packet.
    Packet(Packet),
    /// A link-layer acknowledgement for transmission `acked_tx`.
    Ack { acked_tx: u64 },
}

/// A link-layer frame on the air.
#[derive(Clone, Debug)]
pub(super) struct Frame {
    pub(super) src: NodeId,
    /// `None` is a link broadcast.
    pub(super) dst: Option<NodeId>,
    /// Whether the MAC may put this frame's packet on the air again: set
    /// only for the unicast head [`World::start_transmission`] sends.
    /// Broadcasts, ACKs and fault replays go out exactly once.
    pub(super) retriable: bool,
    pub(super) payload: FramePayload,
}

/// One transmission on the air: its frame, held once for every
/// receiver (at 100-node scale a broadcast reaches dozens of stations),
/// and the in-range receivers, ascending.
#[derive(Debug)]
pub(super) struct Batch {
    frame: Frame,
    receivers: Vec<NodeId>,
}

/// A reception in progress at one node. The frame stays in the
/// transmission's [`Batch`]; the sender is `tx_id >> 48`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(super) struct RxInProgress {
    tx_id: u64,
    pub(super) end: SimTime,
    pub(super) corrupted: bool,
    /// Transmitter-to-receiver distance, for the capture model; NaN
    /// (never read) when capture is not configured.
    sender_dist: f64,
}

impl RxInProgress {
    /// The transmitting node (the high 16 bits of every `tx_id`).
    pub(super) fn sender(&self) -> NodeId {
        NodeId((self.tx_id >> 48) as u16)
    }
}

/// Receptions held inline before [`RxList`] spills to the heap: a node
/// rarely hears more than a few overlapping frames.
const RX_INLINE: usize = 4;

/// One node's receptions in progress, in no particular order: `tx_id`
/// is unique within a list, and every reader either looks one entry up
/// by it, treats all live entries alike, or takes a maximum.
#[derive(Debug, Default)]
pub(super) struct RxList {
    inline: [RxInProgress; RX_INLINE],
    /// Live prefix of `inline`; `spill` is empty unless this is
    /// `RX_INLINE`.
    len: u8,
    spill: Vec<RxInProgress>,
}

impl RxList {
    fn push(&mut self, rx: RxInProgress) {
        match self.inline.get_mut(usize::from(self.len)) {
            Some(slot) => {
                *slot = rx;
                self.len += 1;
            }
            None => self.spill.push(rx),
        }
    }

    /// Removes and returns the reception of `tx_id`, refilling an inline
    /// slot it leaves from the spill.
    fn take(&mut self, tx_id: u64) -> Option<RxInProgress> {
        let live = usize::from(self.len);
        if let Some(i) = self.inline[..live].iter().position(|r| r.tx_id == tx_id) {
            let rx = self.inline[i];
            self.inline[i] = match self.spill.pop() {
                Some(spilled) => spilled,
                None => {
                    self.len -= 1;
                    self.inline[live - 1]
                }
            };
            return Some(rx);
        }
        let i = self.spill.iter().position(|r| r.tx_id == tx_id)?;
        Some(self.spill.swap_remove(i))
    }

    fn iter(&self) -> impl Iterator<Item = &RxInProgress> {
        self.inline[..usize::from(self.len)].iter().chain(&self.spill)
    }

    pub(super) fn iter_mut(&mut self) -> impl Iterator<Item = &mut RxInProgress> {
        self.inline[..usize::from(self.len)].iter_mut().chain(&mut self.spill)
    }

    pub(super) fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

/// Deterministic avalanche hasher for `u64` keys (splitmix64 finalizer).
/// The default `HashSet` hasher is SipHash, whose per-insert cost is
/// measurable at paper scale; uids need no DoS resistance, and the
/// sets hashed with this are only ever probed, never iterated, so the
/// swap cannot perturb determinism.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct U64Hasher {
    hash: u64,
}

impl std::hash::Hasher for U64Hasher {
    fn finish(&self) -> u64 {
        self.hash
    }
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (FNV-1a); the u64 fast path below is the one
        // the uid sets actually exercise.
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u64(&mut self, x: u64) {
        let mut h = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.hash = h ^ (h >> 31);
    }
}

pub(super) type U64Build = std::hash::BuildHasherDefault<U64Hasher>;

/// How many accepts a remembered uid stays a duplicate for.
const RECENT_WINDOW: u64 = 128;

/// MAC-level duplicate suppression: 802.11's per-transmitter cache of
/// the last frame accepted from each sender, with a 128-accept window.
///
/// A uid is minted per enqueued frame (and freshly for a fault replay)
/// and the MAC serves its queue head-of-line, so the only frame that can
/// reach a receiver twice is a retry of the sender's current *unicast*
/// head, with nothing else of that sender's queue on the air in between.
/// Hence "uid is among the last 128 uids this node accepted" — what a
/// remember-set would answer — is "uid is the last retriable uid
/// accepted from its sender, at most 128 accepts ago". Frames that
/// cannot be retried only advance the window. [`World::crash_node`]
/// resets the cache with the rest of the node's volatile state;
/// `Event::Reboot` keeps it.
#[derive(Debug)]
pub(super) struct RecentCache {
    /// Frames accepted so far.
    accepted: u64,
    /// Per sender: the last retriable uid accepted from it (0: none, no
    /// uid is 0) and `accepted` just before that accept.
    last: Vec<(u64, u64)>,
    #[cfg(test)]
    oracle: RecentOracle,
}

impl RecentCache {
    pub(super) fn new(n_nodes: usize) -> Self {
        RecentCache {
            accepted: 0,
            last: vec![(0, 0); n_nodes],
            #[cfg(test)]
            oracle: RecentOracle::default(),
        }
    }

    /// Accepts a frame's uid; returns `false` for a duplicate, which
    /// leaves the cache as it was.
    fn insert(&mut self, sender: NodeId, uid: u64, retriable: bool) -> bool {
        let fresh = self.insert_unchecked(sender, uid, retriable);
        #[cfg(test)]
        assert_eq!(fresh, self.oracle.insert(uid), "duplicate verdict on {uid:#x} from {sender:?}");
        fresh
    }

    fn insert_unchecked(&mut self, sender: NodeId, uid: u64, retriable: bool) -> bool {
        if retriable {
            let last = &mut self.last[sender.index()];
            if last.0 == uid && self.accepted - last.1 <= RECENT_WINDOW {
                return false;
            }
            *last = (uid, self.accepted);
        }
        self.accepted += 1;
        true
    }

    /// Forgets everything (a crash).
    pub(super) fn reset(&mut self) {
        self.accepted = 0;
        self.last.fill((0, 0));
        #[cfg(test)]
        self.oracle.reset();
    }
}

/// The remember-set [`RecentCache`] replaced, kept as its oracle: the
/// last 128 uids accepted, whoever sent them. Shadows every node's cache
/// in every test run.
#[cfg(test)]
#[derive(Debug, Default)]
struct RecentOracle {
    order: VecDeque<u64>,
    set: HashSet<u64>,
    /// Duplicate verdicts given; survives `reset` (it counts the run's,
    /// not the incarnation's).
    duplicates: u64,
}

#[cfg(test)]
impl RecentOracle {
    /// Inserts a uid; returns `false` if it was already present.
    fn insert(&mut self, uid: u64) -> bool {
        if !self.set.insert(uid) {
            self.duplicates += 1;
            return false;
        }
        self.order.push_back(uid);
        if self.order.len() > 128 {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        true
    }

    fn reset(&mut self) {
        self.order.clear();
        self.set.clear();
    }
}

impl World {
    /// A node's medium is busy while any reception is in progress or its
    /// own radio is occupied.
    pub(super) fn medium_busy_until(&self, node: NodeId) -> Option<SimTime> {
        let now = self.now;
        let slot = &self.nodes[node.index()];
        let mut until: Option<SimTime> = None;
        for rx in slot.rx.iter() {
            if rx.end > now {
                until = Some(until.map_or(rx.end, |u: SimTime| u.max(rx.end)));
            }
        }
        if slot.mac.ack_busy_until > now {
            let t = slot.mac.ack_busy_until;
            until = Some(until.map_or(t, |u| u.max(t)));
        }
        until
    }

    /// Emits a frame onto the medium: marks collisions and schedules
    /// receptions at every node in range (per [`World::in_range_into`],
    /// grid-indexed or linearly scanned — identical either way).
    ///
    /// All of a transmission's receptions end at the same instant
    /// `now + prop + dur`. One event per receiver, scheduled back to
    /// back here, would take consecutive sequence numbers, so no other
    /// event could pop between them; a single [`Event::RxEndBatch`]
    /// that walks the same receivers in the same ascending order is
    /// therefore observation-equivalent, and it spares the event queue
    /// what would be its largest event class.
    pub(super) fn propagate(&mut self, sender: NodeId, frame: Frame, tx_id: u64, dur: SimDuration) {
        let now = self.now;
        let capture = self.cfg.phy.capture_distance_ratio;

        // A station transmitting cannot hear; corrupt its receptions.
        for rx in self.nodes[sender.index()].rx.iter_mut() {
            if rx.end > now {
                rx.corrupted = true;
            }
        }

        let mut in_range = std::mem::take(&mut self.range_scratch);
        let phase = if self.grid.is_some() { PHASE_NEIGHBOR_GRID } else { PHASE_NEIGHBOR_LINEAR };
        self.prof_enter(phase);
        self.in_range_into(sender, &mut in_range);
        self.prof_exit();
        let end = now + self.cfg.phy.prop_delay + dur;
        let mut receivers = take_pooled(&mut self.batch_pool, self.prof.as_deref_mut());
        for &(m, dist_sq) in &in_range {
            // Fault layer: crashed receivers and administratively
            // severed links hear nothing; impaired links draw per-frame
            // loss/corruption from the dedicated "faults" RNG stream.
            if !self.link_usable(sender, m) {
                continue;
            }
            let fate = match self.faults.as_mut() {
                Some(fs) => fs.rx_draw(sender, m),
                None => RxFate::Deliver,
            };
            if fate == RxFate::Lose {
                continue;
            }
            let sender_dist = if capture.is_some() { dist_sq.sqrt() } else { f64::NAN };
            let receiver = &mut self.nodes[m.index()];
            // A station that is itself transmitting cannot receive.
            let mut corrupted = fate == RxFate::Corrupt || !receiver.mac.radio_free(now);
            // Overlapping receptions corrupt each other — unless the
            // earlier frame's transmitter is so much closer that the
            // receiver captures it (first-frame capture only).
            for rx in receiver.rx.iter_mut() {
                if rx.end > now {
                    let captured = matches!(
                        capture,
                        Some(ratio) if rx.sender_dist * ratio <= sender_dist
                    );
                    if !captured {
                        rx.corrupted = true;
                    }
                    corrupted = true;
                }
            }
            receiver.rx.push(RxInProgress { tx_id, end, corrupted, sender_dist });
            receivers.push(m);
        }
        self.range_scratch = in_range;
        if receivers.is_empty() {
            self.batch_pool.put(receivers);
        } else {
            self.rx_batches.insert(tx_id, Batch { frame, receivers });
            self.schedule(end, Event::RxEndBatch { tx_id });
        }
    }

    /// Finishes every reception of `tx_id`, in ascending receiver
    /// order. The crash gate [`World::dispatch`] applies to per-node
    /// events is applied per receiver here, and nothing that runs
    /// during the batch can crash a node or cancel a sibling reception
    /// mid-batch (faults only fire from their own scheduled events), so
    /// the batch is observation-equivalent to one event per receiver.
    pub(super) fn on_rx_end_batch(&mut self, tx_id: u64) {
        let Some(Batch { frame, receivers }) = self.rx_batches.remove(&tx_id) else { return };
        for &m in &receivers {
            if self.node_down(m) {
                continue;
            }
            self.on_rx_end(m, tx_id, &frame);
        }
        self.batch_pool.put(receivers);
    }

    fn on_rx_end(&mut self, node: NodeId, tx_id: u64, frame: &Frame) {
        let slot = &mut self.nodes[node.index()];
        let Some(rx) = slot.rx.take(tx_id) else { return };
        if rx.corrupted {
            self.metrics.collisions += 1;
            self.emit(TraceEvent::RxCollision { node });
            self.kick_now(node);
            return;
        }
        let src = frame.src;
        let for_me = frame.dst == Some(node);
        let broadcast = frame.dst.is_none();
        if let FramePayload::Ack { acked_tx } = frame.payload {
            if for_me {
                if let MacState::AwaitAck { tx_id: t, .. } = slot.mac.state {
                    if t == acked_tx {
                        slot.mac.queue.pop_front();
                        slot.mac.reset_cw(&self.cfg.phy);
                        slot.mac.state = MacState::Idle;
                    }
                }
            }
            self.kick_now(node);
            return;
        }
        let FramePayload::Packet(packet) = &frame.payload else {
            return; // cannot occur: the ACK arm returned above
        };
        let uid = packet.uid;
        if for_me || broadcast {
            self.emit(TraceEvent::RxOk { node, uid: Some(uid) });
        }
        if for_me {
            self.send_ack(node, src, tx_id);
        }
        if for_me || broadcast {
            let fresh = self.nodes[node.index()].recent.insert(src, uid, frame.retriable);
            if fresh {
                let prev_hop = src;
                match &packet.body {
                    // Control bytes are only ever decoded, so every
                    // receiver of a broadcast reads the one shared frame.
                    PacketBody::Control(ctrl) => {
                        self.call_protocol(node, |p, ctx| {
                            p.handle_control(ctx, prev_hop, ctrl, broadcast)
                        });
                    }
                    // A data packet travels on with its one addressed
                    // receiver, which therefore needs its own copy.
                    PacketBody::Data(data) => {
                        let data = data.clone();
                        self.call_protocol(node, |p, ctx| {
                            p.handle_data_packet(ctx, prev_hop, data)
                        });
                    }
                }
            }
        }
        // Overheard unicast for someone else: ignored (no promiscuous
        // mode).
        self.kick_now(node);
    }

    /// Transmits a link-layer ACK SIFS after a successful reception.
    /// ACKs ignore carrier sense (as in 802.11) but are skipped if this
    /// radio is already busy sending.
    fn send_ack(&mut self, node: NodeId, to: NodeId, acked_tx: u64) {
        let now = self.now;
        let slot = &mut self.nodes[node.index()];
        if !slot.mac.radio_free(now) {
            return;
        }
        let dur = self.cfg.phy.sifs + self.cfg.phy.ack_duration();
        slot.mac.ack_busy_until = now + dur;
        slot.tx_ctr += 1;
        let tx_id = (u64::from(node.0) << 48) | slot.tx_ctr;
        let frame = Frame {
            src: node,
            dst: Some(to),
            retriable: false,
            payload: FramePayload::Ack { acked_tx },
        };
        self.propagate(node, frame, tx_id, dur);
        // Free the radio (and retry pending frames) when the ACK ends.
        self.schedule(now + dur, Event::MacKick(node));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::faults::{FaultAction, FaultPlan};
    use crate::geometry::Position;
    use crate::mobility::StaticMobility;
    use crate::static_routing::StaticRouting;
    use proptest::prelude::*;

    fn rx(tx_id: u64, end: u64) -> RxInProgress {
        RxInProgress { tx_id, end: SimTime::from_nanos(end), corrupted: false, sender_dist: 1.0 }
    }

    /// The list's entries in a canonical order (it promises none).
    fn sorted(list: &RxList) -> Vec<RxInProgress> {
        let mut all: Vec<_> = list.iter().copied().collect();
        all.sort_by_key(|r| r.tx_id);
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The inline-plus-spill list against a plain `Vec`, over 0–12
        /// live entries, so pushes spill and takes refill from the spill.
        #[test]
        fn rx_list_matches_a_plain_vec(
            ops in prop::collection::vec((0u8..8, 0u64..16, 0u64..100), 0..120),
        ) {
            let (mut list, mut model) = (RxList::default(), Vec::<RxInProgress>::new());
            let mut next_tx = 0u64;
            for (op, pick, t) in ops {
                let now = SimTime::from_nanos(t);
                match op {
                    0..=2 if model.len() < 12 => {
                        next_tx += 1;
                        list.push(rx(next_tx, t + pick));
                        model.push(rx(next_tx, t + pick));
                    }
                    // Take a pending entry (or, past the end, one that
                    // is not there).
                    0..=4 => {
                        let tx_id = model.get(pick as usize).map_or(next_tx + 1, |r| r.tx_id);
                        let expect = model.iter().position(|r| r.tx_id == tx_id);
                        prop_assert_eq!(list.take(tx_id), expect.map(|i| model.swap_remove(i)));
                    }
                    5 => {
                        for r in list.iter_mut().chain(&mut model).filter(|r| r.end > now) {
                            r.corrupted = true;
                        }
                    }
                    6 => prop_assert_eq!(
                        list.iter().map(|r| r.end).filter(|&e| e > now).max(),
                        model.iter().map(|r| r.end).filter(|&e| e > now).max()
                    ),
                    _ => {
                        list.clear();
                        model.clear();
                    }
                }
                model.sort_by_key(|r| r.tx_id);
                prop_assert_eq!(sorted(&list), model.clone());
                prop_assert!(list.spill.is_empty() || usize::from(list.len) == RX_INLINE);
            }
        }
    }

    fn static_world(
        positions: Vec<Position>,
        adjacency: &[Vec<usize>],
        seed: u64,
        fault_plan: Option<FaultPlan>,
    ) -> World {
        let topo = StaticRouting::from_adjacency(adjacency);
        let cfg = SimConfig {
            duration: SimDuration::from_secs(1),
            seed,
            fault_plan,
            ..SimConfig::default()
        };
        World::new(cfg, Box::new(StaticMobility::new(positions)), move |id, _| {
            Box::new(StaticRouting::new(id, topo.clone()))
        })
    }

    #[test]
    fn five_overlapping_receptions_all_collide_at_the_hub() {
        // A hub (node 0) with five senders on a circle round it: each
        // 250 m from the hub (in range) and ≥ 293 m from the others
        // (out of range), so all are hidden terminals to one another.
        let mut positions = vec![Position::new(0.0, 0.0)];
        let mut adjacency = vec![(1..=5).collect::<Vec<_>>()];
        for k in 0..5 {
            let angle = std::f64::consts::TAU * f64::from(k) / 5.0;
            positions.push(Position::new(250.0 * angle.cos(), 250.0 * angle.sin()));
            adjacency.push(vec![0]);
        }
        let mut w = static_world(positions, &adjacency, 3, None);
        let t0 = SimTime::from_millis(100);
        for sender in 1..=5 {
            w.schedule_app_packet(t0, NodeId(sender), NodeId(0), 512);
        }
        // First backoffs are ≤ 670 µs and a frame lasts ≈ 2.4 ms: 1 ms in,
        // all five are on the air, and the hub's fifth reception spilled.
        w.run_until(t0 + SimDuration::from_millis(1));
        let hub = &w.nodes[0].rx;
        assert_eq!((usize::from(hub.len), hub.spill.len()), (RX_INLINE, 1));
        assert!(hub.iter().all(|r| r.corrupted));
        let senders: Vec<_> = sorted(hub).iter().map(|r| r.sender()).collect();
        assert_eq!(senders, (1..=5).map(NodeId).collect::<Vec<_>>());
        // 3.2 ms in, every first attempt has ended and no retry can have.
        w.run_until(t0 + SimDuration::from_micros(3200));
        assert_eq!(w.metrics.collisions, 5);
        assert_eq!(w.metrics.data_delivered, 0);
        assert_eq!(w.nodes[0].rx.iter().count(), 0);
        assert_eq!(w.nodes[0].recent.accepted, 0, "a collided frame got past the hub's MAC");
    }

    #[test]
    fn a_crash_corrupts_only_the_crashed_senders_frames_in_flight() {
        // Two pairs out of each other's range, 0 → 1 and 3 → 2, both
        // mid-frame when node 0 crashes.
        let positions = [0.0, 200.0, 800.0, 1000.0].map(|x| Position::new(x, 0.0)).to_vec();
        let adjacency = [vec![1], vec![0], vec![3], vec![2]];
        let crash = SimTime::from_millis(101);
        let plan = FaultPlan::new(vec![(
            crash,
            FaultAction::CrashRestart { node: NodeId(0), downtime: SimDuration::from_secs(5) },
        )]);
        let mut w = static_world(positions, &adjacency, 4, Some(plan));
        let t0 = SimTime::from_millis(100);
        w.schedule_app_packet(t0, NodeId(0), NodeId(1), 512);
        w.schedule_app_packet(t0, NodeId(3), NodeId(2), 512);
        w.run_until(crash);
        let in_flight = |w: &World, node: usize| -> Vec<_> {
            w.nodes[node].rx.iter().map(|r| (r.sender(), r.corrupted)).collect()
        };
        assert_eq!(in_flight(&w, 1), [(NodeId(0), true)], "the crashed sender's frame survived");
        assert_eq!(in_flight(&w, 2), [(NodeId(3), false)], "a bystander's frame was corrupted");
        w.run_until(SimTime::from_secs(1));
        assert_eq!((w.metrics.collisions, w.metrics.data_delivered), (1, 1));
    }
}
