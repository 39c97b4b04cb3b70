//! The radio medium: frames on the air, collision marking, reception
//! and link-layer ACKs — the receive half of the kernel. A child module
//! of [`super`], so these `impl World` blocks see the private fields.

use super::{take_pooled, World};
use crate::config::{PROP_DELAY, SIFS};
use crate::event::Event;
use crate::faults::RxFate;
use crate::hash::FxMap;
use crate::mac::MacState;
use crate::packet::{NodeId, Packet, PacketBody};
use crate::prof::{PHASE_NEIGHBOR_GRID, PHASE_NEIGHBOR_LINEAR};
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;

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
    /// Whether the MAC may send this packet again: only the unicast head
    /// of a queue. Broadcasts, ACKs and fault replays go out once.
    pub(super) retriable: bool,
    pub(super) payload: FramePayload,
}

/// One transmission on the air: its frame, held once for every
/// receiver, and the in-range receivers, ascending, each with its verdict
/// (`true`: corrupted). Most receptions end as collisions, which
/// [`World::on_rx_end_batch`] reads here without visiting the receiver.
#[derive(Debug)]
pub(super) struct Batch {
    /// [`World::rx_epoch`] when the frame went out: a receiver that has
    /// cleared its receptions since no longer listens to it.
    epoch: u64,
    frame: Frame,
    receivers: Vec<(NodeId, bool)>,
}

/// The transmissions on the air, by transmission id: a few dozen,
/// probed by exact key, never iterated.
pub(super) type Batches = FxMap<u64, Batch>;

/// A reception that began uncorrupted: where its verdict is
/// (`receivers[pos]` of `tx_id`) and what could still corrupt it reads.
#[derive(Clone, Copy, Debug)]
struct Clean {
    /// The sender is the high 16 bits, as in every transmission id.
    tx_id: u64,
    pos: u32,
    end: SimTime,
    /// Transmitter-to-receiver distance, for the capture model; NaN
    /// (never read) when capture is not configured.
    sender_dist: f64,
}

impl Clean {
    /// Sets the verdict of a reception still in progress, whose
    /// transmission is therefore still on the air.
    fn mark_corrupted(self, batches: &mut Batches) {
        let batch = batches.get_mut(&self.tx_id);
        debug_assert!(batch.is_some(), "a reception outlived its transmission: {self:?}");
        if let Some(batch) = batch {
            batch.receivers[self.pos as usize].1 = true;
        }
    }
}

/// One node's receptions in progress, reduced to what a later event
/// reads. A frame that starts arriving during any reception with
/// `end > now` is corrupted whatever capture says, so at most one
/// reception in progress is uncorrupted: `clean`. Every corruption
/// predicate is `end > now`, so a record with `end <= now` is stale (for
/// an instant its reception, ended but not yet processed, coexists with a
/// new clean one, which overwrites it). All other receptions have their
/// final verdict in their [`Batch`] and only keep the medium busy.
#[derive(Debug, Default)]
pub(super) struct RxState {
    /// Latest end of any reception begun since the last clear.
    busy_until: SimTime,
    clean: Option<Clean>,
    /// [`World::rx_epoch`] of the last clear (crash, restart);
    /// receptions begun before it are void.
    cleared: u64,
}

/// How many accepts a remembered uid stays a duplicate for.
const RECENT_WINDOW: u64 = 128;

/// MAC-level duplicate suppression: 802.11's per-transmitter cache of
/// the last frame accepted from each sender, with a 128-accept window.
/// A uid is minted per enqueued frame (and per fault replay) and the MAC
/// is head-of-line, so only a retry of a sender's current *unicast* head
/// can reach a receiver twice, with nothing else of that sender's queue
/// in between: "among the last 128 uids accepted" is "the last retriable
/// uid accepted from its sender, at most 128 accepts ago". Other frames
/// only advance the window. A crash drops the cache with the node's
/// other volatile state.
#[derive(Debug)]
pub(super) struct RecentCache {
    /// Frames accepted so far.
    accepted: u64,
    /// Per sender: the last retriable uid accepted from it (0: none yet,
    /// no uid is 0) and `accepted` just before.
    last: Vec<(u64, u64)>,
    /// The set this cache replaced, shadowing it in every test run.
    #[cfg(test)]
    pub(super) oracle: tests::RecentOracle,
}

impl RecentCache {
    pub(super) fn new(n_nodes: usize) -> Self {
        RecentCache {
            accepted: 0,
            last: vec![(0, 0); n_nodes],
            #[cfg(test)]
            oracle: Default::default(),
        }
    }

    /// Accepts a frame's uid; `false` for a duplicate, which changes
    /// nothing.
    fn insert(&mut self, sender: NodeId, uid: u64, retriable: bool) -> bool {
        let last = &mut self.last[sender.index()];
        let fresh = !(retriable && last.0 == uid && self.accepted - last.1 <= RECENT_WINDOW);
        if fresh {
            if retriable {
                *last = (uid, self.accepted);
            }
            self.accepted += 1;
        }
        #[cfg(test)]
        assert_eq!(fresh, self.oracle.insert(uid), "duplicate verdict on {uid:#x} from {sender:?}");
        fresh
    }
}

impl World {
    /// A node's medium is busy while any reception is in progress or its
    /// own radio is occupied.
    pub(super) fn medium_busy_until(&self, node: NodeId) -> Option<SimTime> {
        let slot = &self.nodes[node.index()];
        let until = slot.rx.busy_until.max(slot.mac.ack_busy_until);
        (until > self.now).then_some(until)
    }

    /// Drops `node`'s receptions in progress (crash, restart):
    /// a new epoch voids their records in the transmissions' batches.
    pub(super) fn clear_receptions(&mut self, node: NodeId) {
        self.rx_epoch += 1;
        self.nodes[node.index()].rx = RxState { cleared: self.rx_epoch, ..RxState::default() };
    }

    /// Truncates whatever `sender` has on the air (it crashed): receivers
    /// see a corrupted tail. Receptions that were corrupted anyway have
    /// no `clean` record and need none.
    pub(super) fn corrupt_frames_from(&mut self, sender: NodeId) {
        let (now, from) = (self.now, u64::from(sender.0));
        for slot in &mut self.nodes {
            if let Some(c) = slot.rx.clean.take_if(|c| c.end > now && c.tx_id >> 48 == from) {
                c.mark_corrupted(&mut self.rx_batches);
            }
        }
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
    ///
    /// A receiver's state changes in three ways only: `busy_until`
    /// grows, a reception that meets a free medium becomes `clean`, and a
    /// `clean` one still in progress (`end > now`) that is not captured
    /// gets its verdict set and is forgotten.
    pub(super) fn propagate(&mut self, sender: NodeId, frame: Frame, tx_id: u64, dur: SimDuration) {
        let now = self.now;
        let capture = self.cfg.phy.capture_distance_ratio;

        // A station transmitting cannot hear; corrupt its reception.
        if let Some(c) = self.nodes[sender.index()].rx.clean.take_if(|c| c.end > now) {
            c.mark_corrupted(&mut self.rx_batches);
        }

        let mut in_range = std::mem::take(&mut self.range_scratch);
        let phase = if self.grid.is_some() { PHASE_NEIGHBOR_GRID } else { PHASE_NEIGHBOR_LINEAR };
        self.prof_enter(phase);
        self.in_range_into(sender, &mut in_range);
        self.prof_exit();
        let end = now + PROP_DELAY + dur;
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
            let rx = &mut receiver.rx;
            // Overlapping receptions corrupt each other — unless the
            // earlier frame's transmitter is so much closer that the
            // receiver captures it (first-frame capture only).
            if rx.busy_until > now {
                corrupted = true;
                let lost = |c: &mut Clean| {
                    let captured = matches!(capture, Some(r) if c.sender_dist * r <= sender_dist);
                    c.end > now && !captured
                };
                if let Some(c) = rx.clean.take_if(lost) {
                    c.mark_corrupted(&mut self.rx_batches);
                }
            }
            rx.busy_until = rx.busy_until.max(end);
            if !corrupted {
                let pos = receivers.len() as u32;
                rx.clean = Some(Clean { tx_id, pos, end, sender_dist });
            }
            receivers.push((m, corrupted));
        }
        self.range_scratch = in_range;
        if receivers.is_empty() {
            self.batch_pool.put(receivers);
        } else {
            self.rx_batches.insert(tx_id, Batch { epoch: self.rx_epoch, frame, receivers });
            self.schedule(end, Event::RxEndBatch { tx_id });
        }
    }

    /// Finishes every reception of `tx_id`, in ascending receiver
    /// order. The crash gate [`World::dispatch`] applies to per-node
    /// events is applied per receiver here, and nothing that runs
    /// during the batch can crash a node or cancel a sibling reception
    /// mid-batch (faults only fire from their own scheduled events), so
    /// the batch is observation-equivalent to one event per receiver.
    /// Nor can anything that runs during it change one of its verdicts:
    /// they are final once `end == now`. A receiver that cleared its
    /// receptions since the frame went out is skipped: for it the frame
    /// ends without a collision, a trace event or a MAC kick.
    pub(super) fn on_rx_end_batch(&mut self, tx_id: u64) {
        let Some(Batch { epoch, frame, receivers }) = self.rx_batches.remove(&tx_id) else {
            return;
        };
        for &(m, corrupted) in &receivers {
            if self.node_down(m) || self.nodes[m.index()].rx.cleared > epoch {
                continue;
            }
            if corrupted {
                self.metrics.collisions += 1;
                self.emit(TraceEvent::RxCollision { node: m });
                self.kick_now(m);
            } else {
                self.on_rx_end(m, tx_id, &frame);
            }
        }
        self.batch_pool.put(receivers);
    }

    /// An uncorrupted frame has fully arrived at `node`.
    fn on_rx_end(&mut self, node: NodeId, tx_id: u64, frame: &Frame) {
        let slot = &mut self.nodes[node.index()];
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
        let dur = SIFS + self.cfg.phy.ack_duration();
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
    use crate::hash::FxSet;
    use crate::mac::OutFrame;
    use crate::mobility::StaticMobility;
    use crate::packet::{ControlKind, ControlPacket, DataPacket, DEFAULT_DATA_TTL};
    use crate::static_routing::StaticRouting;
    use crate::trace::MemoryTrace;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// The remember-set [`RecentCache`] replaced, kept as its oracle: the
    /// last 128 uids accepted, whoever sent them.
    #[derive(Debug, Default)]
    pub(in crate::world) struct RecentOracle {
        order: VecDeque<u64>,
        set: FxSet<u64>,
        /// Duplicate verdicts given.
        pub(in crate::world) duplicates: u64,
    }

    impl RecentOracle {
        /// Inserts a uid; returns `false` if it was already present.
        pub(super) fn insert(&mut self, uid: u64) -> bool {
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
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The per-sender cache against the remember-set it replaced
        /// (`insert` asserts every verdict equal to its shadow oracle's),
        /// over streams that obey the kernel's contract: a sender has one
        /// retriable head at a time and retries it at most six times;
        /// other senders' heads, frames that cannot be retried — also the
        /// same sender's: a replay — and crashes of the receiver fall in
        /// between. Op 4 puts 126–129 accepts between two copies, either
        /// side of the window's edge.
        #[test]
        fn recent_cache_matches_the_remember_set(
            ops in prop::collection::vec((0u8..8, 0u16..4, 0u64..4), 0..80),
        ) {
            let mut cache = RecentCache::new(4);
            let mut minted = 0u64;
            let mut mint = |sender: u16| {
                minted += 1;
                (u64::from(sender) << 48) | minted
            };
            // Per sender: its head's uid and the retries it has left.
            let mut heads = [(0u64, 0u8); 4];
            for (op, s, gap) in ops {
                let (sender, head) = (NodeId(s), &mut heads[usize::from(s)]);
                match op {
                    0 | 1 => {
                        *head = (mint(s), 6);
                        prop_assert!(cache.insert(sender, head.0, true), "a new uid is fresh");
                    }
                    2..=4 if head.1 > 0 => {
                        head.1 -= 1;
                        let between = if op == 4 { 126 + gap } else { 0 };
                        let other = (s + 1) % 4;
                        for _ in 0..between {
                            cache.insert(NodeId(other), mint(other), false);
                        }
                        cache.insert(sender, head.0, true);
                    }
                    5 | 6 => prop_assert!(cache.insert(sender, mint(s), false)),
                    7 => cache = RecentCache::new(4),
                    _ => {}
                }
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

    /// A hub (node 0) with `spokes` senders on a circle round it: each
    /// 250 m from the hub (in range) and, up to five, ≥ 293 m from the
    /// others (out of range), so all are hidden terminals to one another.
    fn hub_world(spokes: u16, seed: u64, fault_plan: Option<FaultPlan>) -> World {
        let mut positions = vec![Position::new(0.0, 0.0)];
        let mut adjacency = vec![(1..=usize::from(spokes)).collect::<Vec<_>>()];
        for k in 0..spokes {
            let angle = std::f64::consts::TAU * f64::from(k) / f64::from(spokes);
            positions.push(Position::new(250.0 * angle.cos(), 250.0 * angle.sin()));
            adjacency.push(vec![0]);
        }
        static_world(positions, &adjacency, seed, fault_plan)
    }

    fn traced(w: &mut World) -> Arc<Mutex<MemoryTrace>> {
        let shared = MemoryTrace::shared();
        w.set_trace(Box::new(shared.clone()));
        shared
    }

    fn trace_of(shared: &Arc<Mutex<MemoryTrace>>) -> Vec<(SimTime, TraceEvent)> {
        shared.lock().map(|t| t.events().to_vec()).unwrap_or_default()
    }

    /// The receptions in progress at `node` as `(sender, corrupted)`, by
    /// sender, read where the kernel keeps them: in the records of the
    /// transmissions on the air.
    fn in_flight(w: &World, node: u16) -> Vec<(NodeId, bool)> {
        let mut all: Vec<_> = (w.rx_batches.values())
            .flat_map(|b| {
                b.receivers.iter().map(move |&(m, corrupted)| (m, b.frame.src, corrupted))
            })
            .filter_map(|(m, src, corrupted)| (m == NodeId(node)).then_some((src, corrupted)))
            .collect();
        all.sort();
        all
    }

    /// Queues a 512-byte data packet for node 0 at `node`, link-addressed
    /// to `link_dst` (`None`: broadcast), and arms the MAC as if its
    /// backoff expired at exactly `at`. Returns the frame's time on the
    /// air, propagation included.
    fn transmit_at(w: &mut World, node: u16, link_dst: Option<NodeId>, at: SimTime) -> SimDuration {
        let data = DataPacket {
            src: NodeId(node),
            dst: NodeId(0),
            flow: u32::from(node),
            seq: 0,
            created: at,
            payload_len: 512,
            ttl: DEFAULT_DATA_TTL,
            ext: Vec::new(),
        };
        w.enqueue_frame(NodeId(node), link_dst, PacketBody::Data(data), false);
        let mac = &mut w.nodes[usize::from(node)].mac;
        mac.state = MacState::Backoff { until: at };
        let bytes = mac.queue.back().map_or(0, |f| f.packet.wire_size());
        w.fel.schedule(at, Event::MacKick(NodeId(node)));
        PROP_DELAY + w.cfg.phy.tx_duration(bytes)
    }

    #[test]
    fn five_overlapping_receptions_all_collide_at_the_hub() {
        let mut w = hub_world(5, 3, None);
        let t0 = SimTime::from_millis(100);
        for sender in 1..=5 {
            w.schedule_app_packet(t0, NodeId(sender), NodeId(0), 512);
        }
        // First backoffs are ≤ 670 µs and a frame lasts ≈ 2.4 ms: 1 ms in,
        // all five are on the air, and none is clean at the hub.
        w.run_until(t0 + SimDuration::from_millis(1));
        assert_eq!(in_flight(&w, 0), (1..=5).map(|s| (NodeId(s), true)).collect::<Vec<_>>());
        let hub = &w.nodes[0].rx;
        assert!(hub.clean.is_none(), "{:?}", hub.clean);
        assert!(hub.busy_until > w.now() + SimDuration::from_millis(1));
        // 3.2 ms in, every first attempt has ended and no retry can have.
        w.run_until(t0 + SimDuration::from_micros(3200));
        assert_eq!(w.metrics.collisions, 5);
        assert_eq!(w.metrics.data_delivered, 0);
        assert_eq!(in_flight(&w, 0), []);
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
        assert_eq!(in_flight(&w, 1), [(NodeId(0), true)], "the crashed sender's frame survived");
        assert_eq!(in_flight(&w, 2), [(NodeId(3), false)], "a bystander's frame was corrupted");
        assert!(w.nodes[1].rx.clean.is_none() && w.nodes[2].rx.clean.is_some());
        w.run_until(SimTime::from_secs(1));
        assert_eq!((w.metrics.collisions, w.metrics.data_delivered), (1, 1));
    }

    /// The instant `RxState` allows a second clean reception: frame A
    /// ends at the hub at `t`, and hidden terminal B's backoff expires
    /// at that same `t` — its kick was scheduled long before A's end
    /// event, so B's frame starts arriving first and takes over the
    /// hub's `clean` record while A's verdict is still unread.
    #[test]
    fn two_clean_receptions_coexist_for_an_instant() {
        let mut w = hub_world(2, 5, None);
        let trace = traced(&mut w);
        let t0 = SimTime::from_millis(100);
        // A broadcasts (an ACK from the hub would corrupt B's frame).
        let t = t0 + transmit_at(&mut w, 1, None, t0);
        transmit_at(&mut w, 2, Some(NodeId(0)), t);
        w.run_until(t);
        let at_t: Vec<_> = trace_of(&trace).into_iter().filter(|(at, _)| *at == t).collect();
        assert!(
            matches!(
                at_t[..],
                [
                    (_, TraceEvent::TxStart { node: NodeId(2), .. }),
                    (_, TraceEvent::RxOk { node: NodeId(0), .. }),
                    ..
                ]
            ),
            "B must start before A's end is processed: {at_t:?}"
        );
        assert_eq!(in_flight(&w, 0), [(NodeId(2), false)]);
        w.run_until(SimTime::from_secs(1));
        assert_eq!((w.metrics.collisions, w.metrics.data_delivered), (0, 2));
        assert_eq!(w.nodes[0].recent.accepted, 2);
    }

    /// A clear voids the receptions in progress; it does not collide
    /// them: no collision counted or traced, no MAC kick for the
    /// receiver, and the medium reads free again.
    #[test]
    fn a_clear_voids_a_reception_in_progress() {
        // Back up at once, or 1 ms later with the frame still arriving.
        for downtime in [SimDuration::ZERO, SimDuration::from_millis(1)] {
            let t0 = SimTime::from_millis(100);
            let clear = t0 + SimDuration::from_millis(1);
            let plan = FaultPlan::new(vec![(
                clear,
                FaultAction::CrashRestart { node: NodeId(0), downtime },
            )]);
            let mut w = hub_world(1, 6, Some(plan));
            let trace = traced(&mut w);
            let end = t0 + transmit_at(&mut w, 1, Some(NodeId(0)), t0);
            assert!(end > clear + downtime);
            w.run_until(clear);
            let hub = &mut w.nodes[0];
            assert_eq!((hub.rx.busy_until, hub.rx.clean.is_some()), (SimTime::ZERO, false));
            assert_eq!(in_flight(&w, 0), [(NodeId(1), false)], "voided, not corrupted");
            // A frame nothing has kicked the hub's MAC for: a kick at the
            // voided reception's end would put it on the air.
            let body =
                PacketBody::Control(ControlPacket { kind: ControlKind::Other, bytes: vec![0] });
            w.nodes[0].mac.queue.push_back(OutFrame {
                packet: Packet { uid: 1, origin: NodeId(0), body },
                dst: None,
                notify_failure: false,
                attempts: 0,
                counted_tx: false,
            });
            w.run_until(end + SimDuration::from_micros(100));
            assert_eq!(in_flight(&w, 0), []);
            assert_eq!(w.metrics.collisions, 0);
            let heard = |e: &TraceEvent| {
                matches!(
                    e,
                    TraceEvent::RxCollision { .. }
                        | TraceEvent::RxOk { .. }
                        | TraceEvent::TxStart { node: NodeId(0), .. }
                )
            };
            let stray: Vec<_> = trace_of(&trace).into_iter().filter(|(_, e)| heard(e)).collect();
            assert_eq!(stray, [], "downtime {downtime:?}");
            // The sender's retry starts after the clear and is received.
            w.run_until(SimTime::from_secs(1));
            assert_eq!(w.metrics.data_delivered, 1, "downtime {downtime:?}");
        }
    }

    /// A node that starts transmitting corrupts its own clean reception,
    /// and a third arrival at a node whose clean reception was already
    /// corrupted is corrupted itself and changes nothing else.
    #[test]
    fn a_transmitter_corrupts_its_own_clean_reception() {
        let mut w = hub_world(2, 7, None);
        let t0 = SimTime::from_millis(100);
        let airtime = transmit_at(&mut w, 1, None, t0);
        w.run_until(t0 + SimDuration::from_micros(500));
        assert_eq!(in_flight(&w, 0), [(NodeId(1), false)]);
        assert!(w.nodes[0].rx.clean.is_some());
        // The hub sends an ACK (ACKs ignore carrier sense).
        w.nodes[0].tx_ctr += 1;
        let ack = Frame {
            src: NodeId(0),
            dst: Some(NodeId(1)),
            retriable: false,
            payload: FramePayload::Ack { acked_tx: 0 },
        };
        let dur = SIFS + w.cfg.phy.ack_duration();
        w.propagate(NodeId(0), ack, w.nodes[0].tx_ctr, dur);
        assert_eq!(in_flight(&w, 0), [(NodeId(1), true)]);
        assert!(w.nodes[0].rx.clean.is_none());
        // Hidden terminal B starts 1 ms into A's frame.
        let b_start = t0 + SimDuration::from_millis(1);
        transmit_at(&mut w, 2, None, b_start);
        w.run_until(b_start);
        assert_eq!(in_flight(&w, 0), [(NodeId(1), true), (NodeId(2), true)]);
        let hub = &w.nodes[0].rx;
        assert_eq!((hub.busy_until, hub.clean.is_some()), (b_start + airtime, false));
        // Both frames collide at the hub, and the ACK at A, which was
        // transmitting; B heard the ACK whole and ignored it.
        w.run_until(SimTime::from_secs(1));
        assert_eq!((w.metrics.collisions, w.metrics.data_delivered), (3, 0));
    }

    /// A unicast control frame replayed by the fault layer is accepted by
    /// the receiver of the sender's retried head between two copies of
    /// that head; it must not displace the head in the duplicate cache
    /// (`insert`'s shadow oracle asserts every verdict).
    #[test]
    fn a_replayed_unicast_frame_does_not_displace_the_retried_head() {
        // Half the frames between 0 and 1 are lost, ACKs included, so
        // node 1 sees retries of frames it has accepted; node 0's last
        // control frame is replayed every 1.7 ms throughout.
        let impair = FaultAction::LinkImpair {
            a: NodeId(0),
            b: NodeId(1),
            loss_ppm: 300_000,
            corrupt_ppm: 0,
        };
        let mut plan = vec![(SimTime::from_millis(1), impair)];
        plan.extend((0..170).map(|k| {
            let at = SimTime::from_millis(110) + SimDuration::from_micros(5300 * k);
            (at, FaultAction::ReplayLastControl { node: NodeId(0) })
        }));
        let positions = vec![Position::new(0.0, 0.0), Position::new(200.0, 0.0)];
        let mut w = static_world(positions, &[vec![1], vec![0]], 8, Some(FaultPlan::new(plan)));
        let ctrl = ControlPacket { kind: ControlKind::Other, bytes: vec![0; 24] };
        w.enqueue_frame(NodeId(0), Some(NodeId(1)), PacketBody::Control(ctrl), false);
        for k in 0..40 {
            w.schedule_app_packet(SimTime::from_millis(110 + 20 * k), NodeId(0), NodeId(1), 512);
        }
        w.run_until(SimTime::from_secs(1));
        let receiver = &w.nodes[1].recent;
        assert!(receiver.oracle.duplicates >= 5, "only {} duplicates", receiver.oracle.duplicates);
        assert!(
            receiver.accepted > 100,
            "only {} accepts: no replay got through",
            receiver.accepted
        );
        assert_eq!(w.metrics.duplicate_deliveries, 0);
    }

    #[test]
    fn no_transmission_record_outlives_its_rx_end() {
        // Five hidden terminals saturating the hub for 5 s.
        let mut w = hub_world(5, 9, None);
        for k in 0..250u64 {
            for sender in 1..=5 {
                w.schedule_app_packet(SimTime::from_millis(20 * k), NodeId(sender), NodeId(0), 512);
            }
        }
        w.run_until(SimTime::from_secs(5));
        assert!(w.metrics.collisions > 1000, "not dense: {} collisions", w.metrics.collisions);
        // Drained: nothing is on the air, so no record is left.
        w.run_until(SimTime::from_secs(8));
        assert!(w.fel.is_empty(), "{} events left", w.fel.len());
        assert!(w.rx_batches.is_empty(), "{:?}", w.rx_batches.keys());
    }
}
