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
use std::collections::{HashSet, VecDeque};
use std::rc::Rc;

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
    pub(super) payload: FramePayload,
}

/// A reception in progress at one node.
///
/// The frame is shared (`Rc`) across every receiver of one
/// transmission: at 100-node scale a broadcast reaches dozens of
/// stations, and deep-cloning the packet per receiver dominated
/// `propagate`'s cost.
#[derive(Clone, Debug)]
pub(super) struct RxInProgress {
    tx_id: u64,
    pub(super) frame: Rc<Frame>,
    pub(super) end: SimTime,
    pub(super) corrupted: bool,
    /// Transmitter-to-receiver distance, for the capture model; NaN
    /// (never read) when capture is not configured.
    sender_dist: f64,
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

/// Bounded remember-set for MAC-level duplicate suppression.
#[derive(Debug, Default)]
pub(super) struct RecentCache {
    order: VecDeque<u64>,
    set: HashSet<u64, U64Build>,
}

impl RecentCache {
    /// Inserts a uid; returns `false` if it was already present.
    fn insert(&mut self, uid: u64) -> bool {
        if !self.set.insert(uid) {
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

impl World {
    /// A node's medium is busy while any reception is in progress or its
    /// own radio is occupied.
    pub(super) fn medium_busy_until(&self, node: NodeId) -> Option<SimTime> {
        let now = self.now;
        let slot = &self.nodes[node.index()];
        let mut until: Option<SimTime> = None;
        for rx in &slot.rx {
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
        for rx in &mut self.nodes[sender.index()].rx {
            if rx.end > now {
                rx.corrupted = true;
            }
        }

        let mut in_range = std::mem::take(&mut self.range_scratch);
        let phase = if self.grid.is_some() { PHASE_NEIGHBOR_GRID } else { PHASE_NEIGHBOR_LINEAR };
        self.prof_enter(phase);
        self.in_range_into(sender, &mut in_range);
        self.prof_exit();
        let frame = Rc::new(frame);
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
            for rx in &mut receiver.rx {
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
            receiver.rx.push(RxInProgress {
                tx_id,
                frame: Rc::clone(&frame),
                end,
                corrupted,
                sender_dist,
            });
            receivers.push(m);
        }
        self.range_scratch = in_range;
        if receivers.is_empty() {
            self.batch_pool.put(receivers);
        } else {
            self.rx_batches.insert(tx_id, receivers);
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
        let Some(receivers) = self.rx_batches.remove(&tx_id) else { return };
        for &m in &receivers {
            if self.node_down(m) {
                continue;
            }
            self.on_rx_end(m, tx_id);
        }
        self.batch_pool.put(receivers);
    }

    fn on_rx_end(&mut self, node: NodeId, tx_id: u64) {
        let slot = &mut self.nodes[node.index()];
        let Some(pos) = slot.rx.iter().position(|r| r.tx_id == tx_id) else {
            return;
        };
        let rx = slot.rx.swap_remove(pos);
        if rx.corrupted {
            self.metrics.collisions += 1;
            self.emit(TraceEvent::RxCollision { node });
            self.kick_now(node);
            return;
        }
        let frame = rx.frame;
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
        let FramePayload::Packet(ref packet) = frame.payload else {
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
            let fresh = self.nodes[node.index()].recent.insert(uid);
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
        let frame = Frame { src: node, dst: Some(to), payload: FramePayload::Ack { acked_tx } };
        self.propagate(node, frame, tx_id, dur);
        // Free the radio (and retry pending frames) when the ACK ends.
        self.schedule(now + dur, Event::MacKick(node));
    }
}
