//! Per-node MAC (medium access control) state.
//!
//! A simplified IEEE 802.11 DCF: carrier sense with a non-persistent
//! random backoff (DIFS + uniform slots from a binary-exponential
//! contention window), positive ACKs with a retry limit for unicast
//! frames, and a single jittered unreliable transmission for broadcast
//! frames. The state machine is *driven* by the simulator kernel in
//! [`crate::world`]; this module holds the data structures and the pure
//! transitions (queueing, contention-window evolution, retry budget),
//! which are unit-tested in isolation.

use crate::config::{PhyConfig, CW_MAX, DIFS, IFQ_CAP, SLOT};
use crate::packet::{NodeId, Packet};
use crate::rng::SimRng;
use crate::time::SimTime;
use std::collections::VecDeque;

/// A frame waiting in (or at the head of) the interface queue.
#[derive(Clone, Debug)]
pub struct OutFrame {
    /// Network-layer payload.
    pub packet: Packet,
    /// Link destination; `None` is a broadcast.
    pub dst: Option<NodeId>,
    /// Whether the routing protocol wants a callback if all retries fail.
    pub notify_failure: bool,
    /// Transmission attempts so far.
    pub attempts: u32,
    /// Whether this frame was already counted as a hop-wise transmission.
    pub counted_tx: bool,
}

/// What the MAC is currently doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MacState {
    /// Nothing in service.
    Idle,
    /// Counting down DIFS + backoff; a kick is scheduled at `until`.
    Backoff {
        /// When the backoff expires.
        until: SimTime,
    },
    /// Radio busy sending frame `tx_id` until `until`.
    Transmitting {
        /// Transmission id.
        tx_id: u64,
        /// Airtime end.
        until: SimTime,
    },
    /// Unicast sent; waiting for the ACK until `until`.
    AwaitAck {
        /// Transmission id being acknowledged.
        tx_id: u64,
        /// ACK deadline.
        until: SimTime,
    },
}

/// What to do with the head frame after a failed attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RetryVerdict {
    /// Back off and try again.
    Retry,
    /// Retries exhausted: drop the frame (and notify the protocol if
    /// `notify_failure`).
    GiveUp,
}

/// Per-node MAC state.
#[derive(Debug)]
pub struct Mac {
    /// Interface queue; head is in service.
    pub queue: VecDeque<OutFrame>,
    /// Current activity.
    pub state: MacState,
    /// Current contention window (backoff drawn uniformly from `0..=cw`).
    pub cw: u32,
    /// Radio occupied by an outgoing ACK until this time.
    pub ack_busy_until: SimTime,
    /// Backoff/jitter randomness.
    pub rng: SimRng,
    /// Frames dropped because the interface queue was full.
    pub ifq_drops: u64,
    /// Unicast frames abandoned after the retry limit.
    pub retry_failures: u64,
}

impl Mac {
    /// Creates an idle MAC with the minimum contention window.
    pub fn new(cw_min: u32, rng: SimRng) -> Self {
        Mac {
            queue: VecDeque::new(),
            state: MacState::Idle,
            cw: cw_min,
            ack_busy_until: SimTime::ZERO,
            rng,
            ifq_drops: 0,
            retry_failures: 0,
        }
    }

    /// Enqueues a frame, honouring the interface-queue capacity
    /// ([`IFQ_CAP`]). Returns `false` (and counts the drop) if the queue
    /// was full.
    pub fn enqueue(&mut self, frame: OutFrame) -> bool {
        if self.queue.len() >= IFQ_CAP {
            self.ifq_drops += 1;
            return false;
        }
        self.queue.push_back(frame);
        true
    }

    /// Draws a DIFS + backoff interval for the current contention window.
    pub fn draw_backoff(&mut self) -> crate::time::SimDuration {
        let slots = self.rng.below(u64::from(self.cw) + 1);
        DIFS + SLOT.saturating_mul(slots)
    }

    /// Doubles the contention window (binary exponential backoff).
    pub fn grow_cw(&mut self) {
        self.cw = ((self.cw * 2) + 1).min(CW_MAX);
    }

    /// Resets the contention window after a success or a final failure.
    pub fn reset_cw(&mut self, phy: &PhyConfig) {
        self.cw = phy.cw_min;
    }

    /// Registers a failed unicast attempt on the head frame and decides
    /// whether to retry. With an empty queue (a stale timeout after the
    /// frame already completed) there is nothing to retry: the attempt
    /// is ignored and the verdict is [`RetryVerdict::Retry`], which
    /// leaves the MAC idle without recording a failure.
    pub fn note_attempt_failed(&mut self, phy: &PhyConfig) -> RetryVerdict {
        let Some(head) = self.queue.front_mut() else { return RetryVerdict::Retry };
        head.attempts += 1;
        if head.attempts >= phy.retry_limit {
            self.retry_failures += 1;
            RetryVerdict::GiveUp
        } else {
            RetryVerdict::Retry
        }
    }

    /// Whether the radio itself is free at `now` (not transmitting a
    /// frame or an ACK). Carrier sensing of *other* stations is the
    /// kernel's job, since it requires radio-wide knowledge.
    pub fn radio_free(&self, now: SimTime) -> bool {
        let not_acking = now >= self.ack_busy_until;
        let not_txing = !matches!(self.state, MacState::Transmitting { until, .. } if now < until);
        not_acking && not_txing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{ControlKind, ControlPacket, PacketBody};

    fn frame(uid: u64) -> OutFrame {
        OutFrame {
            packet: Packet {
                uid,
                origin: NodeId(0),
                body: PacketBody::Control(ControlPacket {
                    kind: ControlKind::Other,
                    bytes: vec![],
                }),
            },
            dst: Some(NodeId(1)),
            notify_failure: false,
            attempts: 0,
            counted_tx: false,
        }
    }

    fn mac() -> Mac {
        Mac::new(31, SimRng::from_seed(5))
    }

    #[test]
    fn enqueue_respects_capacity() {
        let mut m = mac();
        for i in 0..50 {
            assert!(m.enqueue(frame(i)));
        }
        assert!(!m.enqueue(frame(99)));
        assert_eq!(m.queue.len(), 50);
        assert_eq!(m.ifq_drops, 1);
    }

    #[test]
    fn backoff_within_window() {
        let mut m = mac();
        for _ in 0..200 {
            let b = m.draw_backoff();
            assert!(b >= DIFS);
            assert!(b <= DIFS + SLOT.saturating_mul(u64::from(m.cw)));
        }
    }

    #[test]
    fn cw_grows_and_saturates_then_resets() {
        let phy = PhyConfig::default();
        let mut m = mac();
        assert_eq!(m.cw, 31);
        m.grow_cw();
        assert_eq!(m.cw, 63);
        for _ in 0..10 {
            m.grow_cw();
        }
        assert_eq!(m.cw, CW_MAX);
        m.reset_cw(&phy);
        assert_eq!(m.cw, phy.cw_min);
    }

    #[test]
    fn retry_budget_gives_up_at_limit() {
        let phy = PhyConfig::default();
        let mut m = mac();
        m.enqueue(frame(1));
        for _ in 0..(phy.retry_limit - 1) {
            assert_eq!(m.note_attempt_failed(&phy), RetryVerdict::Retry);
        }
        assert_eq!(m.note_attempt_failed(&phy), RetryVerdict::GiveUp);
        assert_eq!(m.retry_failures, 1);
    }

    #[test]
    fn radio_free_accounts_for_ack_and_tx() {
        let mut m = mac();
        let t0 = SimTime::from_micros(100);
        assert!(m.radio_free(t0));
        m.ack_busy_until = SimTime::from_micros(200);
        assert!(!m.radio_free(t0));
        assert!(m.radio_free(SimTime::from_micros(200)));
        m.ack_busy_until = SimTime::ZERO;
        m.state = MacState::Transmitting { tx_id: 1, until: SimTime::from_micros(150) };
        assert!(!m.radio_free(t0));
        assert!(m.radio_free(SimTime::from_micros(150)));
    }
}
