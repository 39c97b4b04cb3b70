//! The future event list (FEL) of the discrete-event kernel.

use crate::packet::NodeId;
use crate::time::SimTime;

/// A scheduled occurrence in the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Re-evaluate a node's MAC state machine (backoff expiry, queue
    /// service, medium re-check).
    MacKick(NodeId),
    /// A node's transmission finishes.
    TxEnd {
        /// Transmitting node.
        node: NodeId,
        /// Transmission id.
        tx_id: u64,
    },
    /// A frame finishes arriving at *every* receiver of one
    /// transmission (see `World::propagate`). All of a transmission's
    /// receptions end at the same instant, so one event walks the
    /// receivers in ascending order — what one event per receiver,
    /// scheduled back to back, would do — and spares the event queue
    /// what would be its largest event class.
    RxEndBatch {
        /// Transmission id.
        tx_id: u64,
    },
    /// A unicast sender's ACK wait expires.
    AckTimeout {
        /// Waiting sender.
        node: NodeId,
        /// Transmission id awaited.
        tx_id: u64,
    },
    /// A routing-protocol timer fires.
    ProtocolTimer {
        /// Owning node.
        node: NodeId,
        /// The owner's incarnation when it armed the timer
        /// ([`crate::faults::FaultState::incarnation`]); a timer of an
        /// incarnation a crash has ended is dropped at dispatch.
        incarnation: u32,
        /// Protocol-chosen token.
        token: u64,
    },
    /// A CBR flow emits its next packet.
    FlowPacket {
        /// Flow slot index.
        flow: u32,
    },
    /// A CBR flow ends and is replaced.
    FlowEnd {
        /// Flow slot index.
        flow: u32,
    },
    /// A manually scheduled application packet (tests/examples).
    AppSend {
        /// Index into the manual packet list.
        idx: u32,
    },
    /// A scheduled fault-plan action fires
    /// (see [`crate::faults::FaultPlan`]).
    Fault {
        /// Index into the plan's entry list.
        idx: u32,
    },
    /// A crashed node comes back up with total state loss (scheduled by
    /// [`crate::faults::FaultAction::CrashRestart`]).
    FaultRestart {
        /// The restarting node.
        node: NodeId,
    },
    /// Periodic audit hook (loop checking, sampling).
    Audit,
    /// Periodic time-series telemetry sample
    /// (see [`crate::telemetry`]). The handler only snapshots kernel
    /// state and schedules its own successor — it draws no randomness
    /// and mutates nothing observable, so attaching the sampler cannot
    /// change a run's metrics or trace.
    TelemetrySample,
}

// The incarnation fits beside the node id: events stay two words.
const _: () = assert!(std::mem::size_of::<Event>() == 16);

impl Event {
    /// Number of event kinds (for fixed-size per-kind counters).
    pub const KIND_COUNT: usize = 14;

    /// Stable wire names of the event kinds, indexed by
    /// [`Event::kind_index`]. Order is the enum's declaration order;
    /// appending a variant appends a name (telemetry schema stability).
    /// `rx_end` and `reboot` are retired slots: no variant maps to
    /// them, so their counters read 0 in every `manet-series`/`manet-prof`
    /// document, and the columns stay so those documents keep their
    /// bytes. A crash-restart is [`Event::Fault`] then
    /// [`Event::FaultRestart`].
    pub const KIND_NAMES: [&'static str; Self::KIND_COUNT] = [
        "mac_kick",
        "tx_end",
        "rx_end",
        "rx_end_batch",
        "ack_timeout",
        "protocol_timer",
        "flow_packet",
        "flow_end",
        "app_send",
        "reboot",
        "fault",
        "fault_restart",
        "audit",
        "telemetry_sample",
    ];

    /// Index of this event's kind into [`Event::KIND_NAMES`].
    pub fn kind_index(&self) -> usize {
        match self {
            Event::MacKick(_) => 0,
            Event::TxEnd { .. } => 1,
            Event::RxEndBatch { .. } => 3,
            Event::AckTimeout { .. } => 4,
            Event::ProtocolTimer { .. } => 5,
            Event::FlowPacket { .. } => 6,
            Event::FlowEnd { .. } => 7,
            Event::AppSend { .. } => 8,
            Event::Fault { .. } => 10,
            Event::FaultRestart { .. } => 11,
            Event::Audit => 12,
            Event::TelemetrySample => 13,
        }
    }
}

/// FEL entry: ordered by time, then by insertion sequence (FIFO among
/// simultaneous events, which keeps runs deterministic).
#[derive(Clone, Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl Scheduled {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A [`Scheduled`] in the calendar ring's slab, linked to the next entry
/// of its bucket (or of the free list).
#[derive(Clone, Debug)]
struct RingEntry {
    sched: Scheduled,
    next: u32,
}

/// Width of one calendar bucket: `at >> TICK_SHIFT` is an event's tick
/// (8.192 µs). MAC-scale events land 50 µs–2 ms ahead, so a hundred-odd
/// of them spread over ≈ 250 buckets and a bucket rarely holds two.
const TICK_SHIFT: u32 = 13;

/// Buckets in the calendar ring: a window of 1024 ticks (≈ 8.4 ms) from
/// the cursor, past every MAC timer; what lies beyond goes to the heap.
const RING_BUCKETS: usize = 1024;

const RING_WORDS: usize = RING_BUCKETS / 64;

/// End of a bucket's (or the free list's) chain.
const NIL: u32 = u32::MAX;

/// Where the earliest pending event sits.
#[derive(Clone, Copy)]
enum Front {
    /// Head of this ring bucket.
    Ring(usize),
    /// Top of the overflow heap.
    Heap,
}

/// A time-ordered queue of future events.
///
/// Two tiers, one order. Events within 1024 ticks (of 8.192 µs) of the
/// cursor (the tick of the latest event popped) sit in a calendar ring:
/// one `(at, seq)`-sorted chain per tick, so scheduling and popping them
/// touches one bucket. Everything else — timers seconds away, and any
/// event dated before the cursor — sits in a 4-ary heap. Every pop
/// compares the head of the first occupied bucket with the heap top on
/// `(at, seq)`, so the pop order is the one total order whatever the
/// tier and whatever order events were scheduled in.
///
/// ```
/// use manet_sim::event::{Event, EventQueue};
/// use manet_sim::packet::NodeId;
/// use manet_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), Event::Audit);
/// q.schedule(SimTime::from_secs(1), Event::MacKick(NodeId(0)));
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(t, SimTime::from_secs(1));
/// assert_eq!(e, Event::MacKick(NodeId(0)));
/// ```
#[derive(Debug)]
pub struct EventQueue {
    /// Chain head per ring bucket, indexed by `tick % RING_BUCKETS`.
    /// All ring entries have ticks in `cursor .. cursor + RING_BUCKETS`,
    /// so a bucket holds one tick's events and circular bucket order
    /// from the cursor is tick order.
    heads: [u32; RING_BUCKETS],
    /// One bit per bucket: set iff its chain is non-empty.
    occupied: [u64; RING_WORDS],
    /// Ring entries, live and free; never shrinks.
    slab: Vec<RingEntry>,
    /// Head of the LIFO free list threaded through `slab`.
    free: u32,
    ring_len: usize,
    /// Tick of the latest event popped so far (never decreases).
    cursor: u64,
    /// 4-ary min-heap on `(at, seq)`: the overflow tier.
    heap: Vec<Scheduled>,
    next_seq: u64,
    #[cfg(test)]
    ring_schedules: u64,
}

/// Heap arity. Four children per node: shallower sift-downs, and the
/// children of node `i` (`4i+1 .. 4i+4`) share a cache line.
const HEAP_ARITY: usize = 4;

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            heads: [NIL; RING_BUCKETS],
            occupied: [0; RING_WORDS],
            slab: Vec::new(),
            free: NIL,
            ring_len: 0,
            cursor: 0,
            heap: Vec::new(),
            next_seq: 0,
            #[cfg(test)]
            ring_schedules: 0,
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / HEAP_ARITY;
            if self.heap[i].key() < self.heap[parent].key() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first_child = i * HEAP_ARITY + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + HEAP_ARITY).min(len);
            let mut best = first_child;
            for c in first_child + 1..last_child {
                if self.heap[c].key() < self.heap[best].key() {
                    best = c;
                }
            }
            if self.heap[best].key() < self.heap[i].key() {
                self.heap.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
    }

    /// Schedules `event` to occur at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let sched = Scheduled { at, seq, event };
        let tick = at.as_nanos() >> TICK_SHIFT;
        // Also false for a tick before the cursor (the difference wraps).
        if tick.wrapping_sub(self.cursor) < RING_BUCKETS as u64 {
            self.ring_insert((tick % RING_BUCKETS as u64) as usize, sched);
        } else {
            self.heap.push(sched);
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Links `sched` into `bucket`'s chain behind every entry not later
    /// than it: `sched` carries the highest `seq` so far, so that is its
    /// `(at, seq)` place.
    fn ring_insert(&mut self, bucket: usize, sched: Scheduled) {
        let at = sched.at;
        let (mut prev, mut cur) = (NIL, self.heads[bucket]);
        while cur != NIL && self.slab[cur as usize].sched.at <= at {
            prev = cur;
            cur = self.slab[cur as usize].next;
        }
        let entry = RingEntry { sched, next: cur };
        let idx = if self.free == NIL {
            self.slab.push(entry);
            (self.slab.len() - 1) as u32
        } else {
            let idx = self.free;
            self.free = std::mem::replace(&mut self.slab[idx as usize], entry).next;
            idx
        };
        if prev == NIL {
            self.heads[bucket] = idx;
            self.occupied[bucket / 64] |= 1 << (bucket % 64);
        } else {
            self.slab[prev as usize].next = idx;
        }
        self.ring_len += 1;
        #[cfg(test)]
        {
            self.ring_schedules += 1;
        }
    }

    /// The first occupied bucket in circular order from the cursor's —
    /// the ring's earliest tick.
    fn first_occupied(&self) -> Option<usize> {
        if self.ring_len == 0 {
            return None;
        }
        let start = (self.cursor % RING_BUCKETS as u64) as usize;
        let (word, bit) = (start / 64, start % 64);
        // The cursor's word from its bit up, the other words in circular
        // order, then the cursor's word below its bit.
        let upper = self.occupied[word] & (!0u64 << bit);
        if upper != 0 {
            return Some(word * 64 + upper.trailing_zeros() as usize);
        }
        for k in 1..RING_WORDS {
            let w = (word + k) % RING_WORDS;
            if self.occupied[w] != 0 {
                return Some(w * 64 + self.occupied[w].trailing_zeros() as usize);
            }
        }
        let lower = self.occupied[word] & !(!0u64 << bit);
        (lower != 0).then(|| word * 64 + lower.trailing_zeros() as usize)
    }

    /// Which tier holds the `(at, seq)` minimum, and its time.
    fn front(&self) -> Option<(Front, SimTime)> {
        let ring = self
            .first_occupied()
            .and_then(|b| Some((b, &self.slab.get(self.heads[b] as usize)?.sched)));
        match (ring, self.heap.first()) {
            (Some((b, r)), Some(h)) if r.key() < h.key() => Some((Front::Ring(b), r.at)),
            (_, Some(h)) => Some((Front::Heap, h.at)),
            (Some((b, r)), None) => Some((Front::Ring(b), r.at)),
            (None, None) => None,
        }
    }

    /// Removes the event [`EventQueue::front`] pointed at and moves the
    /// cursor up to it — whichever tier it came from, or a run that
    /// starts with far timers only would never open the ring's window.
    fn take(&mut self, front: Front) -> Option<(SimTime, Event)> {
        let s = match front {
            Front::Ring(bucket) => {
                let idx = self.heads[bucket];
                let entry = self.slab.get_mut(idx as usize)?;
                let next = std::mem::replace(&mut entry.next, self.free);
                let s = entry.sched.clone();
                self.free = idx;
                self.heads[bucket] = next;
                if next == NIL {
                    self.occupied[bucket / 64] &= !(1 << (bucket % 64));
                }
                self.ring_len -= 1;
                s
            }
            Front::Heap => {
                let last = self.heap.len().checked_sub(1)?;
                self.heap.swap(0, last);
                let s = self.heap.pop()?;
                self.sift_down(0);
                s
            }
        };
        self.cursor = self.cursor.max(s.at.as_nanos() >> TICK_SHIFT);
        Some((s.at, s.event))
    }

    /// Removes and returns the earliest event, if any. Events scheduled
    /// for the same instant come out in insertion order.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let (front, _) = self.front()?;
        self.take(front)
    }

    /// [`EventQueue::pop`], but only if the earliest event is due at or
    /// before `until`.
    pub fn pop_due(&mut self, until: SimTime) -> Option<(SimTime, Event)> {
        let (front, at) = self.front()?;
        if at > until {
            return None;
        }
        self.take(front)
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front().map(|(_, at)| at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Share of all `schedule` calls so far that landed in the ring.
    #[cfg(test)]
    pub(crate) fn ring_share(&self) -> f64 {
        self.ring_schedules as f64 / self.next_seq.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), Event::Audit);
        q.schedule(SimTime::from_secs(1), Event::FlowPacket { flow: 1 });
        q.schedule(SimTime::from_secs(2), Event::FlowEnd { flow: 1 });
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.as_nanos()).collect();
        assert_eq!(times, vec![1_000_000_000, 2_000_000_000, 3_000_000_000]);
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for flow in 0..100 {
            q.schedule(t, Event::FlowPacket { flow });
        }
        for expect in 0..100 {
            match q.pop().unwrap().1 {
                Event::FlowPacket { flow } => assert_eq!(flow, expect),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(9), Event::Audit);
        q.schedule(SimTime::from_secs(4), Event::Audit);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn heap_stress_matches_reference_queue() {
        // Pseudo-random schedule/pop interleaving; every pop must return
        // the (time, insertion-order) minimum of what is pending, which
        // is checked against a naive reference queue step by step.
        let mut q = EventQueue::new();
        let mut pending: Vec<(u64, u32)> = Vec::new();
        let mut lcg: u64 = 0x1234_5678_9abc_def0;
        let mut next = || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let check_pop = |q: &mut EventQueue, pending: &mut Vec<(u64, u32)>| {
            let Some((at, ev)) = q.pop() else {
                assert!(pending.is_empty());
                return;
            };
            let flow = match ev {
                Event::FlowPacket { flow } => flow,
                other => panic!("unexpected event {other:?}"),
            };
            let min_idx = (0..pending.len())
                .min_by_key(|&i| pending[i])
                .expect("reference queue empty but heap was not");
            assert_eq!((at.as_nanos() / 1_000_000, flow), pending[min_idx]);
            pending.remove(min_idx);
        };
        for i in 0..2000u32 {
            let t = next() % 50;
            pending.push((t, i));
            q.schedule(SimTime::from_millis(t), Event::FlowPacket { flow: i });
            if next() % 3 == 0 {
                check_pop(&mut q, &mut pending);
            }
        }
        while !q.is_empty() {
            check_pop(&mut q, &mut pending);
        }
        assert!(pending.is_empty());
    }

    /// The queue under test beside the reference it must agree with: a
    /// `BinaryHeap` on `(at, seq, id)`. Every mutation goes through
    /// both, and every answer is compared.
    struct Pair {
        q: EventQueue,
        reference: BinaryHeap<Reverse<(u64, u64, u32)>>,
        scheduled: u32,
        /// The latest time popped so far (the cursor's, to the tick): the
        /// base new times are drawn from.
        last: u64,
    }

    impl Pair {
        fn new() -> Self {
            Pair { q: EventQueue::new(), reference: BinaryHeap::new(), scheduled: 0, last: 0 }
        }

        fn schedule(&mut self, at: u64) {
            let id = self.scheduled;
            self.scheduled += 1;
            self.reference.push(Reverse((at, u64::from(id), id)));
            self.q.schedule(SimTime::from_nanos(at), Event::FlowPacket { flow: id });
        }

        /// `pop_due(until)`, or a plain `pop` when `until` is `None`.
        fn pop(&mut self, until: Option<u64>) -> Result<bool, String> {
            let due = self.reference.peek().is_some_and(|r| until.is_none_or(|u| r.0 .0 <= u));
            let expect =
                if due { self.reference.pop() } else { None }.map(|Reverse((at, _, id))| {
                    (SimTime::from_nanos(at), Event::FlowPacket { flow: id })
                });
            let got = match until {
                Some(u) => self.q.pop_due(SimTime::from_nanos(u)),
                None => self.q.pop(),
            };
            if got != expect {
                return Err(format!("popped {got:?}, the reference says {expect:?}"));
            }
            if let Some((at, _)) = got {
                self.last = self.last.max(at.as_nanos());
            }
            Ok(got.is_some())
        }

        fn check(&self) -> Result<(), String> {
            let peek = self.reference.peek().map(|r| SimTime::from_nanos(r.0 .0));
            if self.q.peek_time() != peek {
                return Err(format!("peek_time {:?}, reference {peek:?}", self.q.peek_time()));
            }
            if self.q.len() != self.reference.len() || self.q.is_empty() != peek.is_none() {
                return Err(format!("len {}, reference {}", self.q.len(), self.reference.len()));
            }
            Ok(())
        }
    }

    const TICK: u64 = 1 << TICK_SHIFT;
    const HORIZON: u64 = RING_BUCKETS as u64 * TICK;

    /// A time to schedule at, relative to the latest pop: a third each
    /// MAC-scale, around the ring horizon, and out of the window.
    fn arbitrary_time(last: u64, class: u8, rng: &mut SimRng) -> u64 {
        match class {
            0 => last,
            1 => last + 1 + rng.below(200),
            2 => last + 1 + rng.below(2_000_000),
            3 => last + 8_000_000 + rng.below(1_000_000),
            4 => (last / TICK + rng.below(1100)) * TICK,
            5 => (last / HORIZON + rng.below(3)) * HORIZON,
            6 => last + 1_000_000_000 + rng.below(3_000_000_000),
            7 => last.saturating_sub(1 + rng.below(10_000_000)),
            _ => u64::MAX,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn two_tier_queue_matches_the_reference_heap(
            ops in prop::collection::vec((0u8..10, 0u8..9, any::<u64>()), 100..400),
        ) {
            let mut p = Pair::new();
            // Four horizon-aligned far timers, so draining the queue
            // takes the cursor round the ring at least three times.
            for k in 1..=4 {
                p.schedule(k * HORIZON);
            }
            for (op, class, seed) in ops {
                let mut rng = SimRng::from_seed(seed);
                let result = match op {
                    0..=5 => {
                        p.schedule(arbitrary_time(p.last, class, &mut rng));
                        Ok(())
                    }
                    6 | 7 => p.pop(None).map(drop),
                    8 => p.pop(Some(p.last + rng.below(3_000_000))).map(drop),
                    _ => split_burst(&mut p, 1 + rng.below(400_000)),
                };
                prop_assert_eq!(result, Ok(()));
                prop_assert_eq!(p.check(), Ok(()));
                // Only `u64::MAX` events were left and one came out: times
                // drawn from here on would overflow.
                if p.last > u64::MAX / 2 {
                    break;
                }
            }
            while !p.reference.is_empty() {
                prop_assert_eq!(p.pop(None), Ok(true));
                prop_assert_eq!(p.check(), Ok(()));
            }
            prop_assert_eq!(p.pop(None), Ok(false));
            prop_assert!(p.q.cursor >= 3 * RING_BUCKETS as u64, "cursor {}", p.q.cursor);
        }
    }

    /// One instant's events split across the tiers: two scheduled while
    /// the instant lies past the window (heap), then — once pops have
    /// moved the cursor within a window of it — two more (ring). They
    /// must come out in `seq` order, the heap's pair first.
    fn split_burst(p: &mut Pair, jitter: u64) -> Result<(), String> {
        let at = p.last + HORIZON + jitter;
        let heap_before = p.q.heap.len();
        p.schedule(at);
        p.schedule(at);
        if p.q.heap.len() != heap_before + 2 {
            return Err("an event past the window was not put on the heap".into());
        }
        let step = at - HORIZON / 2;
        p.schedule(step);
        while p.last < step {
            if !p.pop(None)? {
                return Err("the stepping event was lost".into());
            }
        }
        let ring_before = p.q.ring_len;
        p.schedule(at);
        p.schedule(at);
        if p.q.ring_len != ring_before + 2 {
            return Err("an event inside the window was not put in the ring".into());
        }
        Ok(())
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), Event::Audit);
        q.schedule(SimTime::from_secs(5), Event::Audit);
        let (t1, _) = q.pop().unwrap();
        assert_eq!(t1, SimTime::from_secs(5));
        q.schedule(SimTime::from_secs(7), Event::Audit);
        q.schedule(SimTime::from_secs(6), Event::Audit);
        let (t2, _) = q.pop().unwrap();
        assert_eq!(t2, SimTime::from_secs(6));
        let (t3, _) = q.pop().unwrap();
        assert_eq!(t3, SimTime::from_secs(7));
        let (t4, _) = q.pop().unwrap();
        assert_eq!(t4, SimTime::from_secs(10));
    }
}
