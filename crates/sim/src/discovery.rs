//! Origin-side bookkeeping of on-demand route discovery, shared by the
//! reactive protocols (LDR, AODV, DSR).
//!
//! What a request carries, when a route counts as found and how a
//! buffered packet is finally sent differ per protocol and stay there.
//! What does not differ lives here: the per-destination packet buffer,
//! the retry count, the timer tokens that tell a live discovery's retry
//! from a stale one, the give-up policy, and the canonical digest of
//! all of it for the model checker.
//!
//! LDR and AODV also share RFC 3561's timing: the constants below, the
//! expanding ring ([`ring_ttl`]) and the per-attempt timeout
//! ([`discovery_timeout`]). DSR's doubling backoff is its own schedule.

use crate::hash::FxMap;
use crate::packet::{DataPacket, NodeId};
use crate::protocol::{Ctx, DropReason, ProtoCounter};
use crate::time::SimDuration;
use crate::wire;
use std::collections::VecDeque;

/// ACTIVE_ROUTE_TIMEOUT (RFC 3561 §10): the lifetime a route gets on
/// installation and on every refresh by data.
pub const ACTIVE_ROUTE_TIMEOUT: SimDuration = SimDuration::from_secs(3);
/// MY_ROUTE_TIMEOUT: the lifetime a destination grants in its own
/// replies.
pub const MY_ROUTE_TIMEOUT: SimDuration = SimDuration::from_secs(6);
/// NODE_TRAVERSAL_TIME: the estimated per-hop latency.
pub const NODE_TRAVERSAL_TIME: SimDuration = SimDuration::from_millis(40);
/// TTL_START: the first ring's TTL.
pub const TTL_START: u8 = 2;
/// TTL_INCREMENT: the step from one ring to the next.
pub const TTL_INCREMENT: u8 = 2;
/// TTL_THRESHOLD: the last ring TTL before the network-wide flood.
pub const TTL_THRESHOLD: u8 = 7;
/// NET_DIAMETER: the network-wide TTL.
pub const NET_DIAMETER: u8 = 35;
/// PATH_DISCOVERY_TIME: how long a node remembers a request it saw
/// (`2 · NET_TRAVERSAL_TIME`, 2.8 s); it covers the flood and its
/// replies.
pub const PATH_DISCOVERY_TIME: SimDuration = SimDuration::from_millis(2800);
/// Data packets buffered per destination while its discovery is open.
pub const DISCOVERY_BUFFER: usize = 64;

/// The TTL of discovery attempt `attempt` (1-based) on an expanding
/// ring that starts at `base`: each retry widens it by TTL_INCREMENT,
/// and the attempt that would pass TTL_THRESHOLD floods NET_DIAMETER
/// instead (RFC 3561 §6.4). AODV starts at TTL_START; LDR starts at its
/// *optimal TTL* seed.
pub fn ring_ttl(base: u8, attempt: u32) -> u8 {
    let mut ttl = base;
    for _ in 1..attempt {
        if ttl >= TTL_THRESHOLD {
            return NET_DIAMETER;
        }
        ttl = ttl.saturating_add(TTL_INCREMENT);
        if ttl > TTL_THRESHOLD {
            return NET_DIAMETER;
        }
    }
    ttl.min(NET_DIAMETER)
}

/// How long an attempt of TTL `ttl` waits for a reply before the next:
/// `2 · ttl · NODE_TRAVERSAL_TIME`.
pub fn discovery_timeout(ttl: u8) -> SimDuration {
    NODE_TRAVERSAL_TIME.saturating_mul(2 * u64::from(ttl.max(1)))
}

/// The fewest attempts of a ring started at TTL_START that reach `dist`
/// hops, when `max_attempts` allow it — the model checker's
/// [`ProtocolModel::discovery_attempts`](crate::protocol::ProtocolModel::discovery_attempts)
/// for LDR and AODV.
pub fn ring_attempts(dist: u32, max_attempts: u32) -> Option<u32> {
    let reaches = |attempt| u32::from(ring_ttl(TTL_START, attempt)) >= dist;
    let mut attempt = 1u32;
    while attempt < max_attempts && !reaches(attempt) {
        attempt += 1;
    }
    reaches(attempt).then_some(attempt)
}

/// One open discovery: the node is waiting for a route to the key.
#[derive(Clone, Debug)]
struct Discovery {
    generation: u64,
    attempts: u32,
    queue: VecDeque<DataPacket>,
}

/// The open route discoveries of one node, with their buffered data.
///
/// The contract the protocols rely on:
///
/// * **Tokens.** A retry-timer token is the destination above bit 32
///   and the low 32 bits of the discovery's generation, a counter that
///   rises by one per discovery opened. `u64::MAX` would take four
///   billion discoveries towards node 65535 to mint, so it stays free
///   for the protocols' periodic sweep timer, which is tested for
///   before a token is brought here.
/// * **Stale timers.** The simulator never cancels a timer. A
///   discovery that was closed, given up, or opened again under a new
///   generation leaves its timers in flight; [`Discoveries::dest_of`]
///   maps them to nothing and the caller ignores them.
#[derive(Clone, Debug, Default)]
pub struct Discoveries {
    pending: FxMap<NodeId, Discovery>,
    next_generation: u64,
}

impl Discoveries {
    /// The retry-timer token of discovery number `generation` towards
    /// `dest`.
    pub fn token(dest: NodeId, generation: u64) -> u64 {
        (u64::from(dest.0) << 32) | (generation & 0xFFFF_FFFF)
    }

    /// Whether a discovery towards `dest` is open.
    pub fn is_pending(&self, dest: NodeId) -> bool {
        self.pending.contains_key(&dest)
    }

    /// Buffers `data` behind the open discovery towards its
    /// destination, dropping it `BufferOverflow` when
    /// [`DISCOVERY_BUFFER`] packets already wait. With no discovery
    /// open, opens one around the packet, counts `DiscoveryStarted` and
    /// returns the token the caller must arm after sending its first
    /// request.
    pub fn buffer_or_open(&mut self, ctx: &mut Ctx, data: DataPacket) -> Option<u64> {
        let dest = data.dst;
        if let Some(d) = self.pending.get_mut(&dest) {
            if d.queue.len() >= DISCOVERY_BUFFER {
                ctx.drop_data(data, DropReason::BufferOverflow);
            } else {
                d.queue.push_back(data);
            }
            return None;
        }
        let generation = self.next_generation;
        self.next_generation += 1;
        let mut queue = VecDeque::new();
        queue.push_back(data);
        self.pending.insert(dest, Discovery { generation, attempts: 1, queue });
        ctx.count(ProtoCounter::DiscoveryStarted);
        Some(Self::token(dest, generation))
    }

    /// The destination whose open discovery armed `token`; `None` for
    /// a stale or foreign token.
    pub fn dest_of(&self, token: u64) -> Option<NodeId> {
        let dest = NodeId((token >> 32) as u16);
        let d = self.pending.get(&dest)?;
        (Self::token(dest, d.generation) == token).then_some(dest)
    }

    /// The retry timer of the open discovery towards `dest` fired and
    /// no route has turned up. Returns the attempt to make now and the
    /// token to re-arm; once `max_attempts` are spent, drops every
    /// buffered packet `NoRoute`, counts `DiscoveryFailed`, closes the
    /// discovery and returns `None`.
    pub fn retry(&mut self, ctx: &mut Ctx, dest: NodeId, max_attempts: u32) -> Option<(u32, u64)> {
        let d = self.pending.get_mut(&dest)?;
        if d.attempts >= max_attempts {
            for p in self.pending.remove(&dest)?.queue {
                ctx.drop_data(p, DropReason::NoRoute);
            }
            ctx.count(ProtoCounter::DiscoveryFailed);
            return None;
        }
        d.attempts += 1;
        Some((d.attempts, Self::token(dest, d.generation)))
    }

    /// Closes the discovery towards `dest` because a route exists,
    /// counting `DiscoverySucceeded` and handing back the buffered
    /// packets, oldest first. `None` when none was open.
    pub fn close(&mut self, ctx: &mut Ctx, dest: NodeId) -> Option<VecDeque<DataPacket>> {
        let d = self.pending.remove(&dest)?;
        ctx.count(ProtoCounter::DiscoverySucceeded);
        Some(d.queue)
    }

    /// Appends a canonical byte encoding of the complete state (sorted
    /// by destination; equal bytes iff behaviourally identical) for the
    /// protocols' [`ProtocolModel::digest`](crate::protocol::ProtocolModel::digest)s.
    pub fn digest(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.next_generation);
        let mut pending: Vec<(&NodeId, &Discovery)> = self.pending.iter().collect();
        pending.sort_unstable_by_key(|(d, _)| d.0);
        wire::put_u64(out, pending.len() as u64);
        for (dest, disc) in pending {
            wire::put_u16(out, dest.0);
            wire::put_u64(out, disc.generation);
            wire::put_u32(out, disc.attempts);
            wire::put_u64(out, disc.queue.len() as u64);
            for p in &disc.queue {
                wire::put_u16(out, p.src.0);
                wire::put_u16(out, p.dst.0);
                wire::put_u32(out, p.flow);
                wire::put_u32(out, p.seq);
                out.push(p.ttl);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Action;
    use crate::rng::SimRng;
    use crate::time::SimTime;

    fn pkt(dst: u16, seq: u32) -> DataPacket {
        DataPacket {
            src: NodeId(0),
            dst: NodeId(dst),
            flow: 1,
            seq,
            created: SimTime::ZERO,
            payload_len: 512,
            ttl: 64,
            ext: vec![],
        }
    }

    /// Runs `f` against `d` through a bare [`Ctx`] and returns its
    /// result with the actions it queued.
    fn drive<R>(
        d: &mut Discoveries,
        f: impl FnOnce(&mut Discoveries, &mut Ctx) -> R,
    ) -> (R, Vec<Action>) {
        let mut rng = SimRng::from_seed(1);
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(SimTime::from_secs(1), NodeId(0), 50, &mut rng, &mut actions);
        let r = f(d, &mut ctx);
        (r, actions)
    }

    fn buffer(d: &mut Discoveries, p: DataPacket) -> (Option<u64>, Vec<Action>) {
        drive(d, |d, ctx| d.buffer_or_open(ctx, p))
    }

    fn counted(actions: &[Action], which: ProtoCounter) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, Action::Count { which: w, amount: 1 } if *w == which))
            .count()
    }

    /// `(reason, seq)` of every dropped packet, in drop order.
    fn dropped(actions: &[Action]) -> Vec<(DropReason, u32)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::DropData { data, reason } => Some((*reason, data.seq)),
                _ => None,
            })
            .collect()
    }

    fn digest(d: &Discoveries) -> Vec<u8> {
        let mut out = Vec::new();
        d.digest(&mut out);
        out
    }

    #[test]
    fn the_packet_past_the_cap_is_dropped_and_opens_nothing() {
        let mut d = Discoveries::default();
        let (token, acts) = buffer(&mut d, pkt(7, 0));
        assert_eq!(token, Some(Discoveries::token(NodeId(7), 0)));
        assert_eq!(counted(&acts, ProtoCounter::DiscoveryStarted), 1);
        assert_eq!(acts.len(), 1);
        for seq in 1..DISCOVERY_BUFFER as u32 {
            assert!(matches!(buffer(&mut d, pkt(7, seq)), (None, a) if a.is_empty()));
        }
        let full = digest(&d);
        let (token, acts) = buffer(&mut d, pkt(7, 99));
        assert_eq!(token, None);
        assert_eq!(dropped(&acts), vec![(DropReason::BufferOverflow, 99)]);
        assert_eq!(acts.len(), 1, "no DiscoveryStarted, nothing else");
        assert_eq!(digest(&d), full, "the overflowing packet left no trace");
        // Another destination is untouched by 7's full buffer and gets
        // the next generation.
        let (token, acts) = buffer(&mut d, pkt(9, 0));
        assert_eq!(token, Some(Discoveries::token(NodeId(9), 1)));
        assert_eq!(counted(&acts, ProtoCounter::DiscoveryStarted), 1);
        assert!(d.is_pending(NodeId(7)) && d.is_pending(NodeId(9)) && !d.is_pending(NodeId(8)));
    }

    #[test]
    fn only_the_open_discoverys_own_token_maps_back() {
        let mut d = Discoveries::default();
        buffer(&mut d, pkt(7, 0));
        let (second, _) = buffer(&mut d, pkt(9, 0));
        assert_eq!(d.dest_of(Discoveries::token(NodeId(7), 0)), Some(NodeId(7)));
        assert_eq!(second.and_then(|t| d.dest_of(t)), Some(NodeId(9)));
        assert_eq!(d.dest_of(Discoveries::token(NodeId(7), 1)), None, "9's generation");
        assert_eq!(d.dest_of(Discoveries::token(NodeId(7), 42)), None);
        assert_eq!(d.dest_of(Discoveries::token(NodeId(8), 0)), None, "unknown destination");
        assert_eq!(d.dest_of(u64::MAX), None);
        assert_eq!(d.dest_of(u64::MAX - 1), None);
        // A finished discovery's timer is stale, and so is it for the
        // discovery that replaces it.
        drive(&mut d, |d, ctx| d.close(ctx, NodeId(7)));
        assert_eq!(d.dest_of(Discoveries::token(NodeId(7), 0)), None);
        let (third, _) = buffer(&mut d, pkt(7, 5));
        assert_eq!(third, Some(Discoveries::token(NodeId(7), 2)));
        assert_eq!(d.dest_of(Discoveries::token(NodeId(7), 0)), None);
    }

    #[test]
    fn attempts_run_to_the_limit_then_one_more_timer_gives_up() {
        const MAX: u32 = 4;
        let mut d = Discoveries::default();
        buffer(&mut d, pkt(9, 0)); // generation 0, so 7's token is not all zeroes
        let (token, _) = buffer(&mut d, pkt(7, 10));
        buffer(&mut d, pkt(7, 11));
        buffer(&mut d, pkt(7, 12));
        for attempt in 2..=MAX {
            let (next, acts) = drive(&mut d, |d, ctx| d.retry(ctx, NodeId(7), MAX));
            assert_eq!(next, Some((attempt, Discoveries::token(NodeId(7), 1))));
            assert_eq!(next.map(|(_, t)| t), token, "the same discovery throughout");
            assert!(acts.is_empty());
        }
        let (next, acts) = drive(&mut d, |d, ctx| d.retry(ctx, NodeId(7), MAX));
        assert_eq!(next, None);
        let no_route = |seq| (DropReason::NoRoute, seq);
        assert_eq!(dropped(&acts), vec![no_route(10), no_route(11), no_route(12)], "FIFO");
        assert_eq!(counted(&acts, ProtoCounter::DiscoveryFailed), 1);
        assert_eq!(acts.len(), 4);
        assert!(matches!(acts.last(), Some(Action::Count { .. })), "drops first, then the count");
        assert!(!d.is_pending(NodeId(7)) && d.is_pending(NodeId(9)));
        // Nothing is open towards 7 any more: no attempt, no count.
        assert!(
            matches!(drive(&mut d, |d, ctx| d.retry(ctx, NodeId(7), MAX)), (None, a) if a.is_empty())
        );
    }

    #[test]
    fn ring_attempts_counts_the_rings_a_distance_needs() {
        // Rings of TTL 2, 4, 6, then NET_DIAMETER.
        let want = [(1, Some(1)), (2, Some(1)), (3, Some(2)), (6, Some(3)), (7, Some(4))];
        for (dist, attempts) in want {
            assert_eq!(ring_attempts(dist, 5), attempts, "dist {dist}");
        }
        assert_eq!(ring_attempts(35, 5), Some(4));
        assert_eq!(ring_attempts(36, 5), None, "past the diameter");
        assert_eq!(ring_attempts(3, 1), None, "one attempt floods TTL_START only");
    }

    #[test]
    fn closing_hands_back_the_queue_oldest_first() {
        let mut d = Discoveries::default();
        for seq in [4, 2, 8] {
            buffer(&mut d, pkt(7, seq));
        }
        let (queue, acts) = drive(&mut d, |d, ctx| d.close(ctx, NodeId(7)));
        let seqs: Vec<u32> = queue.into_iter().flatten().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![4, 2, 8]);
        assert_eq!(counted(&acts, ProtoCounter::DiscoverySucceeded), 1);
        assert_eq!(acts.len(), 1);
        assert!(!d.is_pending(NodeId(7)));
        let (queue, acts) = drive(&mut d, |d, ctx| d.close(ctx, NodeId(7)));
        assert!(queue.is_none() && acts.is_empty(), "closing what is not open counts nothing");
    }

    #[test]
    fn digest_is_canonical_and_sees_every_field() {
        fn build(order: [u16; 3]) -> Discoveries {
            let mut d = Discoveries { next_generation: 10, ..Discoveries::default() };
            for dest in order {
                let queue = [pkt(dest, 0), pkt(dest, 1)].into();
                d.pending.insert(
                    NodeId(dest),
                    Discovery { generation: dest.into(), attempts: 1, queue },
                );
            }
            d
        }
        fn of7(d: &mut Discoveries) -> &mut Discovery {
            d.pending.get_mut(&NodeId(7)).expect("built above")
        }
        let base = digest(&build([3, 7, 9]));
        assert_eq!(digest(&build([9, 3, 7])), base, "insertion order is not state");
        type Tweak = fn(&mut Discoveries);
        let tweaks: [(&str, Tweak); 9] = [
            ("generation counter", |d| d.next_generation += 1),
            ("generation", |d| of7(d).generation += 1),
            ("attempts", |d| of7(d).attempts += 1),
            ("queue length", |d| of7(d).queue.truncate(1)),
            ("src", |d| of7(d).queue[1].src = NodeId(1)),
            ("dst", |d| of7(d).queue[1].dst = NodeId(8)),
            ("flow", |d| of7(d).queue[1].flow = 2),
            ("seq", |d| of7(d).queue[1].seq = 3),
            ("ttl", |d| of7(d).queue[1].ttl = 63),
        ];
        for (what, tweak) in tweaks {
            let mut d = build([3, 7, 9]);
            tweak(&mut d);
            assert_ne!(digest(&d), base, "{what}");
        }
    }
}
