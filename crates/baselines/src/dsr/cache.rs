//! The DSR route cache (path cache).
//!
//! Stores complete paths from this node to destinations. Draft-03-style
//! caches have no timeout — stale routes linger until a route error
//! removes the broken link, which is a major contributor to DSR's poor
//! delivery under mobility (§4 of the paper). A draft-07-flavoured
//! expiry is available via [`RouteCache::new`]'s `timeout`.
//!
//! # Order
//!
//! Every tie is broken by *insertion order*: the order in which the
//! cached paths were first stored, which a refresh does not change. The
//! shortest of several equal-length paths is the earliest inserted, and
//! the oldest entry — the one a full cache evicts — is the one with the
//! least `added`, the earliest inserted among equals.
//!
//! # Layout and cost
//!
//! An entry lives in a slot that never moves while the entry lives.
//! Three columns are indexed by slot:
//! - `keys`: one word per slot holding the destination, the first hop
//!   and a fingerprint of the path (512 bytes at the production
//!   capacity of 64);
//! - `ages`: `added`, the insertion number that gives the order above,
//!   a 64-bit mask of the path's nodes, and the links of the age list,
//!   which runs from the oldest entry to the youngest by (`added`,
//!   insertion number);
//! - `paths`: the path buffers. A slot freed by a removal or an
//!   eviction keeps its buffer, emptied, for the next path stored
//!   there; a clone copies only the live paths.
//!
//! What each operation costs:
//! - [`RouteCache::insert`]: one pass over the new path for its
//!   fingerprint and mask, which also rejects the owner and repeated
//!   nodes; one scan of the key column, eight keys per step; a path
//!   compared only where its key matches. No allocation once a slot's
//!   buffer has held as long a path.
//! - A refresh relinks its entry in the age list, searching back from
//!   the youngest end. While time does not go backwards, the only
//!   entries it passes are those added at the same instant and
//!   inserted after it.
//! - Eviction takes the head of the age list: no scan, no shift.
//! - [`RouteCache::lookup`] and [`RouteCache::lookup_avoiding`]: one
//!   scan of the key column. Only an entry with the right destination
//!   is read further: its path's length, and its path when a link is
//!   to be avoided.
//! - [`RouteCache::remove_link`] from the owner reads the key column
//!   alone, since a path never holds its owner and only a first hop
//!   can leave it. From another node it reads each entry's mask, and
//!   the path only where both ends of the link are in the mask.
//! - [`RouteCache::remove_dest`]: the key column.

use manet_sim::packet::NodeId;
use manet_sim::time::{SimDuration, SimTime};

/// No slot: the end of the age list.
const NIL: u32 = u32::MAX;

/// A slot's inline key, one word: the destination (bits 48–63), the
/// first hop (32–47) and a fingerprint of the path (0–31), which is odd
/// for a stored path. A free slot's key is 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key(u64);

impl Key {
    const FREE: Key = Key(0);

    fn new(dest: NodeId, first: NodeId, fp: u32) -> Key {
        Key(u64::from(dest.0) << 48 | u64::from(first.0) << 32 | u64::from(fp))
    }

    fn live(self) -> bool {
        self != Key::FREE
    }

    fn dest(self) -> NodeId {
        NodeId((self.0 >> 48) as u16)
    }

    fn first(self) -> NodeId {
        NodeId((self.0 >> 32) as u16)
    }
}

/// A slot's place in the age list, which runs from the oldest entry to
/// the youngest by (`added`, `seq`), and its path's node mask.
#[derive(Clone, Copy, Debug)]
struct Age {
    added: SimTime,
    /// Insertion number: the entry's place in every tie-break.
    seq: u64,
    /// Bit `n % 64` set for every node `n` on the path: a link whose
    /// ends are not both in it is not on the path.
    mask: u64,
    prev: u32,
    next: u32,
}

/// A bounded path cache.
#[derive(Clone, Debug)]
pub struct RouteCache {
    owner: NodeId,
    cap: usize,
    timeout: Option<SimDuration>,
    keys: Vec<Key>,
    ages: Vec<Age>,
    /// Each slot's path (this node excluded; `path[0]` is the first hop
    /// and `path.last()` the destination); empty in a free slot.
    paths: Vec<Vec<NodeId>>,
    live: usize,
    /// Oldest and youngest entries.
    head: u32,
    tail: u32,
    next_seq: u64,
}

impl RouteCache {
    /// A cache for `owner` holding at most `cap` paths; `timeout` of
    /// `None` reproduces draft-03 behaviour (entries never expire).
    pub fn new(owner: NodeId, cap: usize, timeout: Option<SimDuration>) -> Self {
        RouteCache {
            owner,
            cap,
            timeout,
            keys: Vec::new(),
            ages: Vec::new(),
            paths: Vec::new(),
            live: 0,
            head: NIL,
            tail: NIL,
            next_seq: 0,
        }
    }

    fn alive(&self, slot: usize, now: SimTime) -> bool {
        match self.timeout {
            Some(t) => now < self.ages[slot].added + t,
            None => true,
        }
    }

    /// Inserts a path from this node (`path[0]` = first hop, last =
    /// destination). Rejects paths containing the owner or duplicate
    /// nodes (source routes must be loop-free by construction). Evicts
    /// the oldest entry when full. Returns whether the path was stored
    /// (a refresh of a cached path counts).
    pub fn insert(&mut self, path: &[NodeId], now: SimTime) -> bool {
        let (Some(&first), Some(&dest)) = (path.first(), path.last()) else { return false };
        let Some((fp, mask)) = summary(path, self.owner) else { return false };
        let key = Key::new(dest, first, fp);
        // Eight keys at a time without a branch, then the chunk that
        // holds the key (a different path only on a fingerprint clash).
        for (c, chunk) in self.keys.chunks(8).enumerate() {
            if !chunk.iter().fold(false, |hit, &k| hit | (k == key)) {
                continue;
            }
            for (i, &k) in chunk.iter().enumerate() {
                let slot = c * 8 + i;
                if k == key && self.paths[slot] == path {
                    self.unlink(slot);
                    self.ages[slot].added = now;
                    self.link_in_order(slot);
                    return true;
                }
            }
        }
        let slot = match self.evict_if_full() {
            Some(slot) => slot,
            None => match self.keys.iter().position(|&k| !k.live()) {
                Some(hole) => hole,
                None => {
                    self.keys.push(Key::FREE);
                    self.ages.push(Age { added: now, seq: 0, mask: 0, prev: NIL, next: NIL });
                    self.paths.push(Vec::with_capacity(path.len()));
                    self.keys.len() - 1
                }
            },
        };
        self.keys[slot] = key;
        self.paths[slot].extend_from_slice(path);
        self.ages[slot] = Age { added: now, seq: self.next_seq, mask, prev: NIL, next: NIL };
        self.next_seq += 1;
        self.link_in_order(slot);
        self.live += 1;
        true
    }

    /// Frees the oldest entry's slot when the cache is full (or, at
    /// `cap` 0, holds anything) and returns it.
    fn evict_if_full(&mut self) -> Option<usize> {
        if self.live < self.cap || self.head == NIL {
            return None;
        }
        let slot = self.head as usize;
        self.free(slot);
        Some(slot)
    }

    /// The slot of the shortest live cached path to `dst` that `keep`
    /// accepts, the earliest inserted among equals.
    fn best(&self, dst: NodeId, now: SimTime, keep: impl Fn(&[NodeId]) -> bool) -> Option<usize> {
        (0..self.keys.len())
            .filter(|&slot| {
                let k = self.keys[slot];
                k.dest() == dst && k.live() && self.alive(slot, now) && keep(&self.paths[slot])
            })
            .min_by_key(|&slot| (self.paths[slot].len(), self.ages[slot].seq))
    }

    /// The shortest live cached path to `dst`, if any.
    pub fn lookup(&self, dst: NodeId, now: SimTime) -> Option<&[NodeId]> {
        self.best(dst, now, |_| true).map(|slot| self.paths[slot].as_slice())
    }

    /// A live cached path to `dst` that avoids the directed link
    /// `from → to` (for salvaging).
    pub fn lookup_avoiding(
        &self,
        dst: NodeId,
        from: NodeId,
        to: NodeId,
        now: SimTime,
    ) -> Option<&[NodeId]> {
        let owner = self.owner;
        self.best(dst, now, |p| !contains_link(owner, p, from, to))
            .map(|slot| self.paths[slot].as_slice())
    }

    /// Removes every path using the directed link `from → to`.
    /// Returns how many paths were dropped.
    pub fn remove_link(&mut self, from: NodeId, to: NodeId) -> usize {
        if from == self.owner {
            // A path never holds its owner, so only a first hop can
            // leave it.
            self.remove_where(|k, _, _| k.first() == to)
        } else {
            let both = bit(from) | bit(to);
            self.remove_where(|_, mask, p| {
                mask & both == both && p.windows(2).any(|w| w[0] == from && w[1] == to)
            })
        }
    }

    /// Removes every path ending at `dest` (the model checker's
    /// cache-timeout transition). Returns how many paths were dropped.
    pub fn remove_dest(&mut self, dest: NodeId) -> usize {
        self.remove_where(|k, _, _| k.dest() == dest)
    }

    /// Frees every live slot `hit` accepts, given its key, node mask and
    /// path.
    fn remove_where(&mut self, hit: impl Fn(Key, u64, &[NodeId]) -> bool) -> usize {
        let mut dropped = 0;
        for slot in 0..self.keys.len() {
            let k = self.keys[slot];
            if k.live() && hit(k, self.ages[slot].mask, &self.paths[slot]) {
                self.free(slot);
                dropped += 1;
            }
        }
        dropped
    }

    /// Unlinks a live slot and frees it, keeping its buffer.
    fn free(&mut self, slot: usize) {
        self.unlink(slot);
        self.keys[slot] = Key::FREE;
        self.paths[slot].clear();
        self.live -= 1;
    }

    fn unlink(&mut self, slot: usize) {
        let Age { prev, next, .. } = self.ages[slot];
        match prev {
            NIL => self.head = next,
            p => self.ages[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.ages[n as usize].prev = prev,
        }
    }

    /// Links an unlinked slot into the age list at its (`added`, `seq`)
    /// place, searching back from the youngest end.
    fn link_in_order(&mut self, slot: usize) {
        let me = (self.ages[slot].added, self.ages[slot].seq);
        let mut prev = self.tail;
        while prev != NIL {
            let a = self.ages[prev as usize];
            if (a.added, a.seq) < me {
                break;
            }
            prev = a.prev;
        }
        let next = match prev {
            NIL => std::mem::replace(&mut self.head, slot as u32),
            p => std::mem::replace(&mut self.ages[p as usize].next, slot as u32),
        };
        match next {
            NIL => self.tail = slot as u32,
            n => self.ages[n as usize].prev = slot as u32,
        }
        self.ages[slot].prev = prev;
        self.ages[slot].next = next;
    }

    /// Every cached entry as `(path, added)`, sorted by path — the
    /// canonical order for state digests and verification dumps.
    pub(crate) fn entries_sorted(&self) -> Vec<(&[NodeId], SimTime)> {
        let mut v: Vec<(&[NodeId], SimTime)> = (0..self.keys.len())
            .filter(|&slot| self.keys[slot].live())
            .map(|slot| (self.paths[slot].as_slice(), self.ages[slot].added))
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of cached paths.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of cached paths still alive at `now` (all of them under
    /// draft-03's no-timeout behaviour).
    pub fn live_paths(&self, now: SimTime) -> usize {
        (0..self.keys.len()).filter(|&slot| self.keys[slot].live() && self.alive(slot, now)).count()
    }
}

#[cfg(test)]
impl RouteCache {
    /// Panics unless the age list holds exactly the live slots, sorted
    /// by (`added`, `seq`) and linked both ways, and each live slot's key
    /// and mask describe its path.
    fn assert_consistent(&self) {
        let (mut slot, mut prev, mut seen) = (self.head, NIL, 0);
        while slot != NIL {
            let a = self.ages[slot as usize];
            assert_eq!(a.prev, prev, "back link of slot {slot}");
            if prev != NIL {
                let p = self.ages[prev as usize];
                assert!((p.added, p.seq) < (a.added, a.seq), "age order at slot {slot}");
            }
            let (k, path) = (self.keys[slot as usize], &self.paths[slot as usize]);
            let (fp, mask) = summary(path, self.owner).expect("a stored path is storable");
            assert_eq!(k, Key::new(*path.last().unwrap(), path[0], fp), "key of slot {slot}");
            assert_eq!(a.mask, mask, "mask of slot {slot}");
            (prev, slot, seen) = (slot, a.next, seen + 1);
        }
        assert_eq!(self.tail, prev);
        assert_eq!(seen, self.live);
        let live = self.keys.iter().filter(|k| k.live()).count();
        assert_eq!(live, self.live);
        for (k, p) in self.keys.iter().zip(&self.paths) {
            assert_eq!(k.live(), !p.is_empty());
        }
    }
}

/// The node-mask bit of `n`.
fn bit(n: NodeId) -> u64 {
    1 << (n.0 % 64)
}

/// Whether some node appears twice. The prefix is searched only for a
/// node whose mask bit is already set.
pub(crate) fn has_repeat(path: &[NodeId]) -> bool {
    let mut mask = 0;
    path.iter().enumerate().any(|(i, n)| {
        let seen = mask & bit(*n) != 0 && path[..i].contains(n);
        mask |= bit(*n);
        seen
    })
}

/// An odd 32-bit fingerprint of a storable path (FxHash's
/// rotate-xor-multiply) and its node mask; `None` if the path holds
/// `owner` or repeats a node.
fn summary(path: &[NodeId], owner: NodeId) -> Option<(u32, u64)> {
    let (mut h, mut mask) = (0u64, 0u64);
    for (i, n) in path.iter().enumerate() {
        if *n == owner || mask & bit(*n) != 0 && path[..i].contains(n) {
            return None;
        }
        mask |= bit(*n);
        h = (h.rotate_left(5) ^ u64::from(n.0)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    Some(((h >> 32) as u32 | 1, mask))
}

/// Whether the path (owned by `owner`, implicitly prefixed with it)
/// traverses the directed link `from → to`.
fn contains_link(owner: NodeId, path: &[NodeId], from: NodeId, to: NodeId) -> bool {
    if owner == from && path.first() == Some(&to) {
        return true;
    }
    path.windows(2).any(|w| w[0] == from && w[1] == to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `RouteCache` as it was before it became slot columns: one `Vec`
    /// in insertion order, scanned by every operation. The oracle the
    /// new cache is held to.
    mod oracle {
        use super::contains_link;
        use manet_sim::packet::NodeId;
        use manet_sim::time::{SimDuration, SimTime};

        #[derive(Clone, Debug)]
        struct CachedPath {
            path: Vec<NodeId>,
            added: SimTime,
        }

        #[derive(Clone, Debug)]
        pub struct OldCache {
            owner: NodeId,
            paths: Vec<CachedPath>,
            cap: usize,
            timeout: Option<SimDuration>,
        }

        impl OldCache {
            pub fn new(owner: NodeId, cap: usize, timeout: Option<SimDuration>) -> Self {
                OldCache { owner, paths: Vec::new(), cap, timeout }
            }

            fn alive(&self, p: &CachedPath, now: SimTime) -> bool {
                match self.timeout {
                    Some(t) => now < p.added + t,
                    None => true,
                }
            }

            pub fn insert(&mut self, path: &[NodeId], now: SimTime) -> bool {
                if path.is_empty() || path.contains(&self.owner) {
                    return false;
                }
                if path.iter().enumerate().any(|(i, n)| path[..i].contains(n)) {
                    return false;
                }
                if let Some(existing) = self.paths.iter_mut().find(|p| p.path == path) {
                    existing.added = now;
                    return true;
                }
                if self.paths.len() >= self.cap {
                    if let Some((i, _)) = self.paths.iter().enumerate().min_by_key(|(_, p)| p.added)
                    {
                        self.paths.remove(i);
                    }
                }
                self.paths.push(CachedPath { path: path.to_vec(), added: now });
                true
            }

            pub fn lookup(&self, dst: NodeId, now: SimTime) -> Option<Vec<NodeId>> {
                self.paths
                    .iter()
                    .filter(|p| self.alive(p, now))
                    .filter(|p| p.path.last() == Some(&dst))
                    .min_by_key(|p| p.path.len())
                    .map(|p| p.path.clone())
            }

            pub fn lookup_avoiding(
                &self,
                dst: NodeId,
                from: NodeId,
                to: NodeId,
                now: SimTime,
            ) -> Option<Vec<NodeId>> {
                self.paths
                    .iter()
                    .filter(|p| self.alive(p, now))
                    .filter(|p| p.path.last() == Some(&dst))
                    .filter(|p| !contains_link(self.owner, &p.path, from, to))
                    .min_by_key(|p| p.path.len())
                    .map(|p| p.path.clone())
            }

            pub fn remove_link(&mut self, from: NodeId, to: NodeId) -> usize {
                let owner = self.owner;
                let before = self.paths.len();
                self.paths.retain(|p| !contains_link(owner, &p.path, from, to));
                before - self.paths.len()
            }

            pub fn remove_dest(&mut self, dest: NodeId) -> usize {
                let before = self.paths.len();
                self.paths.retain(|p| p.path.last() != Some(&dest));
                before - self.paths.len()
            }

            pub fn entries_sorted(&self) -> Vec<(&[NodeId], SimTime)> {
                let mut v: Vec<(&[NodeId], SimTime)> =
                    self.paths.iter().map(|p| (p.path.as_slice(), p.added)).collect();
                v.sort_unstable();
                v
            }

            pub fn len(&self) -> usize {
                self.paths.len()
            }

            pub fn live_paths(&self, now: SimTime) -> usize {
                self.paths.iter().filter(|p| self.alive(p, now)).count()
            }
        }
    }

    /// One operation of a random sequence: `(kind, path, a, b, step)`.
    /// `kind` picks insert (twice as often, so that caches fill and
    /// evict), refresh of an earlier path, `lookup`, `lookup_avoiding`,
    /// `remove_link` or `remove_dest`; `a` and `b` are the destination
    /// or link ends; `step` moves the clock 0 or 1 s forward (ties in
    /// `added` are the common case), or 1 s back. Node numbers go
    /// through [`node`].
    type Op = (u8, Vec<u16>, u16, u16, u8);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (0u8..7, proptest::collection::vec(0u16..11, 0..5), 0u16..11, 0u16..11, 0u8..4),
            0..60,
        )
    }

    /// Nodes 0–7, then 64–66, which share the node-mask bits of 0 (the
    /// owner), 1 and 2.
    fn node(i: u16) -> NodeId {
        NodeId(if i < 8 { i } else { i + 56 })
    }

    /// Runs `ops` on the new cache and the oracle side by side and
    /// compares every answer and, after every step, the whole state.
    fn same_as_oracle(cap: usize, timeout: Option<SimDuration>, ops: &[Op]) {
        let owner = NodeId(0);
        let (mut new, mut old) =
            (RouteCache::new(owner, cap, timeout), oracle::OldCache::new(owner, cap, timeout));
        let mut now = SimTime::from_secs(10);
        let mut stored: Vec<Vec<NodeId>> = Vec::new();
        for (step, (kind, path, a, b, dt)) in ops.iter().enumerate() {
            now = match dt {
                0 | 1 => now,
                2 => now + SimDuration::from_secs(1),
                _ => SimTime::from_nanos(now.as_nanos().saturating_sub(1_000_000_000)),
            };
            let (a, b) = (node(*a), node(*b));
            let ctx = format!("step {step}: {kind} {path:?} {a:?} {b:?} at {now}");
            match kind {
                0 | 1 => {
                    let p: Vec<NodeId> = path.iter().map(|&i| node(i)).collect();
                    let got = new.insert(&p, now);
                    assert_eq!(got, old.insert(&p, now), "{ctx}");
                    if got {
                        stored.push(p);
                    }
                }
                2 => {
                    if let Some(p) = stored.get(usize::from(a.0) * 7 % stored.len().max(1)) {
                        assert_eq!(new.insert(p, now), old.insert(p, now), "{ctx}");
                    }
                }
                3 => assert_eq!(
                    new.lookup(a, now).map(<[NodeId]>::to_vec),
                    old.lookup(a, now),
                    "{ctx}"
                ),
                4 => {
                    let dst = path.last().map_or(a, |&d| node(d));
                    assert_eq!(
                        new.lookup_avoiding(dst, a, b, now).map(<[NodeId]>::to_vec),
                        old.lookup_avoiding(dst, a, b, now),
                        "{ctx}"
                    );
                }
                5 => assert_eq!(new.remove_link(a, b), old.remove_link(a, b), "{ctx}"),
                _ => assert_eq!(new.remove_dest(a), old.remove_dest(a), "{ctx}"),
            }
            assert_eq!(new.entries_sorted(), old.entries_sorted(), "{ctx}");
            assert_eq!((new.len(), new.is_empty()), (old.len(), old.len() == 0), "{ctx}");
            assert_eq!(new.live_paths(now), old.live_paths(now), "{ctx}");
            for d in (0..11).map(node) {
                let got = new.lookup(d, now).map(<[NodeId]>::to_vec);
                assert_eq!(got, old.lookup(d, now), "{ctx}: lookup {d:?}");
            }
            new.assert_consistent();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Draft-03 (no expiry) at caps 0–4 and the production 64.
        #[test]
        fn cache_matches_the_old_body_under_draft3(
            cap in proptest::sample::select(vec![0usize, 1, 2, 3, 4, 64]),
            ops in ops(),
        ) {
            same_as_oracle(cap, None, &ops);
        }

        /// Draft-07: entries expire 2 s after they were added, so the
        /// clock's steps take them in and out of `lookup`'s reach.
        #[test]
        fn cache_matches_the_old_body_under_draft7(
            cap in proptest::sample::select(vec![0usize, 1, 2, 3, 4, 64]),
            ops in ops(),
        ) {
            same_as_oracle(cap, Some(SimDuration::from_secs(2)), &ops);
        }
    }

    fn ids(v: &[u16]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }
    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn insert_and_lookup_shortest() {
        let mut c = RouteCache::new(NodeId(0), 10, None);
        assert!(c.insert(&ids(&[1, 2, 9]), t(0)));
        assert!(c.insert(&ids(&[3, 9]), t(1)));
        assert_eq!(c.lookup(NodeId(9), t(2)), Some(&ids(&[3, 9])[..]));
        assert_eq!(c.lookup(NodeId(7), t(2)), None);
    }

    #[test]
    fn rejects_loops_and_self() {
        let mut c = RouteCache::new(NodeId(0), 10, None);
        assert!(!c.insert(&ids(&[1, 2, 1, 9]), t(0)), "duplicate node");
        assert!(!c.insert(&ids(&[1, 0, 9]), t(0)), "contains owner");
        assert!(!c.insert(&[], t(0)));
        assert!(c.is_empty());
    }

    #[test]
    fn eviction_at_capacity_removes_oldest() {
        let mut c = RouteCache::new(NodeId(0), 2, None);
        c.insert(&ids(&[1, 8]), t(0));
        c.insert(&ids(&[2, 9]), t(1));
        c.insert(&ids(&[3, 7]), t(2)); // evicts the t(0) entry
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(NodeId(8), t(3)), None);
        assert!(c.lookup(NodeId(9), t(3)).is_some());
    }

    #[test]
    fn remove_link_drops_affected_paths() {
        let mut c = RouteCache::new(NodeId(0), 10, None);
        c.insert(&ids(&[1, 2, 9]), t(0));
        c.insert(&ids(&[3, 4, 9]), t(0));
        assert_eq!(c.remove_link(NodeId(1), NodeId(2)), 1);
        assert_eq!(c.lookup(NodeId(9), t(1)), Some(&ids(&[3, 4, 9])[..]));
        // First-hop links count too (owner -> 3).
        assert_eq!(c.remove_link(NodeId(0), NodeId(3)), 1);
        assert_eq!(c.lookup(NodeId(9), t(1)), None);
    }

    #[test]
    fn lookup_avoiding_skips_broken_link() {
        let mut c = RouteCache::new(NodeId(0), 10, None);
        c.insert(&ids(&[1, 2, 9]), t(0));
        c.insert(&ids(&[3, 4, 9]), t(0));
        let got = c.lookup_avoiding(NodeId(9), NodeId(1), NodeId(2), t(1));
        assert_eq!(got, Some(&ids(&[3, 4, 9])[..]));
        let none = c.lookup_avoiding(NodeId(9), NodeId(0), NodeId(1), t(1));
        assert_eq!(none, Some(&ids(&[3, 4, 9])[..]), "only the broken first hop is avoided");
    }

    #[test]
    fn draft7_timeout_expires_entries() {
        let mut c = RouteCache::new(NodeId(0), 10, Some(SimDuration::from_secs(5)));
        c.insert(&ids(&[1, 9]), t(0));
        assert!(c.lookup(NodeId(9), t(4)).is_some());
        assert_eq!(c.lookup(NodeId(9), t(5)), None, "expired");
        // Draft-03: never expires.
        let mut c3 = RouteCache::new(NodeId(0), 10, None);
        c3.insert(&ids(&[1, 9]), t(0));
        assert!(c3.lookup(NodeId(9), t(10_000)).is_some());
    }

    /// The first hop of what `lookup` (or, with `avoid`, `lookup_avoiding`)
    /// returns, read the same whether the path comes back owned or
    /// borrowed.
    fn first_hop(c: &RouteCache, dst: u16, avoid: Option<(u16, u16)>, at: SimTime) -> Option<u16> {
        match avoid {
            None => c.lookup(NodeId(dst), at).map(|p| p[0].0),
            Some((a, b)) => {
                c.lookup_avoiding(NodeId(dst), NodeId(a), NodeId(b), at).map(|p| p[0].0)
            }
        }
    }

    /// Which of `candidates` (first hops of paths to 9) are still cached.
    fn present(c: &RouteCache, candidates: &[u16]) -> Vec<u16> {
        let mut v: Vec<u16> = c
            .entries_sorted()
            .iter()
            .filter(|(p, _)| p.last() == Some(&NodeId(9)))
            .map(|(p, _)| p[0].0)
            .filter(|h| candidates.contains(h))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn eviction_among_equal_ages_removes_the_earliest_inserted() {
        for cap in [2usize, 3] {
            let mut c = RouteCache::new(NodeId(0), cap, None);
            let hops: Vec<u16> = (1..=cap as u16).collect();
            for &h in &hops {
                assert!(c.insert(&ids(&[h, 9]), t(0)));
            }
            // Full, every entry added at t(0): the first inserted goes.
            assert!(c.insert(&ids(&[7, 9]), t(0)));
            assert_eq!(c.len(), cap);
            let mut expect: Vec<u16> = hops[1..].to_vec();
            expect.push(7);
            expect.sort_unstable();
            assert_eq!(present(&c, &[1, 2, 3, 7]), expect, "cap {cap}");
            // Then the second.
            assert!(c.insert(&ids(&[8, 9]), t(0)));
            assert!(!present(&c, &[1, 2, 3, 7, 8]).contains(&2), "cap {cap}");
        }
        // Refreshed at the same later instant, B first and A second: the
        // tie in `added` still goes to insertion order, so A is evicted
        // before B although B was refreshed earlier.
        let mut c = RouteCache::new(NodeId(0), 3, None);
        c.insert(&ids(&[1, 9]), t(0)); // A
        c.insert(&ids(&[2, 9]), t(0)); // B
        c.insert(&ids(&[3, 9]), t(0)); // C
        assert!(c.insert(&ids(&[2, 9]), t(1)));
        assert!(c.insert(&ids(&[1, 9]), t(1)));
        c.insert(&ids(&[4, 9]), t(1)); // evicts C, the only t(0) entry
        assert_eq!(present(&c, &[1, 2, 3, 4]), vec![1, 2, 4]);
        c.insert(&ids(&[5, 9]), t(1)); // A, B, D tie at t(1): A goes
        assert_eq!(present(&c, &[1, 2, 4, 5]), vec![2, 4, 5]);
        c.insert(&ids(&[6, 9]), t(1)); // then B
        assert_eq!(present(&c, &[2, 4, 5, 6]), vec![4, 5, 6]);
    }

    #[test]
    fn a_refreshed_path_keeps_its_place_in_the_lookup_tie_break() {
        let mut c = RouteCache::new(NodeId(0), 10, None);
        c.insert(&ids(&[1, 5, 9]), t(0));
        c.insert(&ids(&[2, 6, 9]), t(1));
        c.insert(&ids(&[3, 7, 9]), t(2));
        assert_eq!(first_hop(&c, 9, None, t(3)), Some(1));
        // Refreshing later paths does not move them ahead of the first.
        assert!(c.insert(&ids(&[3, 7, 9]), t(3)));
        assert!(c.insert(&ids(&[2, 6, 9]), t(4)));
        assert_eq!(first_hop(&c, 9, None, t(5)), Some(1));
        // Refreshing the first does not move it behind them.
        assert!(c.insert(&ids(&[1, 5, 9]), t(5)));
        assert_eq!(first_hop(&c, 9, None, t(6)), Some(1));
        // A shorter path still wins over the order.
        c.insert(&ids(&[4, 9]), t(6));
        assert_eq!(first_hop(&c, 9, None, t(7)), Some(4));
    }

    #[test]
    fn lookup_avoiding_breaks_ties_in_insertion_order() {
        let mut c = RouteCache::new(NodeId(0), 10, None);
        c.insert(&ids(&[1, 5, 9]), t(0));
        c.insert(&ids(&[2, 6, 9]), t(1));
        c.insert(&ids(&[3, 7, 9]), t(2));
        c.insert(&ids(&[2, 6, 9]), t(3)); // refreshed: keeps its place
        assert_eq!(first_hop(&c, 9, Some((1, 5)), t(4)), Some(2));
        assert_eq!(first_hop(&c, 9, Some((0, 1)), t(4)), Some(2));
        assert_eq!(first_hop(&c, 9, Some((6, 9)), t(4)), Some(1));
        assert_eq!(first_hop(&c, 9, Some((0, 2)), t(4)), Some(1));
        c.insert(&ids(&[3, 7, 9]), t(5));
        assert_eq!(first_hop(&c, 9, Some((5, 9)), t(6)), Some(2));
    }

    #[test]
    fn remove_link_keeps_the_survivors_order() {
        let fill = || {
            let mut c = RouteCache::new(NodeId(0), 10, None);
            for (i, h) in [1u16, 2, 3, 4, 5].into_iter().enumerate() {
                c.insert(&ids(&[h, 10 + h, 9]), t(i as u64));
            }
            c
        };
        // Drain by successive first-hop removals: the order lookup
        // reports is the insertion order of the survivors.
        let drain = |c: &mut RouteCache| {
            let mut order = Vec::new();
            while let Some(h) = first_hop(c, 9, None, t(10)) {
                order.push(h);
                assert_eq!(c.remove_link(NodeId(0), NodeId(h)), 1);
            }
            order
        };
        // A first hop (owner → 3).
        let mut c = fill();
        assert_eq!(c.remove_link(NodeId(0), NodeId(3)), 1);
        assert_eq!(drain(&mut c), vec![1, 2, 4, 5]);
        // An interior link (12 → 9), then another (14 → 9).
        let mut c = fill();
        assert_eq!(c.remove_link(NodeId(12), NodeId(9)), 1);
        assert_eq!(c.remove_link(NodeId(14), NodeId(9)), 1);
        assert_eq!(drain(&mut c), vec![1, 3, 5]);
        // The survivors also keep their place in the eviction order.
        let mut c = RouteCache::new(NodeId(0), 3, None);
        c.insert(&ids(&[1, 9]), t(0));
        c.insert(&ids(&[2, 9]), t(0));
        c.insert(&ids(&[3, 9]), t(0));
        assert_eq!(c.remove_link(NodeId(0), NodeId(2)), 1);
        c.insert(&ids(&[4, 9]), t(0));
        c.insert(&ids(&[5, 9]), t(0)); // evicts 1, then 3 is oldest
        assert_eq!(present(&c, &[1, 3, 4, 5]), vec![3, 4, 5]);
        c.insert(&ids(&[6, 9]), t(0));
        assert_eq!(present(&c, &[3, 4, 5, 6]), vec![4, 5, 6]);
    }

    #[test]
    fn draft7_expiry_is_exactly_at_added_plus_timeout() {
        let timeout = SimDuration::from_secs(300);
        let added = SimTime::from_nanos(1_234_567);
        let mut c = RouteCache::new(NodeId(0), 10, Some(timeout));
        c.insert(&ids(&[1, 9]), added);
        let last = SimTime::from_nanos(added.as_nanos() + timeout.as_nanos() - 1);
        let gone = SimTime::from_nanos(added.as_nanos() + timeout.as_nanos());
        assert_eq!(first_hop(&c, 9, None, last), Some(1));
        assert_eq!(first_hop(&c, 9, Some((5, 6)), last), Some(1));
        assert_eq!(c.live_paths(last), 1);
        assert_eq!(first_hop(&c, 9, None, gone), None);
        assert_eq!(first_hop(&c, 9, Some((5, 6)), gone), None);
        assert_eq!(c.live_paths(gone), 0);
        assert_eq!(c.len(), 1, "expired entries stay until evicted or removed");
        // An expired path is refreshed, not re-added: insert says true.
        assert!(c.insert(&ids(&[1, 9]), gone));
        assert_eq!(c.len(), 1);
        assert_eq!(first_hop(&c, 9, None, gone), Some(1));
    }

    #[test]
    fn insert_returns_true_on_a_refresh() {
        let mut c = RouteCache::new(NodeId(0), 2, None);
        assert!(c.insert(&ids(&[1, 9]), t(0)));
        assert!(c.insert(&ids(&[1, 9]), t(0)), "same instant");
        assert!(c.insert(&ids(&[1, 9]), t(1)), "later");
        assert_eq!(c.len(), 1);
        assert!(c.insert(&ids(&[2, 9]), t(1)));
        assert!(c.insert(&ids(&[1, 9]), t(2)), "full: refreshed, nothing evicted");
        assert_eq!(present(&c, &[1, 2]), vec![1, 2]);
        assert_eq!(c.entries_sorted()[0].1, t(2));
    }

    #[test]
    fn reinsert_refreshes_age() {
        let mut c = RouteCache::new(NodeId(0), 10, Some(SimDuration::from_secs(5)));
        c.insert(&ids(&[1, 9]), t(0));
        c.insert(&ids(&[1, 9]), t(4));
        assert!(c.lookup(NodeId(9), t(8)).is_some(), "refreshed at t=4");
        assert_eq!(c.len(), 1, "no duplicate entry");
    }
}
