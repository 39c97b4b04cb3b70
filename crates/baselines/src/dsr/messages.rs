//! DSR control messages and the source-route header carried in data
//! packets (after draft-ietf-manet-dsr-03, which the paper's GloMoSim
//! runs used; the draft-07 differences live in [`super::DsrConfig`]).
//!
//! The RREQ, the RREP and the source route each have one parser, a
//! borrowed view ([`RreqRef`], [`RrepRef`], [`SourceRouteRef`]) that
//! validates the frame and reads its ids off the received bytes, in
//! the manner of OLSR's `HelloRef`/`TcRef`. That is what the receive
//! path uses: it forwards by editing bytes (a relay appends itself to
//! the RREQ record, a hop moves the RREP's or the source route's
//! index) instead of decoding, changing and re-encoding. The owned
//! `decode`s are the parser plus a collect.

#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), deny(clippy::cast_sign_loss))]

use manet_sim::packet::NodeId;
use manet_sim::wire::{clamp_count, get_u16, get_u8, push_ids, push_node_list, read_node_list};

/// Route request with its accumulated route record (intermediate
/// relays only; the originator is in `src`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rreq {
    /// Originator.
    pub src: NodeId,
    /// Sought destination.
    pub dst: NodeId,
    /// Originator-unique flood identifier.
    pub id: u32,
    /// Remaining flood TTL.
    pub ttl: u8,
    /// Relays traversed so far.
    pub route: Vec<NodeId>,
}

/// Route reply carrying a complete source route `path[0] = orig`
/// through `path.last() = dst`, travelling backwards along it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rrep {
    /// The requester this reply answers.
    pub orig: NodeId,
    /// The request id being answered.
    pub id: u32,
    /// Full path, `orig` first, destination last.
    pub path: Vec<NodeId>,
    /// Index of the node currently holding the reply (moves toward 0).
    pub idx: u8,
}

/// Route error: link `from → to` is broken; travels back to `target`
/// (the source of the failed packet) along `path` (a reversed prefix
/// of the failed packet's source route).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rerr {
    /// The node that detected the break.
    pub from: NodeId,
    /// The unreachable next hop.
    pub to: NodeId,
    /// Where the error is headed.
    pub target: NodeId,
    /// Hops to traverse (current holder first).
    pub path: Vec<NodeId>,
}

/// The source-route header placed in a data packet's extension bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceRoute {
    /// Full path, source first, destination last.
    pub path: Vec<NodeId>,
    /// Index of the node currently holding the packet.
    pub idx: u8,
    /// Times this packet has been salvaged onto another route.
    pub salvage: u8,
}

/// The big-endian node ids of a validated id area.
fn node_ids(area: &[[u8; 2]]) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
    area.iter().map(|&id| NodeId(u16::from_be_bytes(id)))
}

/// The id at `i` of a validated id area.
fn node_at(area: &[[u8; 2]], i: usize) -> Option<NodeId> {
    area.get(i).map(|&id| NodeId(u16::from_be_bytes(id)))
}

/// A well-formed RREQ frame, read in place.
#[derive(Clone, Copy, Debug)]
pub struct RreqRef<'a> {
    frame: &'a [u8],
    /// Originator.
    pub src: NodeId,
    /// Sought destination.
    pub dst: NodeId,
    /// Originator-unique flood identifier.
    pub id: u32,
    /// Remaining flood TTL.
    pub ttl: u8,
    route: &'a [[u8; 2]],
}

impl<'a> RreqRef<'a> {
    /// Validates `b` as an RREQ — type byte, the nine header bytes, and
    /// exactly the relays the count byte announces, nothing after;
    /// `None` otherwise.
    pub fn parse(b: &'a [u8]) -> Option<Self> {
        let [1, ttl, s0, s1, d0, d1, i0, i1, i2, i3, n, area @ ..] = b else { return None };
        let (route, []) = area.as_chunks::<2>() else { return None };
        (route.len() == usize::from(*n)).then_some(RreqRef {
            frame: b,
            src: NodeId(u16::from_be_bytes([*s0, *s1])),
            dst: NodeId(u16::from_be_bytes([*d0, *d1])),
            id: u32::from_be_bytes([*i0, *i1, *i2, *i3]),
            ttl: *ttl,
            route,
        })
    }

    /// Relays traversed so far.
    pub fn route(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + 'a {
        node_ids(self.route)
    }

    /// Whether `node` is on the route record.
    pub fn on_route(&self, node: NodeId) -> bool {
        self.route.contains(&node.0.to_be_bytes())
    }

    /// The frame `relay` rebroadcasts: this one with the TTL one lower
    /// and `relay` appended to the record, or `None` when the TTL is
    /// spent (`ttl <= 1`). Byte for byte what encoding the owned
    /// forward gives, clamp included: a record already 255 long stays
    /// as it is.
    pub fn forwarded(&self, relay: NodeId) -> Option<Vec<u8>> {
        if self.ttl <= 1 {
            return None;
        }
        let mut frame = Vec::with_capacity(self.frame.len().checked_add(2)?);
        frame.extend_from_slice(self.frame);
        *frame.get_mut(1)? = self.ttl.checked_sub(1)?;
        if let Some(n) = u8::try_from(self.route.len()).ok()?.checked_add(1) {
            *frame.get_mut(10)? = n;
            frame.extend_from_slice(&relay.0.to_be_bytes());
        }
        Some(frame)
    }
}

/// A well-formed RREP frame, read in place.
#[derive(Clone, Copy, Debug)]
pub struct RrepRef<'a> {
    frame: &'a [u8],
    /// The requester this reply answers.
    pub orig: NodeId,
    /// The request id being answered.
    pub id: u32,
    /// Index of the node currently holding the reply (moves toward 0).
    pub idx: u8,
    path: &'a [[u8; 2]],
}

impl<'a> RrepRef<'a> {
    /// Validates `b` as an RREP — type byte, the seven header bytes, and
    /// exactly the path the count byte announces, nothing after; `None`
    /// otherwise.
    pub fn parse(b: &'a [u8]) -> Option<Self> {
        let [2, idx, o0, o1, i0, i1, i2, i3, n, area @ ..] = b else { return None };
        let (path, []) = area.as_chunks::<2>() else { return None };
        (path.len() == usize::from(*n)).then_some(RrepRef {
            frame: b,
            orig: NodeId(u16::from_be_bytes([*o0, *o1])),
            id: u32::from_be_bytes([*i0, *i1, *i2, *i3]),
            idx: *idx,
            path,
        })
    }

    /// Full path, `orig` first, destination last.
    pub fn path(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + 'a {
        node_ids(self.path)
    }

    /// The path's node at `i`.
    pub fn node_at(&self, i: usize) -> Option<NodeId> {
        node_at(self.path, i)
    }

    /// This frame with the holder index set to `idx`: byte for byte the
    /// owned reply's encoding with that `idx`, since `parse` checked the
    /// count byte against the length and there is nothing to clamp.
    pub fn with_idx(&self, idx: u8) -> Vec<u8> {
        let mut frame = self.frame.to_vec();
        if let Some(b) = frame.get_mut(1) {
            *b = idx;
        }
        frame
    }
}

/// A well-formed source-route header, read in place.
#[derive(Clone, Copy, Debug)]
pub struct SourceRouteRef<'a> {
    /// Index of the node currently holding the packet.
    pub idx: u8,
    /// Times this packet has been salvaged onto another route.
    pub salvage: u8,
    path: &'a [[u8; 2]],
}

impl<'a> SourceRouteRef<'a> {
    /// Validates `b` as a source-route header — index, salvage count,
    /// count byte and exactly the path it announces, nothing after;
    /// `None` otherwise.
    pub fn parse(b: &'a [u8]) -> Option<Self> {
        let [idx, salvage, n, area @ ..] = b else { return None };
        let (path, []) = area.as_chunks::<2>() else { return None };
        (path.len() == usize::from(*n)).then_some(SourceRouteRef {
            idx: *idx,
            salvage: *salvage,
            path,
        })
    }

    /// Full path, source first, destination last.
    pub fn path(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + 'a {
        node_ids(self.path)
    }

    /// The path's node at `i`.
    pub fn node_at(&self, i: usize) -> Option<NodeId> {
        node_at(self.path, i)
    }

    /// Sets the holder index of the well-formed header `ext` in place:
    /// byte for byte the owned header's encoding with that `idx`.
    pub fn set_idx(ext: &mut [u8], idx: u8) {
        if let Some(b) = ext.first_mut() {
            *b = idx;
        }
    }
}

/// Appends a node list whose first id is `head` and the rest `tail`,
/// clamped as [`push_node_list`] clamps `[head, tail..]`.
fn push_node_list_after(b: &mut Vec<u8>, head: NodeId, tail: &[NodeId]) {
    let k = clamp_count(tail.len().saturating_add(1));
    b.push(k);
    b.extend_from_slice(&head.0.to_be_bytes());
    push_ids(b, tail, k.saturating_sub(1));
}

impl Rreq {
    /// Encodes the request.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![1u8, self.ttl];
        b.extend_from_slice(&self.src.0.to_be_bytes());
        b.extend_from_slice(&self.dst.0.to_be_bytes());
        b.extend_from_slice(&self.id.to_be_bytes());
        push_node_list(&mut b, &self.route);
        b
    }

    /// Decodes; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<Self> {
        let m = RreqRef::parse(b)?;
        Some(Rreq { src: m.src, dst: m.dst, id: m.id, ttl: m.ttl, route: m.route().collect() })
    }
}

impl Rrep {
    /// Encodes the reply.
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_parts(self.orig, self.id, self.idx, &self.path)
    }

    /// Encodes the reply with these fields, without owning the path.
    pub fn encode_parts(orig: NodeId, id: u32, idx: u8, path: &[NodeId]) -> Vec<u8> {
        let mut b = vec![2u8, idx];
        b.extend_from_slice(&orig.0.to_be_bytes());
        b.extend_from_slice(&id.to_be_bytes());
        push_node_list(&mut b, path);
        b
    }

    /// Decodes; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<Self> {
        let m = RrepRef::parse(b)?;
        Some(Rrep { orig: m.orig, id: m.id, path: m.path().collect(), idx: m.idx })
    }
}

impl Rerr {
    /// Encodes the error.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![3u8, 0];
        b.extend_from_slice(&self.from.0.to_be_bytes());
        b.extend_from_slice(&self.to.0.to_be_bytes());
        b.extend_from_slice(&self.target.0.to_be_bytes());
        push_node_list(&mut b, &self.path);
        b
    }

    /// Decodes; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<Self> {
        if get_u8(b, 0)? != 3 {
            return None;
        }
        let (path, end) = read_node_list(b, 8)?;
        if end != b.len() {
            return None;
        }
        Some(Rerr {
            from: NodeId(get_u16(b, 2)?),
            to: NodeId(get_u16(b, 4)?),
            target: NodeId(get_u16(b, 6)?),
            path,
        })
    }
}

impl SourceRoute {
    /// Encodes into a data packet's extension bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![self.idx, self.salvage];
        push_node_list(&mut b, &self.path);
        b
    }

    /// Writes the header for the path `[head, tail..]` into `ext`,
    /// replacing what it held and keeping its buffer: the bytes
    /// `encode` gives for that path.
    pub fn encode_into(ext: &mut Vec<u8>, idx: u8, salvage: u8, head: NodeId, tail: &[NodeId]) {
        ext.clear();
        ext.extend_from_slice(&[idx, salvage]);
        push_node_list_after(ext, head, tail);
    }

    /// Decodes; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<Self> {
        let sr = SourceRouteRef::parse(b)?;
        Some(SourceRoute { path: sr.path().collect(), idx: sr.idx, salvage: sr.salvage })
    }

    /// The next hop from the current holder, if any.
    pub fn next_hop(&self) -> Option<NodeId> {
        self.path.get(usize::from(self.idx).checked_add(1)?).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::wire::get_u32;
    use proptest::prelude::*;

    fn ids(v: &[u16]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    /// `Rreq::decode` as it was before it became `RreqRef::parse` +
    /// collect: the oracle the views are held to.
    fn old_rreq_decode(b: &[u8]) -> Option<Rreq> {
        if get_u8(b, 0)? != 1 {
            return None;
        }
        let (route, end) = read_node_list(b, 10)?;
        if end != b.len() {
            return None;
        }
        Some(Rreq {
            src: NodeId(get_u16(b, 2)?),
            dst: NodeId(get_u16(b, 4)?),
            id: get_u32(b, 6)?,
            ttl: get_u8(b, 1)?,
            route,
        })
    }

    /// `Rrep::decode` as it was, likewise.
    fn old_rrep_decode(b: &[u8]) -> Option<Rrep> {
        if get_u8(b, 0)? != 2 {
            return None;
        }
        let (path, end) = read_node_list(b, 8)?;
        if end != b.len() {
            return None;
        }
        Some(Rrep { orig: NodeId(get_u16(b, 2)?), id: get_u32(b, 4)?, path, idx: get_u8(b, 1)? })
    }

    /// `SourceRoute::decode` as it was, likewise.
    fn old_source_route_decode(b: &[u8]) -> Option<SourceRoute> {
        let (path, end) = read_node_list(b, 2)?;
        if end != b.len() {
            return None;
        }
        Some(SourceRoute { path, idx: get_u8(b, 0)?, salvage: get_u8(b, 1)? })
    }

    /// The three views and owned decoders against the old bodies on one
    /// byte string: same accept/reject, same fields and ids, and every
    /// in-place forward equal to `encode()` of the owned forward.
    fn assert_views_match(b: &[u8], relay: NodeId) {
        let (view, old) = (RreqRef::parse(b), old_rreq_decode(b));
        assert_eq!(view.is_some(), old.is_some(), "RREQ accept/reject on {b:?}");
        assert_eq!(Rreq::decode(b), old);
        if let (Some(v), Some(m)) = (view, old) {
            assert_eq!((v.src, v.dst, v.id, v.ttl), (m.src, m.dst, m.id, m.ttl));
            assert_eq!(v.route().collect::<Vec<_>>(), m.route);
            assert_eq!(
                v.route().rev().collect::<Vec<_>>(),
                m.route.iter().rev().copied().collect::<Vec<_>>()
            );
            assert_eq!(v.on_route(relay), m.route.contains(&relay));
            let mut route = m.route.clone();
            route.push(relay);
            let owned = (m.ttl > 1).then(|| Rreq { route, ttl: m.ttl - 1, ..m }.encode());
            assert_eq!(v.forwarded(relay), owned);
        }
        let (view, old) = (RrepRef::parse(b), old_rrep_decode(b));
        assert_eq!(view.is_some(), old.is_some(), "RREP accept/reject on {b:?}");
        assert_eq!(Rrep::decode(b), old);
        if let (Some(v), Some(m)) = (view, old) {
            assert_eq!((v.orig, v.id, v.idx), (m.orig, m.id, m.idx));
            assert_eq!(v.path().collect::<Vec<_>>(), m.path);
            for i in 0..=m.path.len() {
                assert_eq!(v.node_at(i), m.path.get(i).copied());
            }
            let idx = m.idx.wrapping_sub(1);
            assert_eq!(v.with_idx(idx), Rrep { idx, ..m.clone() }.encode());
            assert_eq!(Rrep::encode_parts(m.orig, m.id, m.idx, &m.path), b);
        }
        let (view, old) = (SourceRouteRef::parse(b), old_source_route_decode(b));
        assert_eq!(view.is_some(), old.is_some(), "source route accept/reject on {b:?}");
        assert_eq!(SourceRoute::decode(b), old);
        if let (Some(v), Some(sr)) = (view, old) {
            assert_eq!((v.idx, v.salvage), (sr.idx, sr.salvage));
            assert_eq!(v.path().collect::<Vec<_>>(), sr.path);
            for i in 0..=sr.path.len() {
                assert_eq!(v.node_at(i), sr.path.get(i).copied());
            }
            let idx = sr.idx.wrapping_add(1);
            let mut ext = b.to_vec();
            SourceRouteRef::set_idx(&mut ext, idx);
            assert_eq!(ext, SourceRoute { idx, ..sr.clone() }.encode());
            if let Some((&head, tail)) = sr.path.split_first() {
                SourceRoute::encode_into(&mut ext, sr.idx, sr.salvage, head, tail);
                assert_eq!(ext, b);
            }
        }
    }

    /// The 255-entry clamp: a relay on a full record forwards it with
    /// only the TTL changed, as `encode()` of the 256-long owned record
    /// does; one entry short, it still appends itself. The same clamp
    /// holds for a source route written from a head and a tail.
    #[test]
    fn forwards_clamp_at_255_entries_like_encode() {
        for len in [253u16, 254, 255] {
            let m = Rreq {
                src: NodeId(1),
                dst: NodeId(2),
                id: 3,
                ttl: 9,
                route: (10..10 + len).map(NodeId).collect(),
            };
            let b = m.encode();
            let v = RreqRef::parse(&b).expect("well-formed");
            let mut route = m.route.clone();
            route.push(NodeId(7));
            let owned = Rreq { route, ttl: 8, ..m.clone() }.encode();
            assert_eq!(v.forwarded(NodeId(7)), Some(owned.clone()));
            assert_eq!(owned.len(), b.len() + if len < 255 { 2 } else { 0 }, "len {len}");
            assert_views_match(&b, NodeId(7));
        }
        for len in [254usize, 255, 256, 300] {
            let path: Vec<NodeId> = (0..len as u16).map(NodeId).collect();
            let mut ext = vec![];
            SourceRoute::encode_into(&mut ext, 1, 2, path[0], &path[1..]);
            assert_eq!(ext, SourceRoute { path, idx: 1, salvage: 2 }.encode(), "len {len}");
        }
    }

    /// A relay sends on a TTL one lower, and a TTL of 0 or 1 is spent.
    #[test]
    fn rreq_forward_decrements_the_ttl_until_it_is_spent() {
        let m = |ttl| Rreq { src: NodeId(1), dst: NodeId(9), id: 4, ttl, route: ids(&[2, 3]) };
        let fwd = |ttl| RreqRef::parse(&m(ttl).encode()).expect("well-formed").forwarded(NodeId(5));
        let relayed = |ttl| Rreq { route: ids(&[2, 3, 5]), ..m(ttl) }.encode();
        assert_eq!(fwd(255), Some(relayed(254)));
        assert_eq!(fwd(2), Some(relayed(1)));
        assert_eq!(fwd(1), None);
        assert_eq!(fwd(0), None);
    }

    #[test]
    fn rreq_round_trip() {
        let m = Rreq { src: NodeId(1), dst: NodeId(9), id: 77, ttl: 12, route: ids(&[2, 3, 4]) };
        assert_eq!(Rreq::decode(&m.encode()), Some(m.clone()));
        let empty = Rreq { route: vec![], ..m };
        assert_eq!(Rreq::decode(&empty.encode()), Some(empty));
    }

    #[test]
    fn rrep_round_trip() {
        let m = Rrep { orig: NodeId(1), id: 5, path: ids(&[1, 2, 3, 9]), idx: 2 };
        assert_eq!(Rrep::decode(&m.encode()), Some(m));
    }

    #[test]
    fn rerr_round_trip() {
        let m = Rerr { from: NodeId(3), to: NodeId(4), target: NodeId(1), path: ids(&[2, 1]) };
        assert_eq!(Rerr::decode(&m.encode()), Some(m));
    }

    #[test]
    fn source_route_round_trip_and_next_hop() {
        let sr = SourceRoute { path: ids(&[1, 2, 3, 9]), idx: 1, salvage: 2 };
        assert_eq!(SourceRoute::decode(&sr.encode()), Some(sr.clone()));
        assert_eq!(sr.next_hop(), Some(NodeId(3)));
        let at_end = SourceRoute { idx: 3, ..sr };
        assert_eq!(at_end.next_hop(), None);
    }

    #[test]
    fn malformed_rejected() {
        assert!(Rreq::decode(&[1, 2, 3]).is_none());
        assert!(Rreq::decode(&[1, 5, 0, 1, 0, 9, 0, 0, 0, 7, 9]).is_none(), "bad node count");
        assert!(SourceRoute::decode(&[0]).is_none());
    }

    proptest! {
        #[test]
        fn rreq_round_trips(
            src in any::<u16>(), dst in any::<u16>(), id in any::<u32>(),
            ttl in any::<u8>(), route in proptest::collection::vec(any::<u16>(), 0..30),
        ) {
            let m = Rreq { src: NodeId(src), dst: NodeId(dst), id, ttl, route: ids(&route) };
            prop_assert_eq!(Rreq::decode(&m.encode()), Some(m.clone()));
        }

        #[test]
        fn source_route_round_trips(
            path in proptest::collection::vec(any::<u16>(), 0..30),
            idx in any::<u8>(), salvage in any::<u8>(),
        ) {
            let sr = SourceRoute { path: ids(&path), idx, salvage };
            prop_assert_eq!(SourceRoute::decode(&sr.encode()), Some(sr.clone()));
        }

        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = Rreq::decode(&bytes);
            let _ = Rrep::decode(&bytes);
            let _ = Rerr::decode(&bytes);
            let _ = SourceRoute::decode(&bytes);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Arbitrary bytes, steered towards the RREQ and RREP type bytes
        /// and a count byte that fits the length, so that a fair share
        /// parses.
        #[test]
        fn views_accept_what_the_old_decoders_accepted_on_any_bytes(
            mut bytes in proptest::collection::vec(any::<u8>(), 0..48),
            steer in any::<u8>(),
            relay in 0u16..40,
        ) {
            if steer % 4 != 0 {
                if let Some(first) = bytes.first_mut() {
                    *first = 1 + steer % 3;
                }
                // The count byte of an RREQ (10), RREP (8) or source
                // route (2), set to what the length leaves for ids.
                let at = [10usize, 8, 2][usize::from(steer % 3)];
                let ids_len = bytes.len().saturating_sub(at + 1);
                if let Some(n) = bytes.get_mut(at) {
                    if steer % 8 < 6 {
                        *n = (ids_len / 2) as u8;
                    }
                }
                if steer % 16 < 10 && ids_len % 2 == 1 {
                    bytes.pop();
                }
            }
            assert_views_match(&bytes, NodeId(relay));
        }

        /// Well-formed frames of every length up to the clamp, each id
        /// drawn small so that the relay is sometimes on the record.
        #[test]
        fn views_match_the_old_decoders_on_encoded_frames(
            route in proptest::collection::vec(0u16..40, 0..40),
            ttl in any::<u8>(), idx in any::<u8>(), relay in 0u16..40,
        ) {
            let m = Rreq { src: NodeId(1), dst: NodeId(2), id: 3, ttl, route: ids(&route) };
            assert_views_match(&m.encode(), NodeId(relay));
            let r = Rrep { orig: NodeId(1), id: 3, path: ids(&route), idx };
            assert_views_match(&r.encode(), NodeId(relay));
            let sr = SourceRoute { path: ids(&route), idx, salvage: ttl };
            assert_views_match(&sr.encode(), NodeId(relay));
        }
    }
}
