//! DSR control messages and the source-route header carried in data
//! packets (after draft-ietf-manet-dsr-03, which the paper's GloMoSim
//! runs used; the draft-07 differences live in [`super::DsrConfig`]).

#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), deny(clippy::cast_sign_loss))]

use manet_sim::packet::NodeId;
use manet_sim::wire::{get_u16, get_u32, get_u8, push_node_list, read_node_list};

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
}

impl Rrep {
    /// Encodes the reply.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![2u8, self.idx];
        b.extend_from_slice(&self.orig.0.to_be_bytes());
        b.extend_from_slice(&self.id.to_be_bytes());
        push_node_list(&mut b, &self.path);
        b
    }

    /// Decodes; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<Self> {
        if get_u8(b, 0)? != 2 {
            return None;
        }
        let (path, end) = read_node_list(b, 8)?;
        if end != b.len() {
            return None;
        }
        Some(Rrep { orig: NodeId(get_u16(b, 2)?), id: get_u32(b, 4)?, path, idx: get_u8(b, 1)? })
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

    /// Decodes; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<Self> {
        let (path, end) = read_node_list(b, 2)?;
        if end != b.len() {
            return None;
        }
        Some(SourceRoute { path, idx: get_u8(b, 0)?, salvage: get_u8(b, 1)? })
    }

    /// The next hop from the current holder, if any.
    pub fn next_hop(&self) -> Option<NodeId> {
        self.path.get(usize::from(self.idx).checked_add(1)?).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(v: &[u16]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
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
}
