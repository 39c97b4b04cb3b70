//! AODV control messages (after draft-ietf-manet-aodv-10, the version
//! the paper compares against) with a fixed wire layout.

#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), deny(clippy::cast_sign_loss))]

use manet_sim::packet::NodeId;
use manet_sim::wire::{clamp_count, get_u16, get_u32, get_u8};

/// AODV route request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rreq {
    /// Sought destination.
    pub dst: NodeId,
    /// Last known destination sequence number (`None` = unknown flag).
    pub dst_seq: Option<u32>,
    /// Origin-unique flood identifier.
    pub rreqid: u32,
    /// Originator.
    pub src: NodeId,
    /// Originator's own sequence number.
    pub src_seq: u32,
    /// Hops traversed so far.
    pub hop_count: u8,
    /// Remaining flood TTL.
    pub ttl: u8,
    /// `D` flag: only the destination may respond.
    pub dest_only: bool,
}

/// AODV route reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rrep {
    /// Destination the route leads to.
    pub dst: NodeId,
    /// Destination sequence number.
    pub dst_seq: u32,
    /// Originator of the RREQ (where the RREP is headed).
    pub orig: NodeId,
    /// Hops from the replying node to the destination.
    pub hop_count: u8,
    /// Route lifetime in milliseconds.
    pub lifetime_ms: u32,
}

/// One unreachable destination in a route error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RerrEntry {
    /// Unreachable destination.
    pub dst: NodeId,
    /// Its (incremented) sequence number.
    pub dst_seq: u32,
}

/// AODV route error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rerr {
    /// Unreachable destinations.
    pub entries: Vec<RerrEntry>,
}

const RREQ_LEN: usize = 20;
const RREP_LEN: usize = 16;

impl Rreq {
    /// Encodes to the 20-byte wire layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut f = 0u8;
        if self.dst_seq.is_none() {
            f |= 1; // U: unknown sequence number
        }
        if self.dest_only {
            f |= 2; // D
        }
        let mut b = Vec::with_capacity(RREQ_LEN);
        b.push(1u8);
        b.push(f);
        b.push(self.hop_count);
        b.push(self.ttl);
        b.extend_from_slice(&self.rreqid.to_be_bytes());
        b.extend_from_slice(&self.dst.0.to_be_bytes());
        b.extend_from_slice(&self.src.0.to_be_bytes());
        b.extend_from_slice(&self.dst_seq.unwrap_or(0).to_be_bytes());
        b.extend_from_slice(&self.src_seq.to_be_bytes());
        debug_assert_eq!(b.len(), RREQ_LEN);
        b
    }

    /// Decodes; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<Self> {
        if b.len() != RREQ_LEN || get_u8(b, 0)? != 1 {
            return None;
        }
        let f = get_u8(b, 1)?;
        let dst_seq = if f & 1 == 0 { Some(get_u32(b, 12)?) } else { None };
        Some(Rreq {
            dst: NodeId(get_u16(b, 8)?),
            dst_seq,
            rreqid: get_u32(b, 4)?,
            src: NodeId(get_u16(b, 10)?),
            src_seq: get_u32(b, 16)?,
            hop_count: get_u8(b, 2)?,
            ttl: get_u8(b, 3)?,
            dest_only: f & 2 != 0,
        })
    }
}

impl Rrep {
    /// Encodes to the 16-byte wire layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(RREP_LEN);
        b.push(2u8);
        b.push(0);
        b.push(self.hop_count);
        b.push(0);
        b.extend_from_slice(&self.dst.0.to_be_bytes());
        b.extend_from_slice(&self.orig.0.to_be_bytes());
        b.extend_from_slice(&self.dst_seq.to_be_bytes());
        b.extend_from_slice(&self.lifetime_ms.to_be_bytes());
        debug_assert_eq!(b.len(), RREP_LEN);
        b
    }

    /// Decodes; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<Self> {
        if b.len() != RREP_LEN || get_u8(b, 0)? != 2 {
            return None;
        }
        Some(Rrep {
            dst: NodeId(get_u16(b, 4)?),
            dst_seq: get_u32(b, 8)?,
            orig: NodeId(get_u16(b, 6)?),
            hop_count: get_u8(b, 2)?,
            lifetime_ms: get_u32(b, 12)?,
        })
    }
}

impl Rerr {
    /// Encodes: 4-byte header plus 8 bytes per entry.
    pub fn encode(&self) -> Vec<u8> {
        let count = clamp_count(self.entries.len());
        let mut b = Vec::with_capacity(self.entries.len().saturating_mul(8).saturating_add(4));
        b.push(3u8);
        b.push(count);
        b.extend_from_slice(&[0, 0]);
        for e in self.entries.iter().take(usize::from(count)) {
            b.extend_from_slice(&e.dst.0.to_be_bytes());
            b.extend_from_slice(&[0, 0]);
            b.extend_from_slice(&e.dst_seq.to_be_bytes());
        }
        b
    }

    /// Decodes; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<Self> {
        if get_u8(b, 0)? != 3 {
            return None;
        }
        let count = usize::from(get_u8(b, 1)?);
        let body = b.get(4..)?;
        if body.len() != count.checked_mul(8)? {
            return None;
        }
        let entries = body
            .chunks_exact(8)
            .map(|c| Some(RerrEntry { dst: NodeId(get_u16(c, 0)?), dst_seq: get_u32(c, 4)? }))
            .collect::<Option<Vec<_>>>()?;
        Some(Rerr { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rreq_round_trip() {
        let m = Rreq {
            dst: NodeId(7),
            dst_seq: Some(19),
            rreqid: 3,
            src: NodeId(1),
            src_seq: 88,
            hop_count: 4,
            ttl: 9,
            dest_only: true,
        };
        assert_eq!(Rreq::decode(&m.encode()), Some(m));
        let unknown = Rreq { dst_seq: None, dest_only: false, ..m };
        assert_eq!(Rreq::decode(&unknown.encode()), Some(unknown));
    }

    #[test]
    fn rrep_round_trip() {
        let m =
            Rrep { dst: NodeId(7), dst_seq: 20, orig: NodeId(1), hop_count: 2, lifetime_ms: 3000 };
        assert_eq!(Rrep::decode(&m.encode()), Some(m));
    }

    #[test]
    fn rerr_round_trip() {
        let m = Rerr {
            entries: vec![
                RerrEntry { dst: NodeId(4), dst_seq: 9 },
                RerrEntry { dst: NodeId(5), dst_seq: 0 },
            ],
        };
        assert_eq!(Rerr::decode(&m.encode()), Some(m));
    }

    #[test]
    fn malformed_rejected() {
        assert!(Rreq::decode(&[0u8; 20]).is_none());
        assert!(Rrep::decode(&[2u8; 15]).is_none());
        assert!(Rerr::decode(&[3, 1, 0, 0]).is_none());
    }

    proptest! {
        #[test]
        fn rreq_round_trips(
            dst in any::<u16>(), src in any::<u16>(), id in any::<u32>(),
            ds in proptest::option::of(any::<u32>()), ss in any::<u32>(),
            hc in any::<u8>(), ttl in any::<u8>(), d in any::<bool>(),
        ) {
            let m = Rreq {
                dst: NodeId(dst), dst_seq: ds, rreqid: id, src: NodeId(src),
                src_seq: ss, hop_count: hc, ttl, dest_only: d,
            };
            prop_assert_eq!(Rreq::decode(&m.encode()), Some(m));
        }

        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..48)) {
            let _ = Rreq::decode(&bytes);
            let _ = Rrep::decode(&bytes);
            let _ = Rerr::decode(&bytes);
        }
    }
}
