//! LDR control messages and their wire format.
//!
//! The messaging structure follows AODV's (§2): a route request
//! ([`Rreq`]) is both a *solicitation* for the destination and an
//! *advertisement* of the origin; a route reply ([`Rrep`]) is an
//! advertisement; a route error ([`Rerr`]) revokes broken routes.
//! Messages are encoded in a fixed big-endian layout so control-packet
//! sizes in the simulator are realistic; encode/decode round-trips are
//! tested below (including property tests).

#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), deny(clippy::cast_sign_loss))]

use crate::invariants::Distance;
use crate::seqno::SeqNo;
use manet_sim::packet::NodeId;
use manet_sim::wire::{get_u16, get_u32, get_u64, get_u8, put_u16, put_u32, put_u64};

/// Flag bits carried in RREQ/RREP headers.
pub mod flags {
    /// `T`: reset required — an invariant-ordering violation occurred
    /// along the path and only the destination (or a higher sequence
    /// number) may answer.
    pub const T: u8 = 0b0000_0001;
    /// `N`: no reverse path — the message no longer advertises a route
    /// to the RREQ origin.
    pub const N: u8 = 0b0000_0010;
    /// `D`: destination-only — the solicitation is being unicast along
    /// a successor path for a path reset; only the destination (or a
    /// strictly newer sequence number) may answer.
    pub const D: u8 = 0b0000_0100;
    /// Internal: the destination sequence number field is unknown.
    pub const SN_UNKNOWN: u8 = 0b0000_1000;
}

/// A route request: solicitation for `dst`, advertisement of `src`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rreq {
    /// Sought destination.
    pub dst: NodeId,
    /// Last destination sequence number known to the requester
    /// (`None` = no information).
    pub sn_dst: Option<SeqNo>,
    /// Origin-unique request identifier (flood control).
    pub rreqid: u32,
    /// Requesting node.
    pub src: NodeId,
    /// The origin's own sequence number (advertising a route to it).
    pub sn_src: SeqNo,
    /// The requester's (answering) feasible distance.
    pub fd: Distance,
    /// Distance accumulated along the path from `src`.
    pub dist: Distance,
    /// Remaining flood time-to-live.
    pub ttl: u8,
    /// Reset-required bit.
    pub t_bit: bool,
    /// No-reverse-path bit.
    pub n_bit: bool,
    /// Destination-only (unicast path-reset) bit.
    pub d_bit: bool,
}

/// A route reply: advertisement of a route to `dst`, addressed to the
/// computation `(src, rreqid)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rrep {
    /// Advertised destination.
    pub dst: NodeId,
    /// The advertised destination sequence number.
    pub sn_dst: SeqNo,
    /// Terminus: the origin of the RREQ being answered.
    pub src: NodeId,
    /// The answered request id.
    pub rreqid: u32,
    /// The replier's measured distance to `dst`.
    pub dist: Distance,
    /// Remaining route lifetime in milliseconds.
    pub lifetime_ms: u32,
    /// Set when the reverse path to `src` was not established.
    pub n_bit: bool,
}

/// One unreachable destination inside a route error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RerrEntry {
    /// The destination that became unreachable.
    pub dst: NodeId,
    /// The sender's stored sequence number for it (`None` = unknown).
    pub sn: Option<SeqNo>,
}

/// A route error listing destinations lost via the sender.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rerr {
    /// Unreachable destinations.
    pub entries: Vec<RerrEntry>,
}

const RREQ_LEN: usize = 36;
const RREP_LEN: usize = 28;

// The bounds-checked big-endian readers/writers live in
// `manet_sim::wire`: they return `None` instead of panicking on
// truncated input, because wire bytes come off a simulated radio that
// the fault layer can corrupt arbitrarily — a decoder slip (a new
// field, a stale length constant) must surface as a rejected packet,
// never as a kernel panic.

impl Rreq {
    /// Encodes to the 32-byte wire layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut f = 0u8;
        if self.t_bit {
            f |= flags::T;
        }
        if self.n_bit {
            f |= flags::N;
        }
        if self.d_bit {
            f |= flags::D;
        }
        if self.sn_dst.is_none() {
            f |= flags::SN_UNKNOWN;
        }
        let mut b = Vec::with_capacity(RREQ_LEN);
        b.push(1u8); // type
        b.push(f);
        b.push(self.ttl);
        b.push(0); // reserved
        put_u16(&mut b, self.dst.0);
        put_u16(&mut b, self.src.0);
        put_u32(&mut b, self.rreqid);
        put_u64(&mut b, self.sn_dst.unwrap_or(SeqNo { epoch: 0, counter: 0 }).to_u64());
        put_u64(&mut b, self.sn_src.to_u64());
        put_u32(&mut b, self.fd);
        put_u32(&mut b, self.dist);
        debug_assert_eq!(b.len(), RREQ_LEN);
        b
    }

    /// Decodes from the wire layout; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<Self> {
        if b.len() != RREQ_LEN || get_u8(b, 0)? != 1 {
            return None;
        }
        let f = get_u8(b, 1)?;
        let sn_dst =
            if f & flags::SN_UNKNOWN != 0 { None } else { Some(SeqNo::from_u64(get_u64(b, 12)?)) };
        Some(Rreq {
            dst: NodeId(get_u16(b, 4)?),
            sn_dst,
            rreqid: get_u32(b, 8)?,
            src: NodeId(get_u16(b, 6)?),
            sn_src: SeqNo::from_u64(get_u64(b, 20)?),
            fd: get_u32(b, 28)?,
            dist: get_u32(b, 32)?,
            ttl: get_u8(b, 2)?,
            t_bit: f & flags::T != 0,
            n_bit: f & flags::N != 0,
            d_bit: f & flags::D != 0,
        })
    }
}

impl Rrep {
    /// Encodes to the 28-byte wire layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut f = 0u8;
        if self.n_bit {
            f |= flags::N;
        }
        let mut b = Vec::with_capacity(RREP_LEN);
        b.push(2u8); // type
        b.push(f);
        put_u16(&mut b, 0); // reserved
        put_u16(&mut b, self.dst.0);
        put_u16(&mut b, self.src.0);
        put_u32(&mut b, self.rreqid);
        put_u64(&mut b, self.sn_dst.to_u64());
        put_u32(&mut b, self.dist);
        put_u32(&mut b, self.lifetime_ms);
        debug_assert_eq!(b.len(), RREP_LEN);
        b
    }

    /// Decodes from the wire layout; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<Self> {
        if b.len() != RREP_LEN || get_u8(b, 0)? != 2 {
            return None;
        }
        Some(Rrep {
            dst: NodeId(get_u16(b, 4)?),
            sn_dst: SeqNo::from_u64(get_u64(b, 12)?),
            src: NodeId(get_u16(b, 6)?),
            rreqid: get_u32(b, 8)?,
            dist: get_u32(b, 20)?,
            lifetime_ms: get_u32(b, 24)?,
            n_bit: get_u8(b, 1)? & flags::N != 0,
        })
    }
}

impl Rerr {
    /// Encodes: 4-byte header plus 12 bytes per entry.
    pub fn encode(&self) -> Vec<u8> {
        let count = manet_sim::wire::clamp_count(self.entries.len());
        let mut b = Vec::with_capacity(self.entries.len().saturating_mul(12).saturating_add(4));
        b.push(3u8); // type
        b.push(count);
        put_u16(&mut b, 0); // reserved
        for e in self.entries.iter().take(usize::from(count)) {
            put_u16(&mut b, e.dst.0);
            put_u16(&mut b, if e.sn.is_some() { 1 } else { 0 });
            put_u64(&mut b, e.sn.unwrap_or(SeqNo { epoch: 0, counter: 0 }).to_u64());
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
        if body.len() != count.checked_mul(12)? {
            return None;
        }
        let entries = body
            .chunks_exact(12)
            .map(|c| {
                let has_sn = get_u16(c, 2)? != 0;
                Some(RerrEntry {
                    dst: NodeId(get_u16(c, 0)?),
                    sn: if has_sn { Some(SeqNo::from_u64(get_u64(c, 4)?)) } else { None },
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Rerr { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rreq() -> Rreq {
        Rreq {
            dst: NodeId(7),
            sn_dst: Some(SeqNo { epoch: 2, counter: 9 }),
            rreqid: 0xCAFE_BABE,
            src: NodeId(3),
            sn_src: SeqNo { epoch: 1, counter: 4 },
            fd: 5,
            dist: 2,
            ttl: 7,
            t_bit: true,
            n_bit: false,
            d_bit: true,
        }
    }

    #[test]
    fn rreq_round_trip() {
        let m = sample_rreq();
        let bytes = m.encode();
        assert_eq!(bytes.len(), 36);
        assert_eq!(Rreq::decode(&bytes), Some(m));
    }

    #[test]
    fn rreq_unknown_seqno_round_trip() {
        let m = Rreq { sn_dst: None, t_bit: false, d_bit: false, ..sample_rreq() };
        assert_eq!(Rreq::decode(&m.encode()), Some(m));
    }

    #[test]
    fn rrep_round_trip() {
        let m = Rrep {
            dst: NodeId(7),
            sn_dst: SeqNo { epoch: 3, counter: 1 },
            src: NodeId(3),
            rreqid: 42,
            dist: 4,
            lifetime_ms: 6000,
            n_bit: true,
        };
        let bytes = m.encode();
        assert_eq!(bytes.len(), 28);
        assert_eq!(Rrep::decode(&bytes), Some(m));
    }

    #[test]
    fn rerr_round_trip_multiple_entries() {
        let m = Rerr {
            entries: vec![
                RerrEntry { dst: NodeId(1), sn: Some(SeqNo { epoch: 1, counter: 2 }) },
                RerrEntry { dst: NodeId(9), sn: None },
                RerrEntry { dst: NodeId(400), sn: Some(SeqNo { epoch: 7, counter: 0 }) },
            ],
        };
        let bytes = m.encode();
        assert_eq!(bytes.len(), 4 + 36);
        assert_eq!(Rerr::decode(&bytes), Some(m));
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(Rreq::decode(&[]), None);
        assert_eq!(Rreq::decode(&[1u8; 31]), None);
        assert_eq!(Rrep::decode(&[2u8; 27]), None);
        assert_eq!(Rerr::decode(&[3u8, 2, 0, 0, 0]), None, "length mismatch");
        // Wrong type byte.
        let mut ok = sample_rreq().encode();
        ok[0] = 9;
        assert_eq!(Rreq::decode(&ok), None);
    }

    /// Regression test for the unchecked readers: the old `get_u16`
    /// family indexed `b[at + 1]` (and siblings) without bounds checks,
    /// so a read that ran off the end of a truncated buffer panicked
    /// instead of rejecting the frame. Exercising the readers directly
    /// (the decoders also length-check up front, which masked the bug)
    /// panics under the old code and returns `None` under the new.
    #[test]
    fn readers_are_total_on_short_buffers() {
        assert_eq!(get_u16(&[], 0), None);
        assert_eq!(get_u16(&[1], 0), None, "one byte short: old code indexed b[1]");
        assert_eq!(get_u32(&[1, 2, 3], 0), None);
        assert_eq!(get_u64(&[0; 7], 0), None);
        // Reads straddling the end and reads starting past the end.
        assert_eq!(get_u16(&[1, 2], 1), None);
        assert_eq!(get_u32(&[0; 8], 5), None);
        assert_eq!(get_u64(&[0; 16], 9), None);
        assert_eq!(get_u16(&[1, 2], 9), None);
        // Offset arithmetic cannot overflow either.
        assert_eq!(get_u16(&[1, 2], usize::MAX), None);
        assert_eq!(get_u64(&[0; 16], usize::MAX - 3), None);
        // In-bounds reads still decode big-endian.
        assert_eq!(get_u16(&[0x12, 0x34], 0), Some(0x1234));
        assert_eq!(get_u32(&[0, 0x12, 0x34, 0x56, 0x78], 1), Some(0x1234_5678));
        assert_eq!(get_u64(&[1, 0, 0, 0, 0, 0, 0, 0, 2], 1), Some(2));
    }

    #[test]
    fn cross_type_decoding_fails() {
        let rreq = sample_rreq().encode();
        assert_eq!(Rrep::decode(&rreq), None);
        let rrep = Rrep {
            dst: NodeId(1),
            sn_dst: SeqNo::initial(),
            src: NodeId(2),
            rreqid: 1,
            dist: 1,
            lifetime_ms: 1,
            n_bit: false,
        }
        .encode();
        assert_eq!(Rreq::decode(&rrep), None);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_seqno() -> impl Strategy<Value = SeqNo> {
            (any::<u32>(), any::<u32>()).prop_map(|(e, c)| SeqNo { epoch: e, counter: c })
        }

        proptest! {
            #[test]
            fn rreq_round_trips(
                dst in any::<u16>(), src in any::<u16>(), rreqid in any::<u32>(),
                sn_dst in proptest::option::of(arb_seqno()), sn_src in arb_seqno(),
                fd in any::<u32>(), dist in any::<u32>(), ttl in any::<u8>(),
                t in any::<bool>(), n in any::<bool>(), d in any::<bool>(),
            ) {
                let m = Rreq {
                    dst: NodeId(dst), sn_dst, rreqid, src: NodeId(src), sn_src,
                    fd, dist, ttl, t_bit: t, n_bit: n, d_bit: d,
                };
                prop_assert_eq!(Rreq::decode(&m.encode()), Some(m));
            }

            #[test]
            fn rrep_round_trips(
                dst in any::<u16>(), src in any::<u16>(), rreqid in any::<u32>(),
                sn in arb_seqno(), dist in any::<u32>(), life in any::<u32>(),
                n in any::<bool>(),
            ) {
                let m = Rrep {
                    dst: NodeId(dst), sn_dst: sn, src: NodeId(src), rreqid,
                    dist, lifetime_ms: life, n_bit: n,
                };
                prop_assert_eq!(Rrep::decode(&m.encode()), Some(m));
            }

            #[test]
            fn rerr_round_trips(entries in proptest::collection::vec(
                (any::<u16>(), proptest::option::of(arb_seqno())), 0..20)
            ) {
                let m = Rerr {
                    entries: entries.into_iter()
                        .map(|(d, sn)| RerrEntry { dst: NodeId(d), sn })
                        .collect(),
                };
                prop_assert_eq!(Rerr::decode(&m.encode()), Some(m.clone()));
            }

            #[test]
            fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
                let _ = Rreq::decode(&bytes);
                let _ = Rrep::decode(&bytes);
                let _ = Rerr::decode(&bytes);
            }
        }
    }
}
