//! OLSR control messages (after draft-ietf-manet-olsr-06): HELLOs for
//! link sensing / MPR signalling and TCs for topology dissemination.
//!
//! Each message has one parser, a borrowed view ([`HelloRef`],
//! [`TcRef`]) that validates the frame and then hands out its ids
//! straight off the received bytes — what the protocol's receive path
//! uses, since a node hears 15–22 neighbours' HELLOs every two seconds
//! and needs each id once. The owned [`Hello::decode`] / [`Tc::decode`]
//! are that parser plus a collect.

#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), deny(clippy::cast_sign_loss))]

use manet_sim::packet::NodeId;
use manet_sim::wire::{clamp_count, push_ids};

/// A neighbour-sensing hello.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Neighbours heard bidirectionally (symmetric links).
    pub sym: Vec<NodeId>,
    /// Neighbours heard only one way so far.
    pub heard: Vec<NodeId>,
    /// The sender's chosen multipoint relays.
    pub mpr: Vec<NodeId>,
}

/// A topology-control broadcast, flooded via multipoint relays.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tc {
    /// Node whose links are advertised.
    pub originator: NodeId,
    /// Advertised neighbour sequence number (replaces older sets).
    pub ansn: u16,
    /// Per-originator flood sequence number (duplicate suppression).
    pub seq: u16,
    /// Remaining flood TTL.
    pub ttl: u8,
    /// The originator's MPR selectors (its advertised links).
    pub selectors: Vec<NodeId>,
}

/// The big-endian node ids of a validated id area.
fn node_ids(area: &[[u8; 2]]) -> impl ExactSizeIterator<Item = NodeId> + '_ {
    area.iter().map(|&id| NodeId(u16::from_be_bytes(id)))
}

/// A well-formed HELLO frame, read in place.
#[derive(Clone, Copy, Debug)]
pub struct HelloRef<'a> {
    sym: &'a [[u8; 2]],
    heard: &'a [[u8; 2]],
    mpr: &'a [[u8; 2]],
}

impl<'a> HelloRef<'a> {
    /// Validates `b` as a HELLO — type byte, three count bytes, and
    /// exactly the ids they announce, nothing after; `None` otherwise.
    pub fn parse(b: &'a [u8]) -> Option<Self> {
        let [4, ns, nh, nm, area @ ..] = b else { return None };
        let (area, []) = area.as_chunks::<2>() else { return None };
        let (sym, rest) = area.split_at_checked(usize::from(*ns))?;
        let (heard, mpr) = rest.split_at_checked(usize::from(*nh))?;
        (mpr.len() == usize::from(*nm)).then_some(HelloRef { sym, heard, mpr })
    }

    /// Neighbours heard bidirectionally (symmetric links).
    pub fn sym(&self) -> impl ExactSizeIterator<Item = NodeId> + 'a {
        node_ids(self.sym)
    }

    /// Neighbours heard only one way so far.
    pub fn heard(&self) -> impl ExactSizeIterator<Item = NodeId> + 'a {
        node_ids(self.heard)
    }

    /// The sender's chosen multipoint relays.
    pub fn mpr(&self) -> impl ExactSizeIterator<Item = NodeId> + 'a {
        node_ids(self.mpr)
    }
}

/// A well-formed TC frame, read in place.
#[derive(Clone, Copy, Debug)]
pub struct TcRef<'a> {
    frame: &'a [u8],
    /// Node whose links are advertised.
    pub originator: NodeId,
    /// Advertised neighbour sequence number (replaces older sets).
    pub ansn: u16,
    /// Per-originator flood sequence number (duplicate suppression).
    pub seq: u16,
    /// Remaining flood TTL.
    pub ttl: u8,
    selectors: &'a [[u8; 2]],
}

impl<'a> TcRef<'a> {
    /// Validates `b` as a TC — type byte, the eight header bytes, and
    /// exactly the selectors the count byte announces, nothing after;
    /// `None` otherwise.
    pub fn parse(b: &'a [u8]) -> Option<Self> {
        let [5, ttl, o0, o1, a0, a1, s0, s1, n, area @ ..] = b else { return None };
        let (selectors, []) = area.as_chunks::<2>() else { return None };
        (selectors.len() == usize::from(*n)).then_some(TcRef {
            frame: b,
            originator: NodeId(u16::from_be_bytes([*o0, *o1])),
            ansn: u16::from_be_bytes([*a0, *a1]),
            seq: u16::from_be_bytes([*s0, *s1]),
            ttl: *ttl,
            selectors,
        })
    }

    /// The originator's MPR selectors (its advertised links).
    pub fn selectors(&self) -> impl ExactSizeIterator<Item = NodeId> + 'a {
        node_ids(self.selectors)
    }

    /// The frame a relay retransmits: this one with the TTL one lower,
    /// or `None` when the TTL is spent (`ttl <= 1`). Byte for byte what
    /// re-encoding the decoded TC would give: `parse` checked the count
    /// byte against the length, so there is nothing for `encode` to
    /// clamp.
    pub fn forwarded(&self) -> Option<Vec<u8>> {
        if self.ttl <= 1 {
            return None;
        }
        let mut frame = self.frame.to_vec();
        *frame.get_mut(1)? = self.ttl.checked_sub(1)?;
        Some(frame)
    }
}

impl Hello {
    /// Encodes the hello.
    pub fn encode(&self) -> Vec<u8> {
        let (ks, kh, km) = (
            clamp_count(self.sym.len()),
            clamp_count(self.heard.len()),
            clamp_count(self.mpr.len()),
        );
        let mut b = vec![4u8, ks, kh, km];
        push_ids(&mut b, &self.sym, ks);
        push_ids(&mut b, &self.heard, kh);
        push_ids(&mut b, &self.mpr, km);
        b
    }

    /// Decodes; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<Self> {
        let h = HelloRef::parse(b)?;
        Some(Hello { sym: h.sym().collect(), heard: h.heard().collect(), mpr: h.mpr().collect() })
    }
}

impl Tc {
    /// Encodes the TC.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![5u8, self.ttl];
        b.extend_from_slice(&self.originator.0.to_be_bytes());
        b.extend_from_slice(&self.ansn.to_be_bytes());
        b.extend_from_slice(&self.seq.to_be_bytes());
        let k = clamp_count(self.selectors.len());
        b.push(k);
        push_ids(&mut b, &self.selectors, k);
        b
    }

    /// Decodes; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<Self> {
        let t = TcRef::parse(b)?;
        Some(Tc {
            originator: t.originator,
            ansn: t.ansn,
            seq: t.seq,
            ttl: t.ttl,
            selectors: t.selectors().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::wire::{get_u16, get_u8, read_ids};
    use proptest::prelude::*;

    fn ids(v: &[u16]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    /// `Hello::decode` as it was before it became `HelloRef::parse` +
    /// collect: the oracle the one parser is held to.
    fn old_hello_decode(b: &[u8]) -> Option<Hello> {
        if get_u8(b, 0)? != 4 {
            return None;
        }
        let ns = usize::from(get_u8(b, 1)?);
        let nh = usize::from(get_u8(b, 2)?);
        let nm = usize::from(get_u8(b, 3)?);
        let mut at = 4usize;
        let sym = read_ids(b, at, ns)?;
        at = at.checked_add(ns.checked_mul(2)?)?;
        let heard = read_ids(b, at, nh)?;
        at = at.checked_add(nh.checked_mul(2)?)?;
        let mpr = read_ids(b, at, nm)?;
        at = at.checked_add(nm.checked_mul(2)?)?;
        if at != b.len() {
            return None;
        }
        Some(Hello { sym, heard, mpr })
    }

    /// `Tc::decode` as it was, likewise.
    fn old_tc_decode(b: &[u8]) -> Option<Tc> {
        if get_u8(b, 0)? != 5 {
            return None;
        }
        let n = usize::from(get_u8(b, 8)?);
        if b.len() != 9usize.checked_add(n.checked_mul(2)?)? {
            return None;
        }
        Some(Tc {
            originator: NodeId(get_u16(b, 2)?),
            ansn: get_u16(b, 4)?,
            seq: get_u16(b, 6)?,
            ttl: get_u8(b, 1)?,
            selectors: read_ids(b, 9, n)?,
        })
    }

    /// Both views and both owned decoders against the old bodies on one
    /// byte string: same accept/reject, same fields, same id sequences,
    /// and `forwarded` equal to re-encoding with the TTL one lower.
    fn assert_one_parser(b: &[u8]) {
        let (view, old) = (HelloRef::parse(b), old_hello_decode(b));
        assert_eq!(view.is_some(), old.is_some(), "HELLO accept/reject on {b:?}");
        assert_eq!(Hello::decode(b), old);
        if let (Some(v), Some(h)) = (view, old) {
            assert_eq!(v.sym().collect::<Vec<_>>(), h.sym);
            assert_eq!(v.heard().collect::<Vec<_>>(), h.heard);
            assert_eq!(v.mpr().collect::<Vec<_>>(), h.mpr);
        }
        let (view, old) = (TcRef::parse(b), old_tc_decode(b));
        assert_eq!(view.is_some(), old.is_some(), "TC accept/reject on {b:?}");
        assert_eq!(Tc::decode(b), old);
        if let (Some(v), Some(t)) = (view, old) {
            assert_eq!((v.originator, v.ansn, v.seq, v.ttl), (t.originator, t.ansn, t.seq, t.ttl));
            assert_eq!(v.selectors().collect::<Vec<_>>(), t.selectors);
            let relayed = (t.ttl >= 2).then(|| Tc { ttl: t.ttl - 1, ..t }.encode());
            assert_eq!(v.forwarded(), relayed);
        }
    }

    /// `frame` as it is, then with one byte flipped, truncated, or
    /// extended, as `how` picks; `at` and `with` say where and by what.
    fn damaged(mut frame: Vec<u8>, how: u8, at: usize, with: u8) -> Vec<u8> {
        let at = at % frame.len();
        match how % 4 {
            0 => {}
            1 => frame[at] ^= with | 1,
            2 => frame.truncate(at),
            _ => frame.extend(std::iter::repeat_n(with, 1 + at % 3)),
        }
        frame
    }

    #[test]
    fn hello_round_trip() {
        let h = Hello { sym: ids(&[1, 2]), heard: ids(&[3]), mpr: ids(&[1]) };
        assert_eq!(Hello::decode(&h.encode()), Some(h.clone()));
        let empty = Hello { sym: vec![], heard: vec![], mpr: vec![] };
        assert_eq!(Hello::decode(&empty.encode()), Some(empty));
    }

    #[test]
    fn tc_round_trip() {
        let t = Tc { originator: NodeId(9), ansn: 3, seq: 77, ttl: 30, selectors: ids(&[1, 4]) };
        assert_eq!(Tc::decode(&t.encode()), Some(t));
    }

    #[test]
    fn malformed_rejected() {
        assert!(Hello::decode(&[4, 1, 0, 0]).is_none());
        assert!(Tc::decode(&[5, 1, 0, 9, 0, 1, 0, 3, 2, 0]).is_none());
        assert!(Hello::decode(&[]).is_none());
    }

    /// The TTL a relay sends on is one lower, and a TTL of 0 or 1 is
    /// spent: nothing to send.
    #[test]
    fn forwarded_decrements_the_ttl_until_it_is_spent() {
        let tc = |ttl| Tc { originator: NodeId(9), ansn: 3, seq: 77, ttl, selectors: ids(&[1, 4]) };
        let forwarded = |ttl| TcRef::parse(&tc(ttl).encode()).expect("well-formed").forwarded();
        assert_eq!(forwarded(255), Some(tc(254).encode()));
        assert_eq!(forwarded(2), Some(tc(1).encode()));
        assert_eq!(forwarded(1), None);
        assert_eq!(forwarded(0), None);
    }

    proptest! {
        #[test]
        fn hello_round_trips(
            sym in proptest::collection::vec(any::<u16>(), 0..20),
            heard in proptest::collection::vec(any::<u16>(), 0..20),
            mpr in proptest::collection::vec(any::<u16>(), 0..20),
        ) {
            let h = Hello { sym: ids(&sym), heard: ids(&heard), mpr: ids(&mpr) };
            prop_assert_eq!(Hello::decode(&h.encode()), Some(h.clone()));
        }

        #[test]
        fn tc_round_trips(
            orig in any::<u16>(), ansn in any::<u16>(), seq in any::<u16>(),
            ttl in any::<u8>(), sel in proptest::collection::vec(any::<u16>(), 0..30),
        ) {
            let t = Tc { originator: NodeId(orig), ansn, seq, ttl, selectors: ids(&sel) };
            prop_assert_eq!(Tc::decode(&t.encode()), Some(t.clone()));
        }

        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = Hello::decode(&bytes);
            let _ = Tc::decode(&bytes);
            let _ = HelloRef::parse(&bytes).map(|h| h.sym().chain(h.heard()).chain(h.mpr()).count());
            let _ = TcRef::parse(&bytes).map(|t| (t.selectors().count(), t.forwarded()));
        }

        /// Arbitrary bytes, steered towards the two type bytes and small
        /// counts so that a fair share parses.
        #[test]
        fn views_accept_what_the_old_decoders_accepted_on_any_bytes(
            mut bytes in proptest::collection::vec(any::<u8>(), 0..48),
            steer in any::<u8>(),
        ) {
            if let Some(first) = bytes.first_mut() {
                if steer % 4 != 0 {
                    *first = 4 + steer % 2;
                }
            }
            if steer % 8 >= 2 {
                for count in bytes.iter_mut().skip(1).take(8) {
                    *count %= 8;
                }
            }
            assert_one_parser(&bytes);
        }

        #[test]
        fn views_accept_what_the_old_decoders_accepted_on_damaged_hellos(
            sym in proptest::collection::vec(any::<u16>(), 0..12),
            heard in proptest::collection::vec(any::<u16>(), 0..6),
            mpr in proptest::collection::vec(any::<u16>(), 0..6),
            how in any::<u8>(), at in any::<usize>(), with in any::<u8>(),
        ) {
            let h = Hello { sym: ids(&sym), heard: ids(&heard), mpr: ids(&mpr) };
            assert_one_parser(&damaged(h.encode(), how, at, with));
        }

        #[test]
        fn views_accept_what_the_old_decoders_accepted_on_damaged_tcs(
            orig in any::<u16>(), ansn in any::<u16>(), seq in any::<u16>(),
            ttl in any::<u8>(), sel in proptest::collection::vec(any::<u16>(), 0..12),
            how in any::<u8>(), at in any::<usize>(), with in any::<u8>(),
        ) {
            // Half the TTLs sit at the spent / not-spent boundary.
            let ttl = if with % 2 == 0 { ttl % 4 } else { ttl };
            let t = Tc { originator: NodeId(orig), ansn, seq, ttl, selectors: ids(&sel) };
            assert_one_parser(&damaged(t.encode(), how, at, with));
        }
    }
}
