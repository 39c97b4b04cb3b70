//! Bounds-checked wire readers and writers shared by every codec.
//!
//! Wire bytes come off a simulated radio that the fault layer can
//! corrupt arbitrarily (see [`crate::faults`]), and every control
//! frame decoded by a protocol runs inside the same no-abort replay
//! loop as the kernel itself. Decoders therefore must be *total*:
//! malformed input surfaces as a rejected frame (`None`), never as a
//! panic. These helpers make that property compositional — no bare
//! indexing, no unchecked offset arithmetic, no narrowing casts — and
//! the clippy lints denied at the top of this file and of every
//! `messages.rs` keep the codecs that use them honest.

#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), deny(clippy::cast_sign_loss))]

use crate::packet::NodeId;

/// Reads one byte; `None` past the end.
#[inline]
pub fn get_u8(b: &[u8], at: usize) -> Option<u8> {
    b.get(at).copied()
}

/// Reads a big-endian `u16`; `None` on truncation or offset overflow.
#[inline]
pub fn get_u16(b: &[u8], at: usize) -> Option<u16> {
    let s = b.get(at..at.checked_add(2)?)?;
    s.try_into().ok().map(u16::from_be_bytes)
}

/// Reads a big-endian `u32`; `None` on truncation or offset overflow.
#[inline]
pub fn get_u32(b: &[u8], at: usize) -> Option<u32> {
    let s = b.get(at..at.checked_add(4)?)?;
    s.try_into().ok().map(u32::from_be_bytes)
}

/// Reads a big-endian `u64`; `None` on truncation or offset overflow.
#[inline]
pub fn get_u64(b: &[u8], at: usize) -> Option<u64> {
    let s = b.get(at..at.checked_add(8)?)?;
    s.try_into().ok().map(u64::from_be_bytes)
}

/// Appends a big-endian `u16`.
#[inline]
pub fn put_u16(b: &mut Vec<u8>, v: u16) {
    b.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u32`.
#[inline]
pub fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u64`.
#[inline]
pub fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_be_bytes());
}

/// Clamps a list length to the one-byte count field every codec here
/// uses. A frame whose count byte disagreed with its payload would be
/// rejected wholesale by the decoder; clamping instead emits a valid
/// frame carrying the first 255 entries — graceful degradation for
/// lists the wire format cannot express (protocol lists are TTL- or
/// neighbourhood-bounded far below 255 in practice).
#[inline]
pub fn clamp_count(n: usize) -> u8 {
    u8::try_from(n).unwrap_or(u8::MAX)
}

/// Appends the first `count` node ids, big-endian. Pass the
/// [`clamp_count`] of the same slice so the count field and the
/// payload stay consistent.
pub fn push_ids(b: &mut Vec<u8>, ids: &[NodeId], count: u8) {
    for n in ids.iter().take(usize::from(count)) {
        b.extend_from_slice(&n.0.to_be_bytes());
    }
}

/// Reads `n` big-endian node ids starting at `at`; `None` on
/// truncation or offset overflow.
pub fn read_ids(b: &[u8], at: usize, n: usize) -> Option<Vec<NodeId>> {
    let s = b.get(at..at.checked_add(n.checked_mul(2)?)?)?;
    s.chunks_exact(2).map(|c| c.try_into().ok().map(u16::from_be_bytes).map(NodeId)).collect()
}

/// Reads a one-byte count followed by that many node ids. Returns the
/// ids and the offset just past them; `None` on malformed input.
pub fn read_node_list(b: &[u8], at: usize) -> Option<(Vec<NodeId>, usize)> {
    let n = usize::from(get_u8(b, at)?);
    let start = at.checked_add(1)?;
    let ids = read_ids(b, start, n)?;
    let end = start.checked_add(n.checked_mul(2)?)?;
    Some((ids, end))
}

/// Appends a one-byte count and the ids it covers.
pub fn push_node_list(b: &mut Vec<u8>, ids: &[NodeId]) {
    let k = clamp_count(ids.len());
    b.push(k);
    push_ids(b, ids, k);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_are_total_on_short_input() {
        let b = [1u8, 2, 3];
        assert_eq!(get_u8(&b, 2), Some(3));
        assert_eq!(get_u8(&b, 3), None);
        assert_eq!(get_u16(&b, 1), Some(0x0203));
        assert_eq!(get_u16(&b, 2), None);
        assert_eq!(get_u32(&b, 0), None);
        assert_eq!(get_u64(&b, 0), None);
    }

    #[test]
    fn readers_survive_offset_overflow() {
        let b = [0u8; 4];
        assert_eq!(get_u16(&b, usize::MAX), None);
        assert_eq!(get_u32(&b, usize::MAX - 1), None);
        assert_eq!(get_u64(&b, usize::MAX - 3), None);
        assert_eq!(read_ids(&b, usize::MAX, 1), None);
        assert_eq!(read_node_list(&b, usize::MAX), None);
    }

    #[test]
    fn node_list_round_trips() {
        let ids: Vec<NodeId> = [5u16, 9, 1000].iter().map(|&i| NodeId(i)).collect();
        let mut b = vec![0xAAu8]; // leading junk the list sits after
        push_node_list(&mut b, &ids);
        let (got, end) = read_node_list(&b, 1).expect("well-formed");
        assert_eq!(got, ids);
        assert_eq!(end, b.len());
    }

    #[test]
    fn oversize_list_is_clamped_consistently() {
        let ids: Vec<NodeId> = (0..300u16).map(NodeId).collect();
        let mut b = Vec::new();
        push_node_list(&mut b, &ids);
        assert_eq!(b.len(), 1 + 2 * 255, "count byte and payload agree");
        let (got, end) = read_node_list(&b, 0).expect("clamped list still decodes");
        assert_eq!(got.len(), 255);
        assert_eq!(end, b.len());
        assert_eq!(got, ids[..255]);
    }

    #[test]
    fn read_ids_rejects_truncated_payload() {
        let b = [0u8, 1, 0, 2, 0]; // 2.5 ids
        assert_eq!(read_ids(&b, 0, 2), Some(vec![NodeId(1), NodeId(2)]));
        assert_eq!(read_ids(&b, 0, 3), None);
        let lied = [3u8, 0, 1]; // count says 3, one id present
        assert_eq!(read_node_list(&lied, 0), None);
    }
}
