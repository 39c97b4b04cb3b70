//! Deterministic fast hashing for simulator-internal keys.
//!
//! The standard library's default hasher is SipHash-1-3, whose keyed,
//! DoS-resistant design costs real time on the simulator's hot paths
//! (per-packet duplicate checks, per-recompute route-table builds).
//! Simulator keys are small integers (`NodeId`, uids, tuples of both)
//! under no adversarial pressure, so a fixed-key multiplicative hash is
//! both faster and — crucially for the reproducibility contract —
//! deterministic across runs and platforms.
//!
//! Determinism caveat: a map's *iteration order* still depends on its
//! hash function. An [`FxMap`] is only sound where every iteration of
//! it is order-insensitive (probe-only use, or results
//! sorted/fold-commutative afterwards). The workspace's `clippy.toml`
//! bans std's `HashMap`/`HashSet` everywhere but in [`FxMap`] and
//! [`FxSet`], and `clippy::iter_over_hash_type` makes every loop over
//! one carry an `#[expect]` saying why its order does not matter.

use std::hash::{BuildHasherDefault, Hasher};

/// FxHash (the rustc hasher): one rotate-xor-multiply per word.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// FNV-1a's 64-bit offset basis: the usual `basis` for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes`, starting from `basis`. Feeding a hash
/// back in as the basis continues it: `fnv1a(b, fnv1a(a, h))` equals
/// `fnv1a` of `a` then `b` from `h`. Cell keys, state fingerprints and
/// test digests are built on it, so its values are pinned.
pub fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    bytes.iter().fold(basis, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuild = BuildHasherDefault<FxHasher>;

/// The workspace's hash map: std's map under the fixed-key [`FxBuild`].
#[expect(clippy::disallowed_types, reason = "the one sanctioned std hash map: FxBuild-hashed")]
pub type FxMap<K, V> = std::collections::HashMap<K, V, FxBuild>;

/// The workspace's hash set: std's set under the fixed-key [`FxBuild`].
#[expect(clippy::disallowed_types, reason = "the one sanctioned std hash set: FxBuild-hashed")]
pub type FxSet<T> = std::collections::HashSet<T, FxBuild>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_deterministic_and_spread() {
        let build = FxBuild::default();
        let a = std::hash::BuildHasher::hash_one(&build, 42u64);
        let b = std::hash::BuildHasher::hash_one(&build, 42u64);
        assert_eq!(a, b, "same key must hash identically");
        let c = std::hash::BuildHasher::hash_one(&build, 43u64);
        assert_ne!(a, c, "neighbouring keys should not collide trivially");
    }

    #[test]
    fn fnv1a_is_the_published_function_and_continues_across_calls() {
        // The FNV-1a-64 test vectors: "" is the basis, "a" and "foobar".
        assert_eq!(fnv1a(b"", FNV_OFFSET), FNV_OFFSET);
        assert_eq!(fnv1a(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar", FNV_OFFSET), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(b"bar", fnv1a(b"foo", FNV_OFFSET)), fnv1a(b"foobar", FNV_OFFSET));
    }

    #[test]
    fn map_with_fx_build_behaves_like_a_map() {
        let mut m: FxMap<u16, u32> = FxMap::default();
        for k in 0..1000u16 {
            m.insert(k, u32::from(k) * 3);
        }
        for k in 0..1000u16 {
            assert_eq!(m.get(&k), Some(&(u32::from(k) * 3)));
        }
        assert_eq!(m.len(), 1000);
    }
}
