//! Deterministic random-number generation.
//!
//! Every stochastic component of the simulator (mobility, traffic, MAC
//! backoff, protocol jitter) draws from its own [`SimRng`] stream derived
//! from the trial seed and a stream label. Runs are therefore bit-for-bit
//! reproducible across machines and independent of external crate version
//! churn — the generator (xoshiro256**, seeded through splitmix64) is
//! implemented here.
//!
//! # Determinism contract
//!
//! All randomness in a simulation run MUST come from a [`SimRng`]
//! (directly, via [`SimRng::stream`], or via [`SimRng::split`]); OS
//! entropy (`std::time`, `SystemTime`, `/dev/urandom`, hash-map
//! iteration order) is forbidden in simulator paths, and the
//! workspace's `clippy.toml` bans the std types and calls that read it.
//! Given the same seed, the same build produces the
//! same event sequence, metrics and traces on every machine, which is
//! what makes counterexample replay (`crates/modelcheck`) and the
//! forensic audit dumps meaningful.

/// A deterministic pseudo-random number generator (xoshiro256**).
///
/// Not cryptographically secure; statistical quality is more than adequate
/// for discrete-event simulation.
///
/// ```
/// use manet_sim::rng::SimRng;
/// let mut a = SimRng::from_seed(42);
/// let mut b = SimRng::from_seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

/// Advances a splitmix64 state and returns the next output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        SimRng { s }
    }

    /// Creates a generator for a named sub-stream of `seed`.
    ///
    /// Streams with different labels are statistically independent, so a
    /// change in how one component consumes randomness never perturbs
    /// another component's draws.
    pub fn stream(seed: u64, label: &str) -> Self {
        // FNV-1a's loop and basis, but not its prime (2^40 + 0x1b3):
        // this multiplier is 2^44 + 0x1b3, so it is not `hash::fnv1a`.
        // Every stream of every pinned run is derived here; it stays.
        let mut h = crate::hash::FNV_OFFSET;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Self::from_seed(seed ^ h)
    }

    /// Derives a child generator, consuming state from `self`.
    pub fn split(&mut self) -> SimRng {
        let seed = self.next_u64();
        Self::from_seed(seed)
    }

    /// Returns the next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Widening-multiply rejection sampling (unbiased).
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        if lo == hi {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        lo + self.f64() * (hi - lo)
    }

    /// Exponentially distributed float with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0);
        // Inverse CDF; 1 - f64() is in (0, 1] so ln() is finite.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn streams_are_independent_of_label_order() {
        let mut m1 = SimRng::stream(99, "mobility");
        let mut t1 = SimRng::stream(99, "traffic");
        assert_ne!(m1.next_u64(), t1.next_u64());
        // Re-derive: identical.
        let mut m2 = SimRng::stream(99, "mobility");
        let mut m3 = SimRng::stream(99, "mobility");
        assert_eq!(m2.next_u64(), m3.next_u64());
    }

    #[test]
    fn below_is_in_bounds_and_covers() {
        let mut r = SimRng::from_seed(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_inclusive_hits_both_ends() {
        let mut r = SimRng::from_seed(4);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1000 {
            match r.range_u64(5, 8) {
                5 => lo_seen = true,
                8 => hi_seen = true,
                v => assert!((5..=8).contains(&v)),
            }
        }
        assert!(lo_seen && hi_seen);
        assert_eq!(r.range_u64(9, 9), 9);
    }

    #[test]
    fn f64_in_unit_interval_with_correct_mean() {
        let mut r = SimRng::from_seed(5);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::from_seed(6);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(100.0)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 5.0, "exponential mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::from_seed(8);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left input unchanged");
    }

    #[test]
    fn split_children_differ() {
        let mut parent = SimRng::from_seed(11);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        SimRng::from_seed(0).below(0);
    }

    #[test]
    #[should_panic]
    fn choose_empty_panics() {
        let empty: [u8; 0] = [];
        SimRng::from_seed(0).choose(&empty);
    }
}
