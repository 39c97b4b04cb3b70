//! A minimal, dependency-free stand-in for the [`proptest`] crate.
//!
//! The build environment for this workspace has no access to a crate
//! registry, so the real `proptest` cannot be downloaded. This shim
//! implements exactly the subset of the API the workspace's property
//! tests use — `proptest!` (block and closure forms), `prop_assert*!`,
//! `any`, integer-range / tuple / mapped strategies,
//! `collection::vec`, `option::of`, `sample::select`, `bool::ANY` and
//! `ProptestConfig::with_cases` — over a deterministic splitmix64
//! generator.
//!
//! Like the real crate, the shim **shrinks** failing cases (halving for
//! numeric ranges, truncation/element-removal for vectors, componentwise
//! for tuples) and **persists regression seeds**: the RNG state that
//! produced a failure is appended to
//! `proptest-regressions/<module>__<test>.txt` under the test crate's
//! manifest directory, and replayed before fresh cases on every later
//! run, so a once-seen counterexample can never silently disappear.
//!
//! Remaining differences from the real crate, by design:
//!
//! * Generated values must be `Clone + Debug` (needed to re-run the
//!   body during shrinking and to print the minimised counterexample).
//! * **Fixed seeding.** Fresh cases always come from the same stream,
//!   so failures reproduce exactly across machines.
//! * **64 cases by default** (the real crate runs 256).
//! * `prop_map` outputs do not shrink (the mapping is not invertible).
//!
//! [`proptest`]: https://docs.rs/proptest

#![cfg_attr(not(test), deny(clippy::iter_over_hash_type, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]

/// Test-runner configuration, the deterministic RNG, regression-seed
/// persistence and the shrinking property runner.
pub mod test_runner {
    use crate::strategy::Strategy;
    use std::fmt::Debug;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::{Path, PathBuf};

    /// Runner configuration (only the case count is honoured).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Deterministic splitmix64 stream used to generate test inputs.
    ///
    /// The full generator state is a single `u64`, which is what makes
    /// seed persistence trivial: [`TestRng::state`] before generating a
    /// case captures everything needed to regenerate it.
    #[derive(Clone, Debug)]
    pub struct TestRng(u64);

    impl TestRng {
        /// The fixed-seed stream every property test draws from.
        pub fn deterministic() -> Self {
            TestRng(0x9E37_79B9_7F4A_7C15)
        }

        /// The current generator state (a regression seed).
        pub fn state(&self) -> u64 {
            self.0
        }

        /// Rebuilds a generator from a persisted state.
        pub fn from_state(state: u64) -> Self {
            TestRng(state)
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)` (`0` when `n == 0`).
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                self.next_u64() % n
            }
        }
    }

    /// The regression-seed file for one property test:
    /// `<manifest_dir>/proptest-regressions/<module>__<test>.txt`.
    pub fn persistence_file(manifest_dir: &str, module_path: &str, test_name: &str) -> PathBuf {
        let module = module_path.replace("::", "__");
        Path::new(manifest_dir)
            .join("proptest-regressions")
            .join(format!("{module}__{test_name}.txt"))
    }

    /// Loads persisted regression seeds (`cc <hex>` lines; everything
    /// else is a comment). A missing file is an empty seed set.
    pub fn load_regression_seeds(path: &Path) -> Vec<u64> {
        let Ok(text) = std::fs::read_to_string(path) else {
            return Vec::new();
        };
        text.lines()
            .filter_map(|line| {
                let rest = line.trim().strip_prefix("cc ")?;
                u64::from_str_radix(rest.trim(), 16).ok()
            })
            .collect()
    }

    /// Appends one regression seed, creating the file (with a header
    /// comment) and directory as needed. Already-known seeds are not
    /// duplicated. Returns whether the seed is now on disk.
    pub fn save_regression_seed(path: &Path, state: u64) -> bool {
        if load_regression_seeds(path).contains(&state) {
            return true;
        }
        use std::io::Write;
        if let Some(dir) = path.parent() {
            if std::fs::create_dir_all(dir).is_err() {
                return false;
            }
        }
        let fresh = !path.exists();
        let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) else {
            return false;
        };
        if fresh {
            let _ = writeln!(
                f,
                "# Seeds for failure cases found by proptest-shim. It is recommended\n\
                 # to check this file into source control: each `cc <hex>` line is a\n\
                 # generator state replayed before fresh cases on every run."
            );
        }
        writeln!(f, "cc {state:016x}").is_ok()
    }

    /// Greedily minimises a failing value: repeatedly takes the first
    /// shrink candidate that still fails, until no candidate does (or a
    /// global attempt budget runs out).
    fn shrink_to_minimal<S, A>(strat: &S, mut current: S::Value, attempt: &A) -> S::Value
    where
        S: Strategy,
        S::Value: Clone,
        A: Fn(&S::Value) -> bool,
    {
        let mut budget = 1024usize;
        loop {
            let mut improved = false;
            for cand in strat.shrink(&current) {
                if budget == 0 {
                    return current;
                }
                budget -= 1;
                if !attempt(&cand) {
                    current = cand;
                    improved = true;
                    break;
                }
            }
            if !improved {
                return current;
            }
        }
    }

    /// Runs one property: replays persisted regression seeds first, then
    /// `cfg.cases` fresh cases. On failure the provoking seed is saved
    /// (when `persist` is given), the case is shrunk to a local minimum,
    /// and the runner panics with both the original and the minimised
    /// counterexample.
    pub fn run_property<S, F>(cfg: &Config, strat: &S, persist: Option<PathBuf>, run: F)
    where
        S: Strategy,
        S::Value: Clone + Debug,
        F: Fn(&S::Value),
    {
        let attempt = |v: &S::Value| catch_unwind(AssertUnwindSafe(|| run(v))).is_ok();

        if let Some(path) = &persist {
            for state in load_regression_seeds(path) {
                let mut rng = TestRng::from_state(state);
                let value = strat.generate(&mut rng);
                if !attempt(&value) {
                    let minimal = shrink_to_minimal(strat, value.clone(), &attempt);
                    panic!(
                        "persisted regression still fails (cc {state:016x} in {path})\n\
                         \x20   original: {value:?}\n\
                         \x20   minimal:  {minimal:?}",
                        path = path.display(),
                    );
                }
            }
        }

        let mut rng = TestRng::deterministic();
        for case in 0..cfg.cases {
            let state = rng.state();
            let value = strat.generate(&mut rng);
            if !attempt(&value) {
                let persisted = persist
                    .as_ref()
                    .filter(|p| save_regression_seed(p, state))
                    .map(|p| format!("; seed saved to {}", p.display()))
                    .unwrap_or_default();
                let minimal = shrink_to_minimal(strat, value.clone(), &attempt);
                panic!(
                    "property failed at case {case} (cc {state:016x}{persisted})\n\
                     \x20   original: {value:?}\n\
                     \x20   minimal:  {minimal:?}",
                );
            }
        }
    }
}

/// The `Strategy` trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// Generates values of `Self::Value` from the test RNG, and
    /// proposes smaller variants of a failing value.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Proposes "smaller" candidates for `value`, most aggressive
        /// first. The default proposes nothing (no shrinking).
        fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
            Vec::new()
        }

        /// Maps generated values through `f` (mapped values do not
        /// shrink — the mapping is not invertible).
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! unsigned_range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end as u64).saturating_sub(self.start as u64);
                    (self.start as u64 + rng.below(span)) as $t
                }
                fn shrink(&self, value: &$t) -> Vec<$t> {
                    // Toward the range start: jump all the way, halve
                    // the distance, step by one.
                    let mut out = Vec::new();
                    if *value > self.start {
                        out.push(self.start);
                        let mid = self.start + (*value - self.start) / 2;
                        if mid != self.start && mid != *value {
                            out.push(mid);
                        }
                        if *value - 1 != self.start {
                            out.push(*value - 1);
                        }
                    }
                    out
                }
            }
        )+};
    }
    unsigned_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($($S:ident : $idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+)
            where
                $($S::Value: Clone),+
            {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
                fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                    // Componentwise: shrink one coordinate at a time.
                    let mut out = Vec::new();
                    $(
                        for cand in self.$idx.shrink(&value.$idx) {
                            let mut c = value.clone();
                            c.$idx = cand;
                            out.push(c);
                        }
                    )+
                    out
                }
            }
        };
    }
    tuple_strategy!(A: 0);
    tuple_strategy!(A: 0, B: 1);
    tuple_strategy!(A: 0, B: 1, C: 2);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9, K: 10);
}

/// `any::<T>()` for the primitive types the tests use.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;

    /// Types with a canonical full-range generator.
    pub trait Arbitrary {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;

        /// Proposes smaller variants of a failing value (toward zero /
        /// `false`). The default proposes nothing.
        fn shrink_value(&self) -> Vec<Self>
        where
            Self: Sized,
        {
            Vec::new()
        }
    }

    macro_rules! arb_uint {
        ($($t:ty),+) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
                fn shrink_value(&self) -> Vec<$t> {
                    let v = *self;
                    let mut out = Vec::new();
                    if v > 0 {
                        out.push(0);
                        if v / 2 != 0 {
                            out.push(v / 2);
                        }
                        if v - 1 != 0 && v - 1 != v / 2 {
                            out.push(v - 1);
                        }
                    }
                    out
                }
            }
        )+};
    }
    arb_uint!(u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
        fn shrink_value(&self) -> Vec<bool> {
            if *self {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }

    /// Strategy produced by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            value.shrink_value()
        }
    }

    /// The full-range strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Collection strategies (`vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.end.saturating_sub(self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let min = self.size.start;
            let n = value.len();
            let mut out = Vec::new();
            // Length shrinks first (most aggressive): down to the
            // minimum, half way down, then dropping single elements.
            if n > min {
                out.push(value[..min].to_vec());
                let half = min + (n - min) / 2;
                if half != min && half != n {
                    out.push(value[..half].to_vec());
                }
                for i in 0..n.min(16) {
                    let mut v = value.clone();
                    v.remove(i);
                    if v.len() >= min {
                        out.push(v);
                    }
                }
            }
            // Then element shrinks, a few candidates per position.
            for i in 0..n.min(8) {
                for cand in self.element.shrink(&value[i]).into_iter().take(4) {
                    let mut v = value.clone();
                    v[i] = cand;
                    out.push(v);
                }
            }
            out
        }
    }

    /// Vectors of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// `Option` strategies (`of`).
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy returned by [`of`].
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 3 == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
        fn shrink(&self, value: &Option<S::Value>) -> Vec<Option<S::Value>> {
            match value {
                None => Vec::new(),
                Some(inner) => {
                    let mut out = vec![None];
                    out.extend(self.0.shrink(inner).into_iter().map(Some));
                    out
                }
            }
        }
    }

    /// `None` a quarter of the time, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

/// Sampling strategies (`select`).
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy returned by [`select`].
    pub struct Select<T: Clone>(Vec<T>);

    impl<T: Clone + PartialEq> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.0.len() as u64) as usize;
            self.0[i].clone()
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            // Toward earlier choices in the list.
            match self.0.iter().position(|x| x == value) {
                Some(i) if i > 0 => vec![self.0[0].clone(), self.0[i - 1].clone()],
                _ => Vec::new(),
            }
        }
    }

    /// Uniformly selects one of `items` (must be non-empty).
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select requires at least one item");
        Select(items)
    }
}

/// `bool` strategies (`ANY`).
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The uniform `bool` strategy.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// Uniformly random booleans.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = core::primitive::bool;
        fn generate(&self, rng: &mut TestRng) -> core::primitive::bool {
            rng.next_u64() & 1 == 1
        }
        fn shrink(&self, value: &core::primitive::bool) -> Vec<core::primitive::bool> {
            if *value {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }
}

/// The usual glob-import surface: traits, `any`, macros and the `prop`
/// module alias.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};

    /// Mirror of the real prelude's `prop` re-export module.
    pub mod prop {
        pub use crate::{bool, collection, option, sample};
    }
}

/// Asserts a condition inside a property (the runner catches the panic,
/// shrinks the case and re-raises with the minimised counterexample).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)+) => { assert!($($args)+) };
}

/// Asserts equality inside a property (delegates to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)+) => { assert_eq!($($args)+) };
}

/// The property-test entry point. Supports the block form (a sequence
/// of `#[test] fn name(binding in strategy, ...) { body }` items, with
/// an optional leading `#![proptest_config(...)]`) and the closure form
/// `proptest!(|(binding in strategy)| { body })`.
///
/// Block-form tests persist regression seeds under the invoking crate's
/// `proptest-regressions/` directory; the anonymous closure form shrinks
/// but does not persist.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
    (|($($pat:pat_param in $strat:expr),+ $(,)?)| $body:block) => {{
        let __cfg = $crate::test_runner::Config::default();
        let __strat = ($(($strat),)+);
        $crate::test_runner::run_property(&__cfg, &__strat, ::core::option::Option::None, |__value| {
            let ($($pat,)+) = ::core::clone::Clone::clone(__value);
            $body
        });
    }};
    ($($rest:tt)*) => {
        $crate::__proptest_items! { @cfg($crate::test_runner::Config::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]'s block form.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (@cfg($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg = $cfg;
            let __strat = ($(($strat),)+);
            let __persist = $crate::test_runner::persistence_file(
                env!("CARGO_MANIFEST_DIR"),
                module_path!(),
                stringify!($name),
            );
            $crate::test_runner::run_property(
                &__cfg,
                &__strat,
                ::core::option::Option::Some(__persist),
                |__value| {
                    let ($($pat,)+) = ::core::clone::Clone::clone(__value);
                    $body
                },
            );
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::test_runner::{load_regression_seeds, run_property, save_regression_seed, TestRng};

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic();
        for _ in 0..200 {
            let v = Strategy::generate(&(3u32..17), &mut rng);
            assert!((3..17).contains(&v));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = TestRng::deterministic();
        let mut b = TestRng::deterministic();
        let s = crate::collection::vec((0u16..9, crate::bool::ANY), 1..8);
        for _ in 0..32 {
            assert_eq!(Strategy::generate(&s, &mut a), Strategy::generate(&s, &mut b));
        }
    }

    proptest! {
        #[test]
        fn block_form_compiles(x in 0u32..10, flag in prop::bool::ANY, o in prop::collection::vec(0u8..4, 0..5)) {
            prop_assert!(x < 10);
            prop_assert!(o.len() < 5);
            let _ = flag;
        }
    }

    #[test]
    fn closure_form_compiles() {
        proptest!(|(v in prop::collection::vec(0u32..5, 1..4))| {
            prop_assert!(!v.is_empty());
            prop_assert!(v.iter().all(|&x| x < 5));
        });
    }

    #[test]
    fn range_shrink_moves_toward_start() {
        let s = 5u32..100;
        let cands = s.shrink(&40);
        assert!(cands.contains(&5), "jump to start");
        assert!(cands.contains(&22), "halve the distance: {cands:?}");
        assert!(cands.contains(&39), "step by one");
        assert!(s.shrink(&5).is_empty(), "the start is already minimal");
    }

    #[test]
    fn vec_shrink_respects_minimum_length() {
        let s = crate::collection::vec(0u8..10, 2..8);
        let v = vec![9, 8, 7, 6, 5];
        for cand in s.shrink(&v) {
            assert!(cand.len() >= 2, "candidate below min length: {cand:?}");
        }
        assert!(s.shrink(&v).iter().any(|c| c.len() == 2), "truncates to the minimum");
    }

    #[test]
    fn tuple_shrink_is_componentwise() {
        let s = (0u32..100, 0u32..100);
        for (a, b) in s.shrink(&(10, 20)) {
            assert!(
                (a, b) != (10, 20) && (a == 10 || b == 20),
                "exactly one coordinate moves: ({a}, {b})"
            );
        }
    }

    #[test]
    fn failing_property_shrinks_to_the_boundary() {
        let err = std::panic::catch_unwind(|| {
            run_property(&ProptestConfig::with_cases(64), &(0u32..1000,), None, |v| {
                assert!(v.0 < 10, "too big: {}", v.0);
            });
        })
        .expect_err("property must fail");
        let msg =
            err.downcast_ref::<String>().cloned().unwrap_or_else(|| "non-string panic".into());
        assert!(msg.contains("minimal:  (10,)"), "shrinks to exactly the boundary: {msg}");
        assert!(msg.contains("original:"), "reports the raw case too: {msg}");
    }

    #[test]
    fn regression_seeds_round_trip_and_replay_first() {
        let dir = std::env::temp_dir().join(format!("pshim-{}", std::process::id()));
        let path = dir.join("roundtrip.txt");
        let _ = std::fs::remove_file(&path);
        assert!(load_regression_seeds(&path).is_empty());
        assert!(save_regression_seed(&path, 0xdead_beef));
        assert!(save_regression_seed(&path, 0x1234));
        assert!(save_regression_seed(&path, 0xdead_beef), "dedup keeps the file stable");
        assert_eq!(load_regression_seeds(&path), vec![0xdead_beef, 0x1234]);

        // A persisted seed must be replayed (and fail) before any fresh
        // case: seed the file with a state, verify the failure message
        // names it as a persisted regression.
        let replay = dir.join("replay.txt");
        let _ = std::fs::remove_file(&replay);
        let mut probe = TestRng::from_state(7);
        let bad = Strategy::generate(&(0u32..1000), &mut probe);
        assert!(save_regression_seed(&replay, 7));
        let err = std::panic::catch_unwind(|| {
            run_property(
                &ProptestConfig::with_cases(0),
                &(0u32..1000,),
                Some(replay.clone()),
                |v| {
                    assert!(v.0 != bad);
                },
            );
        })
        .expect_err("persisted seed must reproduce the failure");
        let msg =
            err.downcast_ref::<String>().cloned().unwrap_or_else(|| "non-string panic".into());
        assert!(msg.contains("persisted regression"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn new_failure_persists_its_seed() {
        let dir = std::env::temp_dir().join(format!("pshim-persist-{}", std::process::id()));
        let path = dir.join("fresh.txt");
        let _ = std::fs::remove_file(&path);
        let err = std::panic::catch_unwind(|| {
            run_property(
                &ProptestConfig::with_cases(32),
                &(0u32..1000,),
                Some(path.clone()),
                |v| {
                    assert!(v.0 < 500);
                },
            );
        })
        .expect_err("property must fail");
        let _ = err;
        let seeds = load_regression_seeds(&path);
        assert_eq!(seeds.len(), 1, "the provoking rng state is persisted");
        // Replaying the persisted state regenerates a failing value.
        let mut rng = TestRng::from_state(seeds[0]);
        let v = Strategy::generate(&(0u32..1000), &mut rng);
        assert!(v >= 500);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
