//! Offline shim for the subset of `proptest` used by this workspace.
//!
//! Provides [`Strategy`](strategy::Strategy) with `prop_map` / `prop_flat_map`, integer-range
//! and tuple and `collection::vec` strategies, `any::<bool>()`, string
//! strategies from pattern literals (generation only — the pattern is not
//! interpreted), the [`proptest!`] macro, and `prop_assert*`.
//!
//! Differences from upstream: no shrinking (failures report the failing
//! case's seed instead of a minimized input), and string "regex"
//! strategies produce arbitrary short ASCII-heavy strings regardless of
//! the pattern. Both are acceptable for this workspace's generative
//! tests.

#![forbid(unsafe_code)]

/// Test-case plumbing: config, RNG, and failure type.
pub mod test_runner {
    use std::fmt;

    /// Run configuration (`cases` = number of generated inputs per test).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of cases to run.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// A failed test case (carries the formatted assertion message).
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    /// Deterministic SplitMix64 case RNG.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator seeded for one test case.
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// The next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw below `bound` (which must be nonzero).
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and its adapters.
pub mod strategy {
    use super::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Feeds generated values into a strategy-producing `f` and draws
        /// from the produced strategy.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;

        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// A strategy that always yields clones of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (s, e) = (*self.start(), *self.end());
                    assert!(s <= e, "empty range strategy");
                    let span = (e as i128 - s as i128) as u128 + 1;
                    (s as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(usize, u8, u16, u32, u64, i8, i16, i32, i64);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+);)+) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )+};
    }

    impl_tuple_strategy! {
        (A);
        (A, B);
        (A, B, C);
        (A, B, C, D);
        (A, B, C, D, E);
        (A, B, C, D, E, F);
    }

    /// Pattern string strategy (`"..." as a Strategy`): yields arbitrary
    /// short strings. The pattern itself is **not** interpreted; the only
    /// pattern the workspace uses is `".*"`, for which arbitrary strings
    /// are exactly right.
    impl Strategy for &str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            let len = rng.below(24) as usize;
            (0..len)
                .map(|_| {
                    match rng.below(8) {
                        // Mostly printable ASCII…
                        0..=5 => char::from(32 + rng.below(95) as u8),
                        // …some control characters…
                        6 => char::from(rng.below(32) as u8),
                        // …and occasional non-ASCII.
                        _ => char::from_u32(0xA0 + rng.below(0x2000) as u32).unwrap_or('¤'),
                    }
                })
                .collect()
        }
    }

    /// Strategy for `any::<T>()`.
    #[derive(Debug, Clone, Default)]
    pub struct AnyStrategy<T> {
        pub(crate) _marker: PhantomData<T>,
    }

    impl Strategy for AnyStrategy<bool> {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_any_int {
        ($($t:ty),*) => {$(
            impl Strategy for AnyStrategy<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_any_int!(u8, u16, u32, u64, i8, i16, i32, i64, usize);
}

/// `any::<T>()` support.
pub mod arbitrary {
    use super::strategy::AnyStrategy;
    use std::marker::PhantomData;

    /// Produces the canonical full-domain strategy for `T`.
    pub fn any<T>() -> AnyStrategy<T>
    where
        AnyStrategy<T>: super::strategy::Strategy,
    {
        AnyStrategy {
            _marker: PhantomData,
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A length specification for [`vec()`]: an exact size or a range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy yielding `Vec`s of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `size` elements generated by `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// The glob import every proptest file starts with.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Fails the current test case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current test case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// Fails the current test case unless the operands compare unequal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
}

/// Declares property tests: each `fn name(pat in strategy, …) { body }`
/// becomes a `#[test]` running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            config = (<$crate::test_runner::Config as ::std::default::Default>::default());
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = ($cfg:expr);) => {};
    (
        config = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            // Derive a per-test seed so distinct tests explore distinct
            // streams; override with PROPTEST_SEED for reproduction.
            let base: u64 = ::std::env::var("PROPTEST_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| {
                    let name = concat!(module_path!(), "::", stringify!($name));
                    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
                    })
                });
            for case in 0..u64::from(config.cases) {
                let mut rng = $crate::test_runner::TestRng::new(
                    base.wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest case {case} (base seed {base:#x}) failed: {e}"
                    );
                }
            }
        }
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_generate_in_domain() {
        let mut rng = crate::test_runner::TestRng::new(42);
        let s = crate::collection::vec((0usize..3, any::<bool>()), 1..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((1..5).contains(&v.len()));
            assert!(v.iter().all(|(n, _)| *n < 3));
        }
    }

    #[test]
    fn flat_map_threads_values() {
        let mut rng = crate::test_runner::TestRng::new(7);
        let s = (1usize..4).prop_flat_map(|n| crate::collection::vec(0usize..10, n));
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!((1..4).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_runs_and_passes(x in 0usize..10, (a, b) in (0i64..5, 1i64..=3)) {
            prop_assert!(x < 10);
            prop_assert!(a < 5 && (1..=3).contains(&b));
            if x == 100 {
                return Ok(());
            }
            prop_assert_eq!(x, x);
            prop_assert_ne!(b, 0);
        }
    }
}
