//! Offline drop-in replacement for the subset of the `proptest` API this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so the real proptest
//! crate cannot be fetched. This shim keeps the workspace's property tests
//! compiling and running with the same source: a `proptest!` macro, range /
//! tuple / `collection::vec` / `sample::select` strategies, `prop_assert*`
//! macros, `ProptestConfig`, and `TestCaseError`.
//!
//! Differences from real proptest, by design:
//!
//! * **Deterministic**: case generation is seeded from the case index only,
//!   so every run explores the identical case set. There are no
//!   `proptest-regressions` files to replay; instead, failing inputs are
//!   reported in the panic message and should be committed as explicit
//!   pinned-input `#[test]`s (see `crates/tps-os/tests/policy_invariants.rs`
//!   for examples).
//! * **No shrinking**: the failing case is reported as generated.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Deterministic generator state for one test case (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates the generator for a given case index.
    pub fn for_case(case: u64) -> Self {
        // Fixed golden-ratio stream offset so case 0 is not the zero state.
        TestRng {
            state: case.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sampling range");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Error raised by a failing property-test case.
#[derive(Clone, Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Marks the current case as failed with the given reason.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError {
            message: reason.into(),
        }
    }

    /// The failure reason.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// Per-`proptest!` block configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A value generator: the sampling core of a proptest strategy.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64) - (lo as u64) + 1;
                lo + rng.below(span) as $t
            }
        }
    )*};
}

impl_int_ranges!(u8, u16, u32, u64, usize);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
    }
}

/// A strategy producing a fixed value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for a `Vec` whose length is drawn from `len` and whose
    /// elements are drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.clone().sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Builds a [`VecStrategy`].
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

/// Sampling strategies (`prop::sample::select`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// Strategy selecting uniformly from a fixed list of options.
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            assert!(!self.options.is_empty(), "select from empty list");
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].clone()
        }
    }

    /// Builds a [`Select`] over the given options.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        Select { options }
    }
}

/// The commonly imported surface, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Asserts a condition inside a property test, failing the case (not the
/// whole process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {} (left: {:?}, right: {:?})",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{} (left: {:?}, right: {:?})",
            format!($($fmt)*), l, r
        );
    }};
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {} (both: {:?})",
            stringify!($left), stringify!($right), l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "{} (both: {:?})",
            format!($($fmt)*), l
        );
    }};
}

/// Declares deterministic property tests. Supports the standard proptest
/// form: an optional `#![proptest_config(..)]` header followed by test
/// functions whose arguments are drawn from strategies with `in`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal recursion for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut __rng = $crate::TestRng::for_case(case as u64);
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                let mut __case_inputs = ::std::string::String::new();
                $(
                    __case_inputs.push_str(&format!(
                        "{} = {:?}, ", stringify!($arg), &$arg
                    ));
                )+
                let result = (|| -> ::core::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(e) = result {
                    panic!(
                        "property test {} failed at case {case} [{}]: {}",
                        stringify!($name), __case_inputs, e
                    );
                }
            }
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = crate::TestRng::for_case(3);
        for _ in 0..1000 {
            let v = Strategy::sample(&(5u64..17), &mut rng);
            assert!((5..17).contains(&v));
            let w = Strategy::sample(&(2u8..=4), &mut rng);
            assert!((2..=4).contains(&w));
        }
    }

    #[test]
    fn vec_and_select_sample() {
        let mut rng = crate::TestRng::for_case(9);
        let v = Strategy::sample(&crate::collection::vec(0u32..10, 3..6), &mut rng);
        assert!(v.len() >= 3 && v.len() < 6);
        assert!(v.iter().all(|&x| x < 10));
        let s = Strategy::sample(&crate::sample::select(vec![0.25, 0.5]), &mut rng);
        assert!(s == 0.25 || s == 0.5);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::for_case(7);
        let mut b = crate::TestRng::for_case(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_round_trip(x in 0u64..100, pair in (0usize..3, 0u64..5)) {
            prop_assert!(x < 100);
            prop_assert!(pair.0 < 3 && pair.1 < 5);
            prop_assert_eq!(x, x);
            prop_assert_ne!(x, x + 1);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_case_reports_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn inner(x in 0u64..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        inner();
    }
}
