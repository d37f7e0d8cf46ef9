//! Offline drop-in replacement for the subset of `proptest` this
//! workspace's property tests use.
//!
//! The build container has no crates.io access, so the workspace points
//! its `proptest` dev-dependency at this crate. It keeps the same
//! surface — `proptest!`, `Strategy`/`prop_map`, range and tuple and
//! `collection::vec` strategies, `any::<T>()`, `prop_assert*!`,
//! `prop_assume!`, `prop_oneof!`, `ProptestConfig::with_cases` — but
//! generates cases with a plain seeded `SplitMix64` stream and does **no
//! shrinking**: a failure reports the case number and message only.
//! Each test function runs its cases from a fixed seed, so failures are
//! reproducible run-to-run.
// Vendored stand-in for a crates.io dependency: it mirrors the upstream
// crate's public names and casts, so the workspace lint policy for our
// own code does not apply.
#![allow(missing_docs, clippy::cast_lossless, clippy::must_use_candidate)]
#![forbid(unsafe_code)]

use std::ops::Range;

pub mod test_runner {
    /// Mirror of `proptest::test_runner::Config` (the prelude's
    /// `ProptestConfig`): only `cases` is honoured.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Config {
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            // Upstream defaults to 256; keep the stub quick but thorough.
            Config { cases: 256 }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is skipped.
        Reject(String),
        /// `prop_assert*!` failed; the whole test fails.
        Fail(String),
    }

    /// Deterministic `SplitMix64` case generator.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        #[must_use]
        pub fn seeded(seed: u64) -> Self {
            TestRng { state: seed }
        }

        #[allow(clippy::should_implement_trait)]
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A uniform f64 in [0, 1).
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// A uniform index in `0..n` (`n > 0`).
        pub fn index(&mut self, n: usize) -> usize {
            assert!(n > 0, "cannot pick from an empty range");
            (self.next_u64() % n as u64) as usize
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike upstream there is no value tree and no shrinking: a
    /// strategy is just a seeded generator.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (upstream `BoxedStrategy`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: Box::new(self),
            }
        }
    }

    /// Always produces a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::boxed`].
    pub struct BoxedStrategy<T> {
        inner: Box<dyn DynStrategy<T>>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.inner.dyn_generate(rng)
        }
    }

    trait DynStrategy<T> {
        fn dyn_generate(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// Uniform choice between same-valued strategies — the engine behind
    /// `prop_oneof!`.
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        #[must_use]
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.index(self.options.len());
            self.options[i].generate(rng)
        }
    }
}

use strategy::Strategy;
use test_runner::TestRng;

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u64, u32, u16, u8, i64, i32);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical "any value" strategy (upstream `Arbitrary`).
pub trait Arbitrary: Sized {
    type Strategy: Strategy<Value = Self>;
    fn arbitrary() -> Self::Strategy;
}

/// The full-domain strategy for `T` — `any::<bool>()` etc.
#[must_use]
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Full-domain generator behind [`any`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AnyOf<T>(std::marker::PhantomData<T>);

macro_rules! impl_arbitrary_word {
    ($($t:ty => $conv:expr),* $(,)?) => {$(
        impl Strategy for AnyOf<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let word = rng.next_u64();
                let f: fn(u64) -> $t = $conv;
                f(word)
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyOf<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyOf(std::marker::PhantomData)
            }
        }
    )*};
}

impl_arbitrary_word! {
    bool => |w| w & 1 == 1,
    u8 => |w| w as u8,
    u16 => |w| w as u16,
    u32 => |w| (w >> 32) as u32,
    u64 => |w| w,
    usize => |w| w as usize,
    i32 => |w| (w >> 32) as i32,
    i64 => |w| w as i64,
}

impl Strategy for AnyOf<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        // Finite, sign-balanced, spanning several decades — useful values
        // rather than raw bit soup (upstream biases similarly).
        let mag = 10f64.powf(rng.unit_f64() * 12.0 - 6.0);
        if rng.next_u64() & 1 == 1 {
            mag
        } else {
            -mag
        }
    }
}

impl Arbitrary for f64 {
    type Strategy = AnyOf<f64>;
    fn arbitrary() -> Self::Strategy {
        AnyOf(std::marker::PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// Element-count specification for [`vec()`]: a fixed size or a
    /// half-open range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A strategy for `Vec<S::Value>` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi - self.size.lo;
            let len = self.size.lo + if span > 1 { rng.index(span) } else { 0 };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::{TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Mirror of the upstream prelude's `prop` module alias.
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Fails the current case when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fails the current case when the operands differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: {} == {} ({:?} vs {:?})",
            stringify!($a),
            stringify!($b),
            a,
            b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// Fails the current case when the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a != b,
            "assertion failed: {} != {} (both {:?})",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Skips the current case when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// The test-definition macro. Supports the subset this workspace uses:
/// an optional `#![proptest_config(...)]` header and `fn name(pat in
/// strategy, ...) { body }` items carrying arbitrary attributes
/// (typically `#[test]`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($config) $($rest)*);
    };
    (@run ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            use $crate::strategy::Strategy as _;
            let config = $config;
            // Stable per-test seed: reproducible across runs and
            // independent of test execution order.
            let mut seed = 0xcbf2_9ce4_8422_2325u64;
            for byte in concat!(module_path!(), "::", stringify!($name)).bytes() {
                seed = (seed ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3);
            }
            let mut rng = $crate::test_runner::TestRng::seeded(seed);
            let mut ran = 0u32;
            let mut attempts = 0u32;
            while ran < config.cases {
                attempts += 1;
                assert!(
                    attempts < config.cases.saturating_mul(20).max(1000),
                    "proptest stub: too many rejected cases in {}",
                    stringify!($name)
                );
                $(let $arg = ($strategy).generate(&mut rng);)+
                let case = move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                };
                match case() {
                    ::std::result::Result::Ok(()) => ran += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest stub: {} failed at case {} (seed {:#x}): {}",
                            stringify!($name),
                            ran,
                            seed,
                            msg
                        );
                    }
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::test_runner::Config::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, f in -2.0..5.0f64) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..5.0).contains(&f));
        }

        #[test]
        fn maps_and_tuples_compose(p in (0.0..1.0f64, 1usize..4).prop_map(|(a, n)| a * n as f64)) {
            prop_assert!((0.0..4.0).contains(&p));
        }

        #[test]
        fn vec_lengths_respect_size(v in prop::collection::vec(any::<bool>(), 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
        }

        #[test]
        fn oneof_picks_from_both_arms(x in prop_oneof![0.0..1.0f64, 10.0..11.0f64]) {
            prop_assert!((0.0..1.0).contains(&x) || (10.0..11.0).contains(&x));
        }

        #[test]
        fn assume_rejects_without_failing(x in 0usize..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_assertion_panics() {
        proptest! {
            #[allow(unused)]
            fn inner(x in 0usize..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        inner();
    }
}
