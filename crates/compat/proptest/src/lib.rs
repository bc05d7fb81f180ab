//! Offline stand-in for the subset of the `proptest` API this workspace
//! uses: the `proptest!` macro, `prop_assert!`/`prop_assert_eq!`,
//! integer-range / collection / tuple / `prop_map` strategies,
//! `any::<T>()` and `prop::sample::Index`.
//!
//! The build environment has no network access to crates.io, so the real
//! `proptest` cannot be vendored. This implementation generates random
//! cases deterministically (seeded per case index) and reports the first
//! failing input — it does **not** shrink counterexamples, and it ignores
//! `proptest-regressions` files. Failures print the full generated input,
//! which for this workspace's small test sizes is enough to reproduce by
//! hand.

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build the deterministic per-case generator used by the `proptest!`
/// macro expansion. Public only for macro use.
#[doc(hidden)]
pub fn __rng_for_case(case: u32) -> StdRng {
    StdRng::seed_from_u64(0x6b6d6d_70726f70 ^ (case as u64).wrapping_mul(0x9e3779b97f4a7c15))
}

pub mod test_runner {
    /// A failed test case (the error payload of `prop_assert*`).
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    /// Runner configuration (only the case count is honoured).
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The real proptest defaults to 256; 64 keeps un-configured
            // suites fast while still exercising the property.
            ProptestConfig { cases: 64 }
        }
    }
}

pub mod strategy {
    use super::*;

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value: Debug;

        /// Generate one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
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
}

pub mod collection {
    use super::strategy::Strategy;
    use super::*;

    /// Length distribution for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        /// Exclusive upper bound.
        hi: usize,
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

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// Generate `Vec`s whose elements come from `element` and whose length
    /// comes from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::*;

    /// Types with a canonical strategy (`any::<T>()`).
    pub trait Arbitrary: Sized + Debug {
        /// Generate one arbitrary value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }

    /// The strategy returned by [`any`].
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> Self {
                    rng.gen::<$t>()
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f64);
}

pub mod sample {
    use super::arbitrary::Arbitrary;
    use super::*;

    /// A position into a collection of as-yet-unknown size (resolved by
    /// [`Index::index`] at use time).
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Resolve against a collection of `size` elements.
        ///
        /// # Panics
        /// Panics if `size` is zero.
        pub fn index(&self, size: usize) -> usize {
            assert!(size > 0, "cannot index an empty collection");
            (self.0 % size as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut StdRng) -> Self {
            Index(rng.gen::<u64>())
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// The `prop::` module alias used in strategy expressions.
    pub mod prop {
        pub use crate::{collection, sample};
    }
}

/// Define property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident ($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::__rng_for_case(case);
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}; "),+),
                        $(&$arg),+
                    );
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest {} failed at case {}/{}: {}\n  inputs: {}",
                            stringify!($name),
                            case,
                            config.cases,
                            e,
                            inputs
                        );
                    }
                }
            }
        )*
    };
}

/// `assert!` for property bodies: fails the case instead of panicking so
/// the harness can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// `assert_eq!` for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, "{} ({:?} != {:?})", format!($($fmt)+), a, b);
    }};
}

/// `assert_ne!` for property bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, "{} ({:?} == {:?})", format!($($fmt)+), a, b);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_are_deterministic_per_case() {
        let s = prop::collection::vec(1u8..=4, 1..10);
        let a = Strategy::generate(&s, &mut crate::__rng_for_case(3));
        let b = Strategy::generate(&s, &mut crate::__rng_for_case(3));
        let c = Strategy::generate(&s, &mut crate::__rng_for_case(4));
        assert_eq!(a, b);
        // Different cases almost surely differ; tolerate collision by
        // checking over several cases.
        let differs = (0..20).any(|i| Strategy::generate(&s, &mut crate::__rng_for_case(i)) != c);
        assert!(differs);
    }

    #[test]
    fn vec_lengths_respect_bounds() {
        let s = prop::collection::vec(0usize..5, 2..7);
        for case in 0..200 {
            let v = Strategy::generate(&s, &mut crate::__rng_for_case(case));
            assert!((2..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn sample_index_is_in_bounds() {
        for case in 0..100 {
            let ix: prop::sample::Index = Strategy::generate(
                &any::<prop::sample::Index>(),
                &mut crate::__rng_for_case(case),
            );
            assert!(ix.index(7) < 7);
            assert_eq!(ix.index(1), 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_and_runs(
            v in prop::collection::vec(1u8..=4, 1..20),
            k in 0usize..5,
        ) {
            prop_assert!(!v.is_empty());
            prop_assert!(v.iter().all(|&b| (1..=4).contains(&b)));
            prop_assert_eq!(k.min(4), k, "k must stay below 5");
        }

        #[test]
        fn tuples_and_maps_compose(
            t in (1usize..5, 0u8..2).prop_map(|(n, b)| vec![b; n]),
        ) {
            prop_assert!((1..5).contains(&t.len()));
        }
    }

    #[test]
    #[should_panic(expected = "proptest")]
    fn failing_property_reports_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(x in 0usize..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
