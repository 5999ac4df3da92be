//! Offline drop-in shim for the subset of the `proptest` API this
//! workspace uses.
//!
//! Property tests written against upstream `proptest` compile and run
//! unchanged: the [`proptest!`] macro expands each property into a plain
//! `#[test]` that samples its strategies from a deterministic RNG for
//! `ProptestConfig::cases` iterations. What this shim deliberately does
//! **not** implement is shrinking — a failing case fails with the sampled
//! inputs as-is. For a green suite the observable behaviour is identical.

#![warn(missing_docs)]

#[doc(hidden)]
pub use rand as __rand;

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use rand::rngs::StdRng;

    /// A generator of values for property tests (upstream: a value *tree*
    /// with shrinking; here: a plain sampler).
    pub trait Strategy {
        /// Type of generated values.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Build a dependent strategy from each generated value.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn sample(&self, rng: &mut StdRng) -> T::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    use rand::Rng;
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    use rand::Rng;
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

pub mod collection {
    //! Collection strategies (`vec`, `hash_set`).

    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::collections::HashSet;
    use std::hash::Hash;

    /// Size specification: a fixed count or a half-open range of counts.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl SizeRange {
        fn sample(&self, rng: &mut StdRng) -> usize {
            if self.lo + 1 >= self.hi {
                self.lo
            } else {
                rng.gen_range(self.lo..self.hi)
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy for `HashSet<S::Value>` with a size drawn from `size`.
    /// Caps the insertion attempts so tiny value domains cannot loop
    /// forever; the produced set may then be smaller than requested.
    pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        HashSetStrategy { element, size: size.into() }
    }

    /// See [`hash_set`].
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        type Value = HashSet<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> HashSet<S::Value> {
            let n = self.size.sample(rng);
            let mut out = HashSet::with_capacity(n);
            let mut attempts = 0usize;
            while out.len() < n && attempts < n * 20 + 20 {
                out.insert(self.element.sample(rng));
                attempts += 1;
            }
            out
        }
    }
}

pub mod test_runner {
    //! Runner configuration (`ProptestConfig`).

    /// How many cases each property runs. Upstream defaults to 256; this
    /// shim defaults to 64 to keep the offline suite fast while still
    /// exercising the properties broadly. Like upstream, the
    /// `PROPTEST_CASES` environment variable overrides the default (CI
    /// pins it so runs are comparable); an explicit
    /// [`ProptestConfig::with_cases`] always wins over the environment.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of sampled cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Assert inside a property (plain `assert!` without shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skip the current case when an assumption does not hold.
/// Expands to an early return from the per-case closure.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return;
        }
    };
}

/// Define property tests: each `fn name(pat in strategy, …) { body }`
/// becomes a `#[test]` sampling its strategies for `cases` iterations.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    (($cfg:expr); $($(#[$attr:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                use $crate::strategy::Strategy as _;
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                // Deterministic per-test seed: hash of the property name.
                let __seed = stringify!($name)
                    .bytes()
                    .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
                    });
                let mut __rng =
                    <$crate::__rand::rngs::StdRng as $crate::__rand::SeedableRng>::seed_from_u64(__seed);
                for __case in 0..__cfg.cases {
                    let ($($pat,)*) = ($(($strat).sample(&mut __rng),)*);
                    // Body runs in a closure so prop_assume! can skip the
                    // case via `return`.
                    #[allow(clippy::redundant_closure_call)]
                    (|| $body)();
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, usize)> {
        (1usize..10, 1usize..10)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..9, y in -2.0f32..2.0) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn tuples_and_custom_strategies((a, b) in pair(), c in 0u64..5) {
            prop_assert!((1..10).contains(&a));
            prop_assert!((1..10).contains(&b));
            prop_assert!(c < 5);
        }

        #[test]
        fn vec_strategy_sizes(v in collection::vec(0u32..100, 2..7)) {
            prop_assert!(v.len() >= 2 && v.len() < 7);
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn hash_set_strategy_unique(s in collection::hash_set(1u32..50, 1..8)) {
            prop_assert!(!s.is_empty());
            prop_assert!(s.len() < 8);
        }

        #[test]
        fn prop_map_and_flat_map_compose(
            v in (1usize..5).prop_flat_map(|n| collection::vec(0i64..10, n).prop_map(move |v| (n, v)))
        ) {
            let (n, items) = v;
            prop_assert_eq!(items.len(), n);
        }

        #[test]
        fn assume_skips_cases(x in 0usize..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }
}
