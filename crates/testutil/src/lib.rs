//! Deterministic property-testing harness for the OASYS workspace.
//!
//! This is a self-contained, dependency-free subset of the `proptest`
//! API surface the workspace test suites use, so the whole tree builds
//! and tests in offline environments with no registry access. The
//! shared scaffolding that used to be copy-pasted between the `mos` and
//! `blocks` property suites (and six more) lives here once.
//!
//! Differences from proptest, by design:
//!
//! - **Deterministic**: cases are derived from a seed hashed from the
//!   test name, so every run explores the same inputs. Failures
//!   reproduce exactly with no regression files.
//! - **No shrinking**: a failing case reports its case index and the
//!   assertion message; the fixed seed makes re-running it trivial.
//! - **Simplified string strategies**: `&str` patterns support the
//!   character-class-with-repetition subset the suites use
//!   (`"[a-zA-Z][a-zA-Z0-9_]{0,8}"`), not full regex.

pub mod rng;
pub mod strategy;

pub use rng::Rng;
pub use strategy::{BoxedStrategy, Strategy};

/// Per-suite configuration, mirroring `proptest::test_runner::Config`.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of cases generated per property.
    pub cases: u32,
}

impl ProptestConfig {
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Enough to exercise the space while keeping tier-1 fast; the
        // deterministic seeding means more cases add coverage, not
        // flakiness.
        Self { cases: 64 }
    }
}

/// Drives one property: `config.cases` deterministic cases, each with a
/// fresh [`Rng`] derived from the test name and case index. The body
/// returns `Err` to fail (see [`prop_assert!`]) and may return `Ok`
/// early to skip a case (see [`prop_assume!`]).
///
/// # Panics
///
/// Panics with the assertion message on the first failing case.
pub fn run_cases<F>(name: &str, config: ProptestConfig, mut body: F)
where
    F: FnMut(&mut Rng) -> Result<(), String>,
{
    for case in 0..config.cases {
        let mut rng = Rng::for_case(name, u64::from(case));
        if let Err(message) = body(&mut rng) {
            panic!(
                "property `{name}` failed at case {case}/{}: {message}",
                config.cases
            );
        }
    }
}

/// `prop::…` namespace mirroring the proptest prelude's module tree.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::{Strategy, VecStrategy};
        use std::ops::Range;

        /// A `Vec` of `element` values with a length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        /// Generates `true` or `false` with equal probability.
        #[derive(Clone, Copy, Debug)]
        pub struct Any;

        /// The strategy for an arbitrary boolean.
        pub const ANY: Any = Any;

        impl crate::strategy::Strategy for Any {
            type Value = bool;
            fn generate(&self, rng: &mut crate::Rng) -> bool {
                rng.next_u64() & 1 == 1
            }
        }
    }
}

/// Everything a property-test file needs, mirroring
/// `proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Declares a block of property tests. Each `fn name(arg in strategy, …)
/// { body }` becomes a `#[test]` that runs the body over deterministic
/// cases drawn from the strategies. An optional leading
/// `#![proptest_config(…)]` sets the case count for the whole block.
#[macro_export]
macro_rules! proptest {
    (@block ($config:expr)
        $(
            $(#[doc = $doc:expr])*
            #[test]
            fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[doc = $doc])*
            #[test]
            fn $name() {
                $crate::run_cases(stringify!($name), $config, |rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), rng);)+
                    let case = move || -> ::std::result::Result<(), ::std::string::String> {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    };
                    case()
                });
            }
        )*
    };
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@block ($config) $($rest)*);
    };
    (
        $($rest:tt)*
    ) => {
        $crate::proptest!(@block ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the current case unless `cond` holds. With extra arguments,
/// they format the failure message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Fails the current case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` != `{:?}`",
                left,
                right
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                left,
                right,
                ::std::format!($($fmt)+)
            ));
        }
    }};
}

/// Skips the current case (counts as a pass) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        let holds: bool = $cond;
        if !holds {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Picks uniformly among the given strategies (all must produce the
/// same value type). Mirrors `proptest::prop_oneof!`.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {{
        #[allow(unused_parens)]
        let options = ::std::vec![$($crate::Strategy::boxed($strat)),+];
        $crate::strategy::OneOf::new(options)
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn cases_are_deterministic() {
        let mut first: Vec<u64> = Vec::new();
        crate::run_cases("det", ProptestConfig::with_cases(16), |rng| {
            first.push(rng.next_u64());
            Ok(())
        });
        let mut second: Vec<u64> = Vec::new();
        crate::run_cases("det", ProptestConfig::with_cases(16), |rng| {
            second.push(rng.next_u64());
            Ok(())
        });
        assert_eq!(first, second);
        let mut other: Vec<u64> = Vec::new();
        crate::run_cases("other-name", ProptestConfig::with_cases(16), |rng| {
            other.push(rng.next_u64());
            Ok(())
        });
        assert_ne!(first, other, "seed must depend on the test name");
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        crate::run_cases("boom", ProptestConfig::with_cases(4), |_rng| {
            Err("nope".to_string())
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ranges stay in-bounds for every numeric type the suites use.
        #[test]
        fn ranges_in_bounds(
            x in -3.0..7.5f64,
            n in 1usize..20,
            k in 0u32..4,
            s in 5u64..1000,
        ) {
            prop_assert!((-3.0..7.5).contains(&x));
            prop_assert!((1..20).contains(&n));
            prop_assert!(k < 4);
            prop_assert!((5..1000).contains(&s));
        }

        /// Tuples, maps, and filters compose.
        #[test]
        fn combinators_compose(
            (a, b) in (0.0..1.0f64, 10..20i32).prop_map(|(a, b)| (a + 1.0, b * 2)),
            odd in (0..100i32).prop_filter("odd", |v| v % 2 == 1),
        ) {
            prop_assert!((1.0..2.0).contains(&a));
            prop_assert!((20..40).contains(&b) && b % 2 == 0);
            prop_assert!(odd % 2 == 1);
        }

        /// String patterns honor their character classes and lengths.
        #[test]
        fn string_patterns(name in "[a-zA-Z][a-zA-Z0-9_]{0,8}") {
            prop_assert!(!name.is_empty() && name.len() <= 9, "len {}", name.len());
            let mut chars = name.chars();
            prop_assert!(chars.next().unwrap().is_ascii_alphabetic());
            prop_assert!(chars.all(|c| c.is_ascii_alphanumeric() || c == '_'));
        }

        /// Collections honor their size range, read from either end; that
        /// bool::ANY hits both values across the run is checked by
        /// accumulation below.
        #[test]
        fn vec_sizes(v in prop::collection::vec(0.0..1.0f64, 1..20), flag in prop::bool::ANY) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
            let end = if flag { v.first() } else { v.last() };
            prop_assert!(end.is_some_and(|x| (0.0..1.0).contains(x)));
        }

        /// prop_oneof picks from every branch; prop_assume skips.
        #[test]
        fn oneof_and_assume(m in prop_oneof![(1.0..2.0f64), (1.0..2.0f64).prop_map(|v| -v),]) {
            prop_assume!(m.abs() >= 1.0);
            prop_assert!((1.0..2.0).contains(&m.abs()));
        }
    }

    #[test]
    fn bool_any_generates_both_values() {
        let mut seen = [false, false];
        crate::run_cases("bools", ProptestConfig::with_cases(64), |rng| {
            let b = Strategy::generate(&prop::bool::ANY, rng);
            seen[usize::from(b)] = true;
            Ok(())
        });
        assert_eq!(seen, [true, true]);
    }
}
