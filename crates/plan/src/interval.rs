//! The intervals of the static feasibility pruner.
//!
//! Each design style declares [`PerfRelation`]s against a spec: for
//! each constrained performance, the [`Interval`] the spec requires and
//! a sound over-approximation of what the style can achieve. When the
//! two do not intersect, no design of the style can meet the spec, so
//! the style search rejects it without running its plan
//! ([`first_infeasible`]).
//!
//! # Examples
//!
//! ```
//! use oasys_plan::interval::{first_infeasible, Interval, PerfRelation};
//!
//! let relations = [
//!     PerfRelation::new(
//!         "output-swing",
//!         "V",
//!         Interval::point(1.5),
//!         Interval::at_most(2.1),
//!     ),
//!     PerfRelation::new(
//!         "dc-gain",
//!         "dB",
//!         Interval::point(80.0),
//!         Interval::new(0.0, 76.5),
//!     ),
//! ];
//! let conflict = first_infeasible(&relations).expect("80 dB is out of reach");
//! assert_eq!(
//!     conflict.explain(),
//!     "dc-gain: spec requires [80, 80] dB but this style achieves [0, 76.5] dB"
//! );
//! ```

use std::fmt;

/// A closed interval `[lo, hi]` over the extended reals.
///
/// The empty interval is canonical (`[+∞, -∞]`); `NaN` bounds are widened
/// to the corresponding infinity at construction so every stored bound is
/// comparable.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// The empty interval — no concrete value is possible.
    pub const EMPTY: Self = Self {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
    };

    /// `[lo, hi]`, normalized: a `NaN` bound widens to its infinity, and
    /// `lo > hi` collapses to [`Interval::EMPTY`].
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        let lo = if lo.is_nan() { f64::NEG_INFINITY } else { lo };
        let hi = if hi.is_nan() { f64::INFINITY } else { hi };
        if lo > hi {
            Self::EMPTY
        } else {
            Self { lo, hi }
        }
    }

    /// The singleton `[x, x]` (`NaN` becomes the full line).
    #[must_use]
    pub fn point(x: f64) -> Self {
        Self::new(x, x)
    }

    /// `[-∞, hi]`.
    #[must_use]
    pub fn at_most(hi: f64) -> Self {
        Self::new(f64::NEG_INFINITY, hi)
    }

    /// True when no concrete value is possible.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// The intersection (meet).
    #[must_use]
    pub fn intersect(self, rhs: Self) -> Self {
        Self::new(self.lo.max(rhs.lo), self.hi.min(rhs.hi))
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            f.write_str("\u{2205}")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// A named required-vs-achievable interval pair: one performance relation
/// a design style declares for the static feasibility pruner.
///
/// The style is *statically infeasible* for a spec when the intersection
/// of what the spec requires and what the style can achieve is empty.
/// Declared achievable intervals must over-approximate reality (include
/// every value any concrete design of the style could reach), which makes
/// pruning sound: a pruned style could never have produced a design.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfRelation {
    name: &'static str,
    unit: &'static str,
    required: Interval,
    achievable: Interval,
}

impl PerfRelation {
    /// A relation named `name`, in display unit `unit` (e.g. `"dB"`).
    /// Both are fixed by the style that declares the relation; only the
    /// intervals change from spec to spec.
    #[must_use]
    pub fn new(
        name: &'static str,
        unit: &'static str,
        required: Interval,
        achievable: Interval,
    ) -> Self {
        Self {
            name,
            unit,
            required,
            achievable,
        }
    }

    /// True when no achievable value satisfies the requirement.
    #[must_use]
    pub fn is_infeasible(&self) -> bool {
        self.required.intersect(self.achievable).is_empty()
    }

    /// A one-line human explanation of the conflict (or compatibility).
    #[must_use]
    pub fn explain(&self) -> String {
        format!(
            "{}: spec requires {} {u} but this style achieves {} {u}",
            self.name,
            self.required,
            self.achievable,
            u = self.unit
        )
    }
}

/// The first provably violated relation, if any — the pruner's verdict.
#[must_use]
pub fn first_infeasible(relations: &[PerfRelation]) -> Option<&PerfRelation> {
    relations.iter().find(|r| r.is_infeasible())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes() {
        assert!(Interval::new(2.0, 1.0).is_empty());
        assert_eq!(Interval::new(f64::NAN, 1.0), Interval::at_most(1.0));
        assert_eq!(Interval::point(3.0).to_string(), "[3, 3]");
        assert_eq!(Interval::point(f64::NAN).to_string(), "[-inf, inf]");
        assert_eq!(Interval::EMPTY.to_string(), "\u{2205}");
    }

    #[test]
    fn intersection_is_the_meet() {
        let a = Interval::new(0.0, 2.0);
        assert_eq!(
            a.intersect(Interval::new(1.0, 3.0)),
            Interval::new(1.0, 2.0)
        );
        assert_eq!(a.intersect(Interval::at_most(0.0)), Interval::point(0.0));
        assert!(a.intersect(Interval::new(2.5, 3.0)).is_empty());
        assert!(Interval::EMPTY.intersect(a).is_empty());
    }

    #[test]
    fn perf_relation_verdicts() {
        let ok = PerfRelation::new("swing", "V", Interval::point(1.5), Interval::at_most(2.1));
        assert!(!ok.is_infeasible());
        let bad = PerfRelation::new(
            "dc-gain",
            "dB",
            Interval::point(139.0),
            Interval::new(0.0, 76.5),
        );
        assert!(bad.is_infeasible());
        assert_eq!(
            bad.explain(),
            "dc-gain: spec requires [139, 139] dB but this style achieves [0, 76.5] dB"
        );
        let rels = [ok, bad];
        assert_eq!(first_infeasible(&rels), Some(&rels[1]));
        assert_eq!(first_infeasible(&rels[..1]), None);
    }
}
