//! The interval abstract domain the plan analyzer and the static
//! feasibility pruner share.
//!
//! Every abstract value is a closed interval `[lo, hi]` over the extended
//! reals plus an optional physical [`Dimension`] — the static analogue of
//! the typed quantities in `oasys-units`. Transfer functions follow the
//! standard Moore conventions (corner products, `0·∞ = 0`), and every
//! operation is *sound as a may-analysis*: the concrete result of the
//! modeled arithmetic always lies inside the abstract result, so a
//! verdict of "this interval is empty" can never be contradicted by a
//! concrete execution.
//!
//! Three pieces live here:
//!
//! * [`Interval`] — the numeric lattice, with [`Interval::hull`] as join
//!   and [`Interval::widen`] as the widening operator (unstable bounds
//!   jump straight to ±∞, so fixpoint iteration terminates after at most
//!   two visits per control-flow join);
//! * [`Expr`] + [`eval`] — a small arithmetic AST for *declared* plan-step
//!   transfer functions, evaluated over an environment of
//!   [`AbstractValue`]s while collecting [`EvalIssue`]s (possible divide
//!   by zero, possibly non-finite result, unit mismatch);
//! * [`PerfRelation`] — a named required-vs-achievable interval pair the
//!   style-search pruner intersects before any plan runs.
//!
//! # Examples
//!
//! ```
//! use oasys_plan::interval::{eval, AbstractValue, Expr, Interval};
//! use oasys_units::Dimension;
//! use std::collections::BTreeMap;
//!
//! let mut env = BTreeMap::new();
//! env.insert(
//!     "i_tail".to_string(),
//!     AbstractValue::known(Interval::new(1e-6, 1e-3), Dimension::CURRENT),
//! );
//! env.insert(
//!     "vov".to_string(),
//!     AbstractValue::known(Interval::new(0.1, 0.5), Dimension::VOLTAGE),
//! );
//! let gm = eval(&Expr::var("i_tail").div(Expr::var("vov")), &env);
//! assert!(gm.issues.is_empty(), "divisor excludes zero");
//! assert_eq!(gm.value.dim(), Some(Dimension::CONDUCTANCE));
//! assert!(gm.value.interval().hi() <= 1e-2);
//! ```

use oasys_units::Dimension;
use std::collections::BTreeMap;
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

// The arithmetic methods are consuming combinators named after the
// operators on purpose (`a.add(b)` chains the way plan annotations
// read); the `std::ops` traits stay unimplemented because interval
// arithmetic is not the field arithmetic `+`/`*` notation implies.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// The empty interval — no concrete value is possible.
    pub const EMPTY: Self = Self {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
    };

    /// The full line `[-∞, +∞]` — nothing is known.
    pub const FULL: Self = Self {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
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

    /// The singleton `[x, x]` (`NaN` becomes [`Interval::FULL`]).
    #[must_use]
    pub fn point(x: f64) -> Self {
        Self::new(x, x)
    }

    /// `[lo, +∞]`.
    #[must_use]
    pub fn at_least(lo: f64) -> Self {
        Self::new(lo, f64::INFINITY)
    }

    /// `[-∞, hi]`.
    #[must_use]
    pub fn at_most(hi: f64) -> Self {
        Self::new(f64::NEG_INFINITY, hi)
    }

    /// Lower bound (`+∞` when empty).
    #[must_use]
    pub fn lo(self) -> f64 {
        self.lo
    }

    /// Upper bound (`-∞` when empty).
    #[must_use]
    pub fn hi(self) -> f64 {
        self.hi
    }

    /// True when no concrete value is possible.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// True when non-empty with both bounds finite.
    #[must_use]
    pub fn is_bounded(self) -> bool {
        !self.is_empty() && self.lo.is_finite() && self.hi.is_finite()
    }

    /// True when `x` lies inside.
    #[must_use]
    pub fn contains(self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// True when zero lies inside.
    #[must_use]
    pub fn contains_zero(self) -> bool {
        self.contains(0.0)
    }

    /// The intersection (meet).
    #[must_use]
    pub fn intersect(self, rhs: Self) -> Self {
        Self::new(self.lo.max(rhs.lo), self.hi.min(rhs.hi))
    }

    /// The convex hull (join).
    #[must_use]
    pub fn hull(self, rhs: Self) -> Self {
        if self.is_empty() {
            return rhs;
        }
        if rhs.is_empty() {
            return self;
        }
        Self::new(self.lo.min(rhs.lo), self.hi.max(rhs.hi))
    }

    /// The standard widening: any bound of `newer` that escapes `self`
    /// jumps straight to its infinity. Each bound can change at most
    /// once more after widening, so fixpoint iteration terminates.
    #[must_use]
    pub fn widen(self, newer: Self) -> Self {
        if self.is_empty() {
            return newer;
        }
        if newer.is_empty() {
            return self;
        }
        Self {
            lo: if newer.lo < self.lo {
                f64::NEG_INFINITY
            } else {
                self.lo
            },
            hi: if newer.hi > self.hi {
                f64::INFINITY
            } else {
                self.hi
            },
        }
    }

    /// Interval sum.
    #[must_use]
    pub fn add(self, rhs: Self) -> Self {
        if self.is_empty() || rhs.is_empty() {
            return Self::EMPTY;
        }
        // ∞ + -∞ is NaN; new() widens such a bound to its infinity,
        // which is the sound direction.
        Self::new(self.lo + rhs.lo, self.hi + rhs.hi)
    }

    /// Interval difference.
    #[must_use]
    pub fn sub(self, rhs: Self) -> Self {
        self.add(rhs.neg())
    }

    /// Interval negation.
    #[must_use]
    pub fn neg(self) -> Self {
        if self.is_empty() {
            return Self::EMPTY;
        }
        Self::new(-self.hi, -self.lo)
    }

    /// Interval product (corner products, `0·∞ = 0`).
    #[must_use]
    pub fn mul(self, rhs: Self) -> Self {
        if self.is_empty() || rhs.is_empty() {
            return Self::EMPTY;
        }
        let corner = |a: f64, b: f64| {
            let p = a * b;
            if p.is_nan() {
                0.0 // only 0·∞ reaches here; its true contribution is 0
            } else {
                p
            }
        };
        let c = [
            corner(self.lo, rhs.lo),
            corner(self.lo, rhs.hi),
            corner(self.hi, rhs.lo),
            corner(self.hi, rhs.hi),
        ];
        let mut lo = c[0];
        let mut hi = c[0];
        for v in c {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Self::new(lo, hi)
    }

    /// Interval quotient. A divisor spanning zero yields
    /// [`Interval::FULL`] (the caller flags the possible divide-by-zero).
    #[must_use]
    pub fn div(self, rhs: Self) -> Self {
        if self.is_empty() || rhs.is_empty() {
            return Self::EMPTY;
        }
        if rhs.contains_zero() {
            return Self::FULL;
        }
        let corner = |a: f64, b: f64| {
            let q = a / b;
            if q.is_nan() {
                // ±∞ / ±∞: magnitude is unconstrained.
                return None;
            }
            Some(q)
        };
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (a, b) in [
            (self.lo, rhs.lo),
            (self.lo, rhs.hi),
            (self.hi, rhs.lo),
            (self.hi, rhs.hi),
        ] {
            match corner(a, b) {
                Some(q) => {
                    lo = lo.min(q);
                    hi = hi.max(q);
                }
                None => return Self::FULL,
            }
        }
        Self::new(lo, hi)
    }

    /// Interval reciprocal (`1 / self`).
    #[must_use]
    pub fn recip(self) -> Self {
        Self::point(1.0).div(self)
    }

    /// Pointwise minimum.
    #[must_use]
    pub fn min_with(self, rhs: Self) -> Self {
        if self.is_empty() || rhs.is_empty() {
            return Self::EMPTY;
        }
        Self::new(self.lo.min(rhs.lo), self.hi.min(rhs.hi))
    }

    /// Pointwise maximum.
    #[must_use]
    pub fn max_with(self, rhs: Self) -> Self {
        if self.is_empty() || rhs.is_empty() {
            return Self::EMPTY;
        }
        Self::new(self.lo.max(rhs.lo), self.hi.max(rhs.hi))
    }

    /// Interval absolute value.
    #[must_use]
    pub fn abs(self) -> Self {
        if self.is_empty() {
            return Self::EMPTY;
        }
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            self.neg()
        } else {
            Self::new(0.0, self.hi.max(-self.lo))
        }
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

/// An interval plus what is known about its physical dimension and
/// provenance.
///
/// `dim = None` means the dimension was never declared, which disables
/// unit checks on expressions touching the value. `known = false` marks a
/// value of havocked provenance — an undeclared variable or one a patch
/// rule may have rewritten arbitrarily — and suppresses numeric findings
/// so undeclared plans analyze as clean rather than drowning in noise.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AbstractValue {
    interval: Interval,
    dim: Option<Dimension>,
    known: bool,
}

impl AbstractValue {
    /// A value with a declared range and dimension.
    #[must_use]
    pub fn known(interval: Interval, dim: Dimension) -> Self {
        Self {
            interval,
            dim: Some(dim),
            known: true,
        }
    }

    /// A value nothing is known about (full interval, no dimension,
    /// havocked provenance).
    #[must_use]
    pub fn unknown() -> Self {
        Self {
            interval: Interval::FULL,
            dim: None,
            known: false,
        }
    }

    /// The numeric range.
    #[must_use]
    pub fn interval(self) -> Interval {
        self.interval
    }

    /// The physical dimension, if declared/derivable.
    #[must_use]
    pub fn dim(self) -> Option<Dimension> {
        self.dim
    }

    /// True when the value's provenance is fully declared.
    #[must_use]
    pub fn is_known(self) -> bool {
        self.known
    }

    /// The join for control-flow merges: interval hull, dimensions must
    /// agree to survive, provenance must be known on both sides.
    #[must_use]
    pub fn join(self, rhs: Self) -> Self {
        Self {
            interval: self.interval.hull(rhs.interval),
            dim: match (self.dim, rhs.dim) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            known: self.known && rhs.known,
        }
    }

    /// The widening counterpart of [`AbstractValue::join`].
    #[must_use]
    pub fn widen(self, newer: Self) -> Self {
        Self {
            interval: self.interval.widen(newer.interval),
            dim: match (self.dim, newer.dim) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            known: self.known && newer.known,
        }
    }
}

/// A declared transfer-function expression over plan state variables.
///
/// Built with the consuming combinators ([`Expr::var`], [`Expr::num`],
/// [`Expr::qty`], [`Expr::add`], …) and stored on a step via
/// `PlanBuilder::transfer`. The analyzer evaluates it over the abstract
/// environment; the concrete step body must compute a value *inside* the
/// expression's abstract result for the analysis to be sound — the
/// expression may over-approximate (e.g. drop a refining `min`), never
/// under-approximate.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A state variable, by name.
    Var(String),
    /// A constant with a dimension.
    Const(f64, Dimension),
    /// Sum of two subexpressions (dimensions must agree).
    Add(Box<Expr>, Box<Expr>),
    /// Difference (dimensions must agree).
    Sub(Box<Expr>, Box<Expr>),
    /// Product (dimensions multiply).
    Mul(Box<Expr>, Box<Expr>),
    /// Quotient (dimensions divide; flags divisors spanning zero).
    Div(Box<Expr>, Box<Expr>),
    /// Negation.
    Neg(Box<Expr>),
    /// Absolute value.
    Abs(Box<Expr>),
    /// Pointwise minimum (dimensions must agree).
    Min(Box<Expr>, Box<Expr>),
    /// Pointwise maximum (dimensions must agree).
    Max(Box<Expr>, Box<Expr>),
}

// Combinator naming as on `Interval`: `.add`/`.mul`/… build AST nodes
// fluently at annotation sites; the `std::ops` traits are deliberately
// not implemented for a symbolic expression type.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// A state variable reference.
    #[must_use]
    pub fn var(name: impl Into<String>) -> Self {
        Expr::Var(name.into())
    }

    /// A dimensionless constant.
    #[must_use]
    pub fn num(value: f64) -> Self {
        Expr::Const(value, Dimension::NONE)
    }

    /// A constant with a physical dimension.
    #[must_use]
    pub fn qty(value: f64, dim: Dimension) -> Self {
        Expr::Const(value, dim)
    }

    /// `self + rhs`.
    #[must_use]
    pub fn add(self, rhs: Expr) -> Self {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    #[must_use]
    pub fn sub(self, rhs: Expr) -> Self {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    #[must_use]
    pub fn mul(self, rhs: Expr) -> Self {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `self / rhs`.
    #[must_use]
    pub fn div(self, rhs: Expr) -> Self {
        Expr::Div(Box::new(self), Box::new(rhs))
    }

    /// `-self`.
    #[must_use]
    pub fn neg(self) -> Self {
        Expr::Neg(Box::new(self))
    }

    /// `|self|`.
    #[must_use]
    pub fn abs(self) -> Self {
        Expr::Abs(Box::new(self))
    }

    /// `min(self, rhs)`.
    #[must_use]
    pub fn min(self, rhs: Expr) -> Self {
        Expr::Min(Box::new(self), Box::new(rhs))
    }

    /// `max(self, rhs)`.
    #[must_use]
    pub fn max(self, rhs: Expr) -> Self {
        Expr::Max(Box::new(self), Box::new(rhs))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(name) => f.write_str(name),
            Expr::Const(v, dim) => {
                if dim.is_none() {
                    write!(f, "{v}")
                } else {
                    write!(f, "{v} {dim}")
                }
            }
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Neg(a) => write!(f, "(-{a})"),
            Expr::Abs(a) => write!(f, "|{a}|"),
            Expr::Min(a, b) => write!(f, "min({a}, {b})"),
            Expr::Max(a, b) => write!(f, "max({a}, {b})"),
        }
    }
}

/// What kind of hazard [`eval`] found inside an expression.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvalIssueKind {
    /// A divisor's interval contains zero.
    DivByZero,
    /// All inputs were bounded yet the result interval is not.
    NonFinite,
    /// Operands of an additive/comparative operator disagree on
    /// dimension.
    UnitMismatch,
}

/// One hazard found while abstractly evaluating an expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EvalIssue {
    /// The hazard category.
    pub kind: EvalIssueKind,
    /// Human detail naming the subexpression and the intervals involved.
    pub detail: String,
}

/// The result of abstractly evaluating an [`Expr`].
#[derive(Clone, Debug)]
pub struct EvalOutcome {
    /// The expression's abstract value.
    pub value: AbstractValue,
    /// Hazards found, in evaluation order.
    pub issues: Vec<EvalIssue>,
}

/// Abstractly evaluates `expr` over `env`.
///
/// Variables absent from `env` evaluate to [`AbstractValue::unknown`],
/// and hazards are only reported when the operands involved are fully
/// known — undeclared inputs degrade the analysis instead of producing
/// false positives.
#[must_use]
pub fn eval(expr: &Expr, env: &BTreeMap<String, AbstractValue>) -> EvalOutcome {
    let mut issues = Vec::new();
    let value = eval_inner(expr, env, &mut issues);
    EvalOutcome { value, issues }
}

fn eval_inner(
    expr: &Expr,
    env: &BTreeMap<String, AbstractValue>,
    issues: &mut Vec<EvalIssue>,
) -> AbstractValue {
    match expr {
        Expr::Var(name) => env
            .get(name)
            .copied()
            .unwrap_or_else(AbstractValue::unknown),
        Expr::Const(v, dim) => AbstractValue {
            interval: Interval::point(*v),
            dim: Some(*dim),
            known: true,
        },
        Expr::Neg(a) => {
            let a = eval_inner(a, env, issues);
            AbstractValue {
                interval: a.interval.neg(),
                ..a
            }
        }
        Expr::Abs(a) => {
            let a = eval_inner(a, env, issues);
            AbstractValue {
                interval: a.interval.abs(),
                ..a
            }
        }
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Min(a, b) | Expr::Max(a, b) => {
            let va = eval_inner(a, env, issues);
            let vb = eval_inner(b, env, issues);
            let dim = additive_dim(expr, va, vb, issues);
            let interval = match expr {
                Expr::Add(..) => va.interval.add(vb.interval),
                Expr::Sub(..) => va.interval.sub(vb.interval),
                Expr::Min(..) => va.interval.min_with(vb.interval),
                _ => va.interval.max_with(vb.interval),
            };
            let known = va.known && vb.known;
            flag_nonfinite(expr, va, vb, interval, issues);
            AbstractValue {
                interval,
                dim,
                known,
            }
        }
        Expr::Mul(a, b) => {
            let va = eval_inner(a, env, issues);
            let vb = eval_inner(b, env, issues);
            let interval = va.interval.mul(vb.interval);
            flag_nonfinite(expr, va, vb, interval, issues);
            AbstractValue {
                interval,
                dim: combine_dim(va.dim, vb.dim, Dimension::mul),
                known: va.known && vb.known,
            }
        }
        Expr::Div(a, b) => {
            let va = eval_inner(a, env, issues);
            let vb = eval_inner(b, env, issues);
            let spans_zero = vb.known && !vb.interval.is_empty() && vb.interval.contains_zero();
            if spans_zero {
                issues.push(EvalIssue {
                    kind: EvalIssueKind::DivByZero,
                    detail: format!("divisor `{b}` spans {} which contains zero", vb.interval),
                });
            }
            let interval = va.interval.div(vb.interval);
            if !spans_zero {
                flag_nonfinite(expr, va, vb, interval, issues);
            }
            AbstractValue {
                interval,
                dim: combine_dim(va.dim, vb.dim, Dimension::div),
                known: va.known && vb.known,
            }
        }
    }
}

/// The dimension of an additive/comparative node, flagging a mismatch
/// when both operands carry known, disagreeing dimensions.
fn additive_dim(
    expr: &Expr,
    va: AbstractValue,
    vb: AbstractValue,
    issues: &mut Vec<EvalIssue>,
) -> Option<Dimension> {
    match (va.dim, vb.dim) {
        (Some(da), Some(db)) if da == db => Some(da),
        (Some(da), Some(db)) => {
            if va.known && vb.known {
                issues.push(EvalIssue {
                    kind: EvalIssueKind::UnitMismatch,
                    detail: format!("`{expr}` combines {da} with {db}"),
                });
            }
            None
        }
        _ => None,
    }
}

/// Flags a result escaping to ±∞ from fully known, bounded operands.
fn flag_nonfinite(
    expr: &Expr,
    va: AbstractValue,
    vb: AbstractValue,
    result: Interval,
    issues: &mut Vec<EvalIssue>,
) {
    let inputs_bounded =
        va.known && vb.known && va.interval.is_bounded() && vb.interval.is_bounded();
    if inputs_bounded && !result.is_empty() && !result.is_bounded() {
        issues.push(EvalIssue {
            kind: EvalIssueKind::NonFinite,
            detail: format!("`{expr}` can overflow to {result} from bounded inputs"),
        });
    }
}

fn combine_dim(
    a: Option<Dimension>,
    b: Option<Dimension>,
    f: impl Fn(Dimension, Dimension) -> Dimension,
) -> Option<Dimension> {
    match (a, b) {
        (Some(a), Some(b)) => Some(f(a, b)),
        _ => None,
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

    /// The relation's name, e.g. `"dc-gain"`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// What the spec demands.
    #[must_use]
    pub fn required(&self) -> Interval {
        self.required
    }

    /// What the style can deliver.
    #[must_use]
    pub fn achievable(&self) -> Interval {
        self.achievable
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
        assert_eq!(Interval::point(3.0).lo(), 3.0);
        assert_eq!(Interval::point(f64::NAN), Interval::FULL);
    }

    #[test]
    fn arithmetic_is_sound_on_samples() {
        let a = Interval::new(-2.0, 3.0);
        let b = Interval::new(0.5, 4.0);
        for (x, y) in [(-2.0, 0.5), (3.0, 4.0), (0.0, 2.0), (-1.5, 3.3)] {
            assert!(a.add(b).contains(x + y));
            assert!(a.sub(b).contains(x - y));
            assert!(a.mul(b).contains(x * y));
            assert!(a.div(b).contains(x / y));
            assert!(a.min_with(b).contains(x.min(y)));
            assert!(a.max_with(b).contains(x.max(y)));
            assert!(a.abs().contains(x.abs()));
        }
    }

    #[test]
    fn division_by_zero_spanning_interval_is_full() {
        let z = Interval::new(-1.0, 1.0);
        assert_eq!(Interval::point(1.0).div(z), Interval::FULL);
        assert_eq!(z.recip(), Interval::FULL);
        assert!(!Interval::point(1.0)
            .div(Interval::new(0.5, 2.0))
            .contains_zero());
    }

    #[test]
    fn zero_times_infinity_is_zero() {
        let unbounded = Interval::at_least(0.0);
        let zero = Interval::point(0.0);
        let p = unbounded.mul(zero);
        assert_eq!(p, Interval::point(0.0));
    }

    #[test]
    fn empty_propagates() {
        let e = Interval::EMPTY;
        let a = Interval::new(1.0, 2.0);
        assert!(e.add(a).is_empty());
        assert!(a.mul(e).is_empty());
        assert!(e.neg().is_empty());
        assert!(e.abs().is_empty());
        assert_eq!(e.hull(a), a);
        assert!(e.intersect(a).is_empty());
    }

    #[test]
    fn widening_terminates_in_two_visits() {
        let mut state = Interval::new(0.0, 1.0);
        let growing = Interval::new(-1.0, 2.0);
        state = state.widen(growing);
        assert_eq!(state, Interval::FULL);
        // A second widening against anything is stable.
        assert_eq!(state.widen(Interval::new(-9.0, 9.0)), Interval::FULL);
    }

    #[test]
    fn eval_flags_div_by_zero_only_when_known() {
        let mut env = BTreeMap::new();
        env.insert(
            "x".to_string(),
            AbstractValue::known(Interval::new(0.0, 1.0), Dimension::NONE),
        );
        let out = eval(&Expr::num(1.0).div(Expr::var("x")), &env);
        assert_eq!(out.issues.len(), 1);
        assert_eq!(out.issues[0].kind, EvalIssueKind::DivByZero);
        // An undeclared divisor stays silent.
        let silent = eval(&Expr::num(1.0).div(Expr::var("ghost")), &env);
        assert!(silent.issues.is_empty());
        assert!(!silent.value.is_known());
    }

    #[test]
    fn eval_flags_overflow_and_unit_mismatch() {
        let env = BTreeMap::new();
        let boom = eval(&Expr::num(1e308).mul(Expr::num(1e308)), &env);
        assert!(boom
            .issues
            .iter()
            .any(|i| i.kind == EvalIssueKind::NonFinite));

        let mixed = eval(
            &Expr::qty(1.0, Dimension::VOLTAGE).add(Expr::qty(1.0, Dimension::CURRENT)),
            &env,
        );
        assert!(mixed
            .issues
            .iter()
            .any(|i| i.kind == EvalIssueKind::UnitMismatch));
        assert_eq!(mixed.value.dim(), None);
    }

    #[test]
    fn eval_tracks_dimensions_through_arithmetic() {
        let mut env = BTreeMap::new();
        env.insert(
            "f".to_string(),
            AbstractValue::known(Interval::new(1e5, 1e6), Dimension::FREQUENCY),
        );
        env.insert(
            "c".to_string(),
            AbstractValue::known(Interval::new(1e-12, 1e-11), Dimension::CAPACITANCE),
        );
        let gm = eval(
            &Expr::num(std::f64::consts::TAU)
                .mul(Expr::var("f"))
                .mul(Expr::var("c")),
            &env,
        );
        assert!(gm.issues.is_empty());
        assert_eq!(gm.value.dim(), Some(Dimension::CONDUCTANCE));
        assert!(gm.value.interval().lo() > 0.0);
    }

    #[test]
    fn perf_relation_verdicts() {
        let ok = PerfRelation::new(
            "dc-gain",
            "dB",
            Interval::point(60.0),
            Interval::new(0.0, 76.5),
        );
        assert!(!ok.is_infeasible());
        let bad = PerfRelation::new(
            "dc-gain",
            "dB",
            Interval::point(139.0),
            Interval::new(0.0, 76.5),
        );
        assert!(bad.is_infeasible());
        assert!(bad.explain().contains("dc-gain"));
        let rels = [ok, bad];
        assert_eq!(
            first_infeasible(&rels).map(PerfRelation::name),
            Some("dc-gain")
        );
    }

    #[test]
    fn join_and_widen_on_abstract_values() {
        let a = AbstractValue::known(Interval::new(0.0, 1.0), Dimension::VOLTAGE);
        let b = AbstractValue::known(Interval::new(0.5, 2.0), Dimension::VOLTAGE);
        let j = a.join(b);
        assert_eq!(j.interval(), Interval::new(0.0, 2.0));
        assert_eq!(j.dim(), Some(Dimension::VOLTAGE));
        assert!(j.is_known());
        let u = a.join(AbstractValue::unknown());
        assert!(!u.is_known());
        assert_eq!(u.dim(), None);
        let w = a.widen(b);
        assert_eq!(w.interval(), Interval::new(0.0, f64::INFINITY));
    }
}
