//! Plan execution errors.

use crate::plan::StepFailure;
use oasys_faults::DeadlineExceeded;
use std::error::Error;
use std::fmt;

/// Why a plan execution did not complete.
///
/// A failed synthesis plan is a *result* in OASYS (it proves a design
/// style cannot meet a spec). Every variant carries the plan name and
/// the step or rule involved, so batch failure records can name the
/// failing site without re-parsing display strings; the run's telemetry
/// holds the history that led there.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A step failed and no rule matched the failure.
    Unpatched {
        /// The plan being executed.
        plan: String,
        /// The step that failed.
        step: String,
        /// The unmatched failure.
        failure: StepFailure,
    },
    /// A rule requested an abort (the style cannot meet the spec).
    Aborted {
        /// The plan being executed.
        plan: String,
        /// The rule that requested the abort.
        rule: String,
        /// The abort reason.
        reason: String,
    },
    /// The patch budget was exhausted — the knowledge base is thrashing.
    PatchBudgetExhausted {
        /// The plan being executed.
        plan: String,
        /// The step whose failure exhausted the budget.
        step: String,
        /// The configured budget.
        budget: usize,
    },
    /// A rule named a restart target that does not exist.
    UnknownRestartTarget {
        /// The plan being executed.
        plan: String,
        /// The rule that named the missing target.
        rule: String,
        /// The missing step name.
        step: String,
    },
    /// A step body failed with a code its declared
    /// [`emits`](crate::StepMeta::emits) list leaves out — a
    /// knowledge-base bug: the analyzer reasoned from a list the step
    /// does not keep.
    UndeclaredCode {
        /// The plan being executed.
        plan: String,
        /// The step that failed.
        step: String,
        /// The undeclared failure code.
        code: &'static str,
    },
    /// The cooperative deadline expired (or the job was cancelled) at a
    /// step boundary.
    DeadlineExceeded {
        /// The plan being executed.
        plan: String,
        /// The step about to run when the deadline tripped.
        step: String,
        /// Whether the clock ran out or the job was cancelled.
        exceeded: DeadlineExceeded,
    },
}

impl PlanError {
    /// The name of the plan that failed.
    #[must_use]
    pub fn plan(&self) -> &str {
        match self {
            PlanError::Unpatched { plan, .. }
            | PlanError::Aborted { plan, .. }
            | PlanError::PatchBudgetExhausted { plan, .. }
            | PlanError::UnknownRestartTarget { plan, .. }
            | PlanError::UndeclaredCode { plan, .. }
            | PlanError::DeadlineExceeded { plan, .. } => plan,
        }
    }

    /// The step or rule where execution stopped, as `step:<name>` /
    /// `rule:<name>` — the "failing site" surfaced in batch records.
    #[must_use]
    pub fn site(&self) -> String {
        match self {
            PlanError::Unpatched { step, .. }
            | PlanError::PatchBudgetExhausted { step, .. }
            | PlanError::UndeclaredCode { step, .. }
            | PlanError::DeadlineExceeded { step, .. } => format!("step:{step}"),
            PlanError::Aborted { rule, .. } | PlanError::UnknownRestartTarget { rule, .. } => {
                format!("rule:{rule}")
            }
        }
    }

    /// A short machine-matchable kind string.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            PlanError::Unpatched { .. } => "unpatched",
            PlanError::Aborted { .. } => "aborted",
            PlanError::PatchBudgetExhausted { .. } => "patch-budget",
            PlanError::UnknownRestartTarget { .. } => "unknown-restart",
            PlanError::UndeclaredCode { .. } => "undeclared-code",
            PlanError::DeadlineExceeded { .. } => "deadline",
        }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Unpatched {
                plan,
                step,
                failure,
            } => {
                write!(
                    f,
                    "plan `{plan}` step `{step}` failed with no matching rule: {failure}"
                )
            }
            PlanError::Aborted { plan, rule, reason } => {
                write!(f, "plan `{plan}` aborted by rule `{rule}`: {reason}")
            }
            PlanError::PatchBudgetExhausted { plan, step, budget } => {
                write!(
                    f,
                    "plan `{plan}` exceeded its patch budget of {budget} rule firings \
                     (last failing step `{step}`)"
                )
            }
            PlanError::UnknownRestartTarget { plan, rule, step } => {
                write!(
                    f,
                    "plan `{plan}` rule `{rule}` requested restart from unknown step `{step}`"
                )
            }
            PlanError::UndeclaredCode { plan, step, code } => {
                write!(
                    f,
                    "plan `{plan}` step `{step}` failed with code `{code}`, which its \
                     .emits() list does not declare"
                )
            }
            PlanError::DeadlineExceeded {
                plan,
                step,
                exceeded,
            } => {
                write!(f, "plan `{plan}` stopped before step `{step}`: {exceeded}")
            }
        }
    }
}

impl Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_display() {
        let errors = [
            PlanError::Unpatched {
                plan: "p".into(),
                step: "s".into(),
                failure: StepFailure::new("c", "m"),
            },
            PlanError::Aborted {
                plan: "p".into(),
                rule: "giveup".into(),
                reason: "r".into(),
            },
            PlanError::PatchBudgetExhausted {
                plan: "p".into(),
                step: "s".into(),
                budget: 8,
            },
            PlanError::UnknownRestartTarget {
                plan: "p".into(),
                rule: "bad".into(),
                step: "x".into(),
            },
            PlanError::UndeclaredCode {
                plan: "p".into(),
                step: "s".into(),
                code: "c",
            },
            PlanError::DeadlineExceeded {
                plan: "p".into(),
                step: "s".into(),
                exceeded: DeadlineExceeded::TimedOut,
            },
        ];
        let kinds: Vec<&str> = errors.iter().map(PlanError::kind).collect();
        assert_eq!(
            kinds,
            vec![
                "unpatched",
                "aborted",
                "patch-budget",
                "unknown-restart",
                "undeclared-code",
                "deadline"
            ]
        );
        for e in &errors {
            assert!(!e.to_string().is_empty());
            assert_eq!(e.plan(), "p");
            assert!(!e.site().is_empty());
        }
    }

    #[test]
    fn display_names_the_failing_site() {
        let e = PlanError::Unpatched {
            plan: "two-stage".into(),
            step: "size-input-pair".into(),
            failure: StepFailure::new("gm-too-low", "gm 1e-5 < 2e-5"),
        };
        let text = e.to_string();
        assert!(text.contains("two-stage"));
        assert!(text.contains("size-input-pair"));
        assert_eq!(e.site(), "step:size-input-pair");

        let a = PlanError::Aborted {
            plan: "two-stage".into(),
            rule: "infeasible-spec".into(),
            reason: "gain unreachable".into(),
        };
        assert!(a.to_string().contains("infeasible-spec"));
        assert_eq!(a.site(), "rule:infeasible-spec");
    }
}
