//! Execution traces.
//!
//! Every step start/finish and every rule firing is recorded, which is how
//! the reproduction regenerates the paper's Figure 3 (the planning
//! mechanism): a trace of a real synthesis run shows the select →
//! translate → patch → restart flow.

use crate::plan::{PatchAction, StepFailure};
use std::fmt;
use std::sync::Arc;

/// One event during plan execution. Step and rule names are the stored
/// plan's own, shared rather than copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A step began.
    StepStarted {
        /// Step index in the plan.
        index: usize,
        /// Step name.
        name: Arc<str>,
    },
    /// A step achieved its goals.
    StepCompleted {
        /// Step name.
        name: Arc<str>,
    },
    /// A step failed its goals.
    StepFailed {
        /// Step name.
        name: Arc<str>,
        /// Why.
        failure: StepFailure,
    },
    /// A rule fired to patch the plan.
    RuleFired {
        /// Rule name.
        rule: Arc<str>,
        /// What the rule told the executor to do.
        action: PatchAction,
    },
    /// The plan ran to completion.
    PlanCompleted,
    /// The plan was abandoned.
    PlanAborted {
        /// Why.
        reason: String,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::StepStarted { index, name } => {
                write!(f, "→ step {index}: {name}")
            }
            TraceEvent::StepCompleted { name } => write!(f, "  ✓ {name}"),
            TraceEvent::StepFailed { name, failure } => {
                write!(f, "  ✗ {name}: {failure}")
            }
            TraceEvent::RuleFired { rule, action } => {
                let action_text = match action {
                    PatchAction::Retry => "retry step".to_owned(),
                    PatchAction::RestartFrom(step) => format!("restart from `{step}`"),
                    PatchAction::Abort(reason) => format!("abort: {reason}"),
                };
                write!(f, "  ⚡ rule `{rule}` fired → {action_text}")
            }
            TraceEvent::PlanCompleted => write!(f, "plan completed"),
            TraceEvent::PlanAborted { reason } => write!(f, "plan aborted: {reason}"),
        }
    }
}

/// The recorded history of one plan execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All events in order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of rule firings during the run.
    #[must_use]
    pub fn rule_firings(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RuleFired { .. }))
            .count()
    }

    /// Number of step executions (including re-runs after patches).
    #[must_use]
    pub fn step_executions(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::StepStarted { .. }))
            .count()
    }

    /// Number of step failures observed.
    #[must_use]
    pub fn step_failures(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::StepFailed { .. }))
            .count()
    }

    /// Number of restarts — rule firings whose action rewound the plan
    /// to an earlier step ([`PatchAction::RestartFrom`]).
    #[must_use]
    pub fn restarts(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::RuleFired {
                        action: PatchAction::RestartFrom(_),
                        ..
                    }
                )
            })
            .count()
    }

    /// `true` if the plan finished successfully.
    #[must_use]
    pub fn completed(&self) -> bool {
        matches!(self.events.last(), Some(TraceEvent::PlanCompleted))
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for event in &self.events {
            writeln!(f, "{event}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters() {
        let mut t = Trace::new();
        t.push(TraceEvent::StepStarted {
            index: 0,
            name: "a".into(),
        });
        t.push(TraceEvent::StepFailed {
            name: "a".into(),
            failure: StepFailure::new("c", "m"),
        });
        t.push(TraceEvent::RuleFired {
            rule: "r".into(),
            action: PatchAction::Retry,
        });
        t.push(TraceEvent::StepStarted {
            index: 0,
            name: "a".into(),
        });
        t.push(TraceEvent::StepCompleted { name: "a".into() });
        t.push(TraceEvent::PlanCompleted);
        assert_eq!(t.rule_firings(), 1);
        assert_eq!(t.step_executions(), 2);
        assert_eq!(t.step_failures(), 1);
        assert_eq!(t.restarts(), 0, "a Retry is not a restart");
        assert!(t.completed());
    }

    #[test]
    fn restarts_count_only_restart_from_actions() {
        let mut t = Trace::new();
        t.push(TraceEvent::RuleFired {
            rule: "r1".into(),
            action: PatchAction::Retry,
        });
        t.push(TraceEvent::RuleFired {
            rule: "r2".into(),
            action: PatchAction::RestartFrom("setup".into()),
        });
        t.push(TraceEvent::RuleFired {
            rule: "r2".into(),
            action: PatchAction::RestartFrom("setup".into()),
        });
        t.push(TraceEvent::RuleFired {
            rule: "r3".into(),
            action: PatchAction::Abort("no".into()),
        });
        assert_eq!(t.rule_firings(), 4);
        assert_eq!(t.restarts(), 2);
    }

    #[test]
    fn display_renders_every_event_kind() {
        let events = [
            TraceEvent::StepStarted {
                index: 1,
                name: "x".into(),
            },
            TraceEvent::StepCompleted { name: "x".into() },
            TraceEvent::StepFailed {
                name: "x".into(),
                failure: StepFailure::new("c", "m"),
            },
            TraceEvent::RuleFired {
                rule: "r".into(),
                action: PatchAction::RestartFrom("x".into()),
            },
            TraceEvent::RuleFired {
                rule: "r".into(),
                action: PatchAction::Abort("no".into()),
            },
            TraceEvent::PlanCompleted,
            TraceEvent::PlanAborted {
                reason: "why".into(),
            },
        ];
        for e in events {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn incomplete_trace_not_completed() {
        let mut t = Trace::new();
        assert!(!t.completed());
        t.push(TraceEvent::PlanAborted { reason: "r".into() });
        assert!(!t.completed());
    }
}
