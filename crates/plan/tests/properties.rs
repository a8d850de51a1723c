//! Property-based tests on the plan executor: termination, budget
//! enforcement, and trace consistency for randomized plans.

use oasys_plan::{ExecutorConfig, PatchAction, Plan, PlanExecutor, StepOutcome, TraceEvent};
use oasys_testutil::prelude::*;

/// State: a counter per step that decides how many failures each step
/// reports before succeeding.
#[derive(Clone, Debug)]
struct FlakyState {
    remaining_failures: Vec<u32>,
    executions: u32,
}

/// Builds a plan with `failure_counts.len()` steps, where step `k` fails
/// `failure_counts[k]` times before succeeding, and one retry rule.
fn flaky_plan(step_count: usize) -> Plan<FlakyState> {
    let mut builder = Plan::<FlakyState>::builder("flaky");
    for k in 0..step_count {
        builder = builder.step(format!("s{k}"), move |s: &mut FlakyState, _| {
            s.executions += 1;
            if s.remaining_failures[k] > 0 {
                s.remaining_failures[k] -= 1;
                StepOutcome::failed("again", "not yet")
            } else {
                StepOutcome::Done
            }
        });
    }
    builder
        .rule(
            "retry",
            |_, f| f.code() == "again",
            |_, _| PatchAction::Retry,
        )
        .build()
}

proptest! {
    /// The executor always terminates, and when the total failures fit in
    /// the budget the plan completes with exactly
    /// steps + failures step-executions.
    #[test]
    fn executor_terminates_and_counts(
        failure_counts in prop::collection::vec(0u32..4, 1..6),
    ) {
        let total_failures: u32 = failure_counts.iter().sum();
        let steps = failure_counts.len();
        let plan = flaky_plan(steps);
        let mut state = FlakyState {
            remaining_failures: failure_counts,
            executions: 0,
        };
        let config = ExecutorConfig {
            patch_budget: 64,
            per_rule_budget: 64,
        };
        let result = PlanExecutor::with_config(config).run(&plan, &mut state);
        let trace = result.expect("budget is ample");
        prop_assert!(trace.completed());
        prop_assert_eq!(trace.rule_firings() as u32, total_failures);
        prop_assert_eq!(state.executions, steps as u32 + total_failures);
        prop_assert_eq!(trace.step_executions() as u32, state.executions);
        prop_assert_eq!(trace.step_failures() as u32, total_failures);
    }

    /// With an insufficient per-rule budget the executor reports an
    /// error instead of looping, and never exceeds the budget.
    #[test]
    fn budget_is_enforced(budget in 1usize..5, needed in 6u32..12) {
        let plan = flaky_plan(1);
        let mut state = FlakyState {
            remaining_failures: vec![needed],
            executions: 0,
        };
        let config = ExecutorConfig {
            patch_budget: 1000,
            per_rule_budget: budget,
        };
        let err = PlanExecutor::with_config(config)
            .run(&plan, &mut state)
            .expect_err("budget too small");
        prop_assert!(err.trace().rule_firings() <= budget);
        prop_assert!(!err.trace().completed());
    }

    /// Every trace is well-formed: starts with a step start, rule firings
    /// are immediately preceded by a failure, and completion is terminal.
    #[test]
    fn traces_are_well_formed(
        failure_counts in prop::collection::vec(0u32..3, 1..5),
    ) {
        let plan = flaky_plan(failure_counts.len());
        let mut state = FlakyState {
            remaining_failures: failure_counts,
            executions: 0,
        };
        let trace = PlanExecutor::new().run(&plan, &mut state).unwrap();
        let events = trace.events();
        let starts_with_step = matches!(events[0], TraceEvent::StepStarted { .. });
        prop_assert!(starts_with_step);
        let ends_completed = matches!(events.last(), Some(TraceEvent::PlanCompleted));
        prop_assert!(ends_completed);
        for window in events.windows(2) {
            if matches!(window[1], TraceEvent::RuleFired { .. }) {
                let preceded_by_failure =
                    matches!(window[0], TraceEvent::StepFailed { .. });
                prop_assert!(preceded_by_failure, "rule firing must follow a failure");
            }
        }
    }
}
