//! Bounded plan execution.

use crate::engine::DesignContext;
use crate::error::PlanError;
use crate::plan::{PatchAction, Plan, StepFailure, StepOutcome};
use oasys_faults::fail_point;
use oasys_telemetry::{sym, sym2, Sym, Telemetry};

/// A plan's interned names: the span name and bare name of every step,
/// plus every rule name. A plan keeps its own table
/// ([`Plan`]'s `syms`), built on its first run with an enabled
/// telemetry handle, so re-executed steps and re-run plans cost no
/// interning lookups, and each plan records its own step names.
pub(crate) struct PlanSyms {
    /// The `plan:<name>` span symbol.
    span: Sym,
    /// Per step: (`step:<name>` span symbol, `<name>`).
    steps: Vec<(Sym, Sym)>,
    rules: Vec<Sym>,
}

impl PlanSyms {
    /// `plan`'s table, built on first use.
    fn of<S>(plan: &Plan<S>) -> &Self {
        plan.syms.get_or_init(|| Self {
            span: sym2("plan:", plan.name()),
            steps: plan
                .steps
                .iter()
                .map(|s| (sym2("step:", &s.name), sym(&s.name)))
                .collect(),
            rules: plan.rules.iter().map(|r| sym(&r.name)).collect(),
        })
    }
}

/// Tuning knobs for the executor.
///
/// The defaults encode the paper's observation that plans have
/// *predictable failure modes*: roughly 10 rules per plan, each of which
/// should need to fire only a handful of times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Total rule firings allowed in one execution.
    pub patch_budget: usize,
    /// Firings allowed for any single rule (loop guard).
    pub per_rule_budget: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            patch_budget: 32,
            per_rule_budget: 8,
        }
    }
}

/// Executes a [`Plan`] against a mutable state, applying patch rules on
/// step failures.
///
/// See the crate-level example for usage.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanExecutor {
    config: ExecutorConfig,
}

impl PlanExecutor {
    /// An executor with the default budgets.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An executor with explicit budgets.
    #[must_use]
    pub fn with_config(config: ExecutorConfig) -> Self {
        Self { config }
    }

    /// Runs the plan to completion, mutating `state` in place.
    ///
    /// Steps execute in order. When a step reports
    /// [`StepOutcome::Failed`], rules are consulted in declaration order;
    /// the first rule whose predicate matches (and whose per-rule budget
    /// is not exhausted) fires, mutates the state, and directs execution
    /// (retry / restart / abort). The state is left in whatever condition
    /// the last executed step produced — on success that is the completed
    /// design. Nothing is recorded; [`PlanExecutor::run_with`] records
    /// the run's history into a telemetry handle.
    ///
    /// # Errors
    ///
    /// * [`PlanError::Unpatched`] — a failure no rule matched;
    /// * [`PlanError::Aborted`] — a rule decided the spec is infeasible
    ///   for this plan;
    /// * [`PlanError::PatchBudgetExhausted`] — the knowledge base thrashed;
    /// * [`PlanError::UnknownRestartTarget`] — a rule bug.
    pub fn run<S>(&self, plan: &Plan<S>, state: &mut S) -> Result<(), PlanError> {
        self.run_with(plan, state, &Telemetry::disabled())
    }

    /// [`PlanExecutor::run_in`] a fresh context that records into `tel`
    /// and has no deadline.
    ///
    /// # Errors
    ///
    /// Same contract as [`PlanExecutor::run`].
    pub fn run_with<S>(
        &self,
        plan: &Plan<S>,
        state: &mut S,
        tel: &Telemetry,
    ) -> Result<(), PlanError> {
        self.run_in(plan, state, &DesignContext::new(tel))
    }

    /// [`PlanExecutor::run`] inside a [`DesignContext`], which every
    /// step body and rule patch receives beside the state.
    ///
    /// The context's telemetry is the run's only history. The plan runs
    /// under a `plan:<name>` span annotated with its `result`, and every
    /// step execution under a `step:<name>` span that opens with a
    /// `step_started` event and closes with `step_completed`. A failed
    /// step records `step_failed` (step, code, message), each firing
    /// `rule_fired` (rule, action), an abort `plan_aborted` (reason) and
    /// completion `plan_completed`. The counters `plan.step_executions`,
    /// `plan.step_failures`, `plan.rule_firings`, `plan.restarts` (the
    /// firings that restart from an earlier step), `plan.completions`
    /// and `plan.aborts` count them.
    ///
    /// # Errors
    ///
    /// Same contract as [`PlanExecutor::run`], plus
    /// [`PlanError::DeadlineExceeded`] when the context's cooperative
    /// deadline expires (checked before every step, so a long plan aborts
    /// at the next step boundary instead of running to completion).
    pub fn run_in<S>(
        &self,
        plan: &Plan<S>,
        state: &mut S,
        ctx: &DesignContext<'_>,
    ) -> Result<(), PlanError> {
        let tel = ctx.telemetry();
        let syms = tel.is_enabled().then(|| PlanSyms::of(plan));
        let plan_span = match syms {
            Some(s) => tel.span_sym(s.span),
            None => tel.span(String::new),
        };
        let mut rule_firings = vec![0usize; plan.rules.len()];
        let mut total_firings = 0usize;
        let mut pc = 0usize;
        // The instant one step's span closes is the instant the next
        // one opens: the close timestamp is carried across the loop so
        // each successful step boundary costs one clock read, not two.
        let mut boundary_ns: Option<u64> = None;

        while pc < plan.steps.len() {
            let step = &plan.steps[pc];
            if let Err(exceeded) = ctx.deadline().check() {
                plan_span.annotate_sym(sym!("result"), sym!("deadline"));
                return Err(PlanError::DeadlineExceeded {
                    plan: plan.name().to_owned(),
                    step: step.name.to_string(),
                    exceeded,
                });
            }
            // Step start/completion events are fused into the step
            // span's boundary records — same instant, same clock read,
            // one recorder borrow (the counter rides separately). The
            // step name rides on the enclosing `step:<name>` span, so
            // neither event carries fields.
            let step_span = match syms {
                Some(s) => {
                    tel.incr_sym(sym!("plan.step_executions"));
                    tel.span_sym_with_event_at(
                        s.steps[pc].0,
                        sym!("step_started"),
                        &[],
                        boundary_ns.take(),
                    )
                }
                None => tel.span(String::new),
            };

            // Fault plane: an armed `plan.step` site turns this step's
            // outcome into a failure with code `fault-injected`, so the
            // rule/patch machinery sees it exactly like a real failure.
            let outcome = if oasys_faults::armed() {
                match oasys_faults::eval_err("plan.step") {
                    Some(msg) => StepOutcome::Failed(StepFailure::new("fault-injected", msg)),
                    None => (step.run)(state, ctx),
                }
            } else {
                (step.run)(state, ctx)
            };

            match outcome {
                StepOutcome::Done => {
                    boundary_ns = step_span.close_with_event(sym!("step_completed"), &[]);
                    pc += 1;
                }
                StepOutcome::Failed(failure) => {
                    // The failure and abort texts differ from job to job:
                    // they go through `Telemetry::text`/`text_str`, so a
                    // flight handle keeps them and only a traced run
                    // interns them.
                    if let Some(s) = syms {
                        step_span.annotate_sym(
                            sym!("outcome"),
                            tel.text(&format_args!("failed: {failure}")),
                        );
                        tel.incr_sym(sym!("plan.step_failures"));
                        tel.event_with(
                            sym!("step_failed"),
                            &[
                                (sym!("step"), s.steps[pc].1),
                                (sym!("code"), tel.text_str(failure.code())),
                                (sym!("message"), tel.text_str(failure.message())),
                            ],
                        );
                    }

                    // Consult the rules in declaration order.
                    let matched = plan.rules.iter().enumerate().find(|(k, rule)| {
                        rule_firings[*k] < self.config.per_rule_budget
                            && (rule.applies)(&*state, &failure)
                    });

                    let Some((k, rule)) = matched else {
                        plan_span.annotate_sym(sym!("result"), sym!("unpatched"));
                        return Err(PlanError::Unpatched {
                            plan: plan.name().to_owned(),
                            step: step.name.to_string(),
                            failure,
                        });
                    };

                    if total_firings >= self.config.patch_budget {
                        plan_span.annotate_sym(sym!("result"), sym!("patch-budget"));
                        return Err(PlanError::PatchBudgetExhausted {
                            plan: plan.name().to_owned(),
                            step: step.name.to_string(),
                            budget: self.config.patch_budget,
                        });
                    }
                    rule_firings[k] += 1;
                    total_firings += 1;

                    fail_point!("plan.rule");
                    let action = (rule.patch)(state, ctx);
                    if let Some(s) = syms {
                        tel.incr_sym(sym!("plan.rule_firings"));
                        let action_sym = match &action {
                            PatchAction::Retry => sym!("retry"),
                            PatchAction::RestartFrom(step) => {
                                tel.incr_sym(sym!("plan.restarts"));
                                sym2("restart-from:", step)
                            }
                            PatchAction::Abort(reason) => tel.text(&format_args!("abort:{reason}")),
                        };
                        tel.event_with(
                            sym!("rule_fired"),
                            &[(sym!("rule"), s.rules[k]), (sym!("action"), action_sym)],
                        );
                    }

                    match action {
                        PatchAction::Retry => { /* pc unchanged */ }
                        PatchAction::RestartFrom(target) => match plan.step_index(&target) {
                            Some(idx) => pc = idx,
                            None => {
                                plan_span.annotate_sym(sym!("result"), sym!("unknown-restart"));
                                return Err(PlanError::UnknownRestartTarget {
                                    plan: plan.name().to_owned(),
                                    rule: rule.name.to_string(),
                                    step: target.into_owned(),
                                });
                            }
                        },
                        PatchAction::Abort(reason) => {
                            if syms.is_some() {
                                tel.incr_sym(sym!("plan.aborts"));
                                tel.event_with(
                                    sym!("plan_aborted"),
                                    &[(sym!("reason"), tel.text_str(&reason))],
                                );
                            }
                            plan_span.annotate_sym(sym!("result"), sym!("aborted"));
                            return Err(PlanError::Aborted {
                                plan: plan.name().to_owned(),
                                rule: rule.name.to_string(),
                                reason,
                            });
                        }
                    }
                }
            }
        }

        // The completion event is fused into the plan span's close, the
        // same boundary fusion the per-step events use.
        if syms.is_some() {
            tel.incr_sym(sym!("plan.completions"));
        }
        plan_span.annotate_sym(sym!("result"), sym!("completed"));
        plan_span.close_with_event(sym!("plan_completed"), &[]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PatchAction, Plan, StepOutcome};
    use oasys_faults::Deadline;
    use std::time::Duration;

    #[derive(Default)]
    struct Counter {
        attempts: u32,
        budget: u32,
        total: u32,
    }

    #[test]
    fn straight_line_plan_completes() {
        let plan = Plan::<Counter>::builder("p")
            .step("a", |s: &mut Counter, _| {
                s.total += 1;
                StepOutcome::Done
            })
            .step("b", |s: &mut Counter, _| {
                s.total += 10;
                StepOutcome::Done
            })
            .build();
        let mut state = Counter::default();
        let tel = Telemetry::new();
        PlanExecutor::new()
            .run_with(&plan, &mut state, &tel)
            .unwrap();
        assert_eq!(state.total, 11);
        assert_eq!(tel.counter("plan.completions"), 1);
        assert_eq!(tel.counter("plan.step_executions"), 2);
        assert_eq!(tel.counter("plan.rule_firings"), 0);
    }

    #[test]
    fn retry_patch_reruns_failed_step() {
        let plan = Plan::<Counter>::builder("p")
            .step("flaky", |s: &mut Counter, _| {
                s.attempts += 1;
                if s.attempts >= 3 {
                    StepOutcome::Done
                } else {
                    StepOutcome::failed("not-yet", "needs another try")
                }
            })
            .rule(
                "try-again",
                |_, f| f.code() == "not-yet",
                |_, _| PatchAction::Retry,
            )
            .build();
        let mut state = Counter::default();
        let tel = Telemetry::new();
        PlanExecutor::new()
            .run_with(&plan, &mut state, &tel)
            .unwrap();
        assert_eq!(state.attempts, 3);
        assert_eq!(tel.counter("plan.rule_firings"), 2);
        assert_eq!(tel.counter("plan.restarts"), 0, "a retry is not a restart");
    }

    #[test]
    fn restart_from_earlier_step() {
        // Step "check" fails until "setup" has run twice.
        let plan = Plan::<Counter>::builder("p")
            .step("setup", |s: &mut Counter, _| {
                s.total += 1;
                StepOutcome::Done
            })
            .step("check", |s: &mut Counter, _| {
                if s.total >= 2 {
                    StepOutcome::Done
                } else {
                    StepOutcome::failed("under", "setup insufficient")
                }
            })
            .rule(
                "redo-setup",
                |_, f| f.code() == "under",
                |_, _| PatchAction::RestartFrom("setup".into()),
            )
            .build();
        let mut state = Counter::default();
        let tel = Telemetry::new();
        PlanExecutor::new()
            .run_with(&plan, &mut state, &tel)
            .unwrap();
        assert_eq!(state.total, 2);
        assert_eq!(tel.counter("plan.restarts"), 1);
        assert_eq!(tel.counter("plan.completions"), 1);
    }

    #[test]
    fn unmatched_failure_is_an_error() {
        let plan = Plan::<Counter>::builder("p")
            .step("fail", |_, _| {
                StepOutcome::failed("mystery", "nobody handles this")
            })
            .rule(
                "other",
                |_, f| f.code() == "known",
                |_, _| PatchAction::Retry,
            )
            .build();
        let mut state = Counter::default();
        let tel = Telemetry::new();
        let err = PlanExecutor::new()
            .run_with(&plan, &mut state, &tel)
            .unwrap_err();
        assert_eq!(err.kind(), "unpatched");
        assert_eq!(tel.counter("plan.step_failures"), 1);
        assert_eq!(tel.counter("plan.completions"), 0);
    }

    #[test]
    fn abort_action_propagates_reason() {
        let plan = Plan::<Counter>::builder("p")
            .step("fail", |_, _| StepOutcome::failed("impossible", ""))
            .rule(
                "give-up",
                |_, f| f.code() == "impossible",
                |_, _| PatchAction::Abort("spec infeasible for this style".into()),
            )
            .build();
        let mut state = Counter::default();
        let err = PlanExecutor::new().run(&plan, &mut state).unwrap_err();
        match err {
            PlanError::Aborted { ref reason, .. } => {
                assert!(reason.contains("infeasible"));
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn per_rule_budget_prevents_livelock() {
        let plan = Plan::<Counter>::builder("p")
            .step("always-fails", |_, _| StepOutcome::failed("loop", ""))
            .rule("futile", |_, _| true, |_, _| PatchAction::Retry)
            .build();
        let mut state = Counter::default();
        let tel = Telemetry::new();
        let err = PlanExecutor::with_config(ExecutorConfig {
            patch_budget: 100,
            per_rule_budget: 5,
        })
        .run_with(&plan, &mut state, &tel)
        .unwrap_err();
        // After 5 firings the rule stops matching → unpatched.
        assert_eq!(err.kind(), "unpatched");
        assert_eq!(tel.counter("plan.rule_firings"), 5);
    }

    #[test]
    fn total_budget_prevents_thrash_between_rules() {
        let plan = Plan::<Counter>::builder("p")
            .step("always-fails", |_, _| StepOutcome::failed("loop", ""))
            .rule("r1", |_, _| true, |_, _| PatchAction::Retry)
            .rule("r2", |_, _| true, |_, _| PatchAction::Retry)
            .build();
        let mut state = Counter::default();
        let err = PlanExecutor::with_config(ExecutorConfig {
            patch_budget: 3,
            per_rule_budget: 100,
        })
        .run(&plan, &mut state)
        .unwrap_err();
        assert_eq!(err.kind(), "patch-budget");
    }

    #[test]
    fn unknown_restart_target_is_reported() {
        let plan = Plan::<Counter>::builder("p")
            .step("fail", |_, _| StepOutcome::failed("x", ""))
            .rule(
                "bad-rule",
                |_, _| true,
                |_, _| PatchAction::RestartFrom("no-such-step".into()),
            )
            .build();
        let mut state = Counter::default();
        let err = PlanExecutor::new().run(&plan, &mut state).unwrap_err();
        assert_eq!(err.kind(), "unknown-restart");
    }

    #[test]
    fn rules_consulted_in_declaration_order() {
        let plan = Plan::<Counter>::builder("p")
            .step("fail-once", |s: &mut Counter, _| {
                s.attempts += 1;
                if s.attempts > 1 {
                    StepOutcome::Done
                } else {
                    StepOutcome::failed("f", "")
                }
            })
            .rule(
                "first",
                |_, _| true,
                |s: &mut Counter, _| {
                    s.budget += 1;
                    PatchAction::Retry
                },
            )
            .rule(
                "second",
                |_, _| true,
                |s: &mut Counter, _| {
                    s.budget += 100;
                    PatchAction::Retry
                },
            )
            .build();
        let mut state = Counter::default();
        PlanExecutor::new().run(&plan, &mut state).unwrap();
        assert_eq!(state.budget, 1, "only the first matching rule fires");
    }

    #[test]
    fn telemetry_records_every_execution_event() {
        // A plan that retries once and restarts once before completing.
        let plan = Plan::<Counter>::builder("telemetered")
            .step("setup", |s: &mut Counter, _| {
                s.total += 1;
                StepOutcome::Done
            })
            .step("work", |s: &mut Counter, _| {
                s.attempts += 1;
                match (s.attempts, s.total) {
                    (1, _) => StepOutcome::failed("transient", "retry me"),
                    (_, t) if t < 2 => StepOutcome::failed("under", "redo setup"),
                    _ => StepOutcome::Done,
                }
            })
            .rule(
                "try-again",
                |_, f| f.code() == "transient",
                |_, _| PatchAction::Retry,
            )
            .rule(
                "redo-setup",
                |_, f| f.code() == "under",
                |_, _| PatchAction::RestartFrom("setup".into()),
            )
            .build();
        let tel = Telemetry::new();
        let mut state = Counter::default();
        PlanExecutor::new()
            .run_with(&plan, &mut state, &tel)
            .unwrap();

        let counters = [
            ("plan.step_executions", 5),
            ("plan.rule_firings", 2),
            ("plan.restarts", 1),
            ("plan.step_failures", 2),
            ("plan.completions", 1),
            ("plan.aborts", 0),
        ];
        for (name, expected) in counters {
            assert_eq!(tel.counter(name), expected, "{name}");
        }

        // Spans: one per plan, one per step execution; the events tell
        // the run's history in order.
        let report = tel.report();
        let step_spans = report
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("step:"))
            .count();
        assert_eq!(step_spans, 5);
        assert_eq!(report.spans()[0].name, "plan:telemetered");
        let kinds: Vec<&str> = report.events().iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(
            kinds,
            [
                "step_started",
                "step_completed",
                "step_started",
                "step_failed",
                "rule_fired",
                "step_started",
                "step_failed",
                "rule_fired",
                "step_started",
                "step_completed",
                "step_started",
                "step_completed",
                "plan_completed",
            ]
        );
    }

    #[test]
    fn each_plan_records_its_own_step_names() {
        // Two plans of one name and shape: each run's span must carry
        // its own plan's step name, not the first plan's.
        let step_span = |step: &str| {
            let plan = Plan::<Counter>::builder("p")
                .step(step, |_, _| StepOutcome::Done)
                .build();
            let tel = Telemetry::new();
            PlanExecutor::new()
                .run_with(&plan, &mut Counter::default(), &tel)
                .unwrap();
            let report = tel.report();
            let span = report.spans().iter().find(|s| s.name.starts_with("step:"));
            span.map(|s| s.name.clone())
        };
        assert_eq!(step_span("a").as_deref(), Some("step:a"));
        assert_eq!(step_span("b").as_deref(), Some("step:b"));
    }

    #[test]
    fn events_name_the_failing_step_and_the_rule() {
        let plan = Plan::<Counter>::builder("p")
            .step("flaky", |s: &mut Counter, _| {
                s.attempts += 1;
                if s.attempts >= 2 {
                    StepOutcome::Done
                } else {
                    StepOutcome::failed("not-yet", "")
                }
            })
            .rule("again", |_, _| true, |_, _| PatchAction::Retry)
            .build();
        let tel = Telemetry::new();
        PlanExecutor::new()
            .run_with(&plan, &mut Counter::default(), &tel)
            .unwrap();
        let report = tel.report();
        let fields = |kind: &str| {
            report
                .events()
                .iter()
                .find(|e| e.kind == kind)
                .map(|e| e.fields.clone())
                .unwrap_or_default()
        };
        let pair = |k: &str, v: &str| (k.to_owned(), v.to_owned());
        assert_eq!(
            fields("step_failed"),
            [
                pair("step", "flaky"),
                pair("code", "not-yet"),
                pair("message", "")
            ]
        );
        assert_eq!(
            fields("rule_fired"),
            [pair("rule", "again"), pair("action", "retry")]
        );
    }

    #[test]
    fn expired_deadline_stops_before_the_next_step() {
        let plan = Plan::<Counter>::builder("slow")
            .step("first", |s: &mut Counter, _| {
                s.total += 1;
                StepOutcome::Done
            })
            .step("second", |s: &mut Counter, _| {
                s.total += 10;
                StepOutcome::Done
            })
            .build();
        let mut state = Counter::default();
        let tel = Telemetry::disabled();
        let ctx = DesignContext::new(&tel).with_deadline(Deadline::within(Duration::ZERO));
        let err = PlanExecutor::new()
            .run_in(&plan, &mut state, &ctx)
            .unwrap_err();
        assert_eq!(err.kind(), "deadline");
        assert_eq!(state.total, 0, "no step ran after expiry");
        match err {
            PlanError::DeadlineExceeded { plan, step, .. } => {
                assert_eq!(plan, "slow");
                assert_eq!(step, "first");
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_deadline_reports_cancellation() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(true));
        let plan = Plan::<Counter>::builder("p")
            .step("a", |_, _| StepOutcome::Done)
            .build();
        let mut state = Counter::default();
        let tel = Telemetry::disabled();
        let ctx =
            DesignContext::new(&tel).with_deadline(Deadline::none().with_cancel(Arc::clone(&flag)));
        let err = PlanExecutor::new()
            .run_in(&plan, &mut state, &ctx)
            .unwrap_err();
        assert!(err.to_string().contains("cancelled"), "{err}");
        flag.store(false, Ordering::Relaxed);
        PlanExecutor::new().run_in(&plan, &mut state, &ctx).unwrap();
    }

    #[test]
    fn injected_step_fault_flows_through_the_patch_plane() {
        use oasys_faults::FaultSpec;
        let site = "plan.step";
        // fail_once: the first step execution fails with code
        // `fault-injected`; the rule retries and the rerun succeeds.
        oasys_faults::set(site, FaultSpec::FailOnce);
        let plan = Plan::<Counter>::builder("p")
            .step("work", |s: &mut Counter, _| {
                s.attempts += 1;
                StepOutcome::Done
            })
            .rule(
                "absorb-fault",
                |_, f| f.code() == "fault-injected",
                |_, _| PatchAction::Retry,
            )
            .build();
        let mut state = Counter::default();
        let tel = Telemetry::new();
        let result = PlanExecutor::new().run_with(&plan, &mut state, &tel);
        oasys_faults::remove(site);
        result.unwrap();
        assert_eq!(tel.counter("plan.rule_firings"), 1);
        assert_eq!(
            state.attempts, 1,
            "the faulted execution never ran the step body"
        );
    }

    #[test]
    fn rule_state_predicate_can_inspect_state() {
        // Rule only fires when attempts are low; after that a second rule
        // aborts.
        let plan = Plan::<Counter>::builder("p")
            .step("fail", |s: &mut Counter, _| {
                s.attempts += 1;
                StepOutcome::failed("f", "")
            })
            .rule(
                "early",
                |s: &Counter, _| s.attempts < 3,
                |_, _| PatchAction::Retry,
            )
            .rule(
                "late",
                |_, _| true,
                |_, _| PatchAction::Abort("done".into()),
            )
            .build();
        let mut state = Counter::default();
        let err = PlanExecutor::new().run(&plan, &mut state).unwrap_err();
        assert_eq!(err.kind(), "aborted");
        assert_eq!(state.attempts, 3);
    }
}
