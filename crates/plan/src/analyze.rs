//! Static dataflow analysis over annotated plans.
//!
//! The paper's conjecture — *good plans have predictable failure
//! modes* — is only safe to rely on when the plan's structure is
//! verified: every variable a step reads must have been written by an
//! earlier step (or be a plan input), every `RestartFrom` target must
//! exist, and every patch rule must be able to fire and to make
//! progress. This module checks those facts statically from the
//! metadata declared on the [`crate::PlanBuilder`], without running a
//! single step.
//!
//! The control-flow graph has one node per step. Edges:
//!
//! - **sequential**: step *i* → step *i+1*, unless *i* is declared
//!   [`StepMeta::diverges`];
//! - **failure**: for each failure code step *i* emits, every rule whose
//!   codes cover it may fire; a `RestartFrom(t)` continuation adds
//!   *i* → *t*, `Retry` adds *i* → *i*, `Abort` adds nothing (a patch
//!   that fails only aborts, so it adds nothing either). Guarded rules
//!   may decline, so analysis continues down the rule list past them (a
//!   "may fire" approximation on reachability, and a pessimistic one on
//!   definite assignment).
//!
//! A rule's codes and continuation are the ones the executor dispatches
//! on, so they are always known. The steps' dataflow facts are
//! optional: a fact that was never declared disables only the checks
//! that need it, so unannotated plans (e.g. quick experiments) analyze
//! as clean rather than drowning in noise.

use crate::plan::{PatchAction, Plan, RuleMeta, StepMeta};
use oasys_lint::{Code, Diagnostic, Report};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Runs every static check against `plan` and returns the findings.
///
/// A fully annotated, well-formed plan returns an empty report; the
/// five stored plans of `oasys` are kept to that standard by tests. The
/// report is [normalized](Report::normalize) — sorted by code then site
/// and deduplicated — so merged multi-plan output is deterministic.
#[must_use]
pub fn analyze<S>(plan: &Plan<S>) -> Report {
    let view = PlanView::new(plan);
    let mut report = Report::new();
    view.check_restart_targets(&mut report);
    view.check_rule_liveness(&mut report);
    view.check_unhandled_codes(&mut report);
    view.check_shadowed_rules(&mut report);
    view.check_non_progress_rules(&mut report);
    let reachable = view.check_reachability(&mut report);
    view.check_definite_assignment(&reachable, &mut report);
    report.normalize();
    report
}

/// The analyzer's type-erased view of a plan: names and metadata only.
struct PlanView<'p> {
    plan_name: &'p str,
    inputs: &'p [&'static str],
    steps: Vec<(&'p str, &'p StepMeta)>,
    /// Per rule: its name, its metadata and whether it has a guard.
    rules: Vec<(&'p str, &'p RuleMeta, bool)>,
}

impl<'p> PlanView<'p> {
    fn new<S>(plan: &'p Plan<S>) -> Self {
        Self {
            plan_name: plan.name(),
            inputs: plan.inputs(),
            steps: plan.steps.iter().map(|s| (&*s.name, &s.meta)).collect(),
            rules: plan
                .rules
                .iter()
                .map(|r| (&*r.name, &r.meta, r.guard.is_some()))
                .collect(),
        }
    }

    fn step_index(&self, name: &str) -> Option<usize> {
        self.steps.iter().position(|(n, _)| *n == name)
    }

    fn scope(&self) -> String {
        format!("plan {}", self.plan_name)
    }

    /// OL003: every `RestartFrom` target must name a step.
    fn check_restart_targets(&self, report: &mut Report) {
        for (rule_name, meta, _) in &self.rules {
            if let PatchAction::RestartFrom(target) = &meta.continuation {
                if self.step_index(target).is_none() {
                    report.push(Diagnostic::new(
                        Code::DanglingRestartTarget,
                        self.scope(),
                        format!("rule {rule_name}"),
                        format!(
                            "restart target `{target}` is not a step of this plan \
                             (the executor would abort with an unknown-target error)"
                        ),
                    ));
                }
            }
        }
    }

    /// The union of all declared step failure codes, or `None` when any
    /// step left its codes undeclared.
    fn emitted_codes(&self) -> Option<HashSet<&str>> {
        let mut emitted = HashSet::new();
        for (_, meta) in &self.steps {
            emitted.extend(meta.emits.as_ref()?);
        }
        Some(emitted)
    }

    /// OL006: a rule whose failure codes no step emits can never fire.
    fn check_rule_liveness(&self, report: &mut Report) {
        let Some(emitted) = self.emitted_codes() else {
            return;
        };
        for (rule_name, meta, _) in &self.rules {
            let codes = &meta.codes;
            if !codes.is_empty() && codes.iter().all(|c| !emitted.contains(c)) {
                report.push(Diagnostic::new(
                    Code::RuleNeverFires,
                    self.scope(),
                    format!("rule {rule_name}"),
                    format!(
                        "no step emits any of the failure codes this rule matches ({})",
                        codes.join(", ")
                    ),
                ));
            }
        }
    }

    /// OL007: a failure code with no rule listing it escapes the patch
    /// system and fails the plan outright.
    fn check_unhandled_codes(&self, report: &mut Report) {
        let handled: HashSet<&str> = self
            .rules
            .iter()
            .flat_map(|(_, meta, _)| meta.codes.iter().copied())
            .collect();
        for (step_name, meta) in &self.steps {
            let Some(emits) = &meta.emits else {
                continue;
            };
            for code in emits {
                if !handled.contains(code) {
                    report.push(Diagnostic::new(
                        Code::UnhandledFailureCode,
                        self.scope(),
                        format!("step {step_name}"),
                        format!(
                            "failure code `{code}` is not matched by any patch rule; \
                             emitting it fails the plan unpatched"
                        ),
                    ));
                }
            }
        }
    }

    /// OL004: a rule is dead when every code it matches is already
    /// claimed by an earlier *unguarded* rule (rules are consulted in
    /// order and the first match wins).
    fn check_shadowed_rules(&self, report: &mut Report) {
        let mut claimed: HashSet<&str> = HashSet::new();
        for (rule_name, meta, guarded) in &self.rules {
            let codes = &meta.codes;
            if !codes.is_empty() && codes.iter().all(|c| claimed.contains(c)) {
                report.push(Diagnostic::new(
                    Code::ShadowedRule,
                    self.scope(),
                    format!("rule {rule_name}"),
                    format!(
                        "every failure code this rule matches ({}) is claimed by an \
                         earlier unguarded rule, so it can never fire",
                        codes.join(", ")
                    ),
                ));
            }
            if !guarded {
                claimed.extend(codes.iter().copied());
            }
        }
    }

    /// OL005: a rule that retries or restarts without modifying any
    /// state re-runs deterministic steps on identical inputs — the same
    /// failure recurs until the patch budget exhausts.
    fn check_non_progress_rules(&self, report: &mut Report) {
        for (rule_name, meta, _) in &self.rules {
            let Some(writes) = &meta.writes else {
                continue;
            };
            if writes.is_empty() && !matches!(meta.continuation, PatchAction::Abort(_)) {
                report.push(Diagnostic::new(
                    Code::NonProgressRule,
                    self.scope(),
                    format!("rule {rule_name}"),
                    "the patch writes no state but retries or restarts; the same failure \
                     will recur until the patch budget exhausts"
                        .to_string(),
                ));
            }
        }
    }

    /// The failure edges out of step `index`: `(target, rule_index)`
    /// pairs, where `target` is a step index (retry = self).
    fn failure_edges(&self, index: usize) -> Vec<(usize, usize)> {
        let (_, meta) = &self.steps[index];
        let mut edges = Vec::new();
        // Codes this step can emit; None = unknown, assume any.
        let emits = meta.emits.as_deref();
        if emits.is_some_and(<[_]>::is_empty) {
            return edges;
        }
        for (rule_idx, (_, rule_meta, _)) in self.rules.iter().enumerate() {
            let matches = match emits {
                Some(emits) => emits.iter().any(|e| rule_meta.codes.contains(e)),
                // Unknown codes: conservatively assume a match.
                None => true,
            };
            if !matches {
                continue;
            }
            match &rule_meta.continuation {
                PatchAction::Retry => edges.push((index, rule_idx)),
                PatchAction::RestartFrom(target) => {
                    if let Some(t) = self.step_index(target) {
                        edges.push((t, rule_idx));
                    }
                }
                PatchAction::Abort(_) => {}
            }
        }
        edges
    }

    /// OL002: steps no path from the entry reaches. Returns the
    /// reachability mask for reuse by the dataflow pass.
    fn check_reachability(&self, report: &mut Report) -> Vec<bool> {
        let n = self.steps.len();
        let mut reachable = vec![false; n];
        let mut work = vec![0usize];
        while let Some(i) = work.pop() {
            if reachable[i] {
                continue;
            }
            reachable[i] = true;
            let (_, meta) = &self.steps[i];
            if !meta.diverges && i + 1 < n {
                work.push(i + 1);
            }
            for (target, _) in self.failure_edges(i) {
                work.push(target);
            }
        }
        for (i, is_reachable) in reachable.iter().enumerate() {
            if !is_reachable {
                let (step_name, _) = &self.steps[i];
                report.push(Diagnostic::new(
                    Code::UnreachableStep,
                    self.scope(),
                    format!("step {step_name}"),
                    "no control-flow path reaches this step (an earlier step diverges \
                     and no rule restarts at or before it)"
                        .to_string(),
                ));
            }
        }
        reachable
    }

    /// OL001: must-definite-assignment. A variable is defined at a step
    /// when **every** path reaching it wrote the variable (or it is a
    /// plan input). On failure edges the failing step's own writes are
    /// *not* credited — a step that fails may have failed before
    /// writing — but the firing rule's writes are.
    ///
    /// Requires full annotation: every step must declare both reads and
    /// writes, otherwise the pass is skipped.
    fn check_definite_assignment(&self, reachable: &[bool], report: &mut Report) {
        let fully_annotated = self
            .steps
            .iter()
            .all(|(_, m)| m.reads.is_some() && m.writes.is_some());
        if !fully_annotated {
            return;
        }

        // Intern every variable name.
        let mut vars: BTreeSet<&str> = BTreeSet::new();
        vars.extend(self.inputs);
        for (_, meta) in &self.steps {
            vars.extend(meta.reads.iter().flatten());
            vars.extend(meta.writes.iter().flatten());
        }
        for (_, meta, _) in &self.rules {
            vars.extend(meta.reads.iter().flatten());
            vars.extend(meta.writes.iter().flatten());
        }
        let index: HashMap<&str, usize> = vars.iter().enumerate().map(|(i, v)| (*v, i)).collect();
        let names: Vec<&str> = vars.into_iter().collect();
        let to_set = |list: Option<&Vec<&str>>| -> BTreeSet<usize> {
            list.into_iter().flatten().map(|v| index[v]).collect()
        };

        let n = self.steps.len();
        let step_writes: Vec<BTreeSet<usize>> = self
            .steps
            .iter()
            .map(|(_, m)| to_set(m.writes.as_ref()))
            .collect();
        let rule_writes: Vec<BTreeSet<usize>> = self
            .rules
            .iter()
            .map(|(_, m, _)| to_set(m.writes.as_ref()))
            .collect();
        let entry: BTreeSet<usize> = self.inputs.iter().map(|v| index[v]).collect();

        // Must-in sets: None = not yet constrained (⊤, the full set).
        let mut must_in: Vec<Option<BTreeSet<usize>>> = vec![None; n];
        must_in[0] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                let Some(in_i) = must_in[i].clone() else {
                    continue;
                };
                let (_, meta) = &self.steps[i];
                let mut flow = |target: usize, out: &BTreeSet<usize>| {
                    let next = match &must_in[target] {
                        None => out.clone(),
                        Some(existing) => existing.intersection(out).copied().collect(),
                    };
                    if must_in[target].as_ref() != Some(&next) {
                        must_in[target] = Some(next);
                        changed = true;
                    }
                };
                if !meta.diverges && i + 1 < n {
                    let out: BTreeSet<usize> = in_i.union(&step_writes[i]).copied().collect();
                    flow(i + 1, &out);
                }
                for (target, rule_idx) in self.failure_edges(i) {
                    let out: BTreeSet<usize> =
                        in_i.union(&rule_writes[rule_idx]).copied().collect();
                    flow(target, &out);
                }
            }
        }

        for i in 0..n {
            if !reachable[i] {
                continue;
            }
            let (step_name, meta) = &self.steps[i];
            let Some(in_i) = &must_in[i] else {
                continue;
            };
            let missing: Vec<&str> = to_set(meta.reads.as_ref())
                .into_iter()
                .filter(|v| !in_i.contains(v))
                .map(|v| names[v])
                .collect();
            if !missing.is_empty() {
                report.push(Diagnostic::new(
                    Code::UseBeforeDef,
                    self.scope(),
                    format!("step {step_name}"),
                    format!(
                        "reads {} before any path defines {}",
                        missing.join(", "),
                        if missing.len() == 1 { "it" } else { "them" }
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignContext, StepOutcome};

    fn done(_s: &mut (), _ctx: &DesignContext<'_>) -> StepOutcome {
        StepOutcome::Done
    }

    #[test]
    fn unannotated_plan_is_clean() {
        let plan = Plan::<()>::builder("bare")
            .step("a", done)
            .step("b", done)
            .rule("r", ["x"])
            .retries()
            .build();
        assert!(analyze(&plan).is_empty());
    }

    #[test]
    fn use_before_def_detected() {
        let plan = Plan::<()>::builder("ubd")
            .inputs(["spec"])
            .step("a", done)
            .reads(["spec"])
            .writes(["x"])
            .emits([])
            .step("b", done)
            .reads(["x", "y"])
            .writes([])
            .emits([])
            .build();
        let report = analyze(&plan);
        assert!(report.contains(Code::UseBeforeDef));
        let d = &report.with_code(Code::UseBeforeDef)[0];
        assert_eq!(d.subject, "step b");
        assert!(
            d.message.contains('y') && !d.message.contains('x'),
            "{}",
            d.message
        );
    }

    #[test]
    fn failure_edge_does_not_credit_failing_steps_writes() {
        // `compute` writes x but can fail; the rule restarts at `use`
        // which reads x. On the failure path x was never written.
        let plan = Plan::<()>::builder("fail-edge")
            .step("compute", done)
            .reads([])
            .writes(["x"])
            .emits(["boom"])
            .step("use", done)
            .reads(["x"])
            .writes([])
            .emits([])
            .build();
        // No rule handles "boom" → no failure edge → clean dataflow…
        let clean = analyze(&plan);
        assert!(!clean.contains(Code::UseBeforeDef));
        // …but a rule that skips over `compute`'s re-run exposes the bug.
        let plan = Plan::<()>::builder("fail-edge")
            .step("compute", done)
            .reads([])
            .writes(["x"])
            .emits(["boom"])
            .step("use", done)
            .reads(["x"])
            .writes([])
            .emits([])
            .rule("skip-ahead", ["boom"])
            .writes([])
            .restarts_from("use")
            .build();
        let report = analyze(&plan);
        assert!(
            report.contains(Code::UseBeforeDef),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn retry_edge_keeps_dataflow_sound() {
        // A retry loop is fine: the variable is still defined after the
        // rule fires because the plan input provides it.
        let plan = Plan::<()>::builder("retry")
            .inputs(["knob"])
            .step("a", done)
            .reads(["knob"])
            .writes(["out"])
            .emits(["miss"])
            .rule("adjust", ["miss"])
            .writes(["knob"])
            .retries()
            .build();
        assert!(analyze(&plan).is_empty());
    }

    #[test]
    fn dangling_restart_target_detected() {
        let plan = Plan::<()>::builder("dangle")
            .step("a", done)
            .rule("r", ["x"])
            .restarts_from("missing")
            .build();
        let report = analyze(&plan);
        assert!(report.contains(Code::DanglingRestartTarget));
        assert!(report.has_errors());
    }

    #[test]
    fn unreachable_step_detected() {
        let plan = Plan::<()>::builder("dead")
            .step("a", done)
            .emits(["stop"])
            .diverges()
            .step("never", done)
            .build();
        let report = analyze(&plan);
        let dead = report.with_code(Code::UnreachableStep);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].subject, "step never");
    }

    #[test]
    fn restart_rule_revives_post_divergence_steps() {
        let plan = Plan::<()>::builder("revived")
            .step("a", done)
            .emits(["stop"])
            .diverges()
            .step("after", done)
            .emits([])
            .rule("resume", ["stop"])
            .restarts_from("after")
            .build();
        assert!(!analyze(&plan).contains(Code::UnreachableStep));
    }

    #[test]
    fn shadowed_rule_detected() {
        let plan = Plan::<()>::builder("shadow")
            .step("a", done)
            .emits(["x", "y"])
            .rule("catch-all", ["x", "y"])
            .retries()
            .rule("specific", ["x"])
            .retries()
            .build();
        let report = analyze(&plan);
        let shadowed = report.with_code(Code::ShadowedRule);
        assert_eq!(shadowed.len(), 1);
        assert_eq!(shadowed[0].subject, "rule specific");
    }

    #[test]
    fn guarded_rules_do_not_shadow() {
        let plan = Plan::<()>::builder("guarded")
            .step("a", done)
            .emits(["x"])
            .rule("conditional", ["x"])
            .when(|_| false)
            .retries()
            .rule("fallback", ["x"])
            .retries()
            .build();
        assert!(!analyze(&plan).contains(Code::ShadowedRule));
    }

    #[test]
    fn non_progress_rule_detected() {
        let plan = Plan::<()>::builder("stuck")
            .step("a", done)
            .emits(["x"])
            .rule("spin", ["x"])
            .writes([])
            .retries()
            .build();
        let report = analyze(&plan);
        assert!(report.contains(Code::NonProgressRule));
    }

    #[test]
    fn aborting_without_writes_is_progress_enough() {
        let plan = Plan::<()>::builder("bail")
            .step("a", done)
            .emits(["x"])
            .rule("give-up", ["x"])
            .writes([])
            .aborts("no")
            .build();
        assert!(!analyze(&plan).contains(Code::NonProgressRule));
    }

    #[test]
    fn never_firing_rule_detected() {
        let plan = Plan::<()>::builder("deadrule")
            .step("a", done)
            .emits(["only-this"])
            .rule("r", ["never-emitted"])
            .retries()
            .build();
        let report = analyze(&plan);
        assert!(report.contains(Code::RuleNeverFires));
    }

    #[test]
    fn unhandled_code_detected() {
        let plan = Plan::<()>::builder("escape")
            .step("a", done)
            .emits(["handled", "loose"])
            .rule("r", ["handled"])
            .retries()
            .build();
        let report = analyze(&plan);
        let loose = report.with_code(Code::UnhandledFailureCode);
        assert_eq!(loose.len(), 1);
        assert!(loose[0].message.contains("loose"));
    }

    #[test]
    fn restart_loop_analyzes_clean() {
        // `grow` rewrites x around a restart loop: the definite
        // assignment pass must converge on the loop, and x stays defined
        // at `check` on every path.
        let plan = Plan::<()>::builder("loop")
            .inputs(["x"])
            .step("grow", done)
            .reads(["x"])
            .writes(["x"])
            .emits([])
            .step("check", done)
            .reads(["x"])
            .writes([])
            .emits(["miss"])
            .rule("again", ["miss"])
            .writes(["scratch"])
            .restarts_from("grow")
            .build();
        assert!(analyze(&plan).is_empty());
    }

    #[test]
    fn partially_annotated_plan_skips_gracefully() {
        // One step annotated, one not: dataflow and liveness checks
        // must not produce false positives.
        let plan = Plan::<()>::builder("partial")
            .step("a", done)
            .reads(["ghost"])
            .writes(["x"])
            .step("b", done)
            .rule("r", ["x"])
            .retries()
            .build();
        assert!(analyze(&plan).is_empty());
    }
}
