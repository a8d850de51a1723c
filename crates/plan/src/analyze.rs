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

use crate::interval::{eval, AbstractValue, EvalIssueKind};
use crate::plan::{InputDomain, PatchAction, Plan, RuleMeta, StepMeta};
use oasys_lint::{Code, Diagnostic, Report};
use oasys_units::Dimension;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Runs every static check against `plan` and returns the findings.
///
/// A fully annotated, well-formed plan returns an empty report; the
/// built-in op-amp style plans are kept to that standard by tests. The
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
    view.check_intervals(&reachable, &mut report);
    report.normalize();
    report
}

/// The analyzer's type-erased view of a plan: names and metadata only.
struct PlanView<'p> {
    plan_name: &'p str,
    inputs: &'p [String],
    input_domains: &'p [InputDomain],
    steps: Vec<(&'p str, &'p StepMeta)>,
    /// Per rule: its name, its metadata and whether it has a guard.
    rules: Vec<(&'p str, &'p RuleMeta, bool)>,
}

impl<'p> PlanView<'p> {
    fn new<S>(plan: &'p Plan<S>) -> Self {
        Self {
            plan_name: plan.name(),
            inputs: plan.inputs(),
            input_domains: plan.input_domains(),
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
            let codes = meta.emits.as_ref()?;
            emitted.extend(codes.iter().map(String::as_str));
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
                if !handled.contains(code.as_str()) {
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
        let emits: Option<Vec<&str>> = meta
            .emits
            .as_ref()
            .map(|e| e.iter().map(String::as_str).collect());
        if let Some(e) = &emits {
            if e.is_empty() {
                return edges;
            }
        }
        for (rule_idx, (_, rule_meta, _)) in self.rules.iter().enumerate() {
            let matches = match &emits {
                Some(emits) => emits.iter().any(|e| rule_meta.codes.iter().any(|c| c == e)),
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
        vars.extend(self.inputs.iter().map(String::as_str));
        for (_, meta) in &self.steps {
            vars.extend(meta.reads.iter().flatten().map(String::as_str));
            vars.extend(meta.writes.iter().flatten().map(String::as_str));
        }
        for (_, meta, _) in &self.rules {
            vars.extend(meta.reads.iter().flatten().map(String::as_str));
            vars.extend(meta.writes.iter().flatten().map(String::as_str));
        }
        let index: HashMap<&str, usize> = vars.iter().enumerate().map(|(i, v)| (*v, i)).collect();
        let names: Vec<&str> = vars.into_iter().collect();
        let to_set = |list: Option<&Vec<String>>| -> BTreeSet<usize> {
            list.into_iter()
                .flatten()
                .map(|v| index[v.as_str()])
                .collect()
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
        let entry: BTreeSet<usize> = self.inputs.iter().map(|v| index[v.as_str()]).collect();

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

    /// OL201–OL205: interval + unit abstract interpretation.
    ///
    /// Each variable carries an [`AbstractValue`] — numeric interval,
    /// physical dimension, and a `known` provenance bit. The entry
    /// environment comes from declared
    /// [input domains](crate::PlanBuilder::input_domain); each step's
    /// declared [transfers](crate::PlanBuilder::transfer) evaluate in
    /// order, remaining declared writes havoc to unknown, and a step
    /// with *undeclared* writes havocs everything (it may write any
    /// variable). Failure edges havoc the failing step's writes — it may
    /// have failed before writing — plus the firing rule's writes.
    /// Environments meet at control-flow joins with the interval hull;
    /// after a few updates the hull is replaced by widening (moving
    /// bounds jump to ±∞) so retry loops terminate.
    ///
    /// Hazards are only reported on fully `known` operands, so
    /// unannotated or partially annotated plans analyze as clean.
    fn check_intervals(&self, reachable: &[bool], report: &mut Report) {
        let n = self.steps.len();
        let mut entry: BTreeMap<String, AbstractValue> = BTreeMap::new();
        for d in self.input_domains {
            entry.insert(d.var.clone(), AbstractValue::known(d.interval, d.dim));
        }
        let annotated = !entry.is_empty()
            || self
                .steps
                .iter()
                .any(|(_, m)| m.transfers.is_some() || m.requires.is_some());
        if n == 0 || !annotated {
            return;
        }

        // How many env-in updates a step absorbs via the hull before
        // switching to widening.
        const WIDEN_AFTER: usize = 2;

        let mut env_in: Vec<Option<BTreeMap<String, AbstractValue>>> = vec![None; n];
        let mut updates = vec![0usize; n];
        env_in[0] = Some(entry);
        let mut work = vec![0usize];
        while let Some(i) = work.pop() {
            let Some(in_i) = env_in[i].clone() else {
                continue;
            };
            let (_, meta) = &self.steps[i];
            if !meta.diverges && i + 1 < n {
                let (out, _) = self.interval_step_out(&in_i, meta);
                if merge_env(&mut env_in[i + 1], &out, updates[i + 1] >= WIDEN_AFTER) {
                    updates[i + 1] += 1;
                    work.push(i + 1);
                }
            }
            for (target, rule_idx) in self.failure_edges(i) {
                let out = self.interval_failure_out(&in_i, meta, self.rules[rule_idx].1);
                if merge_env(&mut env_in[target], &out, updates[target] >= WIDEN_AFTER) {
                    updates[target] += 1;
                    work.push(target);
                }
            }
        }

        // Reporting pass over the converged environments.
        for i in 0..n {
            if !reachable[i] {
                continue;
            }
            let Some(in_i) = &env_in[i] else {
                continue;
            };
            let (step_name, meta) = &self.steps[i];
            let subject = format!("step {step_name}");
            let (out, findings) = self.interval_step_out(in_i, meta);
            for (code, message) in findings {
                report.push(Diagnostic::new(
                    code,
                    self.scope(),
                    subject.clone(),
                    message,
                ));
            }
            for req in meta.requires.iter().flatten() {
                let Some(value) = out.get(&req.var) else {
                    continue;
                };
                let derived = value.interval();
                if value.is_known()
                    && !derived.is_empty()
                    && derived.intersect(req.interval).is_empty()
                {
                    report.push(Diagnostic::new(
                        Code::InfeasibleInterval,
                        self.scope(),
                        subject.clone(),
                        format!(
                            "`{}` ∈ {derived} can never meet the requirement {} — the step \
                             fails for every input in the declared domain",
                            req.var, req.interval
                        ),
                    ));
                }
            }
        }
    }

    /// The abstract environment after a step completes normally, plus
    /// interval findings (code + message) from its transfer expressions.
    fn interval_step_out(
        &self,
        in_env: &BTreeMap<String, AbstractValue>,
        meta: &StepMeta,
    ) -> (BTreeMap<String, AbstractValue>, Vec<(Code, String)>) {
        let mut env = in_env.clone();
        let mut findings = Vec::new();
        let mut transferred: BTreeSet<&str> = BTreeSet::new();
        for t in meta.transfers.iter().flatten() {
            let outcome = eval(&t.expr, &env);
            for issue in &outcome.issues {
                let code = match issue.kind {
                    EvalIssueKind::DivByZero => Code::PossibleDivideByZero,
                    EvalIssueKind::NonFinite => Code::PossiblyNonFinite,
                    EvalIssueKind::UnitMismatch => Code::UnitMismatch,
                };
                findings.push((
                    code,
                    format!("computing `{} = {}`: {}", t.target, t.expr, issue.detail),
                ));
            }
            let value = outcome.value;
            let geometric =
                value.dim() == Some(Dimension::LENGTH) || value.dim() == Some(Dimension::AREA);
            if geometric
                && value.is_known()
                && !value.interval().is_empty()
                && value.interval().hi() < 0.0
            {
                findings.push((
                    Code::NegativeGeometry,
                    format!(
                        "`{} = {}` is provably negative: {} — no silicon geometry \
                         can realize it",
                        t.target,
                        t.expr,
                        value.interval()
                    ),
                ));
            }
            env.insert(t.target.clone(), value);
            transferred.insert(t.target.as_str());
        }
        match &meta.writes {
            Some(writes) => {
                // Declared writes without a transfer expression havoc.
                for w in writes {
                    if !transferred.contains(w.as_str()) {
                        env.remove(w);
                    }
                }
            }
            None => {
                // Undeclared writes: the step may overwrite anything
                // except what its transfers pin down.
                env.retain(|k, _| transferred.contains(k.as_str()));
            }
        }
        (env, findings)
    }

    /// The abstract environment along a failure edge out of a step: the
    /// step may have failed before writing, so its writes and transfer
    /// targets havoc, and the firing rule's writes havoc too.
    fn interval_failure_out(
        &self,
        in_env: &BTreeMap<String, AbstractValue>,
        step_meta: &StepMeta,
        rule_meta: &RuleMeta,
    ) -> BTreeMap<String, AbstractValue> {
        let mut env = in_env.clone();
        havoc_writes(&mut env, step_meta.writes.as_ref());
        let targets: Vec<&String> = step_meta
            .transfers
            .iter()
            .flatten()
            .map(|t| &t.target)
            .collect();
        for t in targets {
            env.remove(t);
        }
        havoc_writes(&mut env, rule_meta.writes.as_ref());
        env
    }
}

/// Removes the declared writes from `env`; undeclared writes (`None`)
/// havoc the whole environment.
fn havoc_writes(env: &mut BTreeMap<String, AbstractValue>, writes: Option<&Vec<String>>) {
    match writes {
        Some(writes) => {
            for w in writes {
                env.remove(w);
            }
        }
        None => env.clear(),
    }
}

/// Merges `incoming` into a step's entry environment. A variable absent
/// from either side is unknown, so only keys present in both survive;
/// surviving values meet with the hull, or with widening once the step
/// has absorbed enough updates. Returns whether anything changed.
fn merge_env(
    existing: &mut Option<BTreeMap<String, AbstractValue>>,
    incoming: &BTreeMap<String, AbstractValue>,
    widen: bool,
) -> bool {
    let Some(current) = existing else {
        *existing = Some(incoming.clone());
        return true;
    };
    let mut next = BTreeMap::new();
    for (k, old) in current.iter() {
        if let Some(new) = incoming.get(k) {
            let merged = if widen {
                old.widen(*new)
            } else {
                old.join(*new)
            };
            next.insert(k.clone(), merged);
        }
    }
    if &next != current {
        *existing = Some(next);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignContext, Expr, Interval, StepOutcome};

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
            .emits(Vec::<String>::new())
            .step("b", done)
            .reads(["x", "y"])
            .writes(Vec::<String>::new())
            .emits(Vec::<String>::new())
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
            .reads(Vec::<String>::new())
            .writes(["x"])
            .emits(["boom"])
            .step("use", done)
            .reads(["x"])
            .writes(Vec::<String>::new())
            .emits(Vec::<String>::new())
            .build();
        // No rule handles "boom" → no failure edge → clean dataflow…
        let clean = analyze(&plan);
        assert!(!clean.contains(Code::UseBeforeDef));
        // …but a rule that skips over `compute`'s re-run exposes the bug.
        let plan = Plan::<()>::builder("fail-edge")
            .step("compute", done)
            .reads(Vec::<String>::new())
            .writes(["x"])
            .emits(["boom"])
            .step("use", done)
            .reads(["x"])
            .writes(Vec::<String>::new())
            .emits(Vec::<String>::new())
            .rule("skip-ahead", ["boom"])
            .writes(Vec::<String>::new())
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
            .emits(Vec::<String>::new())
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
            .writes(Vec::<String>::new())
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
            .writes(Vec::<String>::new())
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
    fn interval_pass_flags_divisor_spanning_zero() {
        let plan = Plan::<()>::builder("div")
            .inputs(["x"])
            .input_domain("x", Interval::new(0.0, 1.0), Dimension::NONE)
            .step("compute", done)
            .transfer("y", Expr::num(1.0).div(Expr::var("x")))
            .build();
        let report = analyze(&plan);
        let hits = report.with_code(Code::PossibleDivideByZero);
        assert_eq!(hits.len(), 1, "{}", report.render_human());
        assert_eq!(hits[0].subject, "step compute");
    }

    #[test]
    fn interval_pass_flags_overflow_to_infinity() {
        let plan = Plan::<()>::builder("overflow")
            .step("blow-up", done)
            .transfer("huge", Expr::num(1e308).mul(Expr::num(1e308)))
            .build();
        let report = analyze(&plan);
        let hits = report.with_code(Code::PossiblyNonFinite);
        assert_eq!(hits.len(), 1, "{}", report.render_human());
        assert_eq!(hits[0].subject, "step blow-up");
    }

    #[test]
    fn interval_pass_flags_provably_negative_geometry() {
        let plan = Plan::<()>::builder("geometry")
            .inputs(["a", "b"])
            .input_domain("a", Interval::new(0.0, 1.0), Dimension::LENGTH)
            .input_domain("b", Interval::new(2.0, 3.0), Dimension::LENGTH)
            .step("size", done)
            .transfer("l", Expr::var("a").sub(Expr::var("b")))
            .build();
        let report = analyze(&plan);
        let hits = report.with_code(Code::NegativeGeometry);
        assert_eq!(hits.len(), 1, "{}", report.render_human());
        assert_eq!(hits[0].subject, "step size");
        assert!(report.has_errors());
    }

    #[test]
    fn interval_pass_flags_unit_mismatch() {
        let plan = Plan::<()>::builder("units")
            .inputs(["v", "i"])
            .input_domain("v", Interval::new(1.0, 2.0), Dimension::VOLTAGE)
            .input_domain("i", Interval::new(0.1, 0.2), Dimension::CURRENT)
            .step("mix", done)
            .transfer("bad", Expr::var("v").add(Expr::var("i")))
            .build();
        let report = analyze(&plan);
        let hits = report.with_code(Code::UnitMismatch);
        assert_eq!(hits.len(), 1, "{}", report.render_human());
        assert_eq!(hits[0].subject, "step mix");
    }

    #[test]
    fn interval_pass_flags_infeasible_requirement() {
        let plan = Plan::<()>::builder("infeasible")
            .inputs(["x"])
            .input_domain("x", Interval::new(0.0, 1.0), Dimension::NONE)
            .step("double", done)
            .transfer("y", Expr::var("x").mul(Expr::num(2.0)))
            .requires("y", Interval::new(10.0, 20.0))
            .build();
        let report = analyze(&plan);
        let hits = report.with_code(Code::InfeasibleInterval);
        assert_eq!(hits.len(), 1, "{}", report.render_human());
        assert_eq!(hits[0].subject, "step double");
    }

    #[test]
    fn interval_pass_accepts_feasible_requirement() {
        let plan = Plan::<()>::builder("feasible")
            .inputs(["x"])
            .input_domain("x", Interval::new(0.0, 1.0), Dimension::NONE)
            .step("double", done)
            .transfer("y", Expr::var("x").mul(Expr::num(2.0)))
            .requires("y", Interval::new(1.0, 20.0))
            .build();
        assert!(analyze(&plan).is_empty());
    }

    #[test]
    fn rule_writes_havoc_and_suppress_interval_findings() {
        // A patch rule may rewrite `x` arbitrarily, so the divisor's
        // provenance is no longer known on the looping path — the
        // analyzer must stay silent rather than guess.
        let plan = Plan::<()>::builder("havoc")
            .inputs(["x"])
            .input_domain("x", Interval::new(0.5, 1.0), Dimension::NONE)
            .step("compute", done)
            .reads(["x"])
            .writes(["y"])
            .transfer("y", Expr::num(1.0).div(Expr::var("x")))
            .requires("y", Interval::new(100.0, 200.0))
            .emits(["miss"])
            .rule("nudge", ["miss"])
            .writes(["x"])
            .retries()
            .build();
        let report = analyze(&plan);
        assert!(
            !report.contains(Code::PossibleDivideByZero)
                && !report.contains(Code::InfeasibleInterval),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn widening_terminates_growth_loop() {
        // `grow` keeps increasing x around a restart loop; widening must
        // drive the bound to +∞ and converge instead of iterating
        // forever. The widened interval still contains every concrete
        // trajectory, so nothing is flagged.
        let plan = Plan::<()>::builder("loop")
            .inputs(["x"])
            .input_domain("x", Interval::new(0.0, 0.0), Dimension::NONE)
            .step("grow", done)
            .reads(["x"])
            .writes(["x"])
            .transfer("x", Expr::var("x").add(Expr::num(1.0)))
            .emits(Vec::<String>::new())
            .step("check", done)
            .reads(["x"])
            .writes(Vec::<String>::new())
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
