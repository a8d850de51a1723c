//! Plan, step and rule definitions.

use crate::engine::DesignContext;
use crate::executor::PlanSyms;
use crate::interval::{Expr, Interval};
use oasys_units::Dimension;
use std::fmt;
use std::sync::OnceLock;

/// The outcome a plan step reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step achieved its goals.
    Done,
    /// The step could not achieve its goals; rules will be consulted.
    Failed(StepFailure),
}

impl StepOutcome {
    /// Shorthand for a failure with a machine-matchable code and a
    /// human-readable message.
    #[must_use]
    pub fn failed(code: &'static str, message: impl Into<String>) -> Self {
        StepOutcome::Failed(StepFailure::new(code, message))
    }
}

/// Why a step failed. The `code` is what rules match on, a literal
/// shared with the rules' declared codes; the `message` is for humans
/// reading the run's history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepFailure {
    code: &'static str,
    message: String,
}

impl StepFailure {
    /// Creates a failure record.
    #[must_use]
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// The machine-matchable failure code, e.g. `"gain-short"`.
    #[must_use]
    pub fn code(&self) -> &'static str {
        self.code
    }

    /// The human-readable explanation.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for StepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

/// A rule's continuation: what the executor does once the rule's patch
/// has run. Each rule declares exactly one, with
/// [`PlanBuilder::retries`], [`PlanBuilder::restarts_from`] or
/// [`PlanBuilder::aborts`]; a patch that returns `Err` aborts instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchAction {
    /// Re-run the step that failed.
    Retry,
    /// Restart execution from the named (earlier or later) step.
    RestartFrom(String),
    /// Give up on this plan; the design style cannot meet the spec.
    Abort(String),
}

/// Boxed step body. The executor passes the run's [`DesignContext`]
/// beside the state, so a stored plan serves every run.
type StepFn<S> = Box<dyn Fn(&mut S, &DesignContext<'_>) -> StepOutcome + Send + Sync>;
/// Boxed rule guard: the state test a rule makes beyond its codes.
type RuleGuard<S> = Box<dyn Fn(&S) -> bool + Send + Sync>;
/// Boxed rule patch, given the run's context like a step body. An `Err`
/// aborts the plan with that reason.
type RulePatch<S> = Box<dyn Fn(&mut S, &DesignContext<'_>) -> Result<(), String> + Send + Sync>;

/// A declared transfer function: the abstract effect of a step on one
/// state variable, set with [`PlanBuilder::transfer`].
///
/// The concrete step body must compute a value *inside* the expression's
/// abstract result (the expression may over-approximate, never
/// under-approximate) for the interval analysis to stay sound.
#[derive(Debug, Clone, PartialEq)]
pub struct Transfer {
    /// The state variable the step assigns.
    pub target: String,
    /// The declared arithmetic producing it.
    pub expr: Expr,
}

/// A declared precondition: the step can only complete when the named
/// variable lies inside the interval, set with [`PlanBuilder::requires`].
/// The analyzer flags a requirement whose intersection with the
/// variable's derived interval is provably empty (OL205).
#[derive(Debug, Clone, PartialEq)]
pub struct Requirement {
    /// The state variable the step constrains.
    pub var: String,
    /// The interval the variable must lie in for the step to succeed.
    pub interval: Interval,
}

/// A declared plan-input domain: the initial interval and physical
/// dimension of one input variable, set with
/// [`PlanBuilder::input_domain`]. Inputs without a declared domain start
/// the interval analysis fully unknown.
#[derive(Debug, Clone, PartialEq)]
pub struct InputDomain {
    /// The input variable.
    pub var: String,
    /// Its initial interval.
    pub interval: Interval,
    /// Its physical dimension.
    pub dim: Dimension,
}

/// Declared dataflow facts about a step, set with the
/// [`PlanBuilder::reads`]/[`PlanBuilder::writes`]/[`PlanBuilder::emits`]/
/// [`PlanBuilder::diverges`]/[`PlanBuilder::transfer`]/
/// [`PlanBuilder::requires`] chained modifiers. `None` means
/// "undeclared": the static analyzer skips the checks that need the
/// missing fact instead of guessing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepMeta {
    /// State variables the step body reads.
    pub reads: Option<Vec<String>>,
    /// State variables the step body writes when it completes.
    pub writes: Option<Vec<String>>,
    /// Failure codes the step can emit.
    pub emits: Option<Vec<String>>,
    /// True when the step never completes normally (it always fails or
    /// aborts), so sequential flow never continues past it.
    pub diverges: bool,
    /// Declared transfer functions, in assignment order. `None` means
    /// the step's arithmetic is undeclared: the interval analyzer
    /// havocs the step's declared writes instead of tracking them.
    pub transfers: Option<Vec<Transfer>>,
    /// Declared preconditions on state variables.
    pub requires: Option<Vec<Requirement>>,
}

/// Declared facts about a patch rule. The codes come from
/// [`PlanBuilder::rule`] and the continuation from
/// [`PlanBuilder::retries`]/[`PlanBuilder::restarts_from`]/
/// [`PlanBuilder::aborts`]; the executor dispatches on both.
/// [`PlanBuilder::reads`]/[`PlanBuilder::writes`] apply to the
/// last-added rule as well as the last-added step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleMeta {
    /// The failure codes the rule handles.
    pub codes: Vec<&'static str>,
    /// State variables the guard or patch reads.
    pub reads: Option<Vec<String>>,
    /// State variables the patch writes.
    pub writes: Option<Vec<String>>,
    /// What the executor does after the patch.
    pub continuation: PatchAction,
}

/// A step.
pub(crate) struct Step<S> {
    pub(crate) name: Box<str>,
    pub(crate) run: StepFn<S>,
    pub(crate) meta: StepMeta,
}

/// A patch rule. It fires on a failure whose code it lists when its
/// guard (if any) accepts the state.
pub(crate) struct Rule<S> {
    pub(crate) name: Box<str>,
    pub(crate) guard: Option<RuleGuard<S>>,
    pub(crate) patch: Option<RulePatch<S>>,
    pub(crate) meta: RuleMeta,
}

/// An ordered sequence of named steps plus the patch rules that repair
/// failures. Build with [`Plan::builder`]; execute with
/// [`crate::PlanExecutor`].
///
/// A plan holds no run's data: the state and the [`DesignContext`] are
/// executor arguments. So one plan, built once and stored (a `static`
/// `OnceLock`, say), serves every run in the process.
pub struct Plan<S> {
    name: String,
    pub(crate) steps: Vec<Step<S>>,
    pub(crate) rules: Vec<Rule<S>>,
    pub(crate) inputs: Vec<String>,
    pub(crate) input_domains: Vec<InputDomain>,
    /// The interned span, step and rule names, filled on the plan's
    /// first recorded run.
    pub(crate) syms: OnceLock<PlanSyms>,
}

impl<S> Plan<S> {
    /// Starts building a plan with the given name.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> PlanBuilder<S> {
        PlanBuilder {
            name: name.into(),
            steps: Vec::new(),
            rules: Vec::new(),
            inputs: Vec::new(),
            input_domains: Vec::new(),
            continuations: Vec::new(),
            last: LastAdded::None,
        }
    }

    /// The plan's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of steps.
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Number of rules.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The step names, in execution order.
    #[must_use]
    pub fn step_names(&self) -> Vec<&str> {
        self.steps.iter().map(|s| &*s.name).collect()
    }

    /// Index of a step by name.
    #[must_use]
    pub fn step_index(&self, name: &str) -> Option<usize> {
        self.steps.iter().position(|s| &*s.name == name)
    }

    /// Declared plan inputs: state variables whose initial value is
    /// meaningful before any step runs (the spec, the process, and
    /// tuning knobs with meaningful defaults).
    #[must_use]
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }

    /// Declared input domains (interval + dimension) for the interval
    /// analyzer, in declaration order.
    #[must_use]
    pub fn input_domains(&self) -> &[InputDomain] {
        &self.input_domains
    }

    /// Declared metadata of the step at `index`.
    #[must_use]
    pub fn step_meta(&self, index: usize) -> &StepMeta {
        &self.steps[index].meta
    }

    /// Declared metadata of the rule at `index`.
    #[must_use]
    pub fn rule_meta(&self, index: usize) -> &RuleMeta {
        &self.rules[index].meta
    }

    /// The rule names, in consultation order.
    #[must_use]
    pub fn rule_names(&self) -> Vec<&str> {
        self.rules.iter().map(|r| &*r.name).collect()
    }
}

impl<S> fmt::Debug for Plan<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plan")
            .field("name", &self.name)
            .field("steps", &self.step_names())
            .field(
                "rules",
                &self.rules.iter().map(|r| &r.name).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// What the builder appended most recently, for the chained metadata
/// modifiers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LastAdded {
    None,
    Step,
    Rule,
}

/// Builder for [`Plan`]. Steps execute in insertion order; rules are
/// consulted in insertion order when a step fails.
///
/// A rule is written once, and the executor runs what the analyzer
/// (`crate::analyze`) reads: [`Self::rule`] names it and lists the
/// failure codes it handles, [`Self::when`] adds an optional guard on
/// the state, [`Self::patch`] an optional change to the state, and
/// exactly one of [`Self::retries`], [`Self::restarts_from`] or
/// [`Self::aborts`] says how the plan continues.
///
/// The chained dataflow modifiers ([`Self::reads`], [`Self::writes`],
/// [`Self::emits`], [`Self::diverges`]) annotate the most recently added
/// step or rule for the analyzer only. They are optional; undeclared
/// facts disable the checks that need them.
pub struct PlanBuilder<S> {
    name: String,
    steps: Vec<Step<S>>,
    rules: Vec<Rule<S>>,
    inputs: Vec<String>,
    input_domains: Vec<InputDomain>,
    /// How many continuations each rule declared; `build` wants one.
    continuations: Vec<usize>,
    last: LastAdded,
}

impl<S> PlanBuilder<S> {
    /// Appends a named step. Its body gets the state and the run's
    /// [`DesignContext`].
    ///
    /// # Panics
    ///
    /// Panics if a step with the same name already exists (step names are
    /// restart targets and must be unique).
    #[must_use]
    pub fn step(
        mut self,
        name: impl Into<String>,
        run: impl Fn(&mut S, &DesignContext<'_>) -> StepOutcome + Send + Sync + 'static,
    ) -> Self {
        let name: String = name.into();
        assert!(
            !self.steps.iter().any(|s| *s.name == *name),
            "duplicate step name `{name}` in plan `{}`",
            self.name
        );
        self.steps.push(Step {
            name: name.into(),
            run: Box::new(run),
            meta: StepMeta::default(),
        });
        self.last = LastAdded::Step;
        self
    }

    /// Declares the state variables the plan consumes as inputs: fields
    /// whose initial value is meaningful before the first step runs.
    /// Appends to any previously declared inputs.
    #[must_use]
    pub fn inputs<I, T>(mut self, vars: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<String>,
    {
        self.inputs.extend(vars.into_iter().map(Into::into));
        self
    }

    /// Declares the value domain (interval + physical dimension) of a
    /// plan input for the static interval analyzer. Inputs without a
    /// declared domain are treated as unknown and never produce
    /// interval diagnostics.
    #[must_use]
    pub fn input_domain(
        mut self,
        var: impl Into<String>,
        interval: Interval,
        dim: Dimension,
    ) -> Self {
        self.input_domains.push(InputDomain {
            var: var.into(),
            interval,
            dim,
        });
        self
    }

    /// Declares that the last-added step computes `target` as the given
    /// interval expression over previously known variables. Transfers
    /// evaluate in declaration order during static analysis.
    ///
    /// # Panics
    ///
    /// Panics when the last-added item is not a step.
    #[must_use]
    pub fn transfer(mut self, target: impl Into<String>, expr: Expr) -> Self {
        let Some(step) = self
            .steps
            .last_mut()
            .filter(|_| self.last == LastAdded::Step)
        else {
            panic!("plan `{}`: .transfer() must follow a step", self.name);
        };
        step.meta
            .transfers
            .get_or_insert_with(Vec::new)
            .push(Transfer {
                target: target.into(),
                expr,
            });
        self
    }

    /// Declares that after the last-added step completes, `var` must lie
    /// within `interval` for the plan to be feasible. The static
    /// analyzer reports OL205 when the variable's derived interval
    /// provably cannot intersect the requirement.
    ///
    /// # Panics
    ///
    /// Panics when the last-added item is not a step.
    #[must_use]
    pub fn requires(mut self, var: impl Into<String>, interval: Interval) -> Self {
        let Some(step) = self
            .steps
            .last_mut()
            .filter(|_| self.last == LastAdded::Step)
        else {
            panic!("plan `{}`: .requires() must follow a step", self.name);
        };
        step.meta
            .requires
            .get_or_insert_with(Vec::new)
            .push(Requirement {
                var: var.into(),
                interval,
            });
        self
    }

    /// Declares the variables the last-added step or rule reads.
    ///
    /// # Panics
    ///
    /// Panics when nothing has been added yet.
    #[must_use]
    pub fn reads<I, T>(mut self, vars: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<String>,
    {
        let vars: Vec<String> = vars.into_iter().map(Into::into).collect();
        match (self.last, self.steps.last_mut(), self.rules.last_mut()) {
            (LastAdded::Step, Some(step), _) => {
                step.meta.reads.get_or_insert_with(Vec::new).extend(vars);
            }
            (LastAdded::Rule, _, Some(rule)) => {
                rule.meta.reads.get_or_insert_with(Vec::new).extend(vars);
            }
            _ => panic!("plan `{}`: .reads() before any step or rule", self.name),
        }
        self
    }

    /// Declares the variables the last-added step or rule writes.
    ///
    /// # Panics
    ///
    /// Panics when nothing has been added yet.
    #[must_use]
    pub fn writes<I, T>(mut self, vars: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<String>,
    {
        let vars: Vec<String> = vars.into_iter().map(Into::into).collect();
        match (self.last, self.steps.last_mut(), self.rules.last_mut()) {
            (LastAdded::Step, Some(step), _) => {
                step.meta.writes.get_or_insert_with(Vec::new).extend(vars);
            }
            (LastAdded::Rule, _, Some(rule)) => {
                rule.meta.writes.get_or_insert_with(Vec::new).extend(vars);
            }
            _ => panic!("plan `{}`: .writes() before any step or rule", self.name),
        }
        self
    }

    /// Declares the failure codes the last-added step can emit. Call
    /// with an empty list for a step that never fails.
    ///
    /// # Panics
    ///
    /// Panics when the last-added item is not a step.
    #[must_use]
    pub fn emits<I, T>(mut self, codes: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<String>,
    {
        let Some(step) = self
            .steps
            .last_mut()
            .filter(|_| self.last == LastAdded::Step)
        else {
            panic!("plan `{}`: .emits() must follow a step", self.name);
        };
        step.meta
            .emits
            .get_or_insert_with(Vec::new)
            .extend(codes.into_iter().map(Into::into));
        self
    }

    /// Declares that the last-added step never completes normally, so
    /// sequential flow stops there.
    ///
    /// # Panics
    ///
    /// Panics when the last-added item is not a step.
    #[must_use]
    pub fn diverges(mut self) -> Self {
        let Some(step) = self
            .steps
            .last_mut()
            .filter(|_| self.last == LastAdded::Step)
        else {
            panic!("plan `{}`: .diverges() must follow a step", self.name);
        };
        step.meta.diverges = true;
        self
    }

    /// Appends a patch rule that handles failures with any of `codes`.
    /// Chain [`Self::when`] and [`Self::patch`] as needed, then one
    /// continuation.
    #[must_use]
    pub fn rule<I>(mut self, name: impl Into<String>, codes: I) -> Self
    where
        I: IntoIterator<Item = &'static str>,
    {
        self.rules.push(Rule {
            name: name.into().into(),
            guard: None,
            patch: None,
            meta: RuleMeta {
                codes: codes.into_iter().collect(),
                reads: None,
                writes: None,
                continuation: PatchAction::Retry,
            },
        });
        self.continuations.push(0);
        self.last = LastAdded::Rule;
        self
    }

    /// Guards the last-added rule: it fires only when `guard` accepts
    /// the state, and otherwise leaves the failure to the later rules.
    ///
    /// # Panics
    ///
    /// Panics when the last-added item is not a rule.
    #[must_use]
    pub fn when(mut self, guard: impl Fn(&S) -> bool + Send + Sync + 'static) -> Self {
        self.last_rule("when").guard = Some(Box::new(guard));
        self
    }

    /// Gives the last-added rule a patch, run on the state and the run's
    /// [`DesignContext`] when the rule fires. An `Err` aborts the plan
    /// with that reason instead of the rule's continuation.
    ///
    /// # Panics
    ///
    /// Panics when the last-added item is not a rule.
    #[must_use]
    pub fn patch(
        mut self,
        patch: impl Fn(&mut S, &DesignContext<'_>) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        self.last_rule("patch").patch = Some(Box::new(patch));
        self
    }

    /// Continues the last-added rule by re-running the step that failed.
    ///
    /// # Panics
    ///
    /// Panics when the last-added item is not a rule.
    #[must_use]
    pub fn retries(self) -> Self {
        self.continue_with("retries", PatchAction::Retry)
    }

    /// Continues the last-added rule by restarting from the named step.
    ///
    /// # Panics
    ///
    /// Panics when the last-added item is not a rule.
    #[must_use]
    pub fn restarts_from(self, target: impl Into<String>) -> Self {
        self.continue_with("restarts_from", PatchAction::RestartFrom(target.into()))
    }

    /// Continues the last-added rule by aborting the plan with `reason`.
    ///
    /// # Panics
    ///
    /// Panics when the last-added item is not a rule.
    #[must_use]
    pub fn aborts(self, reason: impl Into<String>) -> Self {
        self.continue_with("aborts", PatchAction::Abort(reason.into()))
    }

    fn continue_with(mut self, modifier: &str, continuation: PatchAction) -> Self {
        self.last_rule(modifier).meta.continuation = continuation;
        if let Some(count) = self.continuations.last_mut() {
            *count += 1;
        }
        self
    }

    fn last_rule(&mut self, modifier: &str) -> &mut Rule<S> {
        let Some(rule) = self
            .rules
            .last_mut()
            .filter(|_| self.last == LastAdded::Rule)
        else {
            panic!("plan `{}`: .{modifier}() must follow a rule", self.name);
        };
        rule
    }

    /// Finalizes the plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no steps, or a rule declares no
    /// continuation or more than one.
    #[must_use]
    pub fn build(self) -> Plan<S> {
        assert!(!self.steps.is_empty(), "plan `{}` has no steps", self.name);
        for (rule, &count) in self.rules.iter().zip(&self.continuations) {
            assert!(
                count == 1,
                "plan `{}`: rule `{}` declares {count} continuations; it needs exactly one \
                 of .retries(), .restarts_from() or .aborts()",
                self.name,
                rule.name
            );
        }
        Plan {
            name: self.name,
            steps: self.steps,
            rules: self.rules,
            inputs: self.inputs,
            input_domains: self.input_domains,
            syms: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_domains_transfers_and_requirements() {
        let plan = Plan::<i32>::builder("annotated")
            .inputs(["x"])
            .input_domain("x", Interval::new(0.5, 2.0), Dimension::VOLTAGE)
            .step("compute", |_, _| StepOutcome::Done)
            .transfer("y", Expr::div(Expr::num(1.0), Expr::var("x")))
            .requires("y", Interval::new(0.0, 10.0))
            .build();
        assert_eq!(plan.input_domains().len(), 1);
        assert_eq!(plan.input_domains()[0].var, "x");
        assert_eq!(plan.input_domains()[0].dim, Dimension::VOLTAGE);
        let meta = &plan.steps[0].meta;
        assert_eq!(meta.transfers.as_ref().map(Vec::len), Some(1));
        assert_eq!(meta.requires.as_ref().map(Vec::len), Some(1));
        assert_eq!(
            meta.requires
                .as_ref()
                .and_then(|r| r.first())
                .map(|r| r.var.as_str()),
            Some("y")
        );
    }

    #[test]
    #[should_panic(expected = "must follow a step")]
    fn transfer_before_any_step_panics() {
        let _ = Plan::<i32>::builder("bad").transfer("y", Expr::num(1.0));
    }

    #[test]
    fn builder_collects_steps_and_rules() {
        let plan = Plan::<i32>::builder("p")
            .step("a", |_, _| StepOutcome::Done)
            .step("b", |_, _| StepOutcome::Done)
            .rule("r", ["x"])
            .retries()
            .build();
        assert_eq!(plan.name(), "p");
        assert_eq!(plan.step_count(), 2);
        assert_eq!(plan.rule_count(), 1);
        assert_eq!(plan.step_names(), vec!["a", "b"]);
        assert_eq!(plan.step_index("b"), Some(1));
        assert_eq!(plan.step_index("zz"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate step name")]
    fn duplicate_step_names_rejected() {
        let _ = Plan::<i32>::builder("p")
            .step("a", |_, _| StepOutcome::Done)
            .step("a", |_, _| StepOutcome::Done);
    }

    #[test]
    #[should_panic(expected = "has no steps")]
    fn empty_plan_rejected() {
        let _ = Plan::<i32>::builder("p").build();
    }

    #[test]
    fn metadata_modifiers_annotate_last_item() {
        let plan = Plan::<i32>::builder("p")
            .inputs(["spec"])
            .step("a", |_, _| StepOutcome::Done)
            .reads(["spec"])
            .writes(["x", "y"])
            .emits(["a-failed"])
            .step("b", |_, _| StepOutcome::Done)
            .reads(["x"])
            .writes(["z"])
            .emits(Vec::<String>::new())
            .diverges()
            .rule("r", ["a-failed"])
            .when(|_| true)
            .reads(["x"])
            .writes(["y"])
            .restarts_from("a")
            .build();
        assert_eq!(plan.inputs(), ["spec".to_string()]);
        let a = plan.step_meta(0);
        assert_eq!(a.reads.as_deref(), Some(&["spec".to_string()][..]));
        assert_eq!(
            a.writes.as_deref(),
            Some(&["x".to_string(), "y".to_string()][..])
        );
        assert_eq!(a.emits.as_deref(), Some(&["a-failed".to_string()][..]));
        assert!(!a.diverges);
        let b = plan.step_meta(1);
        assert_eq!(b.emits.as_deref(), Some(&[][..]));
        assert!(b.diverges);
        let r = plan.rule_meta(0);
        assert_eq!(r.codes, ["a-failed"]);
        assert!(plan.rules[0].guard.is_some());
        assert_eq!(r.reads.as_deref(), Some(&["x".to_string()][..]));
        assert_eq!(r.writes.as_deref(), Some(&["y".to_string()][..]));
        assert_eq!(r.continuation, PatchAction::RestartFrom("a".to_string()));
        assert_eq!(plan.rule_names(), vec!["r"]);
    }

    #[test]
    fn unannotated_metadata_stays_undeclared() {
        let plan = Plan::<i32>::builder("p")
            .step("a", |_, _| StepOutcome::Done)
            .build();
        let meta = plan.step_meta(0);
        assert_eq!(meta.reads, None);
        assert_eq!(meta.writes, None);
        assert_eq!(meta.emits, None);
        assert!(plan.inputs().is_empty());
    }

    #[test]
    #[should_panic(expected = ".emits() must follow a step")]
    fn emits_after_rule_panics() {
        let _ = Plan::<i32>::builder("p")
            .step("a", |_, _| StepOutcome::Done)
            .rule("r", ["x"])
            .emits(["x"]);
    }

    #[test]
    #[should_panic(expected = ".when() must follow a rule")]
    fn guard_after_step_panics() {
        let _ = Plan::<i32>::builder("p")
            .step("a", |_, _| StepOutcome::Done)
            .when(|_| true);
    }

    #[test]
    #[should_panic(expected = "rule `r` declares 0 continuations")]
    fn rule_without_a_continuation_rejected() {
        let _ = Plan::<i32>::builder("p")
            .step("a", |_, _| StepOutcome::Done)
            .rule("r", ["x"])
            .patch(|_, _| Ok(()))
            .build();
    }

    #[test]
    #[should_panic(expected = "rule `r` declares 2 continuations")]
    fn rule_with_two_continuations_rejected() {
        let _ = Plan::<i32>::builder("p")
            .step("a", |_, _| StepOutcome::Done)
            .rule("r", ["x"])
            .retries()
            .aborts("no")
            .build();
    }

    #[test]
    fn failure_accessors() {
        let f = StepFailure::new("code-x", "something broke");
        assert_eq!(f.code(), "code-x");
        assert_eq!(f.message(), "something broke");
        assert_eq!(f.to_string(), "[code-x] something broke");
    }

    #[test]
    fn debug_lists_structure() {
        let plan = Plan::<i32>::builder("p")
            .step("a", |_, _| StepOutcome::Done)
            .build();
        let dbg = format!("{plan:?}");
        assert!(dbg.contains("\"a\""));
    }
}
