//! Fixed op-amp topology templates and their translation plans.
//!
//! Each style module owns (a) a hierarchical template — which sub-blocks
//! connect where — and (b) the stored plan that translates op-amp
//! specifications into sub-block specifications, with the patch rules the
//! paper describes (cascode a stage, skew the gain partition, insert a
//! level shifter, abort when the style provably cannot meet the spec).

mod folded_cascode;
mod one_stage;
mod two_stage;

pub use folded_cascode::{design_folded_cascode, design_folded_cascode_with};
pub use one_stage::{design_one_stage, design_one_stage_with};
pub use two_stage::{design_two_stage, design_two_stage_with};

use crate::datasheet::Predicted;
use crate::spec::OpAmpSpec;
use oasys_blocks::AreaEstimate;
use oasys_netlist::Circuit;
use oasys_plan::{
    analyze, first_infeasible, DesignContext, PerfRelation, Plan, PlanError, PlanExecutor, Trace,
};
use oasys_process::Process;
use oasys_telemetry::{sym, Telemetry};
use std::error::Error;
use std::fmt;

/// The op-amp design styles OASYS knows.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpAmpStyle {
    /// One-stage operational transconductance amplifier (5T OTA, with an
    /// optional cascoded load).
    OneStageOta,
    /// Two-stage unbuffered, Miller-compensated op amp (with optional
    /// cascoding and level shifter).
    TwoStage,
    /// Folded-cascode OTA (extension — the paper's stated "immediate
    /// plan").
    FoldedCascode,
}

impl OpAmpStyle {
    /// All styles, in the order the breadth-first selector tries them.
    pub const ALL: [OpAmpStyle; 3] = [
        OpAmpStyle::OneStageOta,
        OpAmpStyle::TwoStage,
        OpAmpStyle::FoldedCascode,
    ];

    /// The style's display name, which [`OpAmpStyle::from_name`] reads
    /// back.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            OpAmpStyle::OneStageOta => "one-stage OTA",
            OpAmpStyle::TwoStage => "two-stage",
            OpAmpStyle::FoldedCascode => "folded cascode",
        }
    }

    /// Resolves a style from its display name (`"one-stage OTA"`,
    /// `"two-stage"`, `"folded cascode"`), as used by the `--styles`
    /// filter and the [`oasys_plan::BlockDesigner`] string interface.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// A style's declarative knowledge: its translation plan and the hooks
/// [`run_style`] needs around plan execution. Each style module supplies
/// exactly this — the shared engine owns the run loop, telemetry, and
/// netlist-assembly error handling.
pub(crate) trait StyleDef {
    /// The style this definition realizes.
    const STYLE: OpAmpStyle;
    /// The mutable design state the plan threads. It holds no run
    /// context: steps reach sub-block designers, spans and memoization
    /// through the [`DesignContext`] the executor passes them.
    type State: StyleState + 'static;
    /// The stored translation plan (steps and patch rules), built on
    /// first use and shared by every attempt in the process.
    fn plan() -> &'static Plan<Self::State>;
    /// Initial state for one run against `spec` on `process`.
    fn init(spec: &OpAmpSpec, process: &Process) -> Self::State;
}

/// What a completed style run must yield: the assembled netlist, the
/// area estimate the selector ranks on, the predicted datasheet, and the
/// patch-rule notes.
pub(crate) trait StyleState {
    /// Assembles the sized schematic from the designed sub-blocks.
    fn emit(&self) -> Result<Circuit, oasys_netlist::ValidateError>;
    /// Estimated layout area of the design.
    fn area(&self) -> AreaEstimate;
    /// The performance predicted by the plan's circuit equations.
    fn predicted(&self) -> Predicted;
    /// Takes the accumulated patch-rule notes out of the state.
    fn take_notes(&mut self) -> Vec<String>;
}

/// Runs one style definition end to end: executes its stored plan in
/// `ctx` (its telemetry, cache and deadline), assembles and validates
/// the netlist under an `assemble-netlist` span, and packages the
/// [`OpAmpDesign`].
///
/// This is the single engine behind all three `design_*` entry points;
/// the per-style modules contribute only their [`StyleDef`].
pub(crate) fn run_style<D: StyleDef>(
    spec: &OpAmpSpec,
    process: &Process,
    ctx: &DesignContext<'_>,
) -> Result<OpAmpDesign, StyleError> {
    let mut state = D::init(spec, process);
    let trace = PlanExecutor::new().run_in(D::plan(), &mut state, ctx)?;
    let assembly = ctx.telemetry().span_sym(sym!("assemble-netlist"));
    let circuit = state
        .emit()
        .map_err(|e| StyleError::Netlist(e.to_string()))?;
    circuit
        .validate()
        .map_err(|e| StyleError::Netlist(e.to_string()))?;
    drop(assembly);
    Ok(OpAmpDesign {
        style: D::STYLE,
        circuit,
        area: state.area(),
        predicted: state.predicted(),
        trace,
        notes: state.take_notes(),
    })
}

/// As [`design_style_with`], but inside an existing [`DesignContext`]:
/// sub-block invocations inherit the context's memo cache and telemetry
/// scope. This is the dispatch the breadth-first selector uses.
pub(crate) fn design_style_in(
    style: OpAmpStyle,
    spec: &OpAmpSpec,
    process: &Process,
    ctx: &DesignContext<'_>,
) -> Result<OpAmpDesign, StyleError> {
    match style {
        OpAmpStyle::OneStageOta => run_style::<one_stage::OneStageDef>(spec, process, ctx),
        OpAmpStyle::TwoStage => run_style::<two_stage::TwoStageDef>(spec, process, ctx),
        OpAmpStyle::FoldedCascode => {
            run_style::<folded_cascode::FoldedCascodeDef>(spec, process, ctx)
        }
    }
}

/// Runs one style's translation plan against a specification, recording
/// spans, events and counters into `tel`.
///
/// This is the instrumented dispatch the selector uses; plain callers can
/// reach the same designs through the per-style `design_*` functions.
///
/// # Errors
///
/// [`StyleError::Plan`] when the style cannot meet the specification;
/// [`StyleError::Netlist`] for template assembly bugs.
pub fn design_style_with(
    style: OpAmpStyle,
    spec: &crate::spec::OpAmpSpec,
    process: &oasys_process::Process,
    tel: &Telemetry,
) -> Result<OpAmpDesign, StyleError> {
    design_style_in(style, spec, process, &DesignContext::new(tel))
}

/// Runs the static plan analyzer over a style's stored synthesis plan,
/// the one every attempt runs.
///
/// The built-in plans declare their dataflow (reads/writes/emitted failure
/// codes), so [`oasys_plan::analyze()`] can check them for use-before-def,
/// unreachable steps, dangling restart targets, shadowed rules and
/// never-firing rules. The built-ins are expected to analyze clean; a
/// non-empty report indicates a knowledge-base bug.
#[must_use]
pub fn analyze_plan(style: OpAmpStyle) -> oasys_lint::Report {
    match style {
        OpAmpStyle::OneStageOta => analyze(one_stage::OneStageDef::plan()),
        OpAmpStyle::TwoStage => analyze(two_stage::TwoStageDef::plan()),
        OpAmpStyle::FoldedCascode => analyze(folded_cascode::FoldedCascodeDef::plan()),
    }
}

/// Runs [`analyze_plan`] over every built-in style and merges the reports.
/// The merged report is re-normalized so diagnostics across plans come out
/// in stable (code, site) order with duplicates removed.
#[must_use]
pub fn analyze_all_plans() -> oasys_lint::Report {
    let mut report = oasys_lint::Report::default();
    for style in OpAmpStyle::ALL {
        report.merge(analyze_plan(style));
    }
    report.normalize();
    report
}

/// The overdrive floor the static gain ceilings assume, V.
///
/// Strictly at the minimum any plan's patch rules can reach (the
/// lower-overdrive rules stop lowering at 0.06 V and divide by at most
/// 1.5, so no plan ever operates a pair below 0.04 V). Using the floor —
/// rather than each plan's larger initial overdrive — keeps the ceilings
/// sound over-approximations of what the runtime search can achieve.
pub(crate) const STATIC_VOV_FLOOR: f64 = 0.04;

/// A sound ceiling on one gain stage's DC gain (linear) on a process
/// with channel-length modulation `lambda_l` (V⁻¹·µm) and minimum
/// length `l_min_um`: intrinsic gain `gm/gout = (2/vov)·(L/λ_L)`, with
/// the overdrive at [`STATIC_VOV_FLOOR`] and the channel length at the
/// plans' shared `max_l_factor`× minimum-length cap. Every quantity is
/// taken at its most favorable extreme, so no plan execution can exceed
/// the ceiling.
pub(crate) fn stage_gain_ceiling(lambda_l: f64, l_min_um: f64, max_l_factor: f64) -> f64 {
    (2.0 / STATIC_VOV_FLOOR) * (max_l_factor * l_min_um / lambda_l)
}

/// The style's statically declared performance relations against `spec`
/// on `process`: for each constrained performance, the interval the spec
/// requires and a sound over-approximation of what the style can
/// achieve.
pub(crate) fn perf_relations(
    style: OpAmpStyle,
    spec: &OpAmpSpec,
    process: &Process,
) -> Vec<PerfRelation> {
    match style {
        OpAmpStyle::OneStageOta => one_stage::perf_relations(spec, process),
        OpAmpStyle::TwoStage => two_stage::perf_relations(spec, process),
        OpAmpStyle::FoldedCascode => folded_cascode::perf_relations(spec, process),
    }
}

/// Static feasibility of a style for `spec` on `process`, decided from
/// the style's declared performance relations without running its plan.
///
/// Returns the first provably infeasible relation's explanation, or
/// `Ok(())` when every required interval intersects its achievable one.
/// Sound: the achievable intervals over-approximate the runtime search,
/// so a rejected style could never have produced a design — pruning it
/// changes which work runs, never which specs succeed.
///
/// # Errors
///
/// The infeasible relation's explanation
/// (see [`oasys_plan::PerfRelation::explain`]).
pub fn static_feasibility(
    style: OpAmpStyle,
    spec: &OpAmpSpec,
    process: &Process,
) -> Result<(), String> {
    let relations = perf_relations(style, spec, process);
    match first_infeasible(&relations) {
        Some(relation) => Err(relation.explain()),
        None => Ok(()),
    }
}

impl fmt::Display for OpAmpStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A completed style design: the sized schematic plus everything the
/// selector and the verifier need.
///
/// The circuit's declared ports are `inp`, `inn`, `out`, `vdd`, `vss`;
/// supplies and stimuli are *not* included — the verification harness
/// adds them.
#[derive(Clone, Debug)]
pub struct OpAmpDesign {
    pub(crate) style: OpAmpStyle,
    pub(crate) circuit: Circuit,
    pub(crate) area: AreaEstimate,
    pub(crate) predicted: Predicted,
    pub(crate) trace: Trace,
    pub(crate) notes: Vec<String>,
}

impl OpAmpDesign {
    /// The style this design instantiates.
    #[must_use]
    pub fn style(&self) -> OpAmpStyle {
        self.style
    }

    /// The sized schematic. Ports: `inp`, `inn`, `out`, `vdd`, `vss`.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Estimated layout area (active + compensation capacitor), the
    /// selection criterion.
    #[must_use]
    pub fn area(&self) -> AreaEstimate {
        self.area
    }

    /// The performance the plan predicts from its circuit equations.
    #[must_use]
    pub fn predicted(&self) -> &Predicted {
        &self.predicted
    }

    /// The plan-execution trace (the paper's Figure 3 in data form).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Human-readable design decisions taken by patch rules
    /// (e.g. `"cascoded first-stage load"`).
    #[must_use]
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Number of MOSFETs in the schematic.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.circuit.mosfets().count()
    }
}

impl fmt::Display for OpAmpDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} design: {} devices, area {}",
            self.style,
            self.device_count(),
            self.area
        )
    }
}

/// Why a style could not meet a specification.
#[derive(Debug, Clone)]
pub enum StyleError {
    /// The style's plan failed (carries the trace, which explains where).
    Plan(PlanError),
    /// The assembled netlist failed validation — a template bug, not a
    /// spec problem.
    Netlist(String),
    /// The style was pruned before its plan ran: a declared performance
    /// relation's required interval provably cannot intersect what the
    /// style can achieve (carries the relation's explanation).
    Infeasible(String),
}

impl StyleError {
    /// A one-line reason suitable for the candidate table.
    #[must_use]
    pub fn reason(&self) -> String {
        match self {
            StyleError::Plan(e) => e.to_string(),
            StyleError::Netlist(e) => format!("netlist assembly failed: {e}"),
            StyleError::Infeasible(e) => format!("statically-infeasible: {e}"),
        }
    }

    /// The plan trace, when the failure came from plan execution.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            StyleError::Plan(e) => Some(e.trace()),
            StyleError::Netlist(_) | StyleError::Infeasible(_) => None,
        }
    }
}

impl fmt::Display for StyleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason())
    }
}

impl Error for StyleError {}

impl From<PlanError> for StyleError {
    fn from(e: PlanError) -> Self {
        StyleError::Plan(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn style_display() {
        assert_eq!(OpAmpStyle::OneStageOta.to_string(), "one-stage OTA");
        assert_eq!(OpAmpStyle::TwoStage.to_string(), "two-stage");
        assert_eq!(OpAmpStyle::FoldedCascode.to_string(), "folded cascode");
        assert_eq!(OpAmpStyle::ALL.len(), 3);
    }

    #[test]
    fn attempts_of_a_style_run_one_stored_plan() {
        fn attempt_twice<D: StyleDef>() {
            let spec = crate::spec::test_cases::spec_a();
            let process = oasys_process::builtin::cmos_5um();
            let tel = Telemetry::disabled();
            let first = D::plan();
            for _ in 0..2 {
                let _ = run_style::<D>(&spec, &process, &DesignContext::new(&tel));
                assert!(std::ptr::eq(first, D::plan()), "{}", D::STYLE);
            }
        }
        attempt_twice::<one_stage::OneStageDef>();
        attempt_twice::<two_stage::TwoStageDef>();
        attempt_twice::<folded_cascode::FoldedCascodeDef>();
    }
}
