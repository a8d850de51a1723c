//! Breadth-first design-style selection.
//!
//! The paper (Section 4.2/4.3): *"We currently attempt to design each
//! style, and if both can meet the specification, select the one with the
//! best match to the specifications, biasing the choice in favor of the
//! design with the smallest estimated area. … Style selection at this
//! level is … based on breadth-first search. All possible styles are
//! designed and a selection among successful design styles is made based
//! on comparison of final parameters such as estimated area."*
//!
//! The sweep itself lives in the generic engine
//! ([`oasys_plan::design_candidates`]): the op-amp level is exposed as an
//! [`OpAmpDesigner`] implementing [`oasys_plan::BlockDesigner`], the
//! candidates run one after another in declaration order, and repeated
//! sub-block designs within a run are memoized through a shared
//! [`MemoCache`]. Selection is deterministic: smallest estimated area
//! wins, exact ties break by style name.

use crate::spec::OpAmpSpec;
use crate::styles::{design_style_in, OpAmpDesign, OpAmpStyle, StyleError};
use oasys_plan::{design_candidates, BlockDesigner, DesignContext, MemoCache, SearchOptions};
use oasys_process::Process;
use oasys_telemetry::{sym, Telemetry};
use std::error::Error;
use std::fmt;

/// The name of a former style-search worker-count override. Nothing
/// reads it: the search is always sequential. Kept so callers that
/// still set the variable compile; slated for removal.
pub const STYLE_THREADS_ENV: &str = "OASYS_STYLE_THREADS";

/// The op-amp level as a reusable [`BlockDesigner`] — the root block of
/// the paper's Figure 1 hierarchy. Its styles are the [`OpAmpStyle`]
/// display names, its failures are [`StyleError`]s, and its area metric
/// is the total estimated layout area the selector ranks on. Both the
/// breadth-first selector here and the hierarchy layer drive op-amp
/// synthesis through this designer.
pub struct OpAmpDesigner<'a> {
    process: &'a Process,
}

impl<'a> OpAmpDesigner<'a> {
    /// A designer producing op amps on `process`.
    #[must_use]
    pub fn new(process: &'a Process) -> Self {
        Self { process }
    }
}

impl BlockDesigner for OpAmpDesigner<'_> {
    type Spec = OpAmpSpec;
    type Output = OpAmpDesign;
    type Error = StyleError;

    fn level(&self) -> &'static str {
        "op amp"
    }

    fn styles(&self) -> &'static [&'static str] {
        &OpAmpStyle::NAMES
    }

    fn static_check(&self, spec: &OpAmpSpec, style: &str) -> Result<(), StyleError> {
        let style = OpAmpStyle::from_name(style).expect("style names come from styles()");
        crate::styles::static_feasibility(style, spec, self.process).map_err(StyleError::Infeasible)
    }

    fn design_style(
        &self,
        spec: &OpAmpSpec,
        style: &str,
        ctx: &DesignContext<'_>,
    ) -> Result<OpAmpDesign, StyleError> {
        let style = OpAmpStyle::from_name(style).expect("style names come from styles()");
        design_style_in(style, spec, self.process, ctx)
    }

    fn area_um2(&self, output: &OpAmpDesign) -> f64 {
        output.area().total_um2()
    }
}

/// The outcome of attempting one design style.
#[derive(Debug)]
pub struct StyleOutcome {
    style: OpAmpStyle,
    result: Result<OpAmpDesign, StyleError>,
}

impl StyleOutcome {
    /// The style attempted.
    #[must_use]
    pub fn style(&self) -> OpAmpStyle {
        self.style
    }

    /// The design, if the style succeeded.
    #[must_use]
    pub fn design(&self) -> Option<&OpAmpDesign> {
        self.result.as_ref().ok()
    }

    /// The rejection reason, if the style failed.
    ///
    /// Guaranteed non-empty for failures: when the underlying error
    /// carries no text (a knowledge-base bug), a placeholder naming the
    /// style is substituted so rejection tables never show blank rows.
    #[must_use]
    pub fn rejection(&self) -> Option<String> {
        self.result.as_ref().err().map(|e| {
            let reason = e.reason();
            if reason.trim().is_empty() {
                format!("{} rejected for an unrecorded reason", self.style)
            } else {
                reason
            }
        })
    }
}

/// A completed synthesis: every style outcome plus the selected design.
#[derive(Debug)]
pub struct Synthesis {
    outcomes: Vec<StyleOutcome>,
    selected: usize,
}

impl Synthesis {
    /// The selected (smallest-area feasible) design.
    #[must_use]
    pub fn selected(&self) -> &OpAmpDesign {
        self.outcomes[self.selected]
            .design()
            .expect("selected index points at a success")
    }

    /// Every style attempt, in trial order.
    #[must_use]
    pub fn outcomes(&self) -> &[StyleOutcome] {
        &self.outcomes
    }

    /// The number of styles that could meet the spec.
    #[must_use]
    pub fn feasible_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.design().is_some())
            .count()
    }
}

impl fmt::Display for Synthesis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "synthesis outcome:")?;
        for (idx, outcome) in self.outcomes.iter().enumerate() {
            let marker = if idx == self.selected { "→" } else { " " };
            match outcome.design() {
                Some(d) => writeln!(
                    f,
                    " {marker} {}: feasible, area {}",
                    outcome.style(),
                    d.area()
                )?,
                None => writeln!(
                    f,
                    " {marker} {}: rejected — {}",
                    outcome.style(),
                    outcome.rejection().expect("failed outcome has a reason")
                )?,
            }
        }
        Ok(())
    }
}

/// Error returned when no style can meet the specification.
#[derive(Debug)]
pub struct SynthesisError {
    /// Per-style rejection reasons.
    rejections: Vec<(OpAmpStyle, String)>,
}

impl SynthesisError {
    /// Per-style rejection reasons.
    #[must_use]
    pub fn rejections(&self) -> &[(OpAmpStyle, String)] {
        &self.rejections
    }
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&no_style_fits(self.rejections.iter().map(|(s, r)| (s, r))))
    }
}

/// Words a search in which every style was rejected: each style with
/// its reason. `oasys serve` words an infeasible answer the same way.
pub(crate) fn no_style_fits(
    rejections: impl IntoIterator<Item = (impl fmt::Display, impl fmt::Display)>,
) -> String {
    let mut out = "no design style meets the specification:".to_owned();
    for (style, reason) in rejections {
        out.push_str(&format!(" [{style}: {reason}]"));
    }
    out
}

impl Error for SynthesisError {}

/// Designs every known style for `spec` on `process` and selects the
/// feasible design with the smallest estimated area.
///
/// # Errors
///
/// Returns [`SynthesisError`] (with every style's rejection reason) when
/// no style can meet the spec.
///
/// # Examples
///
/// See the crate-level example.
pub fn synthesize(spec: &OpAmpSpec, process: &Process) -> Result<Synthesis, SynthesisError> {
    synthesize_with(spec, process, &Telemetry::disabled())
}

/// [`synthesize`] with run telemetry recorded into `tel`.
///
/// Equivalent to [`synthesize_with_options`] with default
/// [`SearchOptions`]: every style attempted.
///
/// # Errors
///
/// Same failure modes as [`synthesize`].
pub fn synthesize_with(
    spec: &OpAmpSpec,
    process: &Process,
    tel: &Telemetry,
) -> Result<Synthesis, SynthesisError> {
    synthesize_with_options(spec, process, &SearchOptions::new(), tel)
}

/// The full-control entry point: breadth-first style search with an
/// optional style filter and deadline ([`SearchOptions`]), with run
/// telemetry recorded into `tel`.
///
/// Opens a root `synthesize` span; the engine adds one `style:<name>`
/// child span per attempted style (annotated with the outcome) and
/// `block:<level>` spans for every recursive sub-block invocation. The
/// `synth.styles_attempted` / `synth.styles_feasible` counters are
/// maintained here; `engine.cache_hits` counts sub-block designs served
/// from the shared per-run [`MemoCache`].
///
/// The report — winner, areas, rejection reasons, telemetry — is
/// deterministic; exact area ties break by style name.
///
/// # Errors
///
/// Returns [`SynthesisError`] when no attempted style can meet the spec.
/// When the style filter in `options` matches no known style, the error
/// carries zero rejections — callers validating user input should check
/// names against [`OpAmpStyle::from_name`] first.
pub fn synthesize_with_options(
    spec: &OpAmpSpec,
    process: &Process,
    options: &SearchOptions,
    tel: &Telemetry,
) -> Result<Synthesis, SynthesisError> {
    synthesize_with_cache(spec, process, options, tel, &MemoCache::new())
}

/// [`synthesize_with_options`] with a caller-supplied [`MemoCache`].
///
/// The cache memoizes sub-block designs and **assumes a fixed process**:
/// share one cache across runs either when every run uses the same
/// `process`, or by namespacing each process's keys with
/// [`SearchOptions::with_cache_namespace`] (the batch layer and `oasys
/// serve` share one bounded LRU across technologies exactly that way).
/// Runs over different specs may share freely — cache keys cover the
/// sub-block specification bit-exactly.
///
/// # Errors
///
/// Same failure modes as [`synthesize_with_options`].
pub fn synthesize_with_cache(
    spec: &OpAmpSpec,
    process: &Process,
    options: &SearchOptions,
    tel: &Telemetry,
    cache: &MemoCache,
) -> Result<Synthesis, SynthesisError> {
    let root = tel.span_sym(sym!("synthesize"));
    let designer = OpAmpDesigner::new(process);
    let outcomes: Vec<StyleOutcome> = design_candidates(&designer, spec, options, tel, cache)
        .into_iter()
        .map(|(name, result)| {
            let style = OpAmpStyle::from_name(name).expect("engine preserves style names");
            tel.incr_sym(sym!("synth.styles_attempted"));
            if result.is_ok() {
                tel.incr_sym(sym!("synth.styles_feasible"));
            }
            StyleOutcome { style, result }
        })
        .collect();

    let selected = outcomes
        .iter()
        .enumerate()
        .filter_map(|(idx, o)| {
            o.design()
                .map(|d| (idx, d.area().total_um2(), o.style().to_string()))
        })
        .min_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("areas are finite")
                .then_with(|| a.2.cmp(&b.2))
        })
        .map(|(idx, _, _)| idx);

    match selected {
        Some(selected) => {
            if tel.is_enabled() {
                root.annotate_sym(sym!("selected"), sym(outcomes[selected].style().name()));
            }
            Ok(Synthesis { outcomes, selected })
        }
        None => {
            root.annotate_sym(sym!("selected"), sym!("none"));
            Err(SynthesisError {
                rejections: outcomes
                    .into_iter()
                    .map(|o| {
                        let style = o.style();
                        let reason = o.rejection().expect("failed outcome has a reason");
                        (style, reason)
                    })
                    .collect(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::test_cases;
    use oasys_process::builtin;

    #[test]
    fn case_a_selects_one_stage_on_area() {
        let result = synthesize(&test_cases::spec_a(), &builtin::cmos_5um()).unwrap();
        assert_eq!(result.selected().style(), OpAmpStyle::OneStageOta);
        // The one-stage wins on area among multiple feasible styles.
        assert!(result.feasible_count() >= 2, "{result}");
    }

    #[test]
    fn case_b_selects_two_stage() {
        let result = synthesize(&test_cases::spec_b(), &builtin::cmos_5um()).unwrap();
        assert_eq!(result.selected().style(), OpAmpStyle::TwoStage);
        assert_eq!(result.feasible_count(), 1);
        // The one-stage rejection is recorded.
        let rejection = result.outcomes()[0].rejection().unwrap();
        assert!(!rejection.is_empty());
    }

    #[test]
    fn case_c_selects_complex_two_stage() {
        let result = synthesize(&test_cases::spec_c(), &builtin::cmos_5um()).unwrap();
        let d = result.selected();
        assert_eq!(d.style(), OpAmpStyle::TwoStage);
        assert!(d.notes().iter().any(|n| n.contains("level shifter")));
    }

    #[test]
    fn impossible_spec_reports_all_rejections() {
        let spec = test_cases::spec_a().with_dc_gain_db(139.0);
        let err = synthesize(&spec, &builtin::cmos_5um()).unwrap_err();
        assert_eq!(err.rejections().len(), OpAmpStyle::ALL.len());
        for (style, reason) in err.rejections() {
            assert!(
                !reason.trim().is_empty(),
                "{style} rejection must carry a non-empty reason"
            );
        }
        assert!(err.to_string().contains("one-stage"));
        assert!(err.to_string().contains("two-stage"));
        assert!(err.to_string().contains("folded"));
    }

    #[test]
    fn telemetry_spans_cover_every_style() {
        let tel = Telemetry::new();
        let result = synthesize_with(&test_cases::spec_a(), &builtin::cmos_5um(), &tel).unwrap();
        let report = tel.report();
        let names: Vec<&str> = report.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names[0], "synthesize");
        for style in OpAmpStyle::ALL {
            let name = format!("style:{style}");
            assert!(names.contains(&name.as_str()), "missing span {name}");
        }
        assert_eq!(
            tel.counter("synth.styles_attempted"),
            OpAmpStyle::ALL.len() as u64
        );
        assert_eq!(
            tel.counter("synth.styles_feasible"),
            result.feasible_count() as u64
        );
        // One `step:` span per counted step execution.
        let steps = names.iter().filter(|n| n.starts_with("step:")).count();
        assert_eq!(tel.counter("plan.step_executions"), steps as u64);
    }

    #[test]
    fn display_marks_selection() {
        let result = synthesize(&test_cases::spec_a(), &builtin::cmos_5um()).unwrap();
        let text = result.to_string();
        assert!(text.contains('→'));
    }

    #[test]
    fn style_filter_restricts_the_sweep() {
        let tel = Telemetry::new();
        let options = SearchOptions::new().with_styles(["two-stage"]);
        let result =
            synthesize_with_options(&test_cases::spec_a(), &builtin::cmos_5um(), &options, &tel)
                .unwrap();
        assert_eq!(result.outcomes().len(), 1);
        assert_eq!(result.selected().style(), OpAmpStyle::TwoStage);
        assert_eq!(tel.counter("synth.styles_attempted"), 1);
    }

    #[test]
    fn unknown_style_filter_yields_empty_rejections() {
        let options = SearchOptions::new().with_styles(["no-such-style"]);
        let err = synthesize_with_options(
            &test_cases::spec_a(),
            &builtin::cmos_5um(),
            &options,
            &Telemetry::disabled(),
        )
        .unwrap_err();
        assert!(err.rejections().is_empty());
    }

    #[test]
    fn repeated_subblock_designs_hit_the_memo_cache() {
        let tel = Telemetry::new();
        // Case A's plans re-run sub-block steps after patch-rule restarts
        // whose knob changes leave some block inputs untouched; those
        // repeat designs must come from the shared cache.
        synthesize_with_options(
            &test_cases::spec_a(),
            &builtin::cmos_5um(),
            &SearchOptions::new(),
            &tel,
        )
        .unwrap();
        assert!(
            tel.counter("engine.cache_hits") > 0,
            "restarted plans should reuse memoized sub-block designs"
        );
    }
}
