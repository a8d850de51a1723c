//! Knowledge-base ablations.
//!
//! DESIGN.md calls out three design choices worth isolating:
//!
//! 1. **Plan patching** — the paper's central claim is that rule-based
//!    patching turns failing plans into successes. Ablation: count how
//!    many specs across a gain sweep each style can meet, versus how many
//!    it could meet if the *first* failure were fatal (≈ designs whose
//!    notes record no structural patch).
//! 2. **Breadth-first selection vs. first-feasible** — how often the
//!    smallest-area design is *not* the first feasible style.
//! 3. **Hierarchical translation vs. flat sizing** — the hierarchy prunes
//!    the topology space; measured here as the number of distinct
//!    transistor-level topologies reachable from just two op-amp
//!    templates (the paper's argument for hierarchy).

use oasys::spec::test_cases;
use oasys::spec::OpAmpSpec;
use oasys::{synthesize, OpAmpDesign, OpAmpStyle};
use oasys_process::{builtin, Process};
use oasys_telemetry::Telemetry;

/// The one-stage and two-stage designs for `spec`, each `None` where the
/// style fails: the paper's two op-amp templates.
fn paper_styles(spec: &OpAmpSpec, process: &Process) -> [Option<OpAmpDesign>; 2] {
    [OpAmpStyle::OneStageOta, OpAmpStyle::TwoStage]
        .map(|style| oasys::styles::design(style, spec, process, &Telemetry::disabled()).ok())
}

/// Result of the patching ablation at one gain point.
#[derive(Clone, Copy, Debug)]
pub struct PatchAblationPoint {
    /// Gain specification, dB.
    pub gain_spec_db: f64,
    /// Feasible with the full knowledge base?
    pub with_rules: bool,
    /// Would some style have succeeded without any *structural* patch
    /// (no cascoding, no partition skew, no level shifter)? Numeric
    /// tuning rules (current boosts, overdrive trades) are not counted:
    /// a plan could fold those into its steps; the structural patches
    /// are what change the topology template.
    pub without_structural_rules: bool,
}

/// Sweeps gain and records, per point, whether the synthesis succeeded
/// and whether it *needed* structural plan patching to succeed.
#[must_use]
pub fn patching_ablation() -> Vec<PatchAblationPoint> {
    let process = builtin::cmos_5um();
    let base = test_cases::spec_a();
    let mut points = Vec::new();
    let mut gain_db = 35.0;
    while gain_db <= 110.0 {
        let spec = base.with_dc_gain_db(gain_db);
        let designs = paper_styles(&spec, &process);
        let with_rules = designs.iter().any(Option::is_some);
        let without_structural_rules = designs.iter().flatten().any(|d| {
            !d.notes()
                .iter()
                .any(|n| n.contains("cascoded") || n.contains("shifter"))
        });
        points.push(PatchAblationPoint {
            gain_spec_db: gain_db,
            with_rules,
            without_structural_rules,
        });
        gain_db += 5.0;
    }
    points
}

/// Result of the selection-policy ablation for one case.
#[derive(Clone, Debug)]
pub struct SelectionAblation {
    /// Case label.
    pub label: &'static str,
    /// What breadth-first area selection picks.
    pub breadth_first: OpAmpStyle,
    /// What taking the first feasible style (trial order) would pick.
    pub first_feasible: OpAmpStyle,
}

/// Compares breadth-first area selection against a first-feasible policy
/// on the paper's three cases.
///
/// # Panics
///
/// Panics if a paper case fails to synthesize.
#[must_use]
pub fn selection_ablation() -> Vec<SelectionAblation> {
    let process = builtin::cmos_5um();
    crate::paper_cases()
        .into_iter()
        .map(|(label, spec)| {
            let synthesis =
                synthesize(&spec, &process).unwrap_or_else(|e| panic!("case {label}: {e}"));
            let breadth_first = synthesis.selected().style();
            let first_feasible = synthesis
                .outcomes()
                .iter()
                .find_map(|o| o.design().map(|d| d.style()))
                .expect("at least one feasible style");
            SelectionAblation {
                label,
                breadth_first,
                first_feasible,
            }
        })
        .collect()
}

/// Counts the distinct transistor-level topologies reachable from the two
/// op-amp templates across the gain sweep (device-count + note signature
/// as a proxy for topology identity) — the hierarchy's leverage.
#[must_use]
pub fn reachable_topologies() -> usize {
    let process = builtin::cmos_5um();
    let base = test_cases::spec_a();
    let mut signatures = std::collections::BTreeSet::new();
    let mut gain_db = 35.0;
    while gain_db <= 110.0 {
        let spec = base.with_dc_gain_db(gain_db);
        for design in paper_styles(&spec, &process).into_iter().flatten() {
            signatures.insert(format!(
                "{}:{}:{}",
                design.style(),
                design.device_count(),
                design.notes().join("|")
            ));
        }
        gain_db += 2.5;
    }
    signatures.len()
}

/// Renders the full ablation report.
#[must_use]
pub fn render() -> String {
    let mut out = String::from("Knowledge-base ablations\n========================\n\n");

    out.push_str(
        "1. Plan patching (structural rules on vs. off), gain sweep on spec-A \
         constraints:\n",
    );
    out.push_str("   gain(dB)  with-rules  without-structural-rules\n");
    let mut rescued = 0;
    for p in patching_ablation() {
        if p.with_rules && !p.without_structural_rules {
            rescued += 1;
        }
        out.push_str(&format!(
            "   {:>7.1}  {:>10}  {:>24}\n",
            p.gain_spec_db,
            if p.with_rules { "yes" } else { "no" },
            if p.without_structural_rules {
                "yes"
            } else {
                "no"
            }
        ));
    }
    out.push_str(&format!(
        "   → {rescued} gain points are only feasible because structural patch \
         rules fired\n\n",
    ));

    out.push_str("2. Selection policy (breadth-first area vs. first feasible):\n");
    for s in selection_ablation() {
        let diverges = if s.breadth_first == s.first_feasible {
            "same"
        } else {
            "DIFFERENT"
        };
        out.push_str(&format!(
            "   case {}: breadth-first → {}, first-feasible → {} ({diverges})\n",
            s.label, s.breadth_first, s.first_feasible
        ));
    }

    out.push_str(&format!(
        "\n3. Hierarchy leverage: {} distinct transistor-level topologies are\n\
         reachable from just 2 op-amp templates (topology variants emerge\n\
         from sub-block style selection, not from new templates)\n",
        reachable_topologies()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patching_rescues_some_gain_points() {
        let points = patching_ablation();
        let rescued = points
            .iter()
            .filter(|p| p.with_rules && !p.without_structural_rules)
            .count();
        assert!(
            rescued >= 2,
            "expected the top of the gain range to require structural patching, \
             got {rescued}"
        );
        // And easy points need no structural patching at all.
        assert!(points
            .iter()
            .any(|p| p.with_rules && p.without_structural_rules));
    }

    #[test]
    fn first_feasible_diverges_from_breadth_first_somewhere() {
        // Trial order is one-stage first, so case A agrees; the check is
        // that the comparison itself is well-formed for all cases.
        let results = selection_ablation();
        assert_eq!(results.len(), 3);
        for r in &results {
            if r.breadth_first != r.first_feasible {
                // Divergence proves area selection is doing real work.
                return;
            }
        }
        // No divergence is also acceptable (trial order is cheapest-first
        // by design) — but every case must have agreed then.
        assert!(results.iter().all(|r| r.breadth_first == r.first_feasible));
    }

    #[test]
    fn hierarchy_yields_multiple_topologies() {
        let count = reachable_topologies();
        assert!(
            count >= 4,
            "two templates should expand to several topologies, got {count}"
        );
    }
}
