//! Figure regeneration: the data series behind Figures 1, 3–7.

use oasys::spec::test_cases;
use oasys::{synthesize, synthesize_with_options, verify, OpAmpStyle, SearchOptions};
use oasys_netlist::{report, spice};
use oasys_process::builtin;
use oasys_telemetry::{ManualClock, Telemetry};
use std::rc::Rc;

/// Figure 1: the successive-approximation A/D hierarchy, rendered.
#[must_use]
pub fn figure1_text() -> String {
    let adc = oasys::hierarchy::successive_approximation_adc();
    format!(
        "Figure 1: hierarchy for a successive-approximation A/D converter\n\
         ({} blocks, {} levels; note the non-strict hierarchy — siblings\n\
         differ wildly in complexity)\n\n{adc}",
        adc.block_count(),
        adc.depth()
    )
}

/// Figure 3: the planning mechanism, shown as the recorded run of the
/// case-C two-stage plan (steps, goal failures, rule firings, restarts):
/// the `--explain` span tree of a two-stage-only synthesis, recorded
/// under a [`ManualClock`] so the figure holds what ran, never when,
/// followed by the run's rule-firing and step-execution counters.
///
/// # Panics
///
/// Panics if case C fails to synthesize.
#[must_use]
pub fn figure3_text() -> String {
    let process = builtin::cmos_5um();
    let options = SearchOptions::new().with_styles([OpAmpStyle::TwoStage.name()]);
    let tel = Telemetry::with_clock(Rc::new(ManualClock::new()));
    synthesize_with_options(&test_cases::spec_c(), &process, &options, &tel)
        .expect("case C synthesizes");
    format!(
        "Figure 3: planning in analog synthesis — the recorded run of the\n\
         two-stage plan for test case C (steps, goal failures, rule\n\
         firings, plan restarts)\n\n{}\nrules fired: {}, step executions: {}\n",
        tel.report().render_explain(),
        tel.counter("plan.rule_firings"),
        tel.counter("plan.step_executions")
    )
}

/// Figure 4: the two-stage topology template as a block diagram.
#[must_use]
pub fn figure4_text() -> String {
    "Figure 4: OASYS two-stage op-amp topology template\n\
     (hierarchical: each block has its own styles and plan)\n\n\
     inp ──┬──────────────┐\n\
     inn ──┼─▶ [diff pair]─┬─▶ [level shifter]* ─▶ [transconductance amp] ─┬─▶ out\n\
           │       ▲       │         ▲                      ▲              │\n\
           │  [tail mirror] │   [shift bias]*       [sink mirror]          │\n\
           │       ▲       │                                ▲              │\n\
           │  [bias branch] └──── [load mirror]       [bias branch]        │\n\
           │                                                               │\n\
           └───────────────── [compensation capacitor] ────────────────────┘\n\n\
     * inserted by a patch rule when the stages' DC levels mismatch\n\
     compensation is designed at the op-amp level: it depends on the\n\
     specifications of almost every other block (paper, §4.2)\n"
        .to_owned()
}

/// Figure 5: the synthesized schematics for cases A, B, C — device table
/// plus SPICE deck for each.
///
/// # Panics
///
/// Panics if a case fails to synthesize.
#[must_use]
pub fn figure5_text() -> String {
    let process = builtin::cmos_5um();
    let mut out =
        String::from("Figure 5: synthesized circuit schematics for the three test cases\n\n");
    for (label, spec) in crate::paper_cases() {
        let result =
            synthesize(&spec, &process).unwrap_or_else(|e| panic!("case {label} failed: {e}"));
        let design = result.selected();
        out.push_str(&format!(
            "===== test case {label}: {} =====\n\n",
            design.style()
        ));
        out.push_str(&report::device_table(design.circuit()));
        out.push_str("\nSPICE deck:\n");
        out.push_str(&spice::to_spice(design.circuit(), &process));
        out.push('\n');
    }
    out
}

/// One Figure 6 sample: frequency, gain, phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BodePoint {
    /// Frequency, Hz.
    pub hz: f64,
    /// Gain, dB.
    pub gain_db: f64,
    /// Phase, degrees (unwrapped, 0° at DC).
    pub phase_deg: f64,
}

/// Figure 6: the gain-phase data for synthesized test circuit C,
/// simulated open-loop from 1 Hz to 100 MHz.
///
/// # Panics
///
/// Panics if case C fails to synthesize or verify.
#[must_use]
pub fn figure6_data() -> Vec<BodePoint> {
    let process = builtin::cmos_5um();
    let spec = test_cases::spec_c();
    let result = synthesize(&spec, &process).expect("case C synthesizes");
    let verification =
        verify(result.selected(), &process, spec.load().farads()).expect("case C verifies");
    let bode = &verification.bode;
    bode.frequencies()
        .iter()
        .zip(bode.gain_db().iter().zip(bode.phase_deg()))
        .map(|(&hz, (&gain_db, &phase_deg))| BodePoint {
            hz,
            gain_db,
            phase_deg,
        })
        .collect()
}

/// Renders Figure 6 as aligned columns.
#[must_use]
pub fn figure6_text() -> String {
    let mut out = String::from(
        "Figure 6: gain-phase plot for synthesized test circuit C\n\
         (simulated open-loop with oasys-sim)\n\n\
         freq(Hz)        gain(dB)   phase(deg)\n",
    );
    for p in figure6_data() {
        out.push_str(&format!(
            "{:>12.3e}  {:>9.2}  {:>10.1}\n",
            p.hz, p.gain_db, p.phase_deg
        ));
    }
    out
}

/// One Figure 7 sample: what each style achieved at one gain target.
#[derive(Clone, Debug)]
pub struct Fig7Point {
    /// The gain specification, dB.
    pub gain_spec_db: f64,
    /// One-stage outcome: (area µm², device count, patched?) if feasible.
    pub one_stage: Option<(f64, usize, bool)>,
    /// Two-stage outcome likewise.
    pub two_stage: Option<(f64, usize, bool)>,
    /// Folded-cascode outcome (extension style, not in the paper's
    /// figure) likewise.
    pub folded: Option<(f64, usize, bool)>,
}

/// Figure 7: sweep the gain specification (other case-A constraints held)
/// and record the area of every feasible style — the continuous-parameter
/// design-space exploration of the paper, including the automatic
/// topology-change points (`patched` flips to `true`).
#[must_use]
pub fn figure7_sweep(load_pf: f64) -> Vec<Fig7Point> {
    let process = builtin::cmos_5um();
    let base = test_cases::spec_a().with_load_pf(load_pf);
    let mut points = Vec::new();
    let mut gain_db = 30.0;
    while gain_db <= 115.0 {
        let spec = base.with_dc_gain_db(gain_db);
        // The topology-change marker counts only structural patches
        // (cascoding, level shifter), not numeric current/overdrive
        // tuning.
        let structural = |d: &oasys::OpAmpDesign| {
            d.notes()
                .iter()
                .any(|n| n.contains("cascoded") || n.contains("shifter"))
        };
        let [one_stage, two_stage, folded] = [
            OpAmpStyle::OneStageOta,
            OpAmpStyle::TwoStage,
            OpAmpStyle::FoldedCascode,
        ]
        .map(|style| {
            oasys::styles::design(style, &spec, &process, &Telemetry::disabled())
                .ok()
                .map(|d| (d.area().total_um2(), d.device_count(), structural(&d)))
        });
        points.push(Fig7Point {
            gain_spec_db: gain_db,
            one_stage,
            two_stage,
            folded,
        });
        gain_db += 2.5;
    }
    points
}

/// Renders Figure 7 for both paper loads (5 pF and 20 pF).
#[must_use]
pub fn figure7_text() -> String {
    let mut out = String::from(
        "Figure 7: area versus achievable gain with continuous parameter\n\
         variation (spec A constraints; * marks designs where a patch rule\n\
         changed the topology — the paper's automatic topology-change points)\n",
    );
    for load_pf in [5.0, 20.0] {
        out.push_str(&format!(
            "\n-- load = {load_pf} pF --\n\
             gain(dB)   1-stage area(µm²)      2-stage area(µm²)  folded-cascode(µm²)†\n"
        ));
        for p in figure7_sweep(load_pf) {
            let fmt = |o: &Option<(f64, usize, bool)>| match o {
                Some((area, devices, patched)) => format!(
                    "{:>10.0}{} ({} dev)",
                    area,
                    if *patched { "*" } else { " " },
                    devices
                ),
                None => "         —        ".to_owned(),
            };
            out.push_str(&format!(
                "{:>7.1}  {:>20}  {:>20}  {:>20}\n",
                p.gain_spec_db,
                fmt(&p.one_stage),
                fmt(&p.two_stage),
                fmt(&p.folded)
            ));
        }
        out.push_str("† extension style beyond the paper's Figure 7\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_renders_hierarchy() {
        let text = figure1_text();
        assert!(text.contains("comparator"));
        assert!(text.contains("sample-and-hold"));
    }

    /// Figure 3 is pinned whole in `tests/golden/figure3.txt`: every
    /// step execution, failure, rule firing and restart of the case-C
    /// two-stage plan. Regenerate with `OASYS_BLESS=1 cargo test -p
    /// oasys-bench --lib figure3`, and only for an intended change of
    /// the plan or of the rendering.
    #[test]
    fn figure3_matches_golden() {
        let text = figure3_text();
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/figure3.txt"
        );
        if std::env::var_os("OASYS_BLESS").is_some() {
            std::fs::write(path, &text).unwrap();
            return;
        }
        let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
            panic!("missing golden fixture {path} ({e}); run with OASYS_BLESS=1 to create it")
        });
        let first_difference = golden.lines().zip(text.lines()).find(|(g, r)| g != r);
        assert!(
            text == golden,
            "Figure 3 changed; first differing (golden, rendered) lines: {first_difference:?}"
        );
    }

    #[test]
    fn figure6_shape_matches_paper() {
        let data = figure6_data();
        assert!(data.len() > 50);
        // DC gain near 100 dB.
        assert!(
            data[0].gain_db > 95.0,
            "case C measured {:.1} dB at DC",
            data[0].gain_db
        );
        // Gain monotonically decays to below 0 dB by 100 MHz.
        assert!(data.last().unwrap().gain_db < 0.0);
        // Phase falls with frequency.
        assert!(data.last().unwrap().phase_deg < -90.0);
    }

    #[test]
    fn figure7_reproduces_paper_shape() {
        let points = figure7_sweep(5.0);
        let one_max = points
            .iter()
            .filter(|p| p.one_stage.is_some())
            .map(|p| p.gain_spec_db)
            .fold(f64::NEG_INFINITY, f64::max);
        let two_max = points
            .iter()
            .filter(|p| p.two_stage.is_some())
            .map(|p| p.gain_spec_db)
            .fold(f64::NEG_INFINITY, f64::max);
        // The paper's headline shape: the one-stage style has a smaller
        // achievable-gain range; the two-stage reaches ~100+ dB.
        assert!(one_max < two_max, "1-stage {one_max} vs 2-stage {two_max}");
        assert!(two_max >= 100.0);
        assert!((55.0..=75.0).contains(&one_max), "one-stage max {one_max}");

        // Where both styles succeed — away from the one-stage's gain
        // ceiling, where its area blows up — the one-stage is smaller
        // (the paper: "the one-stage designs are clearly smaller").
        for p in &points {
            if p.gain_spec_db > one_max - 5.0 {
                continue;
            }
            if let (Some((a1, _, _)), Some((a2, _, _))) = (&p.one_stage, &p.two_stage) {
                assert!(
                    a1 < a2,
                    "at {} dB one-stage {a1} µm² should beat two-stage {a2} µm²",
                    p.gain_spec_db
                );
            }
        }

        // A topology change appears somewhere in the one-stage series.
        let changes: Vec<bool> = points
            .iter()
            .filter_map(|p| p.one_stage.map(|(_, _, patched)| patched))
            .collect();
        assert!(changes.contains(&false) && changes.contains(&true));
    }

    #[test]
    fn figure7_20pf_costs_more_area() {
        let small = figure7_sweep(5.0);
        let large = figure7_sweep(20.0);
        // Compare at a gain both loads achieve with the one-stage style.
        let pick = |pts: &[Fig7Point], db: f64| {
            pts.iter()
                .find(|p| (p.gain_spec_db - db).abs() < 0.1)
                .and_then(|p| p.one_stage.map(|(a, _, _)| a))
        };
        let (a_small, a_large) = (pick(&small, 50.0), pick(&large, 50.0));
        if let (Some(a5), Some(a20)) = (a_small, a_large) {
            assert!(a20 > a5, "20 pF {a20} should exceed 5 pF {a5}");
        } else {
            panic!("both loads should achieve 50 dB with the one-stage style");
        }
    }
}
