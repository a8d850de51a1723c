//! Seeded-defect fixtures for the static analyzers.
//!
//! Each fixture plants exactly one class of defect in an otherwise
//! healthy plan or netlist and asserts the analyzer reports the exact
//! `OLnnn` code — and nothing louder. The complementary direction, that
//! every stored plan and every synthesized netlist comes back clean,
//! and that the op-amp plans fail only with the codes their steps
//! declare, is asserted at the bottom.

use oasys::batch::Manifest;
use oasys::dataset::DatasetPlan;
use oasys::{synthesize_with_options, SearchOptions, StyleOutcome};
use oasys_lint::{Code, Report};
use oasys_mos::Geometry;
use oasys_netlist::{lint, Circuit, SourceValue};
use oasys_plan::{analyze, DesignContext, Plan, StepOutcome};
use oasys_process::{builtin, techfile, Polarity};
use oasys_telemetry::Telemetry;
use std::path::Path;

#[derive(Default)]
struct State {
    x: f64,
}

// ---------------------------------------------------------------- plans

#[test]
fn seeded_use_before_def_yields_ol001() {
    // `consume` reads `x`, but the only writer runs after it.
    let plan = Plan::<State>::builder("seeded-use-before-def")
        .inputs([])
        .step("consume", |s: &mut State, _| {
            s.x += 1.0;
            StepOutcome::Done
        })
        .reads(["x"])
        .writes([])
        .emits([])
        .step("produce", |s: &mut State, _| {
            s.x = 1.0;
            StepOutcome::Done
        })
        .reads([])
        .writes(["x"])
        .emits([])
        .build();
    let report = analyze(&plan);
    let hits = report.with_code(Code::UseBeforeDef);
    assert_eq!(hits.len(), 1, "{}", report.render_human());
    assert_eq!(hits[0].subject, "step consume");
    assert!(hits[0].message.contains("x"), "{}", hits[0].message);
    assert!(!report.passes(false), "OL001 is an error");
}

#[test]
fn seeded_dangling_restart_yields_ol003() {
    let plan = Plan::<State>::builder("seeded-dangling-restart")
        .step("only", |_s: &mut State, _| {
            StepOutcome::failed("too-big", "fixture failure")
        })
        .emits(["too-big"])
        .rule("patch", ["too-big"])
        .restarts_from("no-such-step")
        .build();
    let report = analyze(&plan);
    let hits = report.with_code(Code::DanglingRestartTarget);
    assert_eq!(hits.len(), 1, "{}", report.render_human());
    assert!(
        hits[0].message.contains("no-such-step"),
        "{}",
        hits[0].message
    );
    assert!(!report.passes(false), "OL003 is an error");
}

#[test]
fn seeded_shadowed_rule_yields_ol004() {
    // The unguarded first rule claims `too-big` unconditionally, so the
    // second can never fire on it.
    let plan = Plan::<State>::builder("seeded-shadowed-rule")
        .step("only", |_s: &mut State, _| {
            StepOutcome::failed("too-big", "fixture failure")
        })
        .emits(["too-big"])
        .rule("greedy", ["too-big"])
        .aborts("fixture give-up")
        .rule("shadowed", ["too-big"])
        .retries()
        .build();
    let report = analyze(&plan);
    let hits = report.with_code(Code::ShadowedRule);
    assert_eq!(hits.len(), 1, "{}", report.render_human());
    assert_eq!(hits[0].subject, "rule shadowed");
    assert!(hits[0].message.contains("too-big"), "{}", hits[0].message);
    assert!(report.passes(false), "OL004 is warning-tier");
    assert!(!report.passes(true));
}

// ------------------------------------------------- report order (OL0xx)

fn done(_s: &mut State, _ctx: &DesignContext<'_>) -> StepOutcome {
    StepOutcome::Done
}

/// A report as `(code, subject)` pairs, in report order.
fn findings(report: &Report) -> Vec<(&str, &str)> {
    report
        .diagnostics()
        .iter()
        .map(|d| (d.code.as_str(), d.subject.as_str()))
        .collect()
}

/// One plan seeding several defects across steps declared in an order
/// that disagrees with the diagnostic sort: the report must come back
/// ordered by (code, site) with duplicates collapsed, and a second
/// analysis must render byte-identically.
#[test]
fn seeded_defects_report_in_stable_order_without_duplicates() {
    let build = || {
        Plan::<State>::builder("seeded-ordering")
            .inputs([])
            // Declared first, but its subject sorts after `aa-read`'s.
            .step("zz-read", done)
            .reads(["ghost"])
            .writes([])
            .emits([])
            // Its code (OL007) sorts after both reads' OL001, though the
            // analyzer finds it first. It lists its loose code twice:
            // dedup must collapse the repeat into one diagnostic.
            .step("mm-escape", done)
            .reads([])
            .writes([])
            .emits(["loose", "loose"])
            .step("aa-read", done)
            .reads(["ghost"])
            .writes([])
            .emits([])
            .build()
    };
    let report = analyze(&build());
    assert_eq!(
        findings(&report),
        [
            ("OL001", "step aa-read"),
            ("OL001", "step zz-read"),
            ("OL007", "step mm-escape"),
        ],
        "{}",
        report.render_human()
    );
    assert_eq!(
        report.render_json(),
        analyze(&build()).render_json(),
        "analysis is deterministic"
    );
}

// -------------------------------------------------------------- netlists

/// A healthy common-source stage the defects are planted into.
fn seeded_circuit(float_gate: bool, undersize: bool) -> Circuit {
    let mut c = Circuit::new("seeded-netlist");
    let vdd = c.node("vdd");
    let out = c.node("out");
    let inp = c.node("in");
    let gnd = c.ground();
    c.add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
        .unwrap();
    if !float_gate {
        c.add_vsource("VIN", inp, gnd, SourceValue::new(1.5, 1.0))
            .unwrap();
    }
    c.add_resistor("RL", vdd, out, 100e3).unwrap();
    let (w, l) = if undersize { (2.0, 5.0) } else { (50.0, 5.0) };
    c.add_mosfet(
        "M1",
        Polarity::Nmos,
        Geometry::new_um(w, l).unwrap(),
        out,
        inp,
        gnd,
        gnd,
    )
    .unwrap();
    c
}

#[test]
fn seeded_floating_gate_yields_ol101() {
    let process = builtin::cmos_5um();
    let report = lint::lint(&seeded_circuit(true, false), Some(&process));
    let hits = report.with_code(Code::FloatingGate);
    assert_eq!(hits.len(), 1, "{}", report.render_human());
    assert!(hits[0].message.contains("M1"), "{}", hits[0].message);
    // The floating gate must not double-report as a missing DC path.
    assert!(!report.contains(Code::NoDcPathToRail));
}

#[test]
fn seeded_undersized_device_yields_ol103() {
    // 2 µm wide on a 5 µm process: below minimum width.
    let process = builtin::cmos_5um();
    let report = lint::lint(&seeded_circuit(false, true), Some(&process));
    let hits = report.with_code(Code::SubMinimumGeometry);
    assert_eq!(hits.len(), 1, "{}", report.render_human());
    assert_eq!(hits[0].subject, "device M1");
    assert!(report.passes(false), "OL103 is warning-tier");
    assert!(!report.passes(true));
}

#[test]
fn seeded_defects_compose() {
    let process = builtin::cmos_5um();
    let report = lint::lint(&seeded_circuit(true, true), Some(&process));
    assert!(report.contains(Code::FloatingGate));
    assert!(report.contains(Code::SubMinimumGeometry));
    let healthy = lint::lint(&seeded_circuit(false, false), Some(&process));
    assert!(healthy.is_empty(), "{}", healthy.render_human());
}

// -------------------------------------------------- built-ins stay clean

#[test]
fn all_builtin_style_plans_analyze_clean() {
    let mut reports: Vec<(String, Report)> = oasys::OpAmpStyle::ALL
        .into_iter()
        .map(|style| (style.to_string(), oasys::analyze_plan(style)))
        .collect();
    reports.push(("comparator".into(), oasys::comparator::analyze_plan()));
    reports.push((
        "fully differential".into(),
        oasys::fully_differential::analyze_plan(),
    ));
    for (plan, report) in &reports {
        assert!(report.is_empty(), "{plan} plan:\n{}", report.render_human());
    }
    assert!(oasys::analyze_all_plans().is_empty());
}

/// What the rejection of a run that `PlanError::UndeclaredCode` ended
/// says: a step body failed with a code its `.emits` leaves out.
const UNDECLARED: &str = ".emits() list does not declare";

/// The analyzer above reasons from each step's `.emits`, and the
/// executor holds the step bodies to it. Every point of the bundled
/// dataset and every job of the bundled sweep, synthesized with static
/// pruning off so every style's plan runs, must fail only with declared
/// codes.
#[test]
fn builtin_plans_fail_only_with_declared_codes() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data");
    let dataset = Manifest::load(data.join("dataset.manifest")).unwrap();
    let dataset = DatasetPlan::expand(&dataset).unwrap();
    let sweep = Manifest::load(data.join("sweep.manifest")).unwrap();
    let sweep = sweep.expand().unwrap();
    let inputs = dataset
        .points
        .iter()
        .map(|p| (p.spec_text.as_str(), p.tech_text.as_str()))
        .chain(sweep.iter().map(|j| (j.spec_text(), j.tech_text())));
    let options = SearchOptions::new().with_static_pruning(false);
    let mut rejections = 0;
    for (spec_text, tech_text) in inputs {
        let spec = oasys::specfile::parse(spec_text).unwrap();
        let process = techfile::parse(tech_text).unwrap();
        let reasons: Vec<String> =
            match synthesize_with_options(&spec, &process, &options, &Telemetry::disabled()) {
                Ok(synthesis) => synthesis
                    .outcomes()
                    .iter()
                    .filter_map(StyleOutcome::rejection)
                    .collect(),
                Err(e) => e.rejections().iter().map(|(_, r)| r.clone()).collect(),
            };
        for reason in reasons {
            assert!(!reason.contains(UNDECLARED), "{reason}");
            rejections += 1;
        }
    }
    assert!(rejections > 0, "some plan must fail for the check to run");
}

#[test]
fn paper_test_cases_synthesize_erc_clean() {
    // Table 2's specs, on the paper's process: every successful style's
    // schematic must come through the electrical-rule checker clean.
    let process = builtin::cmos_5um();
    for spec in [
        oasys::spec::test_cases::spec_a(),
        oasys::spec::test_cases::spec_b(),
        oasys::spec::test_cases::spec_c(),
    ] {
        let synthesis = oasys::synthesize(&spec, &process).unwrap();
        for outcome in synthesis.outcomes() {
            let Some(design) = outcome.design() else {
                continue;
            };
            let report = lint::lint(design.circuit(), Some(&process));
            assert!(
                report.is_empty(),
                "{} on {spec}:\n{}",
                design.style(),
                report.render_human()
            );
        }
    }
}
