//! Seeded-defect fixtures for the static analyzers.
//!
//! Each fixture plants exactly one class of defect in an otherwise
//! healthy plan or netlist and asserts the analyzer reports the exact
//! `OLnnn` code — and nothing louder. The complementary direction, that
//! every built-in style plan and every synthesized netlist comes back
//! clean, is asserted at the bottom.

use oasys_lint::{Code, Report};
use oasys_mos::Geometry;
use oasys_netlist::{lint, Circuit, SourceValue};
use oasys_plan::{analyze, DesignContext, Expr, Interval, Plan, StepOutcome};
use oasys_process::{builtin, Polarity};
use oasys_units::Dimension;

#[derive(Default)]
struct State {
    x: f64,
}

const NONE: [&str; 0] = [];

// ---------------------------------------------------------------- plans

#[test]
fn seeded_use_before_def_yields_ol001() {
    // `consume` reads `x`, but the only writer runs after it.
    let plan = Plan::<State>::builder("seeded-use-before-def")
        .inputs(NONE)
        .step("consume", |s: &mut State, _| {
            s.x += 1.0;
            StepOutcome::Done
        })
        .reads(["x"])
        .writes(NONE)
        .emits(NONE)
        .step("produce", |s: &mut State, _| {
            s.x = 1.0;
            StepOutcome::Done
        })
        .reads(NONE)
        .writes(["x"])
        .emits(NONE)
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

// ------------------------------------- interval/unit dataflow (OL2xx)

fn done(_s: &mut State, _ctx: &DesignContext<'_>) -> StepOutcome {
    StepOutcome::Done
}

/// The OL2xx subset of a report, as `(code, subject)` pairs.
fn interval_findings(report: &Report) -> Vec<(String, String)> {
    report
        .diagnostics()
        .iter()
        .filter(|d| d.code.as_str().starts_with("OL2"))
        .map(|d| (d.code.as_str().to_owned(), d.subject.clone()))
        .collect()
}

#[test]
fn seeded_zero_spanning_divisor_yields_ol201() {
    let plan = Plan::<State>::builder("seeded-div-by-zero")
        .inputs(["x"])
        .input_domain("x", Interval::new(0.0, 1.0), Dimension::NONE)
        .step("divide", done)
        .transfer("y", Expr::num(1.0).div(Expr::var("x")))
        .build();
    let report = analyze(&plan);
    assert_eq!(
        interval_findings(&report),
        vec![("OL201".to_owned(), "step divide".to_owned())],
        "{}",
        report.render_human()
    );
    assert!(report.contains(Code::PossibleDivideByZero));
    assert!(report.passes(false), "OL201 is warning-tier");
    assert!(!report.passes(true));
}

#[test]
fn seeded_overflowing_product_yields_ol202() {
    let plan = Plan::<State>::builder("seeded-overflow")
        .inputs(["big"])
        .input_domain("big", Interval::new(1e308, 1e308), Dimension::NONE)
        .step("square", done)
        .transfer("huge", Expr::var("big").mul(Expr::var("big")))
        .build();
    let report = analyze(&plan);
    assert_eq!(
        interval_findings(&report),
        vec![("OL202".to_owned(), "step square".to_owned())],
        "{}",
        report.render_human()
    );
    assert!(report.contains(Code::PossiblyNonFinite));
}

#[test]
fn seeded_negative_width_yields_ol203() {
    // Available width [0, 1] µm minus used width [2, 3] µm: the margin
    // is provably negative for every input in the domain.
    let plan = Plan::<State>::builder("seeded-negative-geometry")
        .inputs(["w_avail", "w_used"])
        .input_domain("w_avail", Interval::new(0.0, 1.0), Dimension::LENGTH)
        .input_domain("w_used", Interval::new(2.0, 3.0), Dimension::LENGTH)
        .step("margin", done)
        .transfer("w_left", Expr::var("w_avail").sub(Expr::var("w_used")))
        .build();
    let report = analyze(&plan);
    assert_eq!(
        interval_findings(&report),
        vec![("OL203".to_owned(), "step margin".to_owned())],
        "{}",
        report.render_human()
    );
    assert!(report.contains(Code::NegativeGeometry));
    assert!(!report.passes(false), "OL203 is an error");
}

#[test]
fn seeded_volts_plus_amps_yields_ol204() {
    let plan = Plan::<State>::builder("seeded-unit-mismatch")
        .inputs(["v", "i"])
        .input_domain("v", Interval::new(1.0, 2.0), Dimension::VOLTAGE)
        .input_domain("i", Interval::new(1e-6, 1e-3), Dimension::CURRENT)
        .step("mix", done)
        .transfer("nonsense", Expr::var("v").add(Expr::var("i")))
        .build();
    let report = analyze(&plan);
    assert_eq!(
        interval_findings(&report),
        vec![("OL204".to_owned(), "step mix".to_owned())],
        "{}",
        report.render_human()
    );
    assert!(report.contains(Code::UnitMismatch));
    assert!(!report.passes(false), "OL204 is an error");
}

#[test]
fn seeded_unreachable_requirement_yields_ol205() {
    let plan = Plan::<State>::builder("seeded-infeasible")
        .inputs(["x"])
        .input_domain("x", Interval::new(0.0, 1.0), Dimension::NONE)
        .step("check", done)
        .transfer("x", Expr::var("x"))
        .requires("x", Interval::new(2.0, 3.0))
        .build();
    let report = analyze(&plan);
    assert_eq!(
        interval_findings(&report),
        vec![("OL205".to_owned(), "step check".to_owned())],
        "{}",
        report.render_human()
    );
    assert!(report.contains(Code::InfeasibleInterval));
    assert!(!report.passes(false), "OL205 is an error");
}

/// One plan seeding several defects across steps declared in an order
/// that disagrees with the diagnostic sort: the report must come back
/// ordered by (code, site) with duplicates collapsed, and a second
/// analysis must render byte-identically.
#[test]
fn seeded_defects_report_in_stable_order_without_duplicates() {
    let build = || {
        Plan::<State>::builder("seeded-ordering")
            .inputs(["x", "v", "i"])
            .input_domain("x", Interval::new(0.0, 1.0), Dimension::NONE)
            .input_domain("v", Interval::new(1.0, 2.0), Dimension::VOLTAGE)
            .input_domain("i", Interval::new(1e-6, 1e-3), Dimension::CURRENT)
            // Declared first, but its code (OL204) sorts after OL201.
            // Writes are declared so the inputs survive to the next
            // step instead of being havocked away.
            .step("zz-mix", done)
            .writes(["nonsense"])
            .transfer("nonsense", Expr::var("v").add(Expr::var("i")))
            .step("aa-divide", done)
            .transfer("y", Expr::num(1.0).div(Expr::var("x")))
            // The same division again: dedup must collapse the repeat
            // into one diagnostic per site.
            .transfer("y", Expr::num(1.0).div(Expr::var("x")))
            .build()
    };
    let report = analyze(&build());
    let findings = interval_findings(&report);
    assert_eq!(
        findings,
        vec![
            ("OL201".to_owned(), "step aa-divide".to_owned()),
            ("OL204".to_owned(), "step zz-mix".to_owned()),
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
    for style in oasys::OpAmpStyle::ALL {
        let report = oasys::analyze_plan(style);
        assert!(
            report.is_empty(),
            "{style} plan:\n{}",
            report.render_human()
        );
    }
    assert!(oasys::analyze_all_plans().is_empty());
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
