//! End-to-end telemetry pipeline tests: an instrumented synthesis +
//! verification run must produce a report whose counters exactly mirror
//! the plan traces, whose exporters validate against their own schemas,
//! and whose Chrome export covers every style attempt and step
//! execution.

use oasys::spec::test_cases;
use oasys::{synthesize_with, verify_with, StyleOutcome};
use oasys_plan::Trace;
use oasys_process::builtin;
use oasys_telemetry::{json, schema, ManualClock, Telemetry};
use std::rc::Rc;

#[test]
fn counters_exactly_match_trace_counts() {
    let process = builtin::cmos_5um();
    for spec in [
        test_cases::spec_a(),
        test_cases::spec_b(),
        test_cases::spec_c(),
    ] {
        let tel = Telemetry::new();
        let result = synthesize_with(&spec, &process, &tel).expect("paper cases synthesize");

        let traces: Vec<&Trace> = result
            .outcomes()
            .iter()
            .filter_map(StyleOutcome::trace)
            .collect();
        let steps: usize = traces.iter().map(|t| t.step_executions()).sum();
        let failures: usize = traces.iter().map(|t| t.step_failures()).sum();
        let firings: usize = traces.iter().map(|t| t.rule_firings()).sum();
        let restarts: usize = traces.iter().map(|t| t.restarts()).sum();

        assert_eq!(tel.counter("plan.step_executions"), steps as u64);
        assert_eq!(tel.counter("plan.step_failures"), failures as u64);
        assert_eq!(tel.counter("plan.rule_firings"), firings as u64);
        assert_eq!(tel.counter("plan.restarts"), restarts as u64);
        assert_eq!(result.restarts(), restarts);
        assert_eq!(
            tel.counter("synth.styles_attempted"),
            result.outcomes().len() as u64
        );
        assert_eq!(
            tel.counter("synth.styles_feasible"),
            result.feasible_count() as u64
        );
    }
}

#[test]
fn chrome_trace_covers_styles_and_steps() {
    let process = builtin::cmos_5um();
    let spec = test_cases::spec_a();
    let tel = Telemetry::new();
    let result = synthesize_with(&spec, &process, &tel).unwrap();

    let chrome = tel.report().render_chrome();
    schema::validate_chrome(&chrome).expect("chrome export validates");
    let doc = json::parse(&chrome).expect("chrome export parses");
    let events = doc.as_arr().unwrap();
    let complete_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Json::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(json::Json::as_str))
        .collect();

    // A span for every attempted style...
    for outcome in result.outcomes() {
        let name = format!("style:{}", outcome.style());
        assert!(
            complete_names.contains(&name.as_str()),
            "chrome trace missing {name}"
        );
    }
    // ...and one `step:` span per step execution across all traces.
    let steps: usize = result
        .outcomes()
        .iter()
        .filter_map(StyleOutcome::trace)
        .map(Trace::step_executions)
        .sum();
    let step_spans = complete_names
        .iter()
        .filter(|n| n.starts_with("step:"))
        .count();
    assert_eq!(step_spans, steps, "one chrome span per step execution");
}

#[test]
fn jsonl_export_validates_and_counts_spans() {
    let process = builtin::cmos_5um();
    let tel = Telemetry::new();
    synthesize_with(&test_cases::spec_a(), &process, &tel).unwrap();
    let report = tel.report();
    let jsonl = report.render_jsonl();
    let summary = schema::validate_jsonl(&jsonl).expect("jsonl validates");
    assert_eq!(summary.spans, report.spans().len());
    assert_eq!(summary.events, report.events().len());
}

#[test]
fn manual_clock_makes_runs_deterministic() {
    let process = builtin::cmos_5um();
    let spec = test_cases::spec_a();
    let render = || {
        let tel = Telemetry::with_clock(Rc::new(ManualClock::new()));
        synthesize_with(&spec, &process, &tel).unwrap();
        tel.report().render_jsonl()
    };
    let first = render();
    let second = render();
    assert_eq!(first, second, "frozen-clock runs render identically");
    // Every timestamp is the clock's fixed value: no wall-clock leaks.
    assert!(first.contains("\"start_ns\":0"));
    assert!(!first.contains("\"start_ns\":1"));
}

#[test]
fn verify_records_simulator_work() {
    let process = builtin::cmos_5um();
    let spec = test_cases::spec_a();
    let result = synthesize_with(&spec, &process, &Telemetry::disabled()).unwrap();

    let tel = Telemetry::new();
    verify_with(result.selected(), &process, spec.load().farads(), &tel).unwrap();

    // The 241-point swing sweep and the offset bisection count their
    // solves too, and on case A every warm start converges.
    assert!(
        tel.counter("sim.dc.solves") >= 241,
        "swing sweep solves must be counted, got {}",
        tel.counter("sim.dc.solves")
    );
    assert!(
        tel.counter("sim.dc.newton_iterations") > tel.counter("sim.dc.solves"),
        "verification must record Newton iteration counts"
    );
    assert_eq!(tel.counter("sim.dc.warm_fallbacks"), 0);
    assert_eq!(tel.counter("sim.dc.failures"), 0);
    assert!(tel.counter("sim.ac.points") > 0);
    // Two slew runs, each stopped when its measurement window closes:
    // fewer points than the two full runs' initial point plus
    // ceil(t_stop / dt) steps each.
    assert_eq!(tel.counter("sim.tran.runs"), 2);
    let (_, _, slew_spec) =
        oasys::verify::slew_bench(result.selected(), &process, spec.load().farads()).unwrap();
    let full_budget = 2 * ((slew_spec.t_stop / slew_spec.dt).ceil() as u64 + 1);
    let steps = tel.counter("sim.tran.steps");
    assert!(
        steps > 0 && steps < full_budget,
        "slew runs stop early: {steps} of {full_budget} points"
    );

    let names: Vec<String> = tel
        .report()
        .spans()
        .iter()
        .map(|s| s.name.clone())
        .collect();
    assert_eq!(names[0], "verify");
    for phase in [
        "verify:erc",
        "verify:offset-null",
        "verify:dc",
        "verify:ac",
        "verify:swing",
        "verify:slew",
        "verify:cmrr",
        "verify:noise",
        "verify:psrr",
    ] {
        assert!(
            names.iter().any(|n| n == phase),
            "missing phase span {phase}"
        );
    }
    // Every span closed (durations defined) and nests under the root.
    let report = tel.report();
    for span in report.spans() {
        assert!(span.end_ns.is_some(), "span {} left open", span.name);
    }
}
