//! Property-based tests on the synthesis tool: whenever synthesis
//! succeeds, the predicted performance satisfies the specification it was
//! given, across a randomized slice of the spec space.

use oasys::styles::design_style_with;
use oasys::{synthesize, synthesize_with_options, OpAmpSpec, OpAmpStyle, SearchOptions};
use oasys_process::builtin;
use oasys_telemetry::Telemetry;
use oasys_testutil::prelude::*;

/// Specs drawn from the region the 5 µm process can plausibly serve.
fn spec_strategy() -> impl Strategy<Value = OpAmpSpec> {
    (
        35.0..95.0f64, // gain, dB
        0.1..2.0f64,   // unity-gain, MHz
        40.0..65.0f64, // phase margin, °
        2.0..20.0f64,  // load, pF
        0.5..4.0f64,   // slew, V/µs
    )
        .prop_map(|(gain, fu, pm, cl, sr)| {
            OpAmpSpec::builder()
                .dc_gain_db(gain)
                .unity_gain_mhz(fu)
                .phase_margin_deg(pm)
                .load_pf(cl)
                .slew_rate_v_per_us(sr)
                .build()
                .expect("strategy stays in the valid range")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Predicted performance meets the spec whenever synthesis claims
    /// success, and the emitted netlist is structurally valid.
    #[test]
    fn successful_synthesis_meets_spec(spec in spec_strategy()) {
        let process = builtin::cmos_5um();
        let Ok(result) = synthesize(&spec, &process) else {
            return Ok(()); // infeasible corners are allowed to fail
        };
        let design = result.selected();
        let p = design.predicted();
        prop_assert!(
            p.dc_gain_db >= spec.dc_gain().db() - 0.01,
            "gain {:.1} < spec {:.1}", p.dc_gain_db, spec.dc_gain().db()
        );
        prop_assert!(p.unity_gain_hz >= spec.unity_gain_freq().hertz() * 0.999);
        prop_assert!(p.phase_margin_deg >= spec.phase_margin().degrees() - 0.01);
        prop_assert!(p.slew_v_per_s >= spec.slew_rate().volts_per_second() * 0.98);
        prop_assert!(p.power_w > 0.0);
        design.circuit().validate().unwrap();
        prop_assert!(design.device_count() >= 6);
        prop_assert!(design.area().total_um2() > 0.0);
    }

    /// Synthesis is a pure function of its inputs.
    #[test]
    fn synthesis_deterministic(spec in spec_strategy()) {
        let process = builtin::cmos_5um();
        let a = synthesize(&spec, &process);
        let b = synthesize(&spec, &process);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.selected().style(), y.selected().style());
                prop_assert_eq!(x.selected().circuit(), y.selected().circuit());
            }
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "feasibility must be deterministic"),
        }
    }

    /// Soundness of the static feasibility pruner: whenever the pruner
    /// rejects a style (`statically-infeasible`), really executing that
    /// style's plan (pruning disabled) must reject it too — concrete
    /// execution never contradicts the abstract verdict — and the
    /// sweep's winner is unchanged. Checked on two processes (the
    /// 1.2 µm one prunes aggressively in this gain range) and at 1 and
    /// 3 worker threads.
    #[test]
    fn static_pruning_is_sound(spec in spec_strategy()) {
        /// Per-style rejection table: `None` means the style succeeded.
        fn table(
            result: &Result<oasys::Synthesis, oasys::SynthesisError>,
        ) -> Vec<(String, Option<String>)> {
            match result {
                Ok(s) => s
                    .outcomes()
                    .iter()
                    .map(|o| (o.style().to_string(), o.rejection()))
                    .collect(),
                Err(e) => e
                    .rejections()
                    .iter()
                    .map(|(style, reason)| (style.to_string(), Some(reason.clone())))
                    .collect(),
            }
        }

        for process in [builtin::cmos_5um(), builtin::cmos_1p2um()] {
            let tel = Telemetry::disabled();
            let pruned = synthesize_with_options(&spec, &process, &SearchOptions::new(), &tel);
            let executed = synthesize_with_options(
                &spec,
                &process,
                &SearchOptions::new().with_static_pruning(false),
                &tel,
            );
            let pruned_table = table(&pruned);
            let executed_table = table(&executed);
            prop_assert_eq!(
                pruned_table.iter().map(|(s, _)| s).collect::<Vec<_>>(),
                executed_table.iter().map(|(s, _)| s).collect::<Vec<_>>(),
                "both sweeps attempt the same styles in the same order"
            );
            for ((style, verdict), (_, outcome)) in
                pruned_table.iter().zip(&executed_table)
            {
                if verdict.as_deref().is_some_and(|v| v.starts_with("statically-infeasible")) {
                    prop_assert!(
                        outcome.is_some(),
                        "{style} on {process} was pruned as infeasible but executing \
                         its plan succeeded — the static verdict is unsound"
                    );
                }
            }
            match (&pruned, &executed) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.selected().style(), b.selected().style());
                    prop_assert_eq!(a.selected().circuit(), b.selected().circuit());
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(
                    false,
                    "pruning flipped overall feasibility on {}", process
                ),
            }
        }
    }

    /// Every plan run that yields a design is bounded: the executor's
    /// budgets guarantee no runaway plans regardless of the spec.
    #[test]
    fn plan_runs_are_bounded(spec in spec_strategy()) {
        let process = builtin::cmos_5um();
        for style in OpAmpStyle::ALL {
            let tel = Telemetry::new();
            if design_style_with(style, &spec, &process, &tel).is_ok() {
                prop_assert!(tel.counter("plan.rule_firings") <= 32);
                prop_assert!(tel.counter("plan.step_executions") <= 400);
            }
        }
    }
}

/// One hostile input line: arbitrary printable ASCII, or a key = value
/// shape with a numeric near-miss or textual non-finite as the value.
fn hostile_line() -> impl Strategy<Value = String> {
    prop_oneof![
        "[ -~]{0,30}".boxed(),
        ("[a-z_]{1,16}", "[0-9.eE+-]{0,12}")
            .prop_map(|(k, v)| format!("{k} = {v}"))
            .boxed(),
        (
            "[a-z_]{1,16}",
            prop_oneof!["inf".boxed(), "nan".boxed(), "9e999".boxed(),]
        )
            .prop_map(|(k, v)| format!("{k} = {v}"))
            .boxed(),
    ]
}

proptest! {
    /// The specification parser is total over hostile text: `Ok` with
    /// finite values or a displayable error, never a panic.
    #[test]
    fn specfile_parser_survives_hostile_input(lines in prop::collection::vec(hostile_line(), 0..12)) {
        let text = lines.join("\n");
        match oasys::specfile::parse(&text) {
            Ok(spec) => {
                prop_assert!(spec.dc_gain().db().is_finite());
                prop_assert!(spec.load().farads().is_finite());
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// Textual non-finites never reach a parsed specification.
    #[test]
    fn specfile_rejects_nonfinite_values(v in prop_oneof![
        "inf".boxed(), "nan".boxed(), "9e999".boxed(), "-inf".boxed()
    ]) {
        let text = format!("dc_gain_db = {v}\nunity_gain_mhz = 1\nphase_margin_deg = 55\nload_pf = 5\n");
        let err = oasys::specfile::parse(&text).unwrap_err();
        prop_assert!(err.to_string().contains("not finite"), "{}", err);
    }

    /// The manifest parser is total over hostile text.
    #[test]
    fn manifest_parser_survives_hostile_input(lines in prop::collection::vec(hostile_line(), 0..12)) {
        let text = lines.join("\n");
        if let Err(e) = oasys::batch::Manifest::parse(&text) {
            prop_assert!(!e.to_string().is_empty());
        }
    }
}
