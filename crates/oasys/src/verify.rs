//! End-to-end verification of synthesized designs against the bundled
//! analog simulator.
//!
//! The paper verifies each synthesized circuit by detailed SPICE
//! simulation; this module does the same with [`oasys_sim`]: it builds an
//! open-loop test bench around the design's ports, nulls the systematic
//! input offset by bisection, sweeps the small-signal frequency response,
//! and extracts the Table 2 measured columns. One linearization of the
//! open-loop bench serves the sweep, the rejection ratios and the noise
//! analysis.
//!
//! Before any simulation runs, the design's netlist goes through the
//! electrical-rule checker ([`oasys_netlist::lint`]); the resulting
//! [`oasys_lint::Report`] rides along in [`Verification::erc`] so callers
//! can gate on it (the CLI's `--deny-warnings`).

use crate::styles::OpAmpDesign;
use oasys_netlist::{Circuit, NodeId, SourceValue};
use oasys_process::Process;
use oasys_sim::ac::{AcSweepSpec, AcSystem, SolveAcError};
use oasys_sim::dc::{self, DcSolution, SolveDcError};
use oasys_sim::metrics::{output_swing, AcMetrics, Bode};
use oasys_sim::sweep;
use oasys_sim::tran;
use oasys_sim::Complex;
use oasys_telemetry::{sym, Telemetry};
use std::error::Error;
use std::fmt;

/// Error returned when the verification bench cannot be built or solved.
#[derive(Debug)]
pub enum VerifyError {
    /// The design's circuit lacks one of the required ports.
    MissingPort(&'static str),
    /// The test bench failed to assemble.
    Bench(String),
    /// The DC operating point failed even after continuation.
    Dc(SolveDcError),
    /// The AC sweep failed.
    Ac(SolveAcError),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::MissingPort(port) => {
                write!(f, "design circuit has no `{port}` port")
            }
            VerifyError::Bench(detail) => write!(f, "test bench assembly failed: {detail}"),
            VerifyError::Dc(e) => write!(f, "verification dc analysis failed: {e}"),
            VerifyError::Ac(e) => write!(f, "verification ac analysis failed: {e}"),
        }
    }
}

impl Error for VerifyError {}

impl From<SolveDcError> for VerifyError {
    fn from(e: SolveDcError) -> Self {
        VerifyError::Dc(e)
    }
}

impl From<SolveAcError> for VerifyError {
    fn from(e: SolveAcError) -> Self {
        VerifyError::Ac(e)
    }
}

/// Simulator-measured performance: the "actual" half of a Table 2 row.
/// Optional entries are `None` when the quantity could not be measured
/// (e.g. the gain never crosses 0 dB inside the sweep).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    /// Open-loop DC gain, dB.
    pub dc_gain_db: f64,
    /// Unity-gain frequency, Hz.
    pub unity_gain_hz: Option<f64>,
    /// Phase margin, degrees.
    pub phase_margin_deg: Option<f64>,
    /// Slew rate, V/s (requires transient analysis).
    pub slew_v_per_s: Option<f64>,
    /// Symmetric output swing, ±V.
    pub swing_symmetric_v: Option<f64>,
    /// Systematic input offset, V (signed).
    pub offset_v: Option<f64>,
    /// Quiescent power, W.
    pub power_w: f64,
    /// Common-mode rejection ratio at low frequency, dB.
    pub cmrr_db: Option<f64>,
    /// Input-referred noise density at 1 kHz, V/√Hz.
    pub noise_v_rthz: Option<f64>,
    /// Positive-supply rejection ratio at low frequency, dB.
    pub psrr_db: Option<f64>,
}

/// The verification bench plus intermediate artifacts, for callers that
/// want the Bode data (Figure 6) and not just the scalar metrics.
#[derive(Clone, Debug)]
pub struct Verification {
    /// Scalar measurements.
    pub measured: Measured,
    /// The open-loop gain/phase response at the nulled offset.
    pub bode: Bode,
    /// Electrical-rule-check findings on the design netlist (the bench
    /// elements are not linted). Empty for a healthy design.
    pub erc: oasys_lint::Report,
}

/// Builds the open-loop bench around a design: supplies, a differential
/// input pair of sources (`VIP` carries the unit AC stimulus, `VIN`
/// none), and the specified load capacitor.
///
/// Returns the bench circuit and its output node.
///
/// # Errors
///
/// [`VerifyError::MissingPort`] or [`VerifyError::Bench`] when the bench
/// cannot be assembled around the design.
pub fn open_loop_bench(
    design: &OpAmpDesign,
    process: &Process,
    load_f: f64,
) -> Result<(Circuit, NodeId), VerifyError> {
    let mut bench = design.circuit().clone();
    let inp = bench.port("inp").ok_or(VerifyError::MissingPort("inp"))?;
    let inn = bench.port("inn").ok_or(VerifyError::MissingPort("inn"))?;
    let out = bench.port("out").ok_or(VerifyError::MissingPort("out"))?;
    let vdd = bench.port("vdd").ok_or(VerifyError::MissingPort("vdd"))?;
    let vss = bench.port("vss").ok_or(VerifyError::MissingPort("vss"))?;
    let gnd = bench.ground();

    let map_err = |e: oasys_netlist::ValidateError| VerifyError::Bench(e.to_string());
    bench
        .add_vsource("VDD", vdd, gnd, SourceValue::dc(process.vdd().volts()))
        .map_err(map_err)?;
    bench
        .add_vsource("VSS", vss, gnd, SourceValue::dc(process.vss().volts()))
        .map_err(map_err)?;
    bench
        .add_vsource("VIP", inp, gnd, SourceValue::new(0.0, 1.0))
        .map_err(map_err)?;
    bench
        .add_vsource("VIN", inn, gnd, SourceValue::dc(0.0))
        .map_err(map_err)?;
    bench
        .add_capacitor("CLOAD", out, gnd, load_f)
        .map_err(map_err)?;
    Ok((bench, out))
}

/// Measures a synthesized design on the simulator.
///
/// The systematic offset is nulled first (bisecting the non-inverting
/// input for a 0 V output); the AC sweep and DC transfer sweep then run
/// at that bias. Output swing and slew rate are measured in closed-loop
/// benches (an inverting stage holds the input common mode fixed); power
/// comes from the nulled DC point.
///
/// # Errors
///
/// Returns [`VerifyError`] if the bench cannot be assembled or the
/// underlying analyses fail outright. Individual unmeasurable quantities
/// are reported as `None` rather than errors.
pub fn verify(
    design: &OpAmpDesign,
    process: &Process,
    load_f: f64,
) -> Result<Verification, VerifyError> {
    verify_with(design, process, load_f, &Telemetry::disabled())
}

/// [`verify`] with run telemetry recorded into `tel`.
///
/// Opens a root `verify` span with one `verify:<phase>` child per
/// measurement phase; the simulator's own spans and counters
/// (`sim.dc.newton_iterations`, `sim.ac.points`, `sim.tran.steps`) nest
/// underneath. The swing sweep and the offset search count every solve
/// into the `sim.dc.*` counters but open no span per point, so their
/// time stays in `verify:swing` and `verify:offset-null`.
///
/// # Errors
///
/// Same failure modes as [`verify`].
pub fn verify_with(
    design: &OpAmpDesign,
    process: &Process,
    load_f: f64,
    tel: &Telemetry,
) -> Result<Verification, VerifyError> {
    let root = tel.span_sym(sym!("verify"));
    if tel.is_enabled() {
        root.annotate_sym(sym!("style"), sym(design.style().name()));
    }

    // Static electrical-rule check of the raw design (before the bench
    // adds supplies — the checker treats declared ports as driven).
    let erc = {
        let _s = tel.span_sym(sym!("verify:erc"));
        oasys_netlist::lint::lint(design.circuit(), Some(process))
    };

    let (mut bench, out) = open_loop_bench(design, process, load_f)?;

    // Null the systematic offset. The open-loop gain makes the transfer
    // essentially a step; ±0.5 V of differential input always brackets it.
    let offset = {
        let _s = tel.span_sym(sym!("verify:offset-null"));
        sweep::bisect_input(&bench, process, "VIP", out, 0.0, -0.5, 0.5, tel).ok()
    };
    if let Some(v) = offset {
        bench
            .set_source_dc("VIP", v)
            .map_err(|e| VerifyError::Bench(e.to_string()))?;
    }

    // DC point for power.
    let dc_solution = {
        let _s = tel.span_sym(sym!("verify:dc"));
        dc::solve(&bench, process, tel)?
    };
    let power = dc_solution.supply_power(&bench).abs();

    // AC response at the nulled bias, on the open-loop system the
    // rejection ratios and the noise analysis reuse below.
    let spec = AcSweepSpec::standard();
    let (mut system, ac_solution) = {
        let _s = tel.span_sym(sym!("verify:ac"));
        let mut system = AcSystem::new(&bench, process, &dc_solution);
        let solution = system.sweep(&spec, tel)?;
        (system, solution)
    };
    let bode = Bode::from_ac(&ac_solution, out);
    let metrics = AcMetrics::extract(&bode);

    // Output swing from a DC transfer sweep in an inverting
    // configuration (fixed input common mode, the datasheet method).
    let swing = {
        let _s = tel.span_sym(sym!("verify:swing"));
        measure_swing(design, process, tel)
    };

    // Slew rate from a large-signal step in an inverting unity-gain
    // bench (transient analysis).
    let slew = {
        let _s = tel.span_sym(sym!("verify:slew"));
        measure_slew(design, process, load_f, &dc_solution, tel)
    };

    // Rejection ratios at 1 Hz: `xRR = A_dm − A_x` in dB, with the unit
    // AC stimulus on both inputs (common mode), then moved from the input
    // onto VDD (positive supply). AC magnitudes enter only the
    // right-hand side, so both solve on one factorization of the
    // open-loop system.
    let out_var = system.index().node_var(out);
    let common_mode = stimulus_with(&system, &[("VIN", 1.0)]);
    let supply = stimulus_with(&system, &[("VIP", 0.0), ("VDD", 1.0)]);
    let cmrr_span = tel.span_sym(sym!("verify:cmrr"));
    let low = system.factor(REJECTION_HZ).ok();
    let rejection = |b: Option<Vec<Complex>>| -> Option<f64> {
        let (factors, mut b) = (low.as_ref()?, b?);
        factors.solve_in_place(&mut b);
        let gain = out_var.map_or(Complex::ZERO, |i| b[i]).abs().max(1e-12);
        Some(metrics.dc_gain.db() - 20.0 * gain.log10())
    };
    let cmrr = rejection(common_mode);
    drop(cmrr_span);
    let psrr = {
        let _s = tel.span_sym(sym!("verify:psrr"));
        rejection(supply)
    };

    // Input-referred noise at 1 kHz (well inside the open-loop passband).
    let noise = {
        let _s = tel.span_sym(sym!("verify:noise"));
        oasys_sim::noise::analyze(&mut system, &bench, &dc_solution, out, 1e3)
            .ok()
            .map(|r| r.input_density)
    };
    system.record_lu(tel);

    let measured = Measured {
        dc_gain_db: metrics.dc_gain.db(),
        unity_gain_hz: metrics.unity_gain_freq.map(|f| f.hertz()),
        phase_margin_deg: metrics.phase_margin.map(|d| d.degrees()),
        slew_v_per_s: slew,
        swing_symmetric_v: swing,
        offset_v: offset,
        power_w: power,
        cmrr_db: cmrr,
        noise_v_rthz: noise,
        psrr_db: psrr,
    };
    Ok(Verification {
        measured,
        bode,
        erc,
    })
}

/// The frequency of the rejection-ratio measurements, Hz: the low end of
/// the standard sweep.
const REJECTION_HZ: f64 = 1.0;

/// The open-loop system's stimulus with the AC magnitudes of the named
/// voltage sources replaced: the right-hand side the bench with those
/// magnitudes would give. `None` if a source is missing.
fn stimulus_with(system: &AcSystem, magnitudes: &[(&str, f64)]) -> Option<Vec<Complex>> {
    let mut b = system.stimulus().to_vec();
    for &(source, magnitude) in magnitudes {
        b[system.index().branch_var_by_name(source)?] = Complex::from_real(magnitude);
    }
    Some(b)
}

/// Closed-loop gain of the swing-measurement amplifier.
const SWING_GAIN: f64 = 10.0;

/// Points of the swing measurement's input sweep.
const SWING_POINTS: usize = 241;

/// The share of the sweep's peak incremental gain that bounds the swing.
const SWING_GAIN_FRACTION: f64 = 0.25;

/// The swing-measurement bench: the amp in an inverting gain-of-10
/// configuration, whose feedback holds the input common mode at the
/// mid-rail virtual ground, so the measurement reflects the output
/// stage's compliance limits — the quantity the spec constrains — rather
/// than the input stage's common-mode range.
///
/// Returns the bench, its output node, and the input values the swing
/// sweep drives through source `VSW`.
///
/// # Errors
///
/// [`VerifyError::MissingPort`] or [`VerifyError::Bench`] when the bench
/// cannot be assembled around the design.
pub fn swing_bench(
    design: &OpAmpDesign,
    process: &Process,
) -> Result<(Circuit, NodeId, Vec<f64>), VerifyError> {
    let (bench, out) = inverting_bench(design, process, "swing_vin", SWING_GAIN)?;
    let span = process.supply_span().volts();
    let delta = 1.2 * span / (2.0 * SWING_GAIN);
    Ok((bench, out, sweep::linspace(-delta, delta, SWING_POINTS)))
}

/// The amp in an inverting configuration of closed-loop gain `gain`:
/// supplies, the non-inverting input grounded by `VINP`, and source `VSW`
/// driving node `input`, which feeds the inverting input through R1 with
/// R2 = gain·R1 as feedback. Both resistors are large, so the feedback
/// network does not load the output stage.
///
/// Returns the bench and its output node.
fn inverting_bench(
    design: &OpAmpDesign,
    process: &Process,
    input: &str,
    gain: f64,
) -> Result<(Circuit, NodeId), VerifyError> {
    let mut bench = design.circuit().clone();
    let inp = bench.port("inp").ok_or(VerifyError::MissingPort("inp"))?;
    let inn = bench.port("inn").ok_or(VerifyError::MissingPort("inn"))?;
    let out = bench.port("out").ok_or(VerifyError::MissingPort("out"))?;
    let vdd = bench.port("vdd").ok_or(VerifyError::MissingPort("vdd"))?;
    let vss = bench.port("vss").ok_or(VerifyError::MissingPort("vss"))?;
    let gnd = bench.ground();
    let vin = bench.node(input);

    let map_err = |e: oasys_netlist::ValidateError| VerifyError::Bench(e.to_string());
    bench
        .add_vsource("VDD", vdd, gnd, SourceValue::dc(process.vdd().volts()))
        .map_err(map_err)?;
    bench
        .add_vsource("VSS", vss, gnd, SourceValue::dc(process.vss().volts()))
        .map_err(map_err)?;
    bench
        .add_vsource("VINP", inp, gnd, SourceValue::dc(0.0))
        .map_err(map_err)?;
    bench
        .add_vsource("VSW", vin, gnd, SourceValue::dc(0.0))
        .map_err(map_err)?;
    let r1 = 1e6;
    bench.add_resistor("R1", vin, inn, r1).map_err(map_err)?;
    bench
        .add_resistor("R2", inn, out, r1 * gain)
        .map_err(map_err)?;
    Ok((bench, out))
}

/// Measures the output swing on the [`swing_bench`]: a DC transfer
/// sweep of the output node, counted into `tel`'s `sim.dc.*` counters.
fn measure_swing(design: &OpAmpDesign, process: &Process, tel: &Telemetry) -> Option<f64> {
    let (bench, out, points) = swing_bench(design, process).ok()?;
    let swept = sweep::dc_transfer(&bench, process, "VSW", out, &points, tel).ok()?;
    let (lo, hi) = output_swing(&swept, SWING_GAIN_FRACTION)?;
    Some(lo.abs().min(hi.abs()))
}

/// Output transition amplitude for the slew measurement, ±V (large enough
/// that the mid-transition error fully steers the input stage, small
/// enough to stay inside every design's output range).
const SLEW_STEP_V: f64 = 2.0;

/// The node `VSW` drives on the slew bench.
const SLEW_INPUT: &str = "slew_vin";

/// The two input steps of the slew measurement, `VSW` from the first
/// value to the second: the output rises, then falls.
const SLEW_STEPS: [(f64, f64); 2] = [(SLEW_STEP_V, -SLEW_STEP_V), (-SLEW_STEP_V, SLEW_STEP_V)];

/// The slew-measurement bench: the amp in an inverting *unity*-gain
/// configuration, where an input step between ±2 V commands a 4 V
/// output transition of the opposite sign. Inverting (rather than follower)
/// topology keeps the input pair's capacitance off the output node;
/// unity (rather than higher) closed-loop gain keeps the summing-node
/// error large enough to fully steer the input stage throughout the
/// measured window.
///
/// Returns the bench, its output node, and the time axis, budgeted from
/// the predicted slew rate so the transition is well resolved regardless
/// of the design's speed.
///
/// # Errors
///
/// [`VerifyError::MissingPort`] or [`VerifyError::Bench`] when the bench
/// cannot be assembled around the design or its time axis is invalid.
pub fn slew_bench(
    design: &OpAmpDesign,
    process: &Process,
    load_f: f64,
) -> Result<(Circuit, NodeId, tran::TranSpec), VerifyError> {
    let (mut bench, out) = inverting_bench(design, process, SLEW_INPUT, 1.0)?;
    let gnd = bench.ground();
    bench
        .add_capacitor("CLOAD", out, gnd, load_f)
        .map_err(|e| VerifyError::Bench(e.to_string()))?;

    let sr_pred = design.predicted().slew_v_per_s.max(1e4);
    let transition = 2.0 * SLEW_STEP_V / sr_pred;
    let spec = tran::TranSpec::new(6.0 * transition, transition / 150.0)
        .map_err(|e| VerifyError::Bench(e.to_string()))?;
    Ok((bench, out, spec))
}

/// One slew run on the [`slew_bench`]: `VSW` steps from `v0` to `v1`
/// two timesteps in, and the output, which mirrors the input step, is
/// timed between 15 % and 65 % of its transition. That window stays
/// inside the slew-limited portion of the step response.
fn slew_run(
    out: NodeId,
    spec: &tran::TranSpec,
    v0: f64,
    v1: f64,
) -> (tran::Stimuli, tran::SlewWindow) {
    let mut stimuli = tran::Stimuli::new();
    stimuli.step("VSW", v0, v1, 2.0 * spec.dt);
    let window = tran::SlewWindow {
        node: out,
        v_from: -v0,
        v_to: -v1,
        frac_a: 0.15,
        frac_b: 0.65,
    };
    (stimuli, window)
}

/// Measures the slew rate on a [`slew_bench`]: the slower of the rising
/// and the falling transition, each run stopped when its window closes.
/// The transient runs are counted into `tel`'s `sim.tran.*` counters.
///
/// With a `start` (node voltages by [`NodeId::index`], one per bench
/// node), each run's initial point starts Newton from it, with the
/// bench's input set to the step's first value and `out` to its
/// negative, the inverting stage's output. Either way the initial point
/// converges to the same operating point, within Newton's tolerances.
///
/// # Panics
///
/// Panics if `start` does not hold one voltage per bench node.
pub fn slew_rate(
    bench: &Circuit,
    process: &Process,
    out: NodeId,
    spec: &tran::TranSpec,
    start: Option<&[f64]>,
    tel: &Telemetry,
) -> Option<f64> {
    let run = |step| slew_step(bench, process, out, spec, start, step, tel);
    let rising = run(SLEW_STEPS[0])?;
    let falling = run(SLEW_STEPS[1])?;
    Some(rising.min(falling))
}

/// One run of [`slew_rate`]: `VSW` steps from `v0` to `v1`, and the
/// initial point starts from `start` as [`slew_rate`] describes.
fn slew_step(
    bench: &Circuit,
    process: &Process,
    out: NodeId,
    spec: &tran::TranSpec,
    start: Option<&[f64]>,
    (v0, v1): (f64, f64),
    tel: &Telemetry,
) -> Option<f64> {
    let (stimuli, window) = slew_run(out, spec, v0, v1);
    let start = start.map(|nodes| {
        let mut nodes = nodes.to_vec();
        if let Some(input) = bench.find_node(SLEW_INPUT) {
            nodes[input.index()] = v0;
        }
        nodes[out.index()] = -v0;
        nodes
    });
    tran::slew_between(
        bench,
        process,
        spec,
        &stimuli,
        &window,
        start.as_deref(),
        tel,
    )
    .ok()
    .flatten()
}

/// Measures the slew rate of a design on its [`slew_bench`], each run's
/// initial point started from `open_loop`, the open-loop bench's nulled
/// operating point. Both benches clone the design's circuit, so its
/// nodes keep their ids; the slew bench's own input node comes last and
/// [`slew_rate`] sets it.
fn measure_slew(
    design: &OpAmpDesign,
    process: &Process,
    load_f: f64,
    open_loop: &DcSolution,
    tel: &Telemetry,
) -> Option<f64> {
    let (bench, out, spec) = slew_bench(design, process, load_f).ok()?;
    let mut start = open_loop.node_voltages().to_vec();
    start.resize(bench.node_count(), 0.0);
    slew_rate(&bench, process, out, &spec, Some(&start), tel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::plan::{DatasetPlan, PointMeta};
    use crate::spec::test_cases;
    use crate::synth::synthesize;
    use oasys_process::{builtin, CornerSpeed};
    use oasys_sim::mismatch::Mismatch;

    /// The offset search's cold reference: the bracket and stopping rule
    /// of [`sweep::bisect_input`], every evaluation a cold [`dc::solve`]
    /// of a fresh copy of the bench.
    fn cold_bisect(bench: &Circuit, process: &Process, out: NodeId) -> f64 {
        let eval = |vin: f64| {
            let mut work = bench.clone();
            work.set_source_dc("VIP", vin).unwrap();
            dc::solve(&work, process, &Telemetry::disabled())
                .unwrap()
                .voltage(out)
        };
        let (mut a, mut b) = (-0.5, 0.5);
        let mut f_lo = eval(a);
        let f_hi = eval(b);
        assert_ne!(f_lo.signum(), f_hi.signum(), "bracket must straddle 0 V");
        for _ in 0..80 {
            let mid = 0.5 * (a + b);
            let f_mid = eval(mid);
            if f_mid == 0.0 || (b - a).abs() < 1e-12 {
                return mid;
            }
            if f_mid.signum() == f_lo.signum() {
                a = mid;
                f_lo = f_mid;
            } else {
                b = mid;
            }
        }
        0.5 * (a + b)
    }

    /// Runs the warm analyses on a design's swing and offset benches,
    /// built exactly as [`verify`] builds them, against their cold
    /// references: each swept point and the swing measured from the
    /// sweep within 1e-12 V, the offset within 1e-9 V. Returns the swing
    /// sweep's Newton iterations, warm and cold.
    fn assert_warm_matches_cold(
        label: &str,
        design: &OpAmpDesign,
        process: &Process,
        load_f: f64,
    ) -> (u64, u64) {
        let (bench, out, points) = swing_bench(design, process).unwrap();
        let tel = Telemetry::new();
        let warm = sweep::dc_transfer(&bench, process, "VSW", out, &points, &tel).unwrap();
        assert_eq!(warm.len(), points.len(), "{label}: a warm point failed");
        let mut work = bench.clone();
        let mut cold_iterations = 0;
        let mut cold_points = Vec::with_capacity(points.len());
        for (&(vin, w), &input) in warm.iter().zip(&points) {
            assert_eq!(vin, input, "{label}: the sweep reordered its points");
            work.set_source_dc("VSW", vin).unwrap();
            let cold = dc::solve(&work, process, &Telemetry::disabled()).unwrap();
            cold_iterations += cold.iterations() as u64;
            let c = cold.voltage(out);
            assert!(
                (w - c).abs() <= 1e-12,
                "{label}: swing point {vin} V: warm {w} V, cold {c} V"
            );
            cold_points.push((vin, c));
        }
        let (warm_lo, warm_hi) = output_swing(&warm, SWING_GAIN_FRACTION).unwrap();
        let (cold_lo, cold_hi) = output_swing(&cold_points, SWING_GAIN_FRACTION).unwrap();
        assert!(
            (warm_lo - cold_lo).abs() <= 1e-12 && (warm_hi - cold_hi).abs() <= 1e-12,
            "{label}: swing warm {warm_lo}..{warm_hi} V, cold {cold_lo}..{cold_hi} V"
        );
        let warm_iterations = tel.counter("sim.dc.newton_iterations");

        let (bench, out) = open_loop_bench(design, process, load_f).unwrap();
        let warm_offset = sweep::bisect_input(
            &bench,
            process,
            "VIP",
            out,
            0.0,
            -0.5,
            0.5,
            &Telemetry::disabled(),
        )
        .unwrap();
        let cold_offset = cold_bisect(&bench, process, out);
        assert!(
            (warm_offset - cold_offset).abs() <= 1e-9,
            "{label}: offset warm {warm_offset} V, cold {cold_offset} V"
        );
        (warm_iterations, cold_iterations)
    }

    /// One design under differential test.
    struct Case {
        label: String,
        design: OpAmpDesign,
        process: Process,
        load_f: f64,
        /// The Monte-Carlo sample `verify` would run it under.
        mismatch: Option<Mismatch>,
    }

    /// A requirement on the manifest sample: its name and predicate.
    type Requirement = (&'static str, fn(&PointMeta) -> bool);

    /// A seeded 4-point sample of `data/dataset.manifest` that covers
    /// both kits, a non-typical corner and a Monte-Carlo instance: one
    /// seeded draw per requirement, redrawn until the point synthesizes.
    fn manifest_sample() -> Vec<Case> {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/dataset.manifest");
        let manifest = crate::batch::Manifest::load(path).unwrap();
        let plan = DatasetPlan::expand(&manifest).unwrap();
        let requirements: [Requirement; 4] = [
            ("5 µm kit", |p| p.tech_base == "generic-5um"),
            ("3 µm kit", |p| p.tech_base == "generic-3um"),
            ("non-typical corner", |p| p.corner.speed != CornerSpeed::Typ),
            ("Monte-Carlo instance", |p| p.mc_index > 0),
        ];
        let mut rng = oasys_testutil::Rng::seeded(12);
        let mut chosen: Vec<usize> = Vec::new();
        let mut sample = Vec::new();
        for (requirement, meets) in requirements {
            let case = loop {
                let id = rng.range_u64(0, plan.points.len() as u64) as usize;
                let point = &plan.points[id];
                if chosen.contains(&id) || !meets(point) {
                    continue;
                }
                let spec = crate::specfile::parse(&point.spec_text).unwrap();
                let process = oasys_process::techfile::parse(&point.tech_text).unwrap();
                if let Ok(result) = synthesize(&spec, &process) {
                    chosen.push(id);
                    break Case {
                        label: format!(
                            "{requirement}: point {id} ({}, mc {})",
                            point.tech_label, point.mc_index
                        ),
                        design: result.selected().clone(),
                        process,
                        load_f: spec.load().farads(),
                        mismatch: plan.mismatch_for(point),
                    };
                }
            };
            sample.push(case);
        }
        assert!(
            sample.iter().any(|case| case.mismatch.is_some()),
            "the sample must hold a Monte-Carlo instance"
        );
        sample
    }

    /// Cases A/B/C on the 5 µm kit, then [`manifest_sample`].
    fn differential_cases() -> Vec<Case> {
        let cmos = builtin::cmos_5um();
        let mut cases = Vec::new();
        for (name, spec) in [
            ("case A", test_cases::spec_a()),
            ("case B", test_cases::spec_b()),
            ("case C", test_cases::spec_c()),
        ] {
            cases.push(Case {
                label: name.to_owned(),
                design: synthesize(&spec, &cmos).unwrap().selected().clone(),
                process: cmos.clone(),
                load_f: spec.load().farads(),
                mismatch: None,
            });
        }
        cases.extend(manifest_sample());
        cases
    }

    /// Runs `f` under the case's Monte-Carlo sample, as `verify` would.
    fn in_scope<R>(case: &Case, f: impl FnOnce() -> R) -> R {
        match case.mismatch {
            Some(mismatch) => oasys_sim::mismatch::scoped(mismatch, f),
            None => f(),
        }
    }

    #[test]
    fn warm_sweeps_match_cold_solves() {
        for case in &differential_cases() {
            let (warm, cold) = in_scope(case, || {
                assert_warm_matches_cold(&case.label, &case.design, &case.process, case.load_f)
            });
            eprintln!(
                "{}: swing sweep Newton iterations warm {warm}, cold {cold}",
                case.label
            );
            assert!(
                warm < cold,
                "{}: the warm sweep must save Newton iterations ({warm} vs {cold})",
                case.label
            );
        }
    }

    /// Both slew runs of a design on its [`slew_bench`], built exactly as
    /// [`verify`] builds it: each run stopped at its window must measure
    /// what the full run measures, under `==`, in fewer steps.
    fn assert_stop_matches_full_run(case: &Case) {
        let (bench, out, spec) = slew_bench(&case.design, &case.process, case.load_f).unwrap();
        for (v0, v1) in SLEW_STEPS {
            let (stimuli, window) = slew_run(out, &spec, v0, v1);
            let stop_tel = Telemetry::new();
            let stopped = tran::slew_between(
                &bench,
                &case.process,
                &spec,
                &stimuli,
                &window,
                None,
                &stop_tel,
            )
            .ok()
            .flatten();
            let full_tel = Telemetry::new();
            let full = tran::solve(&bench, &case.process, &spec, &stimuli, &full_tel)
                .ok()
                .and_then(|solution| {
                    solution.slew_between(
                        out,
                        window.v_from,
                        window.v_to,
                        window.frac_a,
                        window.frac_b,
                    )
                });
            let label = format!("{}: VSW {v0} V → {v1} V", case.label);
            assert!(full.is_some(), "{label}: the full run measures no slew");
            assert_eq!(stopped, full, "{label}");
            let (stop_steps, full_steps) = (
                stop_tel.counter("sim.tran.steps"),
                full_tel.counter("sim.tran.steps"),
            );
            eprintln!("{label}: {stop_steps} of {full_steps} steps");
            assert!(
                stop_steps < full_steps,
                "{label}: the stopped run took {stop_steps} of {full_steps} steps"
            );
        }
    }

    #[test]
    fn stopped_slew_runs_match_full_runs() {
        for case in &differential_cases() {
            in_scope(case, || assert_stop_matches_full_run(case));
        }
    }

    /// Both slew runs of a design, their initial points started as
    /// [`verify`] starts them, from the open-loop bench's nulled
    /// operating point: each must measure what the cold start measures,
    /// under `==`, and the two initial solves must take fewer Newton
    /// iterations and never fall back to the cold continuation.
    fn assert_warm_slew_matches_cold(case: &Case) {
        let (mut open_loop, out) =
            open_loop_bench(&case.design, &case.process, case.load_f).unwrap();
        let offset = sweep::bisect_input(
            &open_loop,
            &case.process,
            "VIP",
            out,
            0.0,
            -0.5,
            0.5,
            &Telemetry::disabled(),
        )
        .unwrap();
        open_loop.set_source_dc("VIP", offset).unwrap();
        let nulled = dc::solve(&open_loop, &case.process, &Telemetry::disabled()).unwrap();
        let (bench, out, spec) = slew_bench(&case.design, &case.process, case.load_f).unwrap();
        let mut start = nulled.node_voltages().to_vec();
        start.resize(bench.node_count(), 0.0);
        let (warm_tel, cold_tel) = (Telemetry::new(), Telemetry::new());
        for step in SLEW_STEPS {
            let warm = slew_step(
                &bench,
                &case.process,
                out,
                &spec,
                Some(&start),
                step,
                &warm_tel,
            );
            let cold = slew_step(&bench, &case.process, out, &spec, None, step, &cold_tel);
            let label = format!("{}: VSW {} V → {} V", case.label, step.0, step.1);
            assert!(cold.is_some(), "{label}: no slew measured");
            assert_eq!(warm, cold, "{label}");
        }
        let iterations = |tel: &Telemetry| tel.counter("sim.dc.newton_iterations");
        let (warm, cold) = (iterations(&warm_tel), iterations(&cold_tel));
        eprintln!(
            "{}: initial-point Newton iterations warm {warm}, cold {cold}",
            case.label
        );
        assert!(warm < cold, "{}: warm {warm}, cold {cold}", case.label);
        assert_eq!(warm_tel.counter("sim.dc.solves"), 2, "{}", case.label);
        assert_eq!(
            warm_tel.counter("sim.dc.warm_fallbacks"),
            0,
            "{}",
            case.label
        );
    }

    #[test]
    fn warm_slew_starts_match_cold_ones() {
        for case in &differential_cases() {
            in_scope(case, || assert_warm_slew_matches_cold(case));
        }
    }

    #[test]
    fn case_a_measures_close_to_prediction() {
        let process = builtin::cmos_5um();
        let spec = test_cases::spec_a();
        let result = synthesize(&spec, &process).unwrap();
        let design = result.selected();
        let v = verify(design, &process, spec.load().farads()).unwrap();
        let m = &v.measured;
        let p = design.predicted();

        // Gain within a couple of dB of the square-law prediction.
        assert!(
            (m.dc_gain_db - p.dc_gain_db).abs() < 6.0,
            "predicted {:.1} dB, measured {:.1} dB",
            p.dc_gain_db,
            m.dc_gain_db
        );
        // Unity-gain frequency within 40% (device parasitics shift it).
        let fu = m.unity_gain_hz.expect("gain crosses 0 dB");
        assert!(
            (fu / p.unity_gain_hz - 1.0).abs() < 0.4,
            "predicted {:.3e}, measured {fu:.3e}",
            p.unity_gain_hz
        );
        // Spec satisfaction in simulation.
        assert!(m.dc_gain_db >= spec.dc_gain().db() - 1.0);
        assert!(fu >= spec.unity_gain_freq().hertz() * 0.9);
        let pm = m.phase_margin_deg.expect("phase margin measurable");
        assert!(pm >= 40.0, "measured PM {pm:.1}°");
        assert!(m.power_w > 0.0);
    }

    #[test]
    fn synthesized_designs_pass_erc_clean() {
        // Every style's schematic should come out of synthesis with no
        // electrical-rule findings — floating gates or sub-minimum
        // geometry here would mean a template bug.
        let process = builtin::cmos_5um();
        for spec in [test_cases::spec_a(), test_cases::spec_b()] {
            let result = synthesize(&spec, &process).unwrap();
            for outcome in result.outcomes() {
                let Some(design) = outcome.design() else {
                    continue;
                };
                let erc = oasys_netlist::lint::lint(design.circuit(), Some(&process));
                assert!(
                    erc.is_empty(),
                    "{} ERC findings:\n{}",
                    design.style(),
                    erc.render_human()
                );
            }
            let v = verify(result.selected(), &process, spec.load().farads()).unwrap();
            assert!(v.erc.is_empty(), "{}", v.erc.render_human());
        }
    }

    #[test]
    fn offset_is_nulled_to_millivolts() {
        let process = builtin::cmos_5um();
        let spec = test_cases::spec_a();
        let result = synthesize(&spec, &process).unwrap();
        let v = verify(result.selected(), &process, spec.load().farads()).unwrap();
        let off = v.measured.offset_v.expect("bisection converges");
        assert!(off.abs() < 0.05, "offset {off} V");
    }

    #[test]
    fn cmrr_is_measured_and_substantial() {
        let process = builtin::cmos_5um();
        let spec = test_cases::spec_a();
        let result = synthesize(&spec, &process).unwrap();
        let v = verify(result.selected(), &process, spec.load().farads()).unwrap();
        let cmrr = v.measured.cmrr_db.expect("cmrr measurable");
        assert!(cmrr > 40.0, "CMRR {cmrr:.1} dB");
    }

    #[test]
    fn cascoded_tail_improves_cmrr() {
        // Case C's plan cascodes the tail; its measured CMRR should beat
        // case B's simple-tail first stage.
        let process = builtin::cmos_5um();
        let measure = |spec: &crate::OpAmpSpec| {
            let result = synthesize(spec, &process).unwrap();
            verify(result.selected(), &process, spec.load().farads())
                .unwrap()
                .measured
                .cmrr_db
                .unwrap()
        };
        let b = measure(&test_cases::spec_b());
        let c = measure(&test_cases::spec_c());
        assert!(
            c > b + 10.0,
            "cascoded tail should add CMRR: case B {b:.1} dB, case C {c:.1} dB"
        );
    }

    #[test]
    fn measured_noise_tracks_prediction() {
        let process = builtin::cmos_5um();
        let spec = test_cases::spec_a();
        let result = synthesize(&spec, &process).unwrap();
        let design = result.selected();
        let v = verify(design, &process, spec.load().farads()).unwrap();
        let measured = v.measured.noise_v_rthz.expect("noise measurable");
        let predicted = design.predicted().noise_v_rthz;
        // The hand formula counts only the signal-path devices; the full
        // analysis adds bias branches, so measured ≥ predicted but within 2×.
        assert!(
            measured >= predicted * 0.8 && measured <= predicted * 2.5,
            "predicted {:.1} nV/√Hz, measured {:.1} nV/√Hz",
            predicted * 1e9,
            measured * 1e9
        );
        // Sanity: tens of nV/√Hz for a µA-biased 5 µm input stage.
        assert!(measured > 5e-9 && measured < 500e-9);
    }

    #[test]
    fn noise_spec_forces_larger_gm() {
        // A tight noise ceiling should still synthesize (the lower-vov
        // rule raises gm1) or fail with the noise diagnosis.
        let spec = crate::OpAmpSpec::builder()
            .dc_gain_db(55.0)
            .unity_gain_mhz(0.5)
            .phase_margin_deg(45.0)
            .load_pf(5.0)
            .max_noise_nv_rthz(40.0)
            .build()
            .unwrap();
        let process = builtin::cmos_5um();
        match synthesize(&spec, &process) {
            Ok(result) => {
                assert!(result.selected().predicted().noise_v_rthz <= 40e-9 * 1.01);
            }
            Err(e) => {
                assert!(e.to_string().contains("noise") || !e.rejections().is_empty());
            }
        }
    }

    #[test]
    fn psrr_is_measured_and_positive() {
        let process = builtin::cmos_5um();
        let spec = test_cases::spec_b();
        let result = synthesize(&spec, &process).unwrap();
        let v = verify(result.selected(), &process, spec.load().farads()).unwrap();
        let psrr = v.measured.psrr_db.expect("psrr measurable");
        assert!(psrr > 20.0, "PSRR {psrr:.1} dB");
    }

    #[test]
    fn bode_data_spans_the_sweep() {
        let process = builtin::cmos_5um();
        let spec = test_cases::spec_a();
        let result = synthesize(&spec, &process).unwrap();
        let v = verify(result.selected(), &process, spec.load().farads()).unwrap();
        assert!(v.bode.frequencies().len() > 50);
        // Gain falls with frequency overall.
        let g = v.bode.gain_db();
        assert!(g[0] > *g.last().unwrap());
    }
}
