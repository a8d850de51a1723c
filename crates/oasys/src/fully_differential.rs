//! Fully-differential amplifier synthesis — the last extension the paper
//! names: *"…to include more op amp topologies (e.g., folded cascade and
//! fully differential styles)."*
//!
//! Template: an NMOS differential pair with two PMOS *current-source*
//! loads (no mirror — both drains are outputs), plus the piece every
//! fully-differential amplifier must add: a **common-mode feedback loop**.
//! Two large resistors average the outputs into a sense node; a small 5T
//! OTA (reused from the same sub-block designers) compares that average
//! against ground and drives the PMOS load gates, servoing the output
//! common mode to 0 V. A small capacitor on the loads' gate line
//! stabilizes the loop.
//!
//! Because both outputs are live, this module has its own spec/design/
//! verify types rather than plugging into the single-ended
//! [`crate::OpAmpStyle`] machinery; the differential measurements drive
//! the inputs antiphase and read `v(outp) − v(outn)`.

use crate::spec::SpecError;
use oasys_blocks::area::AreaEstimate;
use oasys_blocks::diffpair::{DiffPair, DiffPairSpec};
use oasys_blocks::mirror::{CurrentMirror, MirrorSpec, MirrorStyle};
use oasys_mos::{sizing, Geometry};
use oasys_netlist::Circuit;
use oasys_plan::{analyze, Plan, PlanExecutor, StepOutcome};
use oasys_process::{Polarity, Process};
use std::fmt;
use std::sync::OnceLock;

/// Load-device overdrive, V.
const VOV_LOAD: f64 = 0.25;
/// Initial pair overdrive, V.
const VOV1_INIT: f64 = 0.20;
/// Longest channel, in multiples of the process minimum.
const MAX_L_FACTOR: f64 = 4.0;
/// Design the gain with this safety factor over the spec.
const GAIN_MARGIN: f64 = 1.3;
/// CMFB loop compensation capacitor, F.
const C_CMFB: f64 = 2e-12;

/// Specification for a fully-differential amplifier.
///
/// # Examples
///
/// ```
/// use oasys::fully_differential::FdSpec;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = FdSpec::builder()
///     .diff_gain_db(45.0)
///     .unity_gain_mhz(1.0)
///     .load_pf_per_side(2.0)
///     .build()?;
/// assert!((spec.diff_gain_linear() - 177.8).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FdSpec {
    gain_db: f64,
    unity_gain_hz: f64,
    load_f: f64,
    /// Largest tolerable output common-mode error, V.
    cm_error_v: f64,
}

impl FdSpec {
    /// Starts a builder.
    #[must_use]
    pub fn builder() -> FdSpecBuilder {
        FdSpecBuilder::default()
    }

    /// Minimum differential DC gain, dB.
    #[must_use]
    pub fn diff_gain_db(&self) -> f64 {
        self.gain_db
    }

    /// Minimum differential DC gain as a linear ratio.
    #[must_use]
    pub fn diff_gain_linear(&self) -> f64 {
        10f64.powf(self.gain_db / 20.0)
    }

    /// Minimum unity-gain frequency, Hz.
    #[must_use]
    pub fn unity_gain_hz(&self) -> f64 {
        self.unity_gain_hz
    }

    /// Per-side load capacitance, F.
    #[must_use]
    pub fn load_f(&self) -> f64 {
        self.load_f
    }

    /// Output common-mode error budget, V.
    #[must_use]
    pub fn cm_error_v(&self) -> f64 {
        self.cm_error_v
    }
}

impl fmt::Display for FdSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "diff gain ≥ {:.1} dB, f_u ≥ {:.2} MHz, {:.1} pF/side, CM error ≤ {:.0} mV",
            self.gain_db,
            self.unity_gain_hz / 1e6,
            self.load_f * 1e12,
            self.cm_error_v * 1e3
        )
    }
}

/// Builder for [`FdSpec`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FdSpecBuilder {
    gain_db: Option<f64>,
    unity_gain_mhz: Option<f64>,
    load_pf: Option<f64>,
    cm_error_mv: Option<f64>,
}

impl FdSpecBuilder {
    /// Minimum differential DC gain, dB. Required.
    #[must_use]
    pub fn diff_gain_db(mut self, db: f64) -> Self {
        self.gain_db = Some(db);
        self
    }

    /// Minimum unity-gain frequency, MHz. Required.
    #[must_use]
    pub fn unity_gain_mhz(mut self, mhz: f64) -> Self {
        self.unity_gain_mhz = Some(mhz);
        self
    }

    /// Per-side load capacitance, pF. Required.
    #[must_use]
    pub fn load_pf_per_side(mut self, pf: f64) -> Self {
        self.load_pf = Some(pf);
        self
    }

    /// Output common-mode error budget, mV (default 100 mV).
    #[must_use]
    pub fn cm_error_mv(mut self, mv: f64) -> Self {
        self.cm_error_mv = Some(mv);
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for missing or non-positive entries.
    pub fn build(self) -> Result<FdSpec, SpecError> {
        let need = |name: &str, v: Option<f64>| {
            v.filter(|x| *x > 0.0 && x.is_finite()).ok_or_else(|| {
                SpecError::new_public(format!(
                    "fully-differential: `{name}` missing or non-positive"
                ))
            })
        };
        Ok(FdSpec {
            gain_db: need("diff_gain_db", self.gain_db)?,
            unity_gain_hz: need("unity_gain_mhz", self.unity_gain_mhz)? * 1e6,
            load_f: need("load_pf_per_side", self.load_pf)? * 1e-12,
            cm_error_v: self.cm_error_mv.unwrap_or(100.0) * 1e-3,
        })
    }
}

/// A designed fully-differential amplifier.
///
/// Ports: `inp`, `inn`, `outp`, `outn`, `vdd`, `vss`.
#[derive(Clone, Debug)]
pub struct FdDesign {
    spec: FdSpec,
    circuit: Circuit,
    predicted_gain: f64,
    predicted_unity_hz: f64,
    area: AreaEstimate,
}

impl FdDesign {
    /// The specification.
    #[must_use]
    pub fn spec(&self) -> &FdSpec {
        &self.spec
    }

    /// The sized schematic.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Predicted differential gain (linear).
    #[must_use]
    pub fn predicted_gain(&self) -> f64 {
        self.predicted_gain
    }

    /// Predicted unity-gain frequency, Hz.
    #[must_use]
    pub fn predicted_unity_hz(&self) -> f64 {
        self.predicted_unity_hz
    }

    /// Estimated layout area.
    #[must_use]
    pub fn area(&self) -> AreaEstimate {
        self.area
    }

    /// Number of MOSFETs.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.circuit.mosfets().count()
    }
}

/// Fully-differential synthesis error.
#[derive(Debug)]
pub struct FdError {
    reason: String,
}

impl fmt::Display for FdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fully-differential synthesis failed: {}", self.reason)
    }
}

impl std::error::Error for FdError {}

struct State {
    spec: FdSpec,
    process: Process,
    vov1: f64,
    gm1: f64,
    i_tail: f64,
    pair_l_um: f64,
    load_l_um: f64,
    /// Common-mode sense resistance, Ω (sized so it takes only a fifth of
    /// the output-conductance budget; a production design would use
    /// switched-capacitor CMFB to avoid the resistors entirely).
    r_sense: f64,
    pair: Option<DiffPair>,
    load_geom: Option<Geometry>,
    tail: Option<CurrentMirror>,
    cmfb_pair: Option<DiffPair>,
    cmfb_load: Option<CurrentMirror>,
    cmfb_tail: Option<CurrentMirror>,
    r_bias: f64,
    r_bias_cmfb: f64,
    predicted_gain: f64,
}

impl State {
    fn new(spec: &FdSpec, process: &Process) -> Self {
        Self {
            spec: *spec,
            process: process.clone(),
            vov1: VOV1_INIT,
            gm1: 0.0,
            i_tail: 0.0,
            pair_l_um: 0.0,
            load_l_um: 0.0,
            r_sense: 0.0,
            pair: None,
            load_geom: None,
            tail: None,
            cmfb_pair: None,
            cmfb_load: None,
            cmfb_tail: None,
            r_bias: 0.0,
            r_bias_cmfb: 0.0,
            predicted_gain: 0.0,
        }
    }

    fn cmfb_current(&self) -> f64 {
        (self.i_tail / 4.0).max(2e-6)
    }
}

fn build_plan() -> Plan<State> {
    Plan::<State>::builder("fully differential")
        .inputs(["spec", "process", "vov1"])
        .step("size-input", |s: &mut State, _| {
            let gm_min = 2.0 * std::f64::consts::PI * s.spec.unity_gain_hz() * s.spec.load_f();
            s.i_tail = (gm_min * s.vov1).max(2e-6);
            s.gm1 = s.i_tail / s.vov1;
            StepOutcome::Done
        })
        .reads(["spec", "vov1"])
        .writes(["i_tail", "gm1"])
        .emits([])
        .step("gain-budget", |s: &mut State, _| {
            // The output conductance budget covers three loads per side:
            // the pair device, the current-source load, and the CM sense
            // resistor (which sees a virtual ground differentially). Give
            // the resistor a fifth and split the rest evenly.
            let gout_allowed = s.gm1 / (GAIN_MARGIN * s.spec.diff_gain_linear());
            s.r_sense = 5.0 / gout_allowed;
            let budget = 0.4 * gout_allowed;
            let l_min = s.process.min_length().micrometers();
            let id = s.i_tail / 2.0;
            s.pair_l_um = (s.process.nmos().lambda_l() * id / budget).max(l_min);
            s.load_l_um = (s.process.pmos().lambda_l() * id / budget).max(l_min);
            if s.pair_l_um > MAX_L_FACTOR * l_min || s.load_l_um > MAX_L_FACTOR * l_min {
                return StepOutcome::failed(
                    "gain-short",
                    format!(
                        "needs L = {:.1}/{:.1} µm for {:.1} dB",
                        s.pair_l_um,
                        s.load_l_um,
                        s.spec.diff_gain_db()
                    ),
                );
            }
            StepOutcome::Done
        })
        .reads(["spec", "process", "gm1", "i_tail"])
        .writes(["r_sense", "pair_l_um", "load_l_um"])
        .emits(["gain-short"])
        .step("design-pair", |s: &mut State, _| {
            let spec =
                DiffPairSpec::new(Polarity::Nmos, s.gm1, s.i_tail).with_length_um(s.pair_l_um);
            match DiffPair::design(&spec, &s.process) {
                Ok(p) => {
                    s.pair = Some(p);
                    StepOutcome::Done
                }
                Err(e) => StepOutcome::failed("block-design", e.to_string()),
            }
        })
        .reads(["process", "gm1", "i_tail", "pair_l_um"])
        .writes(["pair"])
        .emits(["block-design"])
        .step("design-loads", |s: &mut State, _| {
            // Plain PMOS current sources sized for half the tail each.
            let p = s.process.pmos();
            let wl = sizing::w_over_l_from_id_vov(s.i_tail / 2.0, VOV_LOAD, p.kprime());
            let w =
                ((wl * s.load_l_um).max(s.process.min_width().micrometers()) / 0.5).ceil() * 0.5;
            match Geometry::new_um(w, s.load_l_um) {
                Ok(g) => {
                    s.load_geom = Some(g);
                    StepOutcome::Done
                }
                Err(e) => StepOutcome::failed("block-design", e.to_string()),
            }
        })
        .reads(["process", "i_tail", "load_l_um"])
        .writes(["load_geom"])
        .emits(["block-design"])
        .step("design-tail", |s: &mut State, _| {
            let spec = MirrorSpec::new(Polarity::Nmos, s.i_tail)
                .with_headroom(1.5)
                .with_only_style(MirrorStyle::Simple);
            match CurrentMirror::design(&spec, &s.process) {
                Ok(m) => {
                    let span = s.process.supply_span().volts();
                    s.r_bias = (span - m.input_voltage()).max(0.5) / m.spec().input_current();
                    s.tail = Some(m);
                    StepOutcome::Done
                }
                Err(e) => StepOutcome::failed("block-design", e.to_string()),
            }
        })
        .reads(["process", "i_tail"])
        .writes(["r_bias", "tail"])
        .emits(["block-design"])
        .step("design-cmfb", |s: &mut State, _| {
            // A small 5T OTA: enough gain to hold the CM error inside the
            // budget (error ≈ required gate offset / loop gain).
            let i = s.cmfb_current();
            let gm = i / 0.25;
            let pair = DiffPairSpec::new(Polarity::Nmos, gm, i);
            let load = MirrorSpec::new(Polarity::Pmos, i / 2.0)
                .with_headroom(2.0)
                .with_only_style(MirrorStyle::Simple);
            let tail = MirrorSpec::new(Polarity::Nmos, i)
                .with_headroom(1.5)
                .with_only_style(MirrorStyle::Simple);
            let (p, l, t) = match (
                DiffPair::design(&pair, &s.process),
                CurrentMirror::design(&load, &s.process),
                CurrentMirror::design(&tail, &s.process),
            ) {
                (Ok(p), Ok(l), Ok(t)) => (p, l, t),
                (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
                    return StepOutcome::failed("block-design", e.to_string())
                }
            };
            let span = s.process.supply_span().volts();
            s.r_bias_cmfb = (span - t.input_voltage()).max(0.5) / t.spec().input_current();
            s.cmfb_pair = Some(p);
            s.cmfb_load = Some(l);
            s.cmfb_tail = Some(t);
            StepOutcome::Done
        })
        .reads(["process", "i_tail"])
        .writes(["r_bias_cmfb", "cmfb_pair", "cmfb_load", "cmfb_tail"])
        .emits(["block-design"])
        .step("predict", |s: &mut State, _| {
            let pair = s.pair.as_ref().expect("pair designed");
            let id = s.i_tail / 2.0;
            let gds_load = s.process.pmos().lambda(s.load_l_um) * id;
            s.predicted_gain = s.gm1 / (pair.gds() + gds_load + 1.0 / s.r_sense);
            if s.predicted_gain < s.spec.diff_gain_linear() {
                return StepOutcome::failed(
                    "gain-short",
                    format!("predicted gain {:.0}", s.predicted_gain),
                );
            }
            StepOutcome::Done
        })
        .reads([
            "spec",
            "process",
            "gm1",
            "i_tail",
            "load_l_um",
            "r_sense",
            "pair",
        ])
        .writes(["predicted_gain"])
        .emits(["gain-short"])
        .rule("lower-pair-overdrive", ["gain-short"])
        .when(|s: &State| s.vov1 > 0.08)
        .patch(|s: &mut State, _| {
            s.vov1 /= 1.5;
            Ok(())
        })
        .reads(["vov1"])
        .writes(["vov1"])
        .restarts_from("size-input")
        .rule("give-up", ["gain-short", "block-design"])
        .writes([])
        .aborts("fully-differential style infeasible")
        .build()
}

/// The fully-differential plan, built once per process.
fn plan() -> &'static Plan<State> {
    static PLAN: OnceLock<Plan<State>> = OnceLock::new();
    PLAN.get_or_init(build_plan)
}

/// Runs the static plan analyzer over the fully-differential
/// amplifier's stored plan, which declares its dataflow like the op-amp
/// plans (see [`crate::analyze_plan`]). A non-empty report is a
/// knowledge-base bug.
#[must_use]
pub fn analyze_plan() -> oasys_lint::Report {
    analyze(plan())
}

/// Synthesizes a fully-differential amplifier.
///
/// # Errors
///
/// Returns [`FdError`] when the single-stage template cannot reach the
/// gain, or a sub-block designer rejects its translated spec.
pub fn design_fully_differential(spec: &FdSpec, process: &Process) -> Result<FdDesign, FdError> {
    let mut state = State::new(spec, process);
    PlanExecutor::new()
        .run(plan(), &mut state)
        .map_err(|e| FdError {
            reason: e.to_string(),
        })?;
    let circuit = emit(&state).map_err(|e| FdError {
        reason: format!("netlist assembly failed: {e}"),
    })?;
    circuit.validate().map_err(|e| FdError {
        reason: format!("netlist validation failed: {e}"),
    })?;

    let pair = state.pair.as_ref().expect("plan completed");
    let tail = state.tail.as_ref().expect("plan completed");
    let load = state.load_geom.expect("plan completed");
    let cmfb_area = state.cmfb_pair.as_ref().expect("plan completed").area()
        + state.cmfb_load.as_ref().expect("plan completed").area()
        + state.cmfb_tail.as_ref().expect("plan completed").area();
    let w_min = process.min_width().micrometers();
    let r_total = state.r_bias + state.r_bias_cmfb + 2.0 * state.r_sense;
    let area = pair.area()
        + tail.area()
        + AreaEstimate::for_device(&load, process) * 2.0
        + cmfb_area
        + AreaEstimate::for_capacitor(C_CMFB, process)
        + AreaEstimate::from_um2(r_total / 10_000.0 * w_min * w_min, 0.0);

    let gm1 = state.gm1;
    Ok(FdDesign {
        spec: *spec,
        circuit,
        predicted_gain: state.predicted_gain,
        predicted_unity_hz: gm1 / (2.0 * std::f64::consts::PI * spec.load_f()),
        area,
    })
}

/// Assembles the amplifier plus its CMFB loop.
fn emit(state: &State) -> Result<Circuit, oasys_netlist::ValidateError> {
    let pair = state.pair.as_ref().expect("plan completed");
    let tail = state.tail.as_ref().expect("plan completed");
    let load = state.load_geom.expect("plan completed");
    let cmfb_pair = state.cmfb_pair.as_ref().expect("plan completed");
    let cmfb_load = state.cmfb_load.as_ref().expect("plan completed");
    let cmfb_tail = state.cmfb_tail.as_ref().expect("plan completed");

    let mut c = Circuit::new("fully-differential amplifier");
    let vdd = c.node("vdd");
    let vss = c.node("vss");
    let inp = c.node("inp");
    let inn = c.node("inn");
    let outp = c.node("outp");
    let outn = c.node("outn");
    let tail_node = c.node("tail");
    let nbias = c.node("nbias");
    let pbias = c.node("pbias");
    let vcm = c.node("vcm_sense");
    let gnd = c.ground();
    for (label, node) in [
        ("inp", inp),
        ("inn", inn),
        ("outp", outp),
        ("outn", outn),
        ("vdd", vdd),
        ("vss", vss),
    ] {
        c.mark_port(label, node);
    }

    // Main pair: M1 (gate inp) drains to outn, M2 to outp.
    pair.emit(&mut c, "DP_", inp, inn, outp, outn, tail_node, vss)?;
    // PMOS current-source loads, gates servoed by the CMFB loop.
    c.add_mosfet("LD_M3", Polarity::Pmos, load, outn, pbias, vdd, vdd)?;
    c.add_mosfet("LD_M4", Polarity::Pmos, load, outp, pbias, vdd, vdd)?;
    // Tail mirror and bias.
    tail.emit(&mut c, "TL_", nbias, tail_node, vss, None)?;
    c.add_resistor("RBIAS", vdd, nbias, state.r_bias)?;

    // Common-mode sense and the CMFB error amplifier.
    c.add_resistor("RCM1", outp, vcm, state.r_sense)?;
    c.add_resistor("RCM2", outn, vcm, state.r_sense)?;
    let cm_tail = c.node("cmfb_tail");
    let cm_d1 = c.node("cmfb_d1");
    let cm_nbias = c.node("cmfb_nbias");
    // Error amp output IS the load gate line: inputs (vcm_sense, gnd).
    cmfb_pair.emit(&mut c, "CM_DP_", vcm, gnd, pbias, cm_d1, cm_tail, vss)?;
    cmfb_load.emit(&mut c, "CM_LD_", cm_d1, pbias, vdd, None)?;
    cmfb_tail.emit(&mut c, "CM_TL_", cm_nbias, cm_tail, vss, None)?;
    c.add_resistor("RBIAS_CM", vdd, cm_nbias, state.r_bias_cmfb)?;
    // Loop compensation.
    c.add_capacitor("CCMFB", pbias, gnd, C_CMFB)?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_netlist::SourceValue;
    use oasys_process::builtin;
    use oasys_sim::ac::{AcSolution, AcSweepSpec, AcSystem};
    use oasys_sim::dc;
    use oasys_telemetry::Telemetry;

    /// The DC point of `c`, then the AC sweep over `spec`.
    fn ac_sweep(c: &Circuit, process: &Process, spec: &AcSweepSpec) -> AcSolution {
        let tel = Telemetry::disabled();
        let op = dc::solve(c, process, &tel).unwrap();
        AcSystem::new(c, process, &op).sweep(spec, &tel).unwrap()
    }

    fn spec() -> FdSpec {
        FdSpec::builder()
            .diff_gain_db(45.0)
            .unity_gain_mhz(1.0)
            .load_pf_per_side(2.0)
            .build()
            .unwrap()
    }

    fn bench(
        design: &FdDesign,
        antiphase: bool,
    ) -> (Circuit, oasys_netlist::NodeId, oasys_netlist::NodeId) {
        let mut c = design.circuit().clone();
        let inp = c.port("inp").unwrap();
        let inn = c.port("inn").unwrap();
        let outp = c.port("outp").unwrap();
        let outn = c.port("outn").unwrap();
        let vdd = c.port("vdd").unwrap();
        let vss = c.port("vss").unwrap();
        let gnd = c.ground();
        c.add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
            .unwrap();
        c.add_vsource("VSS", vss, gnd, SourceValue::dc(-5.0))
            .unwrap();
        let (acp, acn) = if antiphase { (0.5, -0.5) } else { (0.5, 0.5) };
        c.add_vsource("VIP", inp, gnd, SourceValue::new(0.0, acp))
            .unwrap();
        c.add_vsource("VIN", inn, gnd, SourceValue::new(0.0, acn))
            .unwrap();
        c.add_capacitor("CLP", outp, gnd, 2e-12).unwrap();
        c.add_capacitor("CLN", outn, gnd, 2e-12).unwrap();
        (c, outp, outn)
    }

    #[test]
    fn designs_and_has_cmfb_loop() {
        let d = design_fully_differential(&spec(), &builtin::cmos_5um()).unwrap();
        assert!(d.predicted_gain() >= 177.0);
        // Main amp 2+2+2, CMFB OTA 6, sense Rs and cap.
        assert!(d.device_count() >= 12, "{} devices", d.device_count());
        assert!(d.circuit().element("RCM1").is_some());
        assert!(d.circuit().element("CCMFB").is_some());
        d.circuit().validate().unwrap();
    }

    #[test]
    fn cmfb_servoes_output_common_mode() {
        let process = builtin::cmos_5um();
        let d = design_fully_differential(&spec(), &process).unwrap();
        let (c, outp, outn) = bench(&d, true);
        let sol = dc::solve(&c, &process, &Telemetry::disabled()).unwrap();
        let cm = 0.5 * (sol.voltage(outp) + sol.voltage(outn));
        assert!(
            cm.abs() <= d.spec().cm_error_v(),
            "output CM {cm:.3} V exceeds the {:.0} mV budget",
            d.spec().cm_error_v() * 1e3
        );
        // And the outputs are balanced.
        assert!((sol.voltage(outp) - sol.voltage(outn)).abs() < 0.1);
    }

    #[test]
    fn differential_gain_meets_spec_in_simulation() {
        let process = builtin::cmos_5um();
        let d = design_fully_differential(&spec(), &process).unwrap();
        let (c, outp, outn) = bench(&d, true);
        let sweep = AcSweepSpec::new(10.0, 1e8, 5).unwrap();
        let acs = ac_sweep(&c, &process, &sweep);
        let hd = acs.value(0, outp) - acs.value(0, outn);
        let gain_db = 20.0 * hd.abs().log10();
        assert!(
            gain_db >= 45.0 - 1.0,
            "differential gain {gain_db:.1} dB (predicted {:.1})",
            20.0 * d.predicted_gain().log10()
        );
        // Unity crossing near gm/2πC.
        let f = acs.frequencies();
        let crossing = f
            .iter()
            .enumerate()
            .find(|&(k, _)| (acs.value(k, outp) - acs.value(k, outn)).abs() < 1.0)
            .map(|(_, &f)| f)
            .expect("crosses unity inside the sweep");
        assert!(
            crossing >= 0.5e6,
            "unity at {crossing:.3e} Hz, spec 1 MHz (with parasitics)"
        );
    }

    #[test]
    fn common_mode_gain_is_suppressed() {
        let process = builtin::cmos_5um();
        let d = design_fully_differential(&spec(), &process).unwrap();
        // Common-mode excitation: both inputs together.
        let (c, outp, outn) = bench(&d, false);
        let sweep = AcSweepSpec::new(10.0, 100.0, 1).unwrap();
        let acs = ac_sweep(&c, &process, &sweep);
        // The differential response to a CM stimulus is ideally zero.
        let h_dm_from_cm = (acs.value(0, outp) - acs.value(0, outn)).abs();
        assert!(h_dm_from_cm < 0.2, "CM→DM conversion {h_dm_from_cm:.3}");
        // The CM response itself is crushed by the feedback loop.
        let h_cm = 0.5 * (acs.value(0, outp) + acs.value(0, outn)).abs();
        assert!(h_cm < 3.0, "CM gain {h_cm:.2}");
    }

    #[test]
    fn impossible_gain_fails() {
        let spec = FdSpec::builder()
            .diff_gain_db(90.0)
            .unity_gain_mhz(1.0)
            .load_pf_per_side(2.0)
            .build()
            .unwrap();
        assert!(design_fully_differential(&spec, &builtin::cmos_5um()).is_err());
    }

    #[test]
    fn builder_validates() {
        assert!(FdSpec::builder().build().is_err());
        let s = spec();
        assert!(s.to_string().contains("45.0 dB"));
    }
}
