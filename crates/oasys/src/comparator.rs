//! Comparator synthesis — the paper's second named extension: *"…and
//! more sub-block types (e.g., comparators)"*.
//!
//! The template is a cascade of identical 5T OTA gain stages (reusing the
//! same differential-pair and current-mirror designers as the op-amp
//! styles — the paper's reuse argument made concrete) plus one *replica*
//! stage with grounded inputs whose output provides the reference level
//! for every later stage's inverting input. The result is an open-loop
//! amplifier whose total gain turns an input overdrive of one resolution
//! step into a rail-to-rail decision.
//!
//! The plan translates `(resolution, decision time, load)` into a stage
//! count and per-stage currents:
//!
//! * total gain `A ≥ span / resolution`, split as `A₁ᴺ` over identical
//!   stages (per-stage gain capped where the square law is comfortable);
//! * per-stage current from the decision-time budget: each stage must
//!   slew its internal node plus the next stage's input capacitance —
//!   and the last stage the load — within `t_max / N`.

use crate::spec::SpecError;
use oasys_blocks::area::AreaEstimate;
use oasys_blocks::diffpair::{DiffPair, DiffPairSpec};
use oasys_blocks::mirror::{CurrentMirror, MirrorSpec, MirrorStyle};
use oasys_netlist::Circuit;
use oasys_plan::{Plan, PlanExecutor, StepOutcome};
use oasys_process::{Polarity, Process};
use std::fmt;
use std::sync::OnceLock;

/// Most cascaded stages the designer will use (regeneration and offset
/// accumulation make longer chains useless).
const MAX_STAGES: usize = 5;
/// Per-stage voltage-gain target (comfortably below the intrinsic limit).
const STAGE_GAIN: f64 = 30.0;
/// Pair overdrive, V.
const VOV1: f64 = 0.20;

/// Specification for a comparator.
///
/// # Examples
///
/// ```
/// use oasys::comparator::ComparatorSpec;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = ComparatorSpec::builder()
///     .resolution_mv(5.0)
///     .decision_time_us(1.0)
///     .load_pf(1.0)
///     .build()?;
/// assert_eq!(spec.resolution_v(), 5e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ComparatorSpec {
    /// Smallest input overdrive that must produce a full decision, V.
    resolution_v: f64,
    /// Decision-time budget, s.
    decision_s: f64,
    /// Load capacitance at the output, F.
    load_f: f64,
}

impl ComparatorSpec {
    /// Starts a builder.
    #[must_use]
    pub fn builder() -> ComparatorSpecBuilder {
        ComparatorSpecBuilder::default()
    }

    /// The input resolution, V.
    #[must_use]
    pub fn resolution_v(&self) -> f64 {
        self.resolution_v
    }

    /// The decision-time budget, s.
    #[must_use]
    pub fn decision_s(&self) -> f64 {
        self.decision_s
    }

    /// The output load, F.
    #[must_use]
    pub fn load_f(&self) -> f64 {
        self.load_f
    }
}

impl fmt::Display for ComparatorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resolve {:.1} mV within {:.2} µs into {:.1} pF",
            self.resolution_v * 1e3,
            self.decision_s * 1e6,
            self.load_f * 1e12
        )
    }
}

/// Builder for [`ComparatorSpec`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ComparatorSpecBuilder {
    resolution_mv: Option<f64>,
    decision_us: Option<f64>,
    load_pf: Option<f64>,
}

impl ComparatorSpecBuilder {
    /// Input resolution, millivolts. Required.
    #[must_use]
    pub fn resolution_mv(mut self, mv: f64) -> Self {
        self.resolution_mv = Some(mv);
        self
    }

    /// Decision-time budget, microseconds. Required.
    #[must_use]
    pub fn decision_time_us(mut self, us: f64) -> Self {
        self.decision_us = Some(us);
        self
    }

    /// Output load, picofarads. Required.
    #[must_use]
    pub fn load_pf(mut self, pf: f64) -> Self {
        self.load_pf = Some(pf);
        self
    }

    /// Validates and builds the spec.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for missing or non-positive entries.
    pub fn build(self) -> Result<ComparatorSpec, SpecError> {
        let need = |name: &str, v: Option<f64>| {
            v.filter(|x| *x > 0.0 && x.is_finite()).ok_or_else(|| {
                SpecError::new_public(format!("comparator: `{name}` missing or non-positive"))
            })
        };
        Ok(ComparatorSpec {
            resolution_v: need("resolution_mv", self.resolution_mv)? * 1e-3,
            decision_s: need("decision_time_us", self.decision_us)? * 1e-6,
            load_f: need("load_pf", self.load_pf)? * 1e-12,
        })
    }
}

/// A designed comparator.
#[derive(Clone, Debug)]
pub struct ComparatorDesign {
    spec: ComparatorSpec,
    circuit: Circuit,
    stages: usize,
    predicted_gain: f64,
    predicted_decision_s: f64,
    area: AreaEstimate,
}

impl ComparatorDesign {
    /// The specification this comparator was designed to.
    #[must_use]
    pub fn spec(&self) -> &ComparatorSpec {
        &self.spec
    }

    /// The sized schematic. Ports: `inp`, `inn`, `out`, `vdd`, `vss`.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of cascaded gain stages (excluding the replica).
    #[must_use]
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Predicted open-loop gain (linear).
    #[must_use]
    pub fn predicted_gain(&self) -> f64 {
        self.predicted_gain
    }

    /// Predicted worst-case decision time, s.
    #[must_use]
    pub fn predicted_decision_s(&self) -> f64 {
        self.predicted_decision_s
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

struct State {
    spec: ComparatorSpec,
    process: Process,
    speed_boost: f64,
    stages: usize,
    i_tail: f64,
    gm1: f64,
    pair: Option<DiffPair>,
    load: Option<CurrentMirror>,
    tail: Option<CurrentMirror>,
    r_bias: f64,
    stage_cap: f64,
    predicted_gain: f64,
    predicted_decision_s: f64,
}

impl State {
    fn new(spec: &ComparatorSpec, process: &Process) -> Self {
        Self {
            spec: *spec,
            process: process.clone(),
            speed_boost: 1.0,
            stages: 0,
            i_tail: 0.0,
            gm1: 0.0,
            pair: None,
            load: None,
            tail: None,
            r_bias: 0.0,
            stage_cap: 0.0,
            predicted_gain: 0.0,
            predicted_decision_s: 0.0,
        }
    }
}

/// Comparator synthesis error.
#[derive(Debug)]
pub struct ComparatorError {
    reason: String,
}

impl fmt::Display for ComparatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "comparator synthesis failed: {}", self.reason)
    }
}

impl std::error::Error for ComparatorError {}

fn build_plan() -> Plan<State> {
    Plan::<State>::builder("comparator")
        .step("stage-count", |s: &mut State, _| {
            let span = s.process.supply_span().volts();
            let a_req = span / s.spec.resolution_v();
            let stages = (a_req.ln() / STAGE_GAIN.ln()).ceil() as usize;
            s.stages = stages.max(1);
            if s.stages > MAX_STAGES {
                return StepOutcome::failed(
                    "too-many-stages",
                    format!(
                        "resolving {:.1} mV needs gain {a_req:.0} = {} stages",
                        s.spec.resolution_v() * 1e3,
                        s.stages
                    ),
                );
            }
            StepOutcome::Done
        })
        .step("stage-current", |s: &mut State, _| {
            // Each stage must slew roughly half the supply span within its
            // share of the decision budget, into the next stage's input
            // plus its own junctions — estimated, then refined below.
            let span = s.process.supply_span().volts();
            let t_stage = s.spec.decision_s() / (s.stages as f64 + 1.0);
            let c_est = (s.stage_cap).max(s.spec.load_f().max(0.2e-12));
            s.i_tail = (c_est * 0.5 * span / t_stage * s.speed_boost).max(1e-6);
            s.gm1 = s.i_tail / VOV1;
            StepOutcome::Done
        })
        .step("design-stage", |s: &mut State, _| {
            let pair_spec = DiffPairSpec::new(Polarity::Nmos, s.gm1, s.i_tail);
            let pair = match DiffPair::design(&pair_spec, &s.process) {
                Ok(p) => p,
                Err(e) => return StepOutcome::failed("stage-design", e.to_string()),
            };
            let load_spec = MirrorSpec::new(Polarity::Pmos, s.i_tail / 2.0)
                .with_headroom(2.0)
                .with_only_style(MirrorStyle::Simple);
            let load = match CurrentMirror::design(&load_spec, &s.process) {
                Ok(m) => m,
                Err(e) => return StepOutcome::failed("stage-design", e.to_string()),
            };
            let tail_spec = MirrorSpec::new(Polarity::Nmos, s.i_tail)
                .with_headroom(1.5)
                .with_only_style(MirrorStyle::Simple);
            let tail = match CurrentMirror::design(&tail_spec, &s.process) {
                Ok(m) => m,
                Err(e) => return StepOutcome::failed("stage-design", e.to_string()),
            };
            let span = s.process.supply_span().volts();
            s.r_bias = (span - tail.input_voltage()).max(0.5) / tail.spec().input_current();
            s.pair = Some(pair);
            s.load = Some(load);
            s.tail = Some(tail);
            StepOutcome::Done
        })
        .step("check-speed", |s: &mut State, _| {
            // Refine the per-stage capacitance from the designed devices
            // and verify the ramp model against the budget.
            let pair = s.pair.as_ref().expect("stage designed");
            let load = s.load.as_ref().expect("stage designed");
            let gate_cap = {
                let m = oasys_mos::Mosfet::new(Polarity::Nmos, pair.geometry(), &s.process);
                let vgs = s.process.nmos().vth().volts() + pair.vov();
                let op = m.operating_point(vgs, 2.0, 0.0);
                m.capacitances(&op).gate_total().farads()
            };
            let drain_cap = {
                let m = oasys_mos::Mosfet::new(Polarity::Pmos, load.unit_geometry(), &s.process);
                let vsg = load.vgs();
                let op = m.operating_point(-vsg, -2.0, 0.0);
                m.capacitances(&op).drain_total().farads()
            };
            s.stage_cap = gate_cap + drain_cap;
            let span = s.process.supply_span().volts();
            let t_internal = (s.stages as f64 - 1.0).max(0.0) * s.stage_cap * 0.5 * span / s.i_tail;
            let t_output = (s.spec.load_f() + drain_cap) * 0.5 * span / s.i_tail;
            s.predicted_decision_s = t_internal + t_output;
            if s.predicted_decision_s > s.spec.decision_s() {
                return StepOutcome::failed(
                    "too-slow",
                    format!(
                        "predicted decision {:.2} µs over the {:.2} µs budget",
                        s.predicted_decision_s * 1e6,
                        s.spec.decision_s() * 1e6
                    ),
                );
            }
            StepOutcome::Done
        })
        .step("predict", |s: &mut State, _| {
            let pair = s.pair.as_ref().expect("stage designed");
            let load = s.load.as_ref().expect("stage designed");
            let a1 = s.gm1 / (pair.gds() + 1.0 / load.rout());
            s.predicted_gain = a1.powi(s.stages as i32);
            StepOutcome::Done
        })
        .rule("speed-up", ["too-slow"])
        .when(|s: &State| s.speed_boost < 16.0)
        .patch(|s: &mut State, _| {
            s.speed_boost *= 1.6;
            Ok(())
        })
        .restarts_from("stage-current")
        .rule("give-up", ["too-many-stages", "stage-design", "too-slow"])
        .aborts("comparator infeasible")
        .build()
}

/// Synthesizes a comparator for `spec` on `process`.
///
/// # Errors
///
/// Returns [`ComparatorError`] when no stage count/current combination
/// fits the budget.
pub fn design_comparator(
    spec: &ComparatorSpec,
    process: &Process,
) -> Result<ComparatorDesign, ComparatorError> {
    static PLAN: OnceLock<Plan<State>> = OnceLock::new();
    let mut state = State::new(spec, process);
    PlanExecutor::new()
        .run(PLAN.get_or_init(build_plan), &mut state)
        .map_err(|e| ComparatorError {
            reason: e.to_string(),
        })?;
    let circuit = emit(&state).map_err(|e| ComparatorError {
        reason: format!("netlist assembly failed: {e}"),
    })?;
    circuit.validate().map_err(|e| ComparatorError {
        reason: format!("netlist validation failed: {e}"),
    })?;

    let pair = state.pair.as_ref().expect("plan completed");
    let load = state.load.as_ref().expect("plan completed");
    let tail = state.tail.as_ref().expect("plan completed");
    let per_stage = pair.area() + load.area() + tail.area();
    let w_min = process.min_width().micrometers();
    let area = per_stage * (state.stages as f64 + 1.0)
        + AreaEstimate::from_um2(state.r_bias / 10_000.0 * w_min * w_min, 0.0);

    Ok(ComparatorDesign {
        spec: *spec,
        circuit,
        stages: state.stages,
        predicted_gain: state.predicted_gain,
        predicted_decision_s: state.predicted_decision_s,
        area,
    })
}

/// Assembles the cascade: N gain stages plus the replica reference stage,
/// all sharing one bias branch.
fn emit(state: &State) -> Result<Circuit, oasys_netlist::ValidateError> {
    let pair = state.pair.as_ref().expect("plan completed");
    let load = state.load.as_ref().expect("plan completed");
    let tail = state.tail.as_ref().expect("plan completed");

    let mut c = Circuit::new("comparator");
    let vdd = c.node("vdd");
    let vss = c.node("vss");
    let inp = c.node("inp");
    let inn = c.node("inn");
    let out = c.node("out");
    let nbias = c.node("nbias");
    for (label, node) in [
        ("inp", inp),
        ("inn", inn),
        ("out", out),
        ("vdd", vdd),
        ("vss", vss),
    ] {
        c.mark_port(label, node);
    }
    c.add_resistor("RBIAS", vdd, nbias, state.r_bias)?;

    // Replica stage: both inputs grounded; its output is the reference
    // level every post-first stage compares against.
    let vref = c.node("vref");
    let gnd = c.ground();
    emit_stage(
        &mut c, "REP", pair, load, tail, gnd, gnd, vref, nbias, vss, vdd,
    )?;

    let mut stage_in = inp;
    let mut stage_ref = inn;
    for k in 0..state.stages {
        let stage_out = if k + 1 == state.stages {
            out
        } else {
            c.node(format!("s{k}_out"))
        };
        emit_stage(
            &mut c,
            &format!("S{k}"),
            pair,
            load,
            tail,
            stage_in,
            stage_ref,
            stage_out,
            nbias,
            vss,
            vdd,
        )?;
        stage_in = stage_out;
        stage_ref = vref;
    }
    Ok(c)
}

/// One 5T OTA stage with its tail device mirrored from the shared bias.
#[allow(clippy::too_many_arguments)]
fn emit_stage(
    c: &mut Circuit,
    prefix: &str,
    pair: &DiffPair,
    load: &CurrentMirror,
    tail: &CurrentMirror,
    inp: oasys_netlist::NodeId,
    inn: oasys_netlist::NodeId,
    out: oasys_netlist::NodeId,
    nbias: oasys_netlist::NodeId,
    vss: oasys_netlist::NodeId,
    vdd: oasys_netlist::NodeId,
) -> Result<(), oasys_netlist::ValidateError> {
    let tail_node = c.node(format!("{prefix}_tail"));
    let d1 = c.node(format!("{prefix}_d1"));
    pair.emit(
        c,
        &format!("{prefix}_DP_"),
        inp,
        inn,
        out,
        d1,
        tail_node,
        vss,
    )?;
    load.emit(c, &format!("{prefix}_LD_"), d1, out, vdd, None)?;
    // Tail device only (gate on the shared bias); the diode lives in the
    // replica's position once — emit the full mirror only for the replica.
    if prefix == "REP" {
        tail.emit(c, &format!("{prefix}_TL_"), nbias, tail_node, vss, None)?;
    } else {
        c.add_mosfet(
            format!("{prefix}_TL_MOUT"),
            Polarity::Nmos,
            tail.unit_geometry(),
            tail_node,
            nbias,
            vss,
            vss,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_netlist::SourceValue;
    use oasys_process::builtin;
    use oasys_sim::tran::{self, Stimuli, TranSpec};

    fn spec() -> ComparatorSpec {
        ComparatorSpec::builder()
            .resolution_mv(5.0)
            .decision_time_us(2.0)
            .load_pf(1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn designs_a_multi_stage_cascade() {
        let d = design_comparator(&spec(), &builtin::cmos_5um()).unwrap();
        // 10 V / 5 mV = 2000 → ln(2000)/ln(30) ≈ 2.2 → 3 stages.
        assert_eq!(d.stages(), 3);
        assert!(d.predicted_gain() >= 2000.0);
        assert!(d.predicted_decision_s() <= 2e-6);
        // 3 stages + replica, 5 devices each + shared bias diode.
        assert!(d.device_count() >= 20, "{} devices", d.device_count());
        d.circuit().validate().unwrap();
    }

    #[test]
    fn finer_resolution_needs_more_stages() {
        let coarse = ComparatorSpec::builder()
            .resolution_mv(50.0)
            .decision_time_us(2.0)
            .load_pf(1.0)
            .build()
            .unwrap();
        let fine = ComparatorSpec::builder()
            .resolution_mv(0.5)
            .decision_time_us(2.0)
            .load_pf(1.0)
            .build()
            .unwrap();
        let p = builtin::cmos_5um();
        let a = design_comparator(&coarse, &p).unwrap();
        let b = design_comparator(&fine, &p).unwrap();
        assert!(b.stages() > a.stages());
    }

    #[test]
    fn absurd_resolution_is_infeasible() {
        let spec = ComparatorSpec::builder()
            .resolution_mv(1e-4)
            .decision_time_us(2.0)
            .load_pf(1.0)
            .build()
            .unwrap();
        assert!(design_comparator(&spec, &builtin::cmos_5um()).is_err());
    }

    /// The headline behaviour: a resolution-sized step flips the output
    /// within the decision budget, in transient simulation.
    #[test]
    fn decides_within_budget_in_simulation() {
        let process = builtin::cmos_5um();
        let spec = spec();
        let d = design_comparator(&spec, &process).unwrap();

        let mut bench = d.circuit().clone();
        let inp = bench.port("inp").unwrap();
        let inn = bench.port("inn").unwrap();
        let out = bench.port("out").unwrap();
        let vdd = bench.port("vdd").unwrap();
        let vss = bench.port("vss").unwrap();
        let gnd = bench.ground();
        bench
            .add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
            .unwrap();
        bench
            .add_vsource("VSS", vss, gnd, SourceValue::dc(-5.0))
            .unwrap();
        bench
            .add_vsource("VIP", inp, gnd, SourceValue::dc(0.0))
            .unwrap();
        bench
            .add_vsource("VIN", inn, gnd, SourceValue::dc(0.0))
            .unwrap();
        bench.add_capacitor("CL", out, gnd, spec.load_f()).unwrap();

        // The comparator's decision levels are its settled outputs under a
        // decisive overdrive — measure them first.
        let settled = |vin: f64| -> f64 {
            let mut c = bench.clone();
            c.set_source_dc("VIP", vin).unwrap();
            oasys_sim::dc::solve(&c, &process).unwrap().voltage(out)
        };
        let v_lo = settled(-0.05);
        let v_hi = settled(0.05);
        assert!(v_hi - v_lo > 1.0, "decision levels {v_lo:.2} / {v_hi:.2} V");
        let midpoint = 0.5 * (v_lo + v_hi);

        // One resolution step of overdrive must carry the output across
        // the midpoint within the decision budget.
        let mut stimuli = Stimuli::new();
        stimuli.step("VIP", -spec.resolution_v(), spec.resolution_v(), 20e-9);
        let tspec = TranSpec::new(spec.decision_s() * 1.5, spec.decision_s() / 400.0).unwrap();
        let sol = tran::solve(&bench, &process, &tspec, &stimuli).unwrap();
        let w = sol.waveform(out);
        let crossing = sol
            .times()
            .iter()
            .zip(&w)
            .find(|&(_, &v)| v >= midpoint)
            .map(|(&t, _)| t);
        match crossing {
            Some(t) => assert!(
                t <= spec.decision_s(),
                "crossed the {midpoint:.2} V midpoint at {:.2} µs, budget {:.2} µs",
                t * 1e6,
                spec.decision_s() * 1e6
            ),
            None => panic!(
                "never crossed the midpoint: start {:.2} V, end {:.2} V",
                w[0],
                w.last().unwrap()
            ),
        }
    }

    #[test]
    fn spec_builder_validates() {
        assert!(ComparatorSpec::builder().build().is_err());
        assert!(ComparatorSpec::builder()
            .resolution_mv(-1.0)
            .decision_time_us(1.0)
            .load_pf(1.0)
            .build()
            .is_err());
        let s = spec();
        assert!(s.to_string().contains("5.0 mV"));
    }
}
