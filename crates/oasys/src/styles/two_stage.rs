//! The two-stage unbuffered, Miller-compensated op-amp style (the paper's
//! Figure 4 template).
//!
//! Template: NMOS differential pair with PMOS mirror load (first stage),
//! PMOS common-source driver with NMOS mirror sink (second stage), NMOS
//! tail mirror, resistor bias branches, and the Miller compensation
//! capacitor. Optional elements that patch rules introduce, reproducing
//! the paper's case-C behaviour: a cascoded first-stage load and tail
//! (*"OASYS cascoded the input current bias and output load mirror"*), a
//! gain-partition skew toward the cascoded stage, and a level shifter
//! between the stages (*"inserted a level shifter to match the output
//! voltage of the differential pair to the input voltage of the
//! transconductance amplifier"*).
//!
//! The gain-partition heuristic is the paper's own: *"One workable initial
//! heuristic is simply to assign the square root of the gain to each
//! stage."*

use super::{OpAmpStyle, StyleDef, StyleState};
use crate::datasheet::Predicted;
use crate::spec::OpAmpSpec;
use oasys_blocks::area::AreaEstimate;
use oasys_blocks::compensation::{Compensation, CompensationSpec};
use oasys_blocks::diffpair::{DiffPair, DiffPairSpec};
use oasys_blocks::gainstage::{GainStage, GainStageSpec, GainStageStyle};
use oasys_blocks::levelshift::{LevelShiftSpec, LevelShifter};
use oasys_blocks::mirror::{CurrentMirror, MirrorSpec, MirrorStyle};
use oasys_netlist::Circuit;
use oasys_plan::{CacheKey, Interval, PerfRelation, Plan, StepOutcome};
use oasys_process::{Polarity, Process};
use oasys_telemetry::sym;
use std::sync::OnceLock;

/// Longest channel, in multiples of the process minimum.
const MAX_L_FACTOR: f64 = 4.0;
/// Initial overdrive targets, V.
const VOV1_INIT: f64 = 0.20;
const VOV2: f64 = 0.25;
/// Compensation capacitor as a fraction of the load.
const CC_FACTOR: f64 = 0.3;
/// Design the gain with this safety factor over the spec.
const GAIN_MARGIN: f64 = 2.0;
/// Gain-partition skew applied when the first stage is cascoded (the
/// paper: "the gain partition is skewed to place more gain in the
/// cascoded stage").
const CASCODE_SKEW: f64 = 2.0;
/// Largest tolerable DC mismatch between the stages before a level
/// shifter is inserted, V.
const DC_MATCH_TOL: f64 = 0.3;
/// Sheet resistance assumed for bias resistors (a serpentine well
/// resistor), Ω/square.
const BIAS_SHEET_OHMS: f64 = 10_000.0;

pub(super) struct State {
    spec: OpAmpSpec,
    process: Process,
    // Patch-rule knobs.
    vov1: f64,
    alpha1: f64,
    alpha2: f64,
    s1_cascoded: bool,
    skew: f64,
    i2_boost: f64,
    /// Multiplier on the slew-derived currents, raised when output
    /// parasitics eat into the achieved slew rate.
    slew_boost: f64,
    // Derived targets.
    cc: f64,
    a1_target: f64,
    a2_target: f64,
    gm1: f64,
    i_tail: f64,
    l1_um: f64,
    gm2: f64,
    i2: f64,
    l6_um: f64,
    // Designed blocks.
    pair: Option<DiffPair>,
    load1: Option<CurrentMirror>,
    tail: Option<CurrentMirror>,
    driver: Option<GainStage>,
    sink: Option<CurrentMirror>,
    shifter: Option<LevelShifter>,
    shifter_bias: Option<CurrentMirror>,
    /// Level-shifter bias current, A (sized for the pole it adds inside
    /// the Miller loop).
    i_ls: f64,
    compensation: Option<Compensation>,
    r_bias1: f64,
    r_bias2: f64,
    r_bias3: f64,
    // Analysis results.
    pm_net: f64,
    dc_mismatch: f64,
    swing: (f64, f64),
    offset_v: f64,
    predicted: Option<Predicted>,
    notes: Vec<String>,
}

impl State {
    fn new(spec: &OpAmpSpec, process: &Process) -> Self {
        Self {
            spec: *spec,
            process: process.clone(),
            vov1: VOV1_INIT,
            alpha1: 0.5,
            alpha2: 0.5,
            s1_cascoded: false,
            skew: 1.0,
            i2_boost: 1.0,
            slew_boost: 1.0,
            cc: 0.0,
            a1_target: 0.0,
            a2_target: 0.0,
            gm1: 0.0,
            i_tail: 0.0,
            l1_um: 0.0,
            gm2: 0.0,
            i2: 0.0,
            l6_um: 0.0,
            pair: None,
            load1: None,
            tail: None,
            driver: None,
            sink: None,
            shifter: None,
            shifter_bias: None,
            i_ls: 0.0,
            compensation: None,
            r_bias1: 0.0,
            r_bias2: 0.0,
            r_bias3: 0.0,
            pm_net: 0.0,
            dc_mismatch: 0.0,
            swing: (0.0, 0.0),
            offset_v: 0.0,
            predicted: None,
            notes: Vec::new(),
        }
    }

    fn fu_achieved(&self) -> f64 {
        self.gm1 / (2.0 * std::f64::consts::PI * self.cc)
    }

    /// Junction and overlap capacitance the second stage hangs on the
    /// output node (drain of the driver plus the sink mirror's output
    /// device), F.
    fn output_parasitic_cap(&self) -> f64 {
        let mut total = 0.0;
        if let Some(driver) = &self.driver {
            let m = oasys_mos::Mosfet::new(Polarity::Pmos, driver.driver_geometry(), &self.process);
            let vgs = -(self.process.pmos().vth().volts() + VOV2);
            let op = m.operating_point(vgs, -2.0, 0.0);
            total += m.capacitances(&op).drain_total().farads();
        }
        if let Some(sink) = &self.sink {
            let m = oasys_mos::Mosfet::new(Polarity::Nmos, sink.unit_geometry(), &self.process);
            let vgs = sink.vgs();
            let op = m.operating_point(vgs, 2.0, 0.0);
            total += m.capacitances(&op).drain_total().farads();
        }
        total
    }

    /// The first-stage mirror-node pole, Hz (the diode side's gm over the
    /// capacitance parked on it).
    fn mirror_pole_hz(&self) -> f64 {
        let (Some(load), Some(pair)) = (&self.load1, &self.pair) else {
            return f64::INFINITY;
        };
        let gm3 = 2.0 * (self.i_tail / 2.0) / load.vov();
        let m3 = oasys_mos::Mosfet::new(Polarity::Pmos, load.input_geometry(), &self.process);
        let vgs = load.vgs();
        let op3 = m3.operating_point(-vgs, -vgs, 0.0);
        let c3 = m3.capacitances(&op3);
        let m1 = oasys_mos::Mosfet::new(Polarity::Nmos, pair.geometry(), &self.process);
        let op1 = m1.operating_point(self.process.nmos().vth().volts() + pair.vov(), 2.0, 0.0);
        let c1 = m1.capacitances(&op1);
        let c_node = 2.0 * c3.cgs().farads() + c3.cdb().farads() + c1.drain_total().farads();
        gm3 / (2.0 * std::f64::consts::PI * c_node)
    }

    /// DC level at the first-stage output (the mirror balance point).
    fn v1_out(&self) -> f64 {
        let load = self.load1.as_ref().expect("load designed");
        self.process.vdd().volts() - load.input_voltage()
    }

    /// DC level the second-stage PMOS driver wants at its gate.
    fn v_gate2_required(&self) -> f64 {
        self.process.vdd().volts() - (self.process.pmos().vth().volts() + VOV2)
    }
}

/// The two-stage style's declared performance relations (see
/// [`super::perf_relations`]).
///
/// Two cascaded intrinsic gains, each capped as in the one-stage ceiling
/// (the smaller of the two channel-length-modulation coefficients keeps
/// the bound valid for both the NMOS first and PMOS second stage), spent
/// against the `GAIN_MARGIN` the plan designs in. The swing relation
/// mirrors `check-spec` exactly.
pub(super) fn perf_relations(spec: &OpAmpSpec, process: &Process) -> Vec<PerfRelation> {
    let lambda = process.nmos().lambda_l().min(process.pmos().lambda_l());
    let stage = super::stage_gain_ceiling(lambda, process.min_length().micrometers(), MAX_L_FACTOR);
    let ceiling = stage * stage / GAIN_MARGIN;
    let mut relations = vec![PerfRelation::new(
        "dc-gain",
        "dB",
        Interval::point(spec.dc_gain().db()),
        Interval::new(0.0, 20.0 * ceiling.log10()),
    )];
    if spec.has_swing() {
        relations.push(PerfRelation::new(
            "output-swing",
            "V",
            Interval::point(spec.output_swing().volts()),
            Interval::at_most(process.vdd().volts() - 0.3),
        ));
    }
    relations
}

fn build_plan() -> Plan<State> {
    Plan::<State>::builder("two-stage")
        .inputs([
            "spec",
            "process",
            "vov1",
            "alpha1",
            "alpha2",
            "s1_cascoded",
            "skew",
            "i2_boost",
            "slew_boost",
            "shifter",
            "shifter_bias",
            "i_ls",
            "notes",
        ])
        .step("check-spec", |s: &mut State, _| {
            let vdd = s.process.vdd().volts();
            if s.spec.has_swing() && s.spec.output_swing().volts() > vdd - 0.3 {
                return StepOutcome::failed(
                    "spec-unsupported",
                    format!(
                        "±{:.1} V swing leaves no headroom on ±{vdd:.1} V rails",
                        s.spec.output_swing().volts()
                    ),
                );
            }
            StepOutcome::Done
        })
        .reads(["spec", "process"])
        .writes([])
        .emits(["spec-unsupported"])
        .step("choose-cc", |s: &mut State, _| {
            s.cc = (CC_FACTOR * s.spec.load().farads()).max(0.5e-12);
            StepOutcome::Done
        })
        .reads(["spec"])
        .writes(["cc"])
        .emits([])
        .step("partition-gain", |s: &mut State, _| {
            // The paper's heuristic: √gain to each stage, skewed toward
            // the cascoded stage when a rule demands it.
            let total = s.spec.dc_gain_linear() * GAIN_MARGIN;
            s.a1_target = total.sqrt() * s.skew;
            s.a2_target = total / s.a1_target;
            StepOutcome::Done
        })
        .reads(["spec", "skew"])
        .writes(["a1_target", "a2_target"])
        .emits([])
        .step("size-input", |s: &mut State, _| {
            let gm_floor = 2.0 * std::f64::consts::PI * s.spec.unity_gain_freq().hertz() * s.cc;
            let i_slew = s.spec.slew_rate().volts_per_second() * s.cc * s.slew_boost;
            s.i_tail = i_slew.max(gm_floor * s.vov1).max(1e-6);
            s.gm1 = s.i_tail / s.vov1;
            StepOutcome::Done
        })
        .reads(["spec", "cc", "vov1", "slew_boost"])
        .writes(["gm1", "i_tail"])
        .emits([])
        .step("stage1-budget", |s: &mut State, _| {
            let pair_budget = s.alpha1 * s.gm1 / s.a1_target;
            let mos = s.process.nmos();
            let l_min = s.process.min_length().micrometers();
            s.l1_um = (mos.lambda_l() * (s.i_tail / 2.0) / pair_budget).max(l_min);
            if s.l1_um > MAX_L_FACTOR * l_min {
                return StepOutcome::failed(
                    "stage1-gain-short",
                    format!(
                        "first stage needs L = {:.1} µm for A1 = {:.0}",
                        s.l1_um, s.a1_target
                    ),
                );
            }
            StepOutcome::Done
        })
        .reads(["process", "alpha1", "gm1", "i_tail", "a1_target"])
        .writes(["l1_um"])
        .emits(["stage1-gain-short"])
        .step("design-pair", |s: &mut State, ctx| {
            let spec = DiffPairSpec::new(Polarity::Nmos, s.gm1, s.i_tail).with_length_um(s.l1_um);
            match DiffPair::design_with(&spec, &s.process, ctx) {
                Ok(p) => {
                    s.pair = Some(p);
                    StepOutcome::Done
                }
                Err(e) => StepOutcome::failed("pair-design", e.to_string()),
            }
        })
        .reads(["process", "gm1", "i_tail", "l1_um"])
        .writes(["pair"])
        .emits(["pair-design"])
        .step("design-stage1-load", |s: &mut State, ctx| {
            let load_budget = (1.0 - s.alpha1) * s.gm1 / s.a1_target;
            let style = if s.s1_cascoded {
                MirrorStyle::Cascode
            } else {
                MirrorStyle::Simple
            };
            let spec = MirrorSpec::new(Polarity::Pmos, s.i_tail / 2.0)
                .with_min_rout(1.0 / load_budget)
                .with_headroom(2.6)
                .with_only_style(style);
            match CurrentMirror::design_with(&spec, &s.process, ctx) {
                Ok(m) => {
                    s.load1 = Some(m);
                    StepOutcome::Done
                }
                Err(e) => StepOutcome::failed("stage1-gain-short", e.to_string()),
            }
        })
        .reads([
            "process",
            "alpha1",
            "gm1",
            "i_tail",
            "a1_target",
            "s1_cascoded",
        ])
        .writes(["load1"])
        .emits(["stage1-gain-short"])
        .step("design-tail", |s: &mut State, ctx| {
            // The paper's case C cascodes the input current bias together
            // with the first-stage load.
            let style = if s.s1_cascoded {
                MirrorStyle::Cascode
            } else {
                MirrorStyle::Simple
            };
            let spec = MirrorSpec::new(Polarity::Nmos, s.i_tail)
                .with_headroom(2.0)
                .with_only_style(style);
            match CurrentMirror::design_with(&spec, &s.process, ctx) {
                Ok(m) => {
                    s.tail = Some(m);
                    StepOutcome::Done
                }
                Err(e) => StepOutcome::failed("tail-design", e.to_string()),
            }
        })
        .reads(["process", "i_tail", "s1_cascoded"])
        .writes(["tail"])
        .emits(["tail-design"])
        .step("stage2-requirements", |s: &mut State, _| {
            // gm2 from the phase-margin equation (with 5° of headroom),
            // current from gm2 at the stage-2 overdrive, floored by the
            // output slew requirement.
            let pm_target = (s.spec.phase_margin().degrees() + 5.0).min(85.0);
            let gm2 = match Compensation::required_gm2(
                s.gm1,
                s.spec.load().farads(),
                s.fu_achieved(),
                pm_target,
            ) {
                Ok(g) => g,
                Err(e) => {
                    return StepOutcome::failed("compensation", e.to_string());
                }
            };
            s.gm2 = gm2 * s.i2_boost;
            let i_gm = s.gm2 * VOV2 / 2.0;
            let i_slew =
                s.spec.slew_rate().volts_per_second() * s.spec.load().farads() * s.slew_boost;
            s.i2 = i_gm.max(i_slew).max(2e-6);
            s.gm2 = 2.0 * s.i2 / VOV2;
            // Driver length for its share of the stage-2 gain.
            let driver_budget = s.alpha2 * s.gm2 / s.a2_target;
            let l_min = s.process.min_length().micrometers();
            s.l6_um = (s.process.pmos().lambda_l() * s.i2 / driver_budget).max(l_min);
            if s.l6_um > MAX_L_FACTOR * l_min {
                return StepOutcome::failed(
                    "stage2-gain-short",
                    format!(
                        "second stage needs L = {:.1} µm for A2 = {:.0}",
                        s.l6_um, s.a2_target
                    ),
                );
            }
            StepOutcome::Done
        })
        .reads([
            "spec",
            "process",
            "gm1",
            "cc",
            "i2_boost",
            "slew_boost",
            "alpha2",
            "a2_target",
        ])
        .writes(["gm2", "i2", "l6_um"])
        .emits(["compensation", "stage2-gain-short"])
        .step("design-stage2-sink", |s: &mut State, ctx| {
            let sink_budget = (1.0 - s.alpha2) * s.gm2 / s.a2_target;
            let vss = s.process.vss().volts();
            let headroom = if s.spec.has_swing() {
                vss.abs() - s.spec.output_swing().volts()
            } else {
                1.0
            };
            let ratio = s.i2 / s.i_tail;
            // No cascode-bias node exists at the output mirror, so the
            // wide-swing style is off the table here.
            let spec = MirrorSpec::new(Polarity::Nmos, s.i2)
                .with_ratio(ratio.max(0.1))
                .with_min_rout(1.0 / sink_budget)
                .with_headroom(headroom.max(0.4))
                .without_style(MirrorStyle::WideSwing);
            match CurrentMirror::design_with(&spec, &s.process, ctx) {
                Ok(m) => {
                    s.sink = Some(m);
                    StepOutcome::Done
                }
                Err(e) => StepOutcome::failed("stage2-gain-short", e.to_string()),
            }
        })
        .reads([
            "spec",
            "process",
            "alpha2",
            "gm2",
            "a2_target",
            "i2",
            "i_tail",
        ])
        .writes(["sink"])
        .emits(["stage2-gain-short"])
        .step("design-stage2-driver", |s: &mut State, ctx| {
            let sink = s.sink.as_ref().expect("sink designed");
            let spec = GainStageSpec::new(Polarity::Pmos, s.gm2, s.i2)
                .with_length_um(s.l6_um)
                .with_load_gds(1.0 / sink.rout());
            // The template pins the driver to the simple common-source
            // style (the sink mirror carries the r_out budget), so this
            // bypasses style selection but still records/memoizes through
            // the context.
            let key = CacheKey::new("style gm ibias l_um load_gds")
                .tag(GainStageStyle::Simple as u64)
                .num(s.gm2)
                .num(s.i2)
                .num(s.l6_um)
                .num(1.0 / sink.rout());
            let result =
                ctx.design_child_sym(sym!("block:gain stage"), "gain stage", Some(key), || {
                    GainStage::design_style(&spec, &s.process, GainStageStyle::Simple)
                });
            match result {
                Ok(st) => {
                    s.driver = Some(st);
                    StepOutcome::Done
                }
                Err(e) => StepOutcome::failed("stage2-design", e.to_string()),
            }
        })
        .reads(["process", "gm2", "i2", "l6_um", "sink"])
        .writes(["driver"])
        .emits(["stage2-design"])
        .step("dc-match", |s: &mut State, _| {
            // Compare the first-stage output DC with what the PMOS driver
            // gate wants; a level shifter (already inserted by the patch
            // rule, if any) closes the gap.
            let shift = s.shifter.as_ref().map_or(0.0, |ls| ls.spec().shift());
            let v_gate = s.v1_out() + shift;
            s.dc_mismatch = s.v_gate2_required() - v_gate;
            if s.dc_mismatch.abs() > DC_MATCH_TOL {
                return StepOutcome::failed(
                    "dc-mismatch",
                    format!(
                        "stage-1 output sits at {:.2} V but the second stage wants \
                         {:.2} V at its gate",
                        v_gate + shift - shift,
                        s.v_gate2_required()
                    ),
                );
            }
            StepOutcome::Done
        })
        .reads(["process", "shifter", "load1"])
        .writes(["dc_mismatch"])
        .emits(["dc-mismatch"])
        .step("compensate", |s: &mut State, ctx| {
            // The output node carries the drain junctions of the driver
            // and sink on top of the specified load; the compensation
            // must be designed against that effective capacitance, and
            // the parasitic poles (first-stage mirror node, level-shifter
            // output) eat into the margin the Miller math predicts.
            let cl_eff = s.spec.load().farads() + s.output_parasitic_cap();
            let comp_spec = CompensationSpec {
                gm1: s.gm1,
                gm2: s.gm2,
                load_cap: cl_eff,
                unity_gain_freq: s.fu_achieved(),
                phase_margin_deg: s.spec.phase_margin().degrees(),
            };
            let comp = match Compensation::design_with(&comp_spec, ctx) {
                Ok(c) => c,
                Err(e) => return StepOutcome::failed("pm-short", e.to_string()),
            };
            let fu = comp.unity_gain_freq();
            let mut pm = comp.phase_margin_deg();
            pm -= (fu / s.mirror_pole_hz()).atan().to_degrees();
            if let Some(ls) = &s.shifter {
                let p_ls = ls.gm() / (2.0 * std::f64::consts::PI * 2.0 * s.cc);
                pm -= (fu / p_ls).atan().to_degrees();
            }
            if pm < s.spec.phase_margin().degrees() {
                return StepOutcome::failed(
                    "pm-short",
                    format!(
                        "parasitic poles leave only {pm:.1}° of margin at \
                         {fu:.3e} Hz (need {:.1}°)",
                        s.spec.phase_margin().degrees()
                    ),
                );
            }
            s.cc = comp.cc();
            s.pm_net = pm;
            s.compensation = Some(comp);
            StepOutcome::Done
        })
        .reads([
            "spec", "process", "gm1", "gm2", "cc", "i_tail", "pair", "load1", "driver", "sink",
            "shifter",
        ])
        .writes(["cc", "pm_net", "compensation"])
        .emits(["pm-short"])
        .step("bias-resistors", |s: &mut State, _| {
            let span = s.process.supply_span().volts();
            let tail = s.tail.as_ref().expect("tail designed");
            let sink = s.sink.as_ref().expect("sink designed");
            let d1 = span - tail.input_voltage();
            let d2 = span - sink.input_voltage();
            if d1 < 0.5 || d2 < 0.5 {
                return StepOutcome::failed(
                    "bias-headroom",
                    "no headroom left for a bias resistor",
                );
            }
            s.r_bias1 = d1 / tail.spec().input_current();
            s.r_bias2 = d2 / sink.spec().input_current();
            if let Some(lsb) = &s.shifter_bias {
                let d3 = span - lsb.input_voltage();
                if d3 < 0.5 {
                    return StepOutcome::failed(
                        "bias-headroom",
                        "no headroom for the level-shifter bias",
                    );
                }
                s.r_bias3 = d3 / lsb.spec().input_current();
            }
            StepOutcome::Done
        })
        .reads(["process", "tail", "sink", "shifter_bias"])
        .writes(["r_bias1", "r_bias2", "r_bias3"])
        .emits(["bias-headroom"])
        .step("check-noise", |s: &mut State, _| {
            if !s.spec.has_noise() {
                return StepOutcome::Done;
            }
            let load = s.load1.as_ref().expect("load designed");
            let gm3 = 2.0 * (s.i_tail / 2.0) / load.vov();
            let kt = 1.380649e-23 * 300.0;
            let noise = (2.0 * (8.0 / 3.0) * kt / s.gm1 * (1.0 + gm3 / s.gm1)).sqrt();
            if noise > s.spec.max_noise_v_rthz() {
                return StepOutcome::failed(
                    "noise-high",
                    format!(
                        "input noise {:.0} nV/√Hz exceeds the {:.0} nV/√Hz ceiling",
                        noise * 1e9,
                        s.spec.max_noise_v_rthz() * 1e9
                    ),
                );
            }
            StepOutcome::Done
        })
        .reads(["spec", "gm1", "i_tail", "load1"])
        .writes([])
        .emits(["noise-high"])
        .step("check-slew", |s: &mut State, _| {
            if !s.spec.has_slew() {
                return StepOutcome::Done;
            }
            let cl_eff = s.spec.load().farads() + s.output_parasitic_cap();
            let sr = (s.i_tail / s.cc).min(s.i2 / cl_eff);
            if sr < s.spec.slew_rate().volts_per_second() * 0.99 {
                return StepOutcome::failed(
                    "slew-short",
                    format!(
                        "output parasitics hold the slew rate to {:.2} V/µs",
                        sr / 1e6
                    ),
                );
            }
            StepOutcome::Done
        })
        .reads(["spec", "process", "i_tail", "cc", "i2", "driver", "sink"])
        .writes([])
        .emits(["slew-short"])
        .step("check-swing", |s: &mut State, _| {
            let sink = s.sink.as_ref().expect("sink designed");
            let vdd = s.process.vdd().volts();
            let vss = s.process.vss().volts();
            let hi = vdd - VOV2;
            let lo = vss + sink.compliance();
            s.swing = (lo, hi);
            if s.spec.has_swing() {
                let need = s.spec.output_swing().volts();
                if hi < need || lo > -need {
                    return StepOutcome::failed(
                        "swing-short",
                        format!("achievable swing {lo:+.2} … {hi:+.2} V misses ±{need:.1} V"),
                    );
                }
            }
            StepOutcome::Done
        })
        .reads(["spec", "process", "sink"])
        .writes(["swing"])
        .emits(["swing-short"])
        .step("check-offset", |s: &mut State, _| {
            // Residual inter-stage DC error, referred to the input through
            // the first-stage gain.
            let pair = s.pair.as_ref().expect("pair designed");
            let load = s.load1.as_ref().expect("load designed");
            let a1 = s.gm1 / (pair.gds() + 1.0 / load.rout());
            s.offset_v = s.dc_mismatch.abs() / a1;
            if s.spec.has_offset() && s.offset_v > s.spec.max_offset().volts() {
                return StepOutcome::failed(
                    "offset-high",
                    format!(
                        "systematic offset {:.3} mV exceeds {:.3} mV",
                        s.offset_v * 1e3,
                        s.spec.max_offset().volts() * 1e3
                    ),
                );
            }
            StepOutcome::Done
        })
        .reads(["spec", "gm1", "pair", "load1", "dc_mismatch"])
        .writes(["offset_v"])
        .emits(["offset-high"])
        .step("check-power", |s: &mut State, _| {
            let span = s.process.supply_span().volts();
            let mut current = 2.0 * s.i_tail + s.i_tail + s.i2; // bias1+tail, bias2, stage2
            if s.shifter.is_some() {
                current += 2.0 * s.i_ls;
            }
            let power = span * current;
            if s.spec.has_power() && power > s.spec.max_power().watts() {
                return StepOutcome::failed(
                    "power-high",
                    format!(
                        "quiescent power {:.2} mW exceeds {:.2} mW",
                        power * 1e3,
                        s.spec.max_power().watts() * 1e3
                    ),
                );
            }
            StepOutcome::Done
        })
        .reads(["spec", "process", "i_tail", "i2", "shifter", "i_ls"])
        .writes([])
        .emits(["power-high"])
        .step("predict", |s: &mut State, _| {
            let pair = s.pair.as_ref().expect("pair designed");
            let load = s.load1.as_ref().expect("load designed");
            let tail = s.tail.as_ref().expect("tail designed");
            let driver = s.driver.as_ref().expect("driver designed");
            let sink = s.sink.as_ref().expect("sink designed");
            let comp = s.compensation.as_ref().expect("compensated");
            let span = s.process.supply_span().volts();

            let a1 = s.gm1 / (pair.gds() + 1.0 / load.rout());
            // CMRR is set by the first stage: A_cm1 ≈ 1/(2·gm3·R_tail)
            // while the differential path carries the full gain.
            let gm3 = 2.0 * (s.i_tail / 2.0) / load.vov();
            let cmrr = a1 * 2.0 * gm3 * tail.rout();
            // First stage dominates the input noise.
            let kt = 1.380649e-23 * 300.0;
            let noise = (2.0 * (8.0 / 3.0) * kt / s.gm1 * (1.0 + gm3 / s.gm1)).sqrt();
            let a2 = driver.gm() / (driver.gout_driver() + 1.0 / sink.rout());
            let ls_gain = s.shifter.as_ref().map_or(1.0, LevelShifter::gain);
            let gain = a1 * a2 * ls_gain;

            let mut current = 2.0 * s.i_tail + s.i_tail + s.i2;
            if s.shifter.is_some() {
                current += 2.0 * s.i_ls;
            }

            s.predicted = Some(Predicted {
                dc_gain_db: 20.0 * gain.log10(),
                unity_gain_hz: comp.unity_gain_freq(),
                phase_margin_deg: s.pm_net,
                slew_v_per_s: (s.i_tail / s.cc)
                    .min(s.i2 / (s.spec.load().farads() + s.output_parasitic_cap())),
                swing_neg_v: s.swing.0,
                swing_pos_v: s.swing.1,
                offset_v: s.offset_v,
                power_w: span * current,
                cmrr_db: 20.0 * cmrr.log10(),
                noise_v_rthz: noise,
            });
            StepOutcome::Done
        })
        .reads([
            "spec",
            "process",
            "gm1",
            "i_tail",
            "i2",
            "cc",
            "pair",
            "load1",
            "tail",
            "driver",
            "sink",
            "compensation",
            "shifter",
            "i_ls",
            "pm_net",
            "swing",
            "offset_v",
        ])
        .writes(["predicted"])
        .emits([])
        // ---- patch rules ----
        .rule(
            "cascode-first-stage",
            ["stage1-gain-short", "stage2-gain-short"],
        )
        .when(|s: &State| !s.s1_cascoded)
        .patch(|s: &mut State, _| {
            s.s1_cascoded = true;
            s.alpha1 = 0.85;
            s.skew = CASCODE_SKEW;
            s.i2_boost = 1.0;
            s.notes.push(
                "cascoded the first-stage load and tail; skewed the gain \
                 partition toward the cascoded stage"
                    .to_owned(),
            );
            Ok(())
        })
        .reads(["s1_cascoded"])
        .writes(["s1_cascoded", "alpha1", "skew", "i2_boost", "notes"])
        .restarts_from("partition-gain")
        .rule("lower-pair-overdrive", ["stage1-gain-short", "noise-high"])
        .when(|s: &State| s.vov1 > 0.11)
        .patch(|s: &mut State, _| {
            s.vov1 /= 2.0;
            s.notes
                .push(format!("lowered pair overdrive to {:.2} V", s.vov1));
            Ok(())
        })
        .reads(["vov1"])
        .writes(["vov1", "notes"])
        .restarts_from("size-input")
        .rule("insert-level-shifter", ["dc-mismatch"])
        .when(|s: &State| s.shifter.is_none())
        .patch(|s: &mut State, ctx| {
            // The driver gate must sit above the stage-1 output: a
            // PMOS source follower (bulk tied to source, so no body
            // effect) shifts up by its V_SG.
            let needed = s.v_gate2_required() - s.v1_out();
            if needed <= 0.0 {
                return Err(format!(
                    "stage-1 output is above the driver gate level by \
                     {:.2} V; no follower polarity fits",
                    -needed
                ));
            }
            // The follower sits inside the compensation loop: its
            // output pole gm_ls/(Cc + C_gate2) must clear the
            // crossover by ~10×, which sets the bias current.
            let infeasible = |e| format!("level shifter infeasible: {e}");
            let probe = LevelShiftSpec::new(Polarity::Pmos, needed, 1e-6);
            let vov_ls = LevelShifter::design_with(&probe, &s.process, ctx)
                .map_err(infeasible)?
                .vov();
            let gm_req = 2.0 * std::f64::consts::PI * (10.0 * s.fu_achieved()) * (2.0 * s.cc);
            s.i_ls = (gm_req * vov_ls / 2.0).max(s.i_tail / 2.0);
            let ls_spec = LevelShiftSpec::new(Polarity::Pmos, needed, s.i_ls);
            s.shifter =
                Some(LevelShifter::design_with(&ls_spec, &s.process, ctx).map_err(infeasible)?);
            let bias_spec = MirrorSpec::new(Polarity::Pmos, s.i_ls)
                .with_headroom(1.0)
                .with_only_style(MirrorStyle::Simple);
            s.shifter_bias = Some(
                CurrentMirror::design_with(&bias_spec, &s.process, ctx)
                    .map_err(|e| format!("level-shifter bias infeasible: {e}"))?,
            );
            s.notes.push(format!(
                "inserted a {needed:.2} V level shifter between the stages"
            ));
            Ok(())
        })
        .reads(["spec", "process", "load1", "gm1", "cc", "i_tail", "shifter"])
        .writes(["shifter", "shifter_bias", "i_ls", "notes"])
        .retries()
        .rule("boost-for-slew", ["slew-short"])
        .when(|s: &State| s.slew_boost < 2.5)
        .patch(|s: &mut State, _| {
            s.slew_boost *= 1.25;
            Ok(())
        })
        .reads(["slew_boost"])
        .writes(["slew_boost"])
        .restarts_from("size-input")
        .rule("relax-input-overdrive", ["pm-short"])
        .when(|s: &State| {
            // Guard against fighting the stage-1 gain rules: raising
            // V_ov lengthens the pair; only fire while that stays
            // manufacturable for the current gain partition.
            let l_projected =
                s.process.nmos().lambda_l() * (s.vov1 * 1.4) * s.a1_target / (2.0 * s.alpha1);
            s.vov1 < 0.45
                && s.fu_achieved() > 1.3 * s.spec.unity_gain_freq().hertz()
                && l_projected <= MAX_L_FACTOR * s.process.min_length().micrometers()
        })
        .patch(|s: &mut State, _| {
            s.vov1 *= 1.4;
            s.notes.push(format!(
                "raised pair overdrive to {:.2} V, trading excess bandwidth \
                 for phase margin",
                s.vov1
            ));
            Ok(())
        })
        .reads([
            "spec",
            "process",
            "vov1",
            "a1_target",
            "alpha1",
            "gm1",
            "cc",
        ])
        .writes(["vov1", "notes"])
        .restarts_from("size-input")
        .rule("cascode-for-phase-margin", ["pm-short"])
        // Boosting gm2 saturates once the driver's own junction
        // capacitance dominates the output pole; shifting gain into a
        // cascoded first stage shrinks the driver and raises the pole
        // ceiling.
        .when(|s: &State| !s.s1_cascoded && s.i2_boost > 4.0)
        .patch(|s: &mut State, _| {
            s.s1_cascoded = true;
            s.alpha1 = 0.85;
            s.skew = CASCODE_SKEW;
            s.i2_boost = 1.0;
            s.notes.push(
                "cascoded the first stage and skewed the partition to shrink \
                 the second-stage driver for phase margin"
                    .to_owned(),
            );
            Ok(())
        })
        .reads(["s1_cascoded", "i2_boost"])
        .writes(["s1_cascoded", "alpha1", "skew", "i2_boost", "notes"])
        .restarts_from("partition-gain")
        .rule("boost-second-stage", ["pm-short"])
        .when(|s: &State| s.i2_boost < 8.0)
        .patch(|s: &mut State, _| {
            s.i2_boost *= 1.5;
            s.notes.push(format!(
                "raised the second-stage current budget (×{:.1}) for phase margin",
                s.i2_boost
            ));
            Ok(())
        })
        .reads(["i2_boost"])
        .writes(["i2_boost", "notes"])
        .restarts_from("stage2-requirements")
        .rule("give-up-gain", ["stage1-gain-short", "stage2-gain-short"])
        .writes([])
        .aborts("gain infeasible for the two-stage style even with cascoding")
        .rule(
            "give-up",
            [
                "spec-unsupported",
                "pair-design",
                "tail-design",
                "stage2-design",
                "compensation",
                "dc-mismatch",
                "bias-headroom",
                "swing-short",
                "offset-high",
                "pm-short",
                "power-high",
                "slew-short",
                "noise-high",
            ],
        )
        .writes([])
        .aborts("two-stage style infeasible")
        .build()
}

/// The two-stage op amp's [`StyleDef`]: the plan above plus state
/// construction. Everything else is the shared [`run_style`](super::run_style) engine.
pub(super) struct TwoStageDef;

impl StyleDef for TwoStageDef {
    const STYLE: OpAmpStyle = OpAmpStyle::TwoStage;
    type State = State;

    fn plan() -> &'static Plan<State> {
        static PLAN: OnceLock<Plan<State>> = OnceLock::new();
        PLAN.get_or_init(build_plan)
    }

    fn init(spec: &OpAmpSpec, process: &Process) -> State {
        State::new(spec, process)
    }
}

impl StyleState for State {
    fn emit(&self) -> Result<Circuit, oasys_netlist::ValidateError> {
        emit(self)
    }

    fn area(&self) -> AreaEstimate {
        let w_min = self.process.min_width().micrometers();
        let r_total = self.r_bias1 + self.r_bias2 + self.r_bias3;
        let r_area = r_total / BIAS_SHEET_OHMS * w_min * w_min;
        let mut area = self.pair.as_ref().expect("plan done").area()
            + self.load1.as_ref().expect("plan done").area()
            + self.tail.as_ref().expect("plan done").area()
            + self.driver.as_ref().expect("plan done").area()
            + self.sink.as_ref().expect("plan done").area()
            + AreaEstimate::for_capacitor(self.cc, &self.process)
            + AreaEstimate::from_um2(r_area, 0.0);
        if let Some(ls) = &self.shifter {
            area = area + ls.area();
        }
        if let Some(lsb) = &self.shifter_bias {
            area = area + lsb.area();
        }
        area
    }

    fn predicted(&self) -> Predicted {
        self.predicted.expect("predict ran")
    }

    fn take_notes(&mut self) -> Vec<String> {
        std::mem::take(&mut self.notes)
    }
}

/// Assembles the two-stage netlist from the designed sub-blocks.
fn emit(state: &State) -> Result<Circuit, oasys_netlist::ValidateError> {
    let pair = state.pair.as_ref().expect("plan done");
    let load1 = state.load1.as_ref().expect("plan done");
    let tail = state.tail.as_ref().expect("plan done");
    let driver = state.driver.as_ref().expect("plan done");
    let sink = state.sink.as_ref().expect("plan done");

    let mut c = Circuit::new("two-stage op amp");
    let vdd = c.node("vdd");
    let vss = c.node("vss");
    let inp = c.node("inp");
    let inn = c.node("inn");
    let out = c.node("out");
    let tail_node = c.node("tail");
    let d1 = c.node("d1");
    let s1out = c.node("s1out");
    let nbias1 = c.node("nbias1");
    let nbias2 = c.node("nbias2");
    for (label, node) in [
        ("inp", inp),
        ("inn", inn),
        ("out", out),
        ("vdd", vdd),
        ("vss", vss),
    ] {
        c.mark_port(label, node);
    }

    // First stage. M1 (gate inp) drains into s1out; M2 (gate inn) into
    // the mirror diode, so the overall amp is non-inverting at inp after
    // the inverting second stage.
    pair.emit(&mut c, "DP_", inp, inn, d1, s1out, tail_node, vss)?;
    load1.emit(&mut c, "LD_", d1, s1out, vdd, None)?;
    tail.emit(&mut c, "TL_", nbias1, tail_node, vss, None)?;
    c.add_resistor("RBIAS1", vdd, nbias1, state.r_bias1)?;

    // Optional level shifter between the stages.
    let g6 = if let Some(ls) = &state.shifter {
        let g6 = c.node("g6");
        // PMOS follower with bulk tied to its source (its own n-well).
        ls.emit(&mut c, "LS_", s1out, g6, vss, g6)?;
        let lsb = state
            .shifter_bias
            .as_ref()
            .expect("shifter bias designed with shifter");
        let nbias3 = c.node("nbias3");
        lsb.emit(&mut c, "LB_", nbias3, g6, vdd, None)?;
        c.add_resistor("RBIAS3", nbias3, vss, state.r_bias3)?;
        g6
    } else {
        s1out
    };

    // Second stage: PMOS common-source driver, NMOS mirror sink.
    driver.emit(&mut c, "ST2_", g6, out, vdd, vdd, None)?;
    sink.emit(&mut c, "SK_", nbias2, out, vss, None)?;
    c.add_resistor("RBIAS2", vdd, nbias2, state.r_bias2)?;

    // Miller compensation: always returned to the first-stage output so
    // the capacitance is Miller-multiplied onto the high-impedance node
    // (pole splitting). With a level shifter present the follower sits
    // inside the compensation loop, where its high gm keeps its pole far
    // above crossover.
    let _ = g6;
    c.add_capacitor("CC", out, s1out, state.cc)?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::test_cases;
    use crate::styles::{OpAmpDesign, StyleError};
    use oasys_process::builtin;
    use oasys_telemetry::Telemetry;

    /// The two-stage op amp designed for `spec` on the 5 µm kit.
    fn attempt(spec: &OpAmpSpec, tel: &Telemetry) -> Result<OpAmpDesign, StyleError> {
        crate::styles::design(OpAmpStyle::TwoStage, spec, &builtin::cmos_5um(), tel)
    }

    #[test]
    fn plan_analyzes_clean() {
        let report = oasys_plan::analyze(TwoStageDef::plan());
        assert!(report.is_empty(), "{}", report.render_human());
    }

    #[test]
    fn case_a_designs_simply() {
        let d = attempt(&test_cases::spec_a(), &Telemetry::disabled()).unwrap();
        assert_eq!(d.style(), OpAmpStyle::TwoStage);
        assert!(d.predicted().dc_gain_db >= 60.0);
        assert!(d.predicted().phase_margin_deg >= 45.0);
        // The compensation step may iterate the second-stage current, but
        // the topology must stay the simple template (no cascodes, no
        // level shifter).
        assert!(
            !d.notes()
                .iter()
                .any(|n| n.contains("cascoded") || n.contains("shifter")),
            "case A should keep the simple topology: {:?}",
            d.notes()
        );
        // Simple everything: 2 pair + 2 load + 2 tail + 1 driver + 2 sink.
        assert_eq!(d.device_count(), 9);
        d.circuit().validate().unwrap();
    }

    #[test]
    fn case_b_meets_gain_offset_swing() {
        let d = attempt(&test_cases::spec_b(), &Telemetry::disabled()).unwrap();
        let p = d.predicted();
        assert!(p.dc_gain_db >= 75.0, "gain {:.1}", p.dc_gain_db);
        assert!(
            p.swing_symmetric() >= 4.0,
            "swing ±{:.2}",
            p.swing_symmetric()
        );
        assert!(p.offset_v <= 1e-3, "offset {:.4} V", p.offset_v);
        assert!(
            !d.notes()
                .iter()
                .any(|n| n.contains("cascoded") || n.contains("shifter")),
            "case B should stay the simple two-stage topology: {:?}",
            d.notes()
        );
    }

    #[test]
    fn case_c_cascodes_and_inserts_level_shifter() {
        let tel = Telemetry::new();
        let d = attempt(&test_cases::spec_c(), &tel).unwrap();
        let p = d.predicted();
        assert!(p.dc_gain_db >= 100.0, "gain {:.1}", p.dc_gain_db);
        let notes = d.notes().join("; ");
        assert!(notes.contains("cascoded"), "notes: {notes}");
        assert!(notes.contains("level shifter"), "notes: {notes}");
        // Cascoded load (4) + cascoded tail (4) + pair (2) + shifter (1)
        // + shifter bias (2) + driver (1) + sink (2) = 16 devices.
        assert!(d.device_count() >= 14, "{} devices", d.device_count());
        assert!(tel.counter("plan.rule_firings") >= 2);
        d.circuit().validate().unwrap();
    }

    #[test]
    fn case_c_costs_more_area_than_b() {
        let b = attempt(&test_cases::spec_b(), &Telemetry::disabled()).unwrap();
        let c = attempt(&test_cases::spec_c(), &Telemetry::disabled()).unwrap();
        assert!(c.area().total_um2() > b.area().total_um2());
        assert!(c.device_count() > b.device_count());
    }

    #[test]
    fn extreme_gain_aborts() {
        let spec = test_cases::spec_a().with_dc_gain_db(135.0);
        let err = attempt(&spec, &Telemetry::disabled()).unwrap_err();
        assert!(err.reason().contains("gain"), "reason: {}", err.reason());
    }

    #[test]
    fn compensation_capacitor_present() {
        let d = attempt(&test_cases::spec_a(), &Telemetry::disabled()).unwrap();
        assert!(d.circuit().element("CC").is_some());
        // Cc contributes to the area estimate.
        assert!(d.area().capacitor().square_micrometers() > 0.0);
    }

    #[test]
    fn larger_load_needs_more_second_stage_current() {
        let small = attempt(&test_cases::spec_a(), &Telemetry::disabled()).unwrap();
        let large = attempt(
            &test_cases::spec_a().with_load_pf(20.0),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!(large.predicted().power_w > small.predicted().power_w);
    }
}
