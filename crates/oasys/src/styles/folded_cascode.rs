//! The folded-cascode OTA style — the extension the paper names as its
//! immediate plan: *"Our immediate plan is to expand the breadth of
//! circuit knowledge in OASYS to include more op amp topologies (e.g.,
//! folded cascode and fully differential styles)."*
//!
//! Template: NMOS differential pair whose drains are *folded* into two
//! PMOS current-source branches; PMOS cascodes carry the signal down into
//! a wide-swing NMOS cascode mirror that forms the output. A single stage
//! with near-two-stage gain, cascode-quality systematic offset, and no
//! compensation capacitor (the load compensates).
//!
//! The style trades power (two extra full branches) and headroom
//! (stacked cascodes) for that gain, so area-based selection usually
//! prefers the simple OTA at low gain and the two-stage at very high
//! gain, leaving the folded cascode a middle band — a genuinely
//! three-way Figure 7.

use super::{run_style, OpAmpDesign, OpAmpStyle, StyleDef, StyleError, StyleState};
use crate::datasheet::Predicted;
use crate::spec::OpAmpSpec;
use oasys_blocks::area::AreaEstimate;
use oasys_blocks::diffpair::{DiffPair, DiffPairSpec};
use oasys_blocks::mirror::{CurrentMirror, MirrorSpec, MirrorStyle};
use oasys_mos::{sizing, Geometry, Mosfet};
use oasys_netlist::Circuit;
use oasys_plan::{DesignContext, Expr, Interval, PerfRelation, Plan, StepOutcome};
use oasys_process::{Polarity, Process};
use oasys_telemetry::Telemetry;
use oasys_units::Dimension;
use std::sync::OnceLock;

/// Initial pair overdrive target, V.
const VOV1_INIT: f64 = 0.20;
/// Cascode/current-source overdrive, V.
const VOV_C: f64 = 0.25;
/// Sheet resistance assumed for bias resistors, Ω/square.
const BIAS_SHEET_OHMS: f64 = 10_000.0;

/// Empty annotation list (the builder cannot infer element types from `[]`).
const NONE: [&str; 0] = [];

pub(super) struct State {
    spec: OpAmpSpec,
    process: Process,
    vov1: f64,
    gm1: f64,
    i_tail: f64,
    pair_l_um: f64,
    pair: Option<DiffPair>,
    tail: Option<CurrentMirror>,
    /// NMOS wide-swing output mirror.
    out_mirror: Option<CurrentMirror>,
    /// PMOS current-source geometry (M3/M4).
    p_source: Option<Geometry>,
    /// PMOS cascode geometry (M5/M6).
    p_cascode: Option<Geometry>,
    /// Bias-chain diode geometries.
    p_diode: Option<Geometry>,
    n_diode: Option<Geometry>,
    r_tail: f64,
    r_psrc: f64,
    r_pcasc: f64,
    r_ncasc: f64,
    rout: f64,
    swing: (f64, f64),
    offset_v: f64,
    pm_deg: f64,
    predicted: Option<Predicted>,
    notes: Vec<String>,
}

impl State {
    fn new(spec: &OpAmpSpec, process: &Process) -> Self {
        Self {
            spec: *spec,
            process: process.clone(),
            vov1: VOV1_INIT,
            gm1: 0.0,
            i_tail: 0.0,
            pair_l_um: 0.0,
            pair: None,
            tail: None,
            out_mirror: None,
            p_source: None,
            p_cascode: None,
            p_diode: None,
            n_diode: None,
            r_tail: 0.0,
            r_psrc: 0.0,
            r_pcasc: 0.0,
            r_ncasc: 0.0,
            rout: 0.0,
            swing: (0.0, 0.0),
            offset_v: 0.0,
            pm_deg: 0.0,
            predicted: None,
            notes: Vec::new(),
        }
    }

    /// Fold-branch standing current (each PMOS source carries the full
    /// tail current so the branch never starves during slewing).
    fn i_fold(&self) -> f64 {
        self.i_tail
    }

    /// Branch current through each cascode at balance.
    fn i_branch(&self) -> f64 {
        self.i_fold() - self.i_tail / 2.0
    }
}

/// The folded-cascode style's declared performance relations (see
/// [`super::perf_relations`]).
///
/// The cascoded output stacks two intrinsic gains (`gm1 · rout` with
/// `rout ≈ gm·ro²`), so the ceiling is the squared single-stage bound —
/// computed from the smaller channel-length-modulation coefficient and
/// the shared 4× channel-length cap, both at their favorable extremes.
/// The swing relation mirrors `check-spec` exactly: two stacked
/// overdrives on each side of the output plus tail headroom.
pub(super) fn perf_relations(spec: &OpAmpSpec, process: &Process) -> Vec<PerfRelation> {
    let lambda = process.nmos().lambda_l().min(process.pmos().lambda_l());
    let stage = super::stage_gain_ceiling(lambda, process.min_length().micrometers(), 4.0);
    let ceiling = stage * stage;
    let mut relations = vec![PerfRelation::new(
        "dc-gain",
        "dB",
        Interval::point(spec.dc_gain().db()),
        Interval::new(0.0, 20.0 * ceiling.log10()),
    )];
    if spec.has_swing() {
        let span = process.supply_span().volts();
        relations.push(PerfRelation::new(
            "output-swing",
            "V",
            Interval::point(spec.output_swing().volts()),
            Interval::at_most((span - 4.0 * VOV_C - 0.4) / 2.0),
        ));
    }
    relations
}

fn build_plan() -> Plan<State> {
    Plan::<State>::builder("folded cascode")
        .inputs(["spec", "process", "vov1", "notes"])
        // Knob domain for the interval analyzer: the lower-overdrive
        // rule divides by 1.5 while above 0.06 V, so 0.04 V bounds it.
        .input_domain("vov1", Interval::new(0.04, 0.5), Dimension::VOLTAGE)
        .step("check-spec", |s: &mut State, _| {
            // Two stacked overdrives on each side of the output.
            let span = s.process.supply_span().volts();
            if s.spec.has_swing() && 2.0 * s.spec.output_swing().volts() > span - 4.0 * VOV_C - 0.4
            {
                return StepOutcome::failed(
                    "spec-unsupported",
                    "stacked cascodes cannot leave that much swing",
                );
            }
            StepOutcome::Done
        })
        .reads(["spec", "process"])
        .writes(NONE)
        .emits(["spec-unsupported"])
        .step("size-input", |s: &mut State, _| {
            let gm_min = 2.0
                * std::f64::consts::PI
                * s.spec.unity_gain_freq().hertz()
                * s.spec.load().farads();
            let i_slew = s.spec.slew_rate().volts_per_second() * s.spec.load().farads();
            s.i_tail = i_slew.max(gm_min * s.vov1).max(1e-6);
            s.gm1 = s.i_tail / s.vov1;
            StepOutcome::Done
        })
        .reads(["spec", "vov1"])
        .writes(["gm1", "i_tail"])
        // Spec-derived floors are opaque, so `i_tail` degrades to
        // unknown; the divisor `vov1` has a declared zero-free domain.
        .transfer(
            "i_tail",
            Expr::var("i_slew")
                .max(Expr::var("gm_min").mul(Expr::var("vov1")))
                .max(Expr::qty(1e-6, Dimension::CURRENT)),
        )
        .transfer("gm1", Expr::var("i_tail").div(Expr::var("vov1")))
        .emits(NONE)
        .step("design-pair", |s: &mut State, ctx| {
            // The pair's r_o barely matters (the fold node is low
            // impedance), so minimum length serves.
            s.pair_l_um = s.process.min_length().micrometers();
            let spec =
                DiffPairSpec::new(Polarity::Nmos, s.gm1, s.i_tail).with_length_um(s.pair_l_um);
            match DiffPair::design_with(&spec, &s.process, ctx) {
                Ok(p) => {
                    s.pair = Some(p);
                    StepOutcome::Done
                }
                Err(e) => StepOutcome::failed("pair-design", e.to_string()),
            }
        })
        .reads(["process", "gm1", "i_tail"])
        .writes(["pair_l_um", "pair"])
        .emits(["pair-design"])
        .step("design-branches", |s: &mut State, _| {
            // PMOS current sources (carry i_fold) and cascodes (carry the
            // branch current), both at the cascode overdrive.
            let p = s.process.pmos();
            let l_min = s.process.min_length().micrometers();
            let w_min = s.process.min_width().micrometers();
            let make = |current: f64| -> Result<Geometry, String> {
                let wl = sizing::w_over_l_from_id_vov(current, VOV_C, p.kprime());
                let w = ((wl * l_min).max(w_min) / 0.5).ceil() * 0.5;
                Geometry::new_um(w, l_min).map_err(|e| e.to_string())
            };
            match (make(s.i_fold()), make(s.i_branch())) {
                (Ok(src), Ok(casc)) => {
                    s.p_source = Some(src);
                    s.p_cascode = Some(casc);
                    StepOutcome::Done
                }
                (Err(e), _) | (_, Err(e)) => StepOutcome::failed("branch-design", e),
            }
        })
        .reads(["process", "i_tail"])
        .writes(["p_source", "p_cascode"])
        .emits(["branch-design"])
        .step("design-output-mirror", |s: &mut State, ctx| {
            // Wide-swing NMOS cascode mirror at the bottom: its r_out and
            // the PMOS cascode's r_out form the output resistance the
            // gain needs.
            let need_rout = 2.0 * s.spec.dc_gain_linear() / s.gm1;
            let vss_budget = if s.spec.has_swing() {
                s.process.vss().volts().abs() - s.spec.output_swing().volts()
            } else {
                1.0
            };
            let spec = MirrorSpec::new(Polarity::Nmos, s.i_branch())
                .with_min_rout(need_rout)
                .with_headroom(vss_budget.max(0.5))
                .with_only_style(MirrorStyle::WideSwing);
            match CurrentMirror::design_with(&spec, &s.process, ctx) {
                Ok(m) => {
                    s.out_mirror = Some(m);
                    StepOutcome::Done
                }
                Err(e) => StepOutcome::failed("gain-short", e.to_string()),
            }
        })
        .reads(["spec", "process", "gm1", "i_tail"])
        .writes(["out_mirror"])
        .emits(["gain-short"])
        .step("check-gain", |s: &mut State, _| {
            // Rout = (gm·ro·ro_eff of the PMOS side) ∥ (mirror r_out).
            let p = s.process.pmos();
            let l_min = s.process.min_length().micrometers();
            let lambda_p = p.lambda(l_min);
            let ro_src = 1.0 / (lambda_p * s.i_fold());
            let ro_pair = {
                let n = s.process.nmos();
                1.0 / (n.lambda(s.pair_l_um) * s.i_tail / 2.0)
            };
            let ro_casc = 1.0 / (lambda_p * s.i_branch());
            let gm_casc = 2.0 * s.i_branch() / VOV_C;
            // The fold node sees ro_src ∥ ro_pair.
            let r_up = gm_casc * ro_casc * (1.0 / (1.0 / ro_src + 1.0 / ro_pair));
            let mirror = s.out_mirror.as_ref().expect("mirror designed");
            let rout = 1.0 / (1.0 / r_up + 1.0 / mirror.rout());
            s.rout = rout;
            let gain = s.gm1 * rout;
            if gain < s.spec.dc_gain_linear() {
                return StepOutcome::failed(
                    "gain-short",
                    format!(
                        "folded-cascode gain {:.0} < required {:.0}",
                        gain,
                        s.spec.dc_gain_linear()
                    ),
                );
            }
            StepOutcome::Done
        })
        .reads([
            "spec",
            "process",
            "gm1",
            "i_tail",
            "pair_l_um",
            "out_mirror",
        ])
        .writes(["rout"])
        .emits(["gain-short"])
        .step("design-bias", |s: &mut State, ctx| {
            // Four bias branches: tail mirror reference, PMOS source
            // reference, PMOS cascode-gate chain, NMOS cascode-gate chain.
            let span = s.process.supply_span().volts();
            let tail_spec = MirrorSpec::new(Polarity::Nmos, s.i_tail)
                .with_headroom(1.5)
                .with_only_style(MirrorStyle::Simple);
            let tail = match CurrentMirror::design_with(&tail_spec, &s.process, ctx) {
                Ok(t) => t,
                Err(e) => return StepOutcome::failed("bias-design", e.to_string()),
            };
            let n = s.process.nmos();
            let p = s.process.pmos();
            let i_ref = (s.i_tail / 4.0).max(2e-6);
            let l_min = s.process.min_length().micrometers();
            let w_min = s.process.min_width().micrometers();
            let diode = |kprime: f64| -> Result<Geometry, String> {
                let wl = sizing::w_over_l_from_id_vov(i_ref, VOV_C, kprime);
                let w = ((wl * l_min).max(w_min) / 0.5).ceil() * 0.5;
                Geometry::new_um(w, l_min).map_err(|e| e.to_string())
            };
            let (pd, nd) = match (diode(p.kprime()), diode(n.kprime())) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => return StepOutcome::failed("bias-design", e),
            };
            let vsg = p.vth().volts() + VOV_C;
            let vgs = n.vth().volts() + VOV_C;
            let guard = |drop: f64| drop.max(0.5);
            s.r_tail = guard(span - tail.input_voltage()) / tail.spec().input_current();
            // The PMOS source reference carries i_fold through its diode.
            s.r_psrc = guard(span - vsg) / s.i_fold();
            s.r_pcasc = guard(span - 2.0 * vsg) / i_ref;
            s.r_ncasc = guard(span - 2.0 * vgs) / i_ref;
            s.p_diode = Some(pd);
            s.n_diode = Some(nd);
            s.tail = Some(tail);
            StepOutcome::Done
        })
        .reads(["process", "i_tail"])
        .writes([
            "tail", "p_diode", "n_diode", "r_tail", "r_psrc", "r_pcasc", "r_ncasc",
        ])
        .emits(["bias-design"])
        .step("check-swing", |s: &mut State, _| {
            let vdd = s.process.vdd().volts();
            let vss = s.process.vss().volts();
            // Top: the source device plus the cascode each need an
            // overdrive; the 2·V_SG gate bias costs one threshold more of
            // margin at the cascode source.
            let p = s.process.pmos();
            let hi = vdd - (2.0 * VOV_C + p.vth().volts());
            let mirror = s.out_mirror.as_ref().expect("mirror designed");
            let lo = vss + mirror.compliance();
            s.swing = (lo, hi);
            if s.spec.has_swing() {
                let need = s.spec.output_swing().volts();
                if hi < need || lo > -need {
                    return StepOutcome::failed(
                        "swing-short",
                        format!("achievable {lo:+.2} … {hi:+.2} V misses ±{need:.1} V"),
                    );
                }
            }
            StepOutcome::Done
        })
        .reads(["spec", "process", "out_mirror"])
        .writes(["swing"])
        .emits(["swing-short"])
        .step("check-offset", |s: &mut State, _| {
            // Fully cascoded: the residual is ΔV·g_out/gm1 like the
            // cascode OTA.
            let delta_v = 2.5;
            s.offset_v = delta_v / s.rout / s.gm1;
            if s.spec.has_offset() && s.offset_v > s.spec.max_offset().volts() {
                return StepOutcome::failed(
                    "offset-high",
                    format!("systematic offset {:.3} mV", s.offset_v * 1e3),
                );
            }
            StepOutcome::Done
        })
        .reads(["spec", "gm1", "rout"])
        .writes(["offset_v"])
        .emits(["offset-high"])
        .step("check-phase", |s: &mut State, _| {
            // Non-dominant pole at the folding node: the cascode's gm
            // over the junk parked there (pair drain, source drain,
            // cascode source).
            let gm_casc = 2.0 * s.i_branch() / VOV_C;
            let c_fold = {
                let pair = s.pair.as_ref().expect("pair designed");
                let m1 = Mosfet::new(Polarity::Nmos, pair.geometry(), &s.process);
                let op1 = m1.operating_point(s.process.nmos().vth().volts() + pair.vov(), 2.0, 0.0);
                let c1 = m1.capacitances(&op1).drain_total().farads();
                let src = s.p_source.expect("branches designed");
                let m3 = Mosfet::new(Polarity::Pmos, src, &s.process);
                let vsg = s.process.pmos().vth().volts() + VOV_C;
                let op3 = m3.operating_point(-vsg, -2.0, 0.0);
                let c3 = m3.capacitances(&op3).drain_total().farads();
                let casc = s.p_cascode.expect("branches designed");
                let m5 = Mosfet::new(Polarity::Pmos, casc, &s.process);
                let op5 = m5.operating_point(-vsg, -2.0, 0.0);
                let c5 = m5.capacitances(&op5).cgs().farads();
                c1 + c3 + c5
            };
            let p2 = gm_casc / (2.0 * std::f64::consts::PI * c_fold);
            let fu = s.gm1 / (2.0 * std::f64::consts::PI * s.spec.load().farads());
            s.pm_deg = 90.0 - (fu / p2).atan().to_degrees();
            if s.pm_deg < s.spec.phase_margin().degrees() {
                return StepOutcome::failed(
                    "pm-short",
                    format!("folding-node pole leaves {:.1}°", s.pm_deg),
                );
            }
            StepOutcome::Done
        })
        .reads([
            "spec",
            "process",
            "gm1",
            "i_tail",
            "pair",
            "p_source",
            "p_cascode",
        ])
        .writes(["pm_deg"])
        .emits(["pm-short"])
        .step("check-noise", |s: &mut State, _| {
            if !s.spec.has_noise() {
                return StepOutcome::Done;
            }
            let kt = 1.380649e-23 * 300.0;
            let gm_others = 2.0 * s.i_fold() / VOV_C + 2.0 * s.i_branch() / VOV_C;
            let noise = (2.0 * (8.0 / 3.0) * kt / s.gm1 * (1.0 + gm_others / s.gm1)).sqrt();
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
        .reads(["spec", "gm1", "i_tail"])
        .writes(NONE)
        .emits(["noise-high"])
        .step("check-power", |s: &mut State, _| {
            let span = s.process.supply_span().volts();
            let power = span * s.total_current();
            if s.spec.has_power() && power > s.spec.max_power().watts() {
                return StepOutcome::failed(
                    "power-high",
                    format!("quiescent power {:.2} mW", power * 1e3),
                );
            }
            StepOutcome::Done
        })
        .reads(["spec", "process", "i_tail"])
        .writes(NONE)
        .emits(["power-high"])
        .step("predict", |s: &mut State, _| {
            let span = s.process.supply_span().volts();
            let gain = s.gm1 * s.rout;
            let tail = s.tail.as_ref().expect("bias designed");
            let gm_casc = 2.0 * s.i_branch() / VOV_C;
            let cmrr = gain * 2.0 * gm_casc * tail.rout();
            // Pair plus the fold current sources and the mirror bottoms
            // all inject channel noise; lump the non-pair devices as one
            // gm at the cascode overdrive per side.
            let kt = 1.380649e-23 * 300.0;
            let gm_others = 2.0 * s.i_fold() / VOV_C + 2.0 * s.i_branch() / VOV_C;
            let noise = (2.0 * (8.0 / 3.0) * kt / s.gm1 * (1.0 + gm_others / s.gm1)).sqrt();
            s.predicted = Some(Predicted {
                dc_gain_db: 20.0 * gain.log10(),
                unity_gain_hz: s.gm1 / (2.0 * std::f64::consts::PI * s.spec.load().farads()),
                phase_margin_deg: s.pm_deg,
                slew_v_per_s: s.i_tail / s.spec.load().farads(),
                swing_neg_v: s.swing.0,
                swing_pos_v: s.swing.1,
                offset_v: s.offset_v,
                power_w: span * s.total_current(),
                cmrr_db: 20.0 * cmrr.log10(),
                noise_v_rthz: noise,
            });
            StepOutcome::Done
        })
        .reads([
            "spec", "process", "gm1", "i_tail", "rout", "tail", "pm_deg", "swing", "offset_v",
        ])
        .writes(["predicted"])
        .emits(NONE)
        // ---- patch rules ----
        .rule("lower-pair-overdrive", ["gain-short", "noise-high"])
        .when(|s: &State| s.vov1 > 0.06)
        .patch(|s: &mut State, _| {
            s.vov1 /= 1.5;
            s.notes
                .push(format!("lowered pair overdrive to {:.2} V", s.vov1));
            Ok(())
        })
        .reads(["vov1"])
        .writes(["vov1", "notes"])
        .restarts_from("size-input")
        .rule(
            "give-up",
            [
                "spec-unsupported",
                "pair-design",
                "branch-design",
                "gain-short",
                "bias-design",
                "swing-short",
                "offset-high",
                "pm-short",
                "power-high",
                "noise-high",
            ],
        )
        .writes(NONE)
        .aborts("folded-cascode style infeasible")
        .build()
}

impl State {
    /// All quiescent branches: tail + two fold branches + four bias
    /// references.
    fn total_current(&self) -> f64 {
        let i_ref = (self.i_tail / 4.0).max(2e-6);
        self.i_tail + 2.0 * self.i_fold() + self.i_tail + self.i_fold() + 2.0 * i_ref
    }
}

/// Runs the folded-cascode plan and assembles the sized schematic.
///
/// # Errors
///
/// [`StyleError::Plan`] when the plan cannot meet the specification;
/// [`StyleError::Netlist`] for template assembly bugs.
pub fn design_folded_cascode(
    spec: &OpAmpSpec,
    process: &Process,
) -> Result<OpAmpDesign, StyleError> {
    let tel = Telemetry::disabled();
    design_folded_cascode_with(spec, process, &tel)
}

/// [`design_folded_cascode`] with run telemetry recorded into `tel`.
///
/// # Errors
///
/// Same failure modes as [`design_folded_cascode`].
pub fn design_folded_cascode_with(
    spec: &OpAmpSpec,
    process: &Process,
    tel: &Telemetry,
) -> Result<OpAmpDesign, StyleError> {
    run_style::<FoldedCascodeDef>(spec, process, &DesignContext::new(tel))
}

/// The folded cascode's [`StyleDef`]: the plan above plus state
/// construction. Everything else is the shared [`run_style`] engine.
pub(super) struct FoldedCascodeDef;

impl StyleDef for FoldedCascodeDef {
    const STYLE: OpAmpStyle = OpAmpStyle::FoldedCascode;
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
        let r_total = self.r_tail + self.r_psrc + self.r_pcasc + self.r_ncasc;
        let device = |g: &Geometry| AreaEstimate::for_device(g, &self.process);
        self.pair.as_ref().expect("plan done").area()
            + self.tail.as_ref().expect("plan done").area()
            + self.out_mirror.as_ref().expect("plan done").area()
            + device(&self.p_source.expect("plan done")) * 2.0
            + device(&self.p_cascode.expect("plan done")) * 2.0
            + device(&self.p_diode.expect("plan done")) * 3.0
            + device(&self.n_diode.expect("plan done")) * 2.0
            + AreaEstimate::from_um2(r_total / BIAS_SHEET_OHMS * w_min * w_min, 0.0)
    }

    fn predicted(&self) -> Predicted {
        self.predicted.expect("predict ran")
    }

    fn take_notes(&mut self) -> Vec<String> {
        std::mem::take(&mut self.notes)
    }
}

/// Assembles the folded-cascode netlist.
fn emit(state: &State) -> Result<Circuit, oasys_netlist::ValidateError> {
    let pair = state.pair.as_ref().expect("plan done");
    let tail = state.tail.as_ref().expect("plan done");
    let out_mirror = state.out_mirror.as_ref().expect("plan done");
    let p_source = state.p_source.expect("plan done");
    let p_cascode = state.p_cascode.expect("plan done");
    let p_diode = state.p_diode.expect("plan done");
    let n_diode = state.n_diode.expect("plan done");

    let mut c = Circuit::new("folded-cascode OTA");
    let vdd = c.node("vdd");
    let vss = c.node("vss");
    let inp = c.node("inp");
    let inn = c.node("inn");
    let out = c.node("out");
    let tail_node = c.node("tail");
    let fold_a = c.node("fold_a");
    let fold_b = c.node("fold_b");
    let mir_in = c.node("mir_in");
    let nbias1 = c.node("nbias1");
    let pbias1 = c.node("pbias1");
    let pbias2 = c.node("pbias2");
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

    // Input pair: M1 (gate inp) drains into fold_a, M2 into fold_b.
    pair.emit(&mut c, "DP_", inp, inn, fold_b, fold_a, tail_node, vss)?;
    // Tail mirror with its reference resistor.
    tail.emit(&mut c, "TL_", nbias1, tail_node, vss, None)?;
    c.add_resistor("RB_TL", vdd, nbias1, state.r_tail)?;

    // PMOS current sources: reference diode + two matched outputs.
    c.add_mosfet(
        "SRC_MDIO",
        Polarity::Pmos,
        p_source,
        pbias1,
        pbias1,
        vdd,
        vdd,
    )?;
    c.add_resistor("RB_SRC", pbias1, vss, state.r_psrc)?;
    c.add_mosfet("SRC_M3", Polarity::Pmos, p_source, fold_a, pbias1, vdd, vdd)?;
    c.add_mosfet("SRC_M4", Polarity::Pmos, p_source, fold_b, pbias1, vdd, vdd)?;

    // PMOS cascode gate bias: two stacked diodes from VDD.
    let pmid = c.node("pbias_mid");
    c.add_mosfet("PCB_M1", Polarity::Pmos, p_diode, pmid, pmid, vdd, vdd)?;
    c.add_mosfet("PCB_M2", Polarity::Pmos, p_diode, pbias2, pbias2, pmid, vdd)?;
    c.add_resistor("RB_PC", pbias2, vss, state.r_pcasc)?;

    // PMOS cascodes fold the branches down.
    c.add_mosfet(
        "CAS_M5",
        Polarity::Pmos,
        p_cascode,
        mir_in,
        pbias2,
        fold_a,
        vdd,
    )?;
    c.add_mosfet(
        "CAS_M6",
        Polarity::Pmos,
        p_cascode,
        out,
        pbias2,
        fold_b,
        vdd,
    )?;

    // NMOS cascode gate bias: two stacked diodes from VSS.
    let nmid = c.node("nbias_mid");
    c.add_mosfet("NCB_M1", Polarity::Nmos, n_diode, nmid, nmid, vss, vss)?;
    c.add_mosfet("NCB_M2", Polarity::Nmos, n_diode, nbias2, nbias2, nmid, vss)?;
    c.add_resistor("RB_NC", vdd, nbias2, state.r_ncasc)?;

    // Wide-swing NMOS output mirror.
    out_mirror.emit(&mut c, "OM_", mir_in, out, vss, Some(nbias2))?;

    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::test_cases;
    use oasys_process::builtin;

    #[test]
    fn plan_analyzes_clean() {
        let report = oasys_plan::analyze(FoldedCascodeDef::plan());
        assert!(report.is_empty(), "{}", report.render_human());
    }

    #[test]
    fn designs_a_mid_gain_spec() {
        // 80 dB, modest swing: the folded cascode's sweet spot.
        let spec = OpAmpSpec::builder()
            .dc_gain_db(80.0)
            .unity_gain_mhz(0.5)
            .phase_margin_deg(45.0)
            .load_pf(5.0)
            .slew_rate_v_per_us(2.0)
            .output_swing_v(2.5)
            .build()
            .unwrap();
        let d = design_folded_cascode(&spec, &builtin::cmos_5um()).unwrap();
        assert_eq!(d.style(), OpAmpStyle::FoldedCascode);
        let p = d.predicted();
        assert!(p.dc_gain_db >= 80.0, "gain {:.1}", p.dc_gain_db);
        assert!(p.phase_margin_deg >= 45.0);
        assert!(p.swing_symmetric() >= 2.5);
        // Full cell: pair 2 + tail 2 + sources 3 + p-casc bias 2 +
        // cascodes 2 + n-casc bias 2 + WS mirror 4 = 17 devices.
        assert!(d.device_count() >= 15, "{} devices", d.device_count());
        d.circuit().validate().unwrap();
    }

    #[test]
    fn rejects_wide_swing_specs() {
        // ±4 V swing is impossible under the stacked cascodes.
        let spec = OpAmpSpec::builder()
            .dc_gain_db(80.0)
            .unity_gain_mhz(0.5)
            .phase_margin_deg(45.0)
            .load_pf(5.0)
            .output_swing_v(4.0)
            .build()
            .unwrap();
        assert!(design_folded_cascode(&spec, &builtin::cmos_5um()).is_err());
    }

    #[test]
    fn case_a_is_feasible_but_hungry() {
        // Case A fits the folded cascode electrically; the style burns
        // several branches of current doing it.
        let d = design_folded_cascode(&test_cases::spec_a(), &builtin::cmos_5um());
        if let Ok(d) = d {
            assert!(d.predicted().power_w > 2.0 * 200e-6);
        }
    }

    #[test]
    fn folded_cascode_verifies_in_simulation() {
        let spec = OpAmpSpec::builder()
            .dc_gain_db(80.0)
            .unity_gain_mhz(0.5)
            .phase_margin_deg(45.0)
            .load_pf(5.0)
            .slew_rate_v_per_us(2.0)
            .output_swing_v(2.0)
            .build()
            .unwrap();
        let process = builtin::cmos_5um();
        let d = design_folded_cascode(&spec, &process).unwrap();
        let v = crate::verify(&d, &process, spec.load().farads()).unwrap();
        let m = &v.measured;
        assert!(
            m.dc_gain_db >= 80.0 - 3.0,
            "measured {:.1} dB vs predicted {:.1} dB",
            m.dc_gain_db,
            d.predicted().dc_gain_db
        );
        let fu = m.unity_gain_hz.expect("crosses 0 dB");
        assert!(fu >= 0.5e6 * 0.7, "fu {fu:.3e}");
        let pm = m.phase_margin_deg.expect("has margin");
        assert!(pm > 35.0, "pm {pm:.1}");
    }

    #[test]
    fn gain_beyond_single_stage_fails() {
        let spec = test_cases::spec_a().with_dc_gain_db(115.0);
        assert!(design_folded_cascode(&spec, &builtin::cmos_5um()).is_err());
    }
}
