//! The one-stage operational-transconductance-amplifier style.
//!
//! Template (hierarchical, per the paper's Figure 2): an NMOS differential
//! pair, a PMOS current-mirror load (simple, or cascoded when the gain
//! demands it — the Figure 7 "topology change"), an NMOS tail mirror fed
//! from a resistor reference. The load capacitor itself compensates the
//! amplifier, so there is no compensation sub-block.
//!
//! The translation plan derives `gm1` from the unity-gain and slew
//! requirements, splits the output-conductance budget between the pair
//! and the load (a heuristic the patch rules re-skew), and sizes each
//! sub-block through its own designer. Patch rules: cascode the load,
//! lower the pair overdrive, and the aborts that reproduce the paper's
//! case-B narrative (the style's inherent systematic offset and the
//! gain/swing conflict cannot be patched away).

use super::{run_style, OpAmpDesign, OpAmpStyle, StyleDef, StyleError, StyleState};
use crate::datasheet::Predicted;
use crate::spec::OpAmpSpec;
use oasys_blocks::area::AreaEstimate;
use oasys_blocks::diffpair::{DiffPair, DiffPairSpec};
use oasys_blocks::mirror::{CurrentMirror, MirrorSpec, MirrorStyle};
use oasys_mos::Mosfet;
use oasys_netlist::Circuit;
use oasys_plan::{DesignContext, Expr, Interval, PerfRelation, Plan, StepOutcome};
use oasys_process::{Polarity, Process};
use oasys_telemetry::Telemetry;
use oasys_units::Dimension;
use std::sync::OnceLock;

/// Longest pair channel, in multiples of the process minimum.
const MAX_L_FACTOR: f64 = 4.0;
/// Initial pair overdrive target, V.
const VOV1_INIT: f64 = 0.20;
/// Initial pair share of the output-conductance budget.
const ALPHA_INIT: f64 = 0.5;
/// Pair share once the load is cascoded (the load then contributes
/// almost nothing).
const ALPHA_CASCODE: f64 = 0.85;
/// Sheet resistance assumed for bias resistors (a serpentine well
/// resistor), Ω/square.
const BIAS_SHEET_OHMS: f64 = 10_000.0;

/// Empty annotation list (the builder cannot infer element types from `[]`).
const NONE: [&str; 0] = [];

/// Mutable design state threaded through the plan.
pub(super) struct State {
    spec: OpAmpSpec,
    process: Process,
    // Heuristic knobs the patch rules adjust.
    vov1: f64,
    alpha: f64,
    load_cascoded: bool,
    /// Multiplier on the slew-derived tail current, raised when junction
    /// parasitics on the output eat into the achieved slew rate.
    slew_boost: f64,
    // Derived electrical targets.
    gm1: f64,
    i_tail: f64,
    pair_l_um: f64,
    // Designed sub-blocks.
    pair: Option<DiffPair>,
    load: Option<CurrentMirror>,
    tail: Option<CurrentMirror>,
    r_bias: f64,
    // Analysis results.
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
            alpha: ALPHA_INIT,
            load_cascoded: false,
            slew_boost: 1.0,
            gm1: 0.0,
            i_tail: 0.0,
            pair_l_um: 0.0,
            pair: None,
            load: None,
            tail: None,
            r_bias: 0.0,
            swing: (0.0, 0.0),
            offset_v: 0.0,
            pm_deg: 0.0,
            predicted: None,
            notes: Vec::new(),
        }
    }

    fn gout_total(&self) -> f64 {
        self.gm1 / self.spec.dc_gain_linear()
    }

    /// Junction/overlap capacitance the OTA hangs on its own output (the
    /// M2 pair device plus the load mirror's output device), F.
    fn output_parasitic_cap(&self) -> f64 {
        let mut total = 0.0;
        if let Some(pair) = &self.pair {
            let m = Mosfet::new(Polarity::Nmos, pair.geometry(), &self.process);
            let vgs = self.process.nmos().vth().volts() + pair.vov();
            let op = m.operating_point(vgs, 2.0, 0.0);
            total += m.capacitances(&op).drain_total().farads();
        }
        if let Some(load) = &self.load {
            let m = Mosfet::new(Polarity::Pmos, load.unit_geometry(), &self.process);
            let vgs = load.vgs();
            let op = m.operating_point(-vgs, -2.0, 0.0);
            total += m.capacitances(&op).drain_total().farads();
        }
        total
    }

    fn cl_effective(&self) -> f64 {
        self.spec.load().farads() + self.output_parasitic_cap()
    }
}

/// The one-stage style's declared performance relations (see
/// [`super::perf_relations`]).
///
/// The gain ceiling is the single intrinsic gain `gm/gout` this
/// topology offers, taken at every favorable extreme: the whole output
/// conductance budget on the pair, the pair channel at the
/// `MAX_L_FACTOR` cap `gain-budget` enforces, and the overdrive at
/// [`super::STATIC_VOV_FLOOR`]. The swing relation mirrors `check-spec`
/// exactly: the output must clear the load's headroom on the positive
/// rail.
pub(super) fn perf_relations(spec: &OpAmpSpec, process: &Process) -> Vec<PerfRelation> {
    let ceiling = super::stage_gain_ceiling(
        process.nmos().lambda_l(),
        process.min_length().micrometers(),
        MAX_L_FACTOR,
    );
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
            Interval::at_most(process.vdd().volts() - 0.4),
        ));
    }
    relations
}

/// Builds the one-stage translation plan (steps and patch rules).
fn build_plan() -> Plan<State> {
    Plan::<State>::builder("one-stage OTA")
        .inputs([
            "spec",
            "process",
            "vov1",
            "alpha",
            "load_cascoded",
            "slew_boost",
            "notes",
        ])
        // Knob domains for the interval analyzer: the initial values,
        // widened to the whole range the patch rules can steer through.
        .input_domain("vov1", Interval::new(0.05, 0.5), Dimension::VOLTAGE)
        .input_domain(
            "alpha",
            Interval::new(ALPHA_INIT, ALPHA_CASCODE),
            Dimension::NONE,
        )
        .input_domain("slew_boost", Interval::new(1.0, 8.0), Dimension::NONE)
        .step("check-spec", |s: &mut State, _| {
            let vdd = s.process.vdd().volts();
            if s.spec.has_swing() && s.spec.output_swing().volts() > vdd - 0.4 {
                return StepOutcome::failed(
                    "spec-unsupported",
                    format!(
                        "requested ±{:.1} V swing leaves no headroom on ±{vdd:.1} V rails",
                        s.spec.output_swing().volts()
                    ),
                );
            }
            StepOutcome::Done
        })
        .reads(["spec", "process"])
        .writes(NONE)
        .emits(["spec-unsupported"])
        .step("size-input-gm", |s: &mut State, _| {
            // gm floor from the unity-gain spec (the OTA's f_u = gm1/2πC_L),
            // current floor from the slew spec; keep the pair at its target
            // overdrive, letting f_u exceed its minimum if slew dominates.
            let gm_min = 2.0
                * std::f64::consts::PI
                * s.spec.unity_gain_freq().hertz()
                * s.spec.load().farads();
            let i_slew =
                s.spec.slew_rate().volts_per_second() * s.spec.load().farads() * s.slew_boost;
            s.i_tail = i_slew.max(gm_min * s.vov1).max(1e-6);
            s.gm1 = s.i_tail / s.vov1;
            StepOutcome::Done
        })
        .reads(["spec", "vov1", "slew_boost"])
        .writes(["gm1", "i_tail"])
        // Interval transfers mirroring the step's arithmetic. The
        // spec-derived floors are opaque to the analyzer (`i_slew`,
        // `gm_min` are not state variables), so `i_tail` degrades to
        // unknown — what matters is that `gm1 = i_tail / vov1` shows the
        // divisor, whose declared domain excludes zero.
        .transfer(
            "i_tail",
            Expr::var("i_slew")
                .max(Expr::var("gm_min").mul(Expr::var("vov1")))
                .max(Expr::qty(1e-6, Dimension::CURRENT)),
        )
        .transfer("gm1", Expr::var("i_tail").div(Expr::var("vov1")))
        .emits(NONE)
        .step("gain-budget", |s: &mut State, _| {
            // Split the allowed output conductance between pair and load,
            // then pick the pair channel length that fits its share.
            let pair_budget = s.alpha * s.gout_total();
            let mos = s.process.nmos();
            let l_needed = mos.lambda_l() * (s.i_tail / 2.0) / pair_budget;
            let l_min = s.process.min_length().micrometers();
            s.pair_l_um = l_needed.max(l_min);
            if s.pair_l_um > MAX_L_FACTOR * l_min {
                return StepOutcome::failed(
                    "pair-gain-short",
                    format!(
                        "pair needs L = {:.1} µm (> {MAX_L_FACTOR}× minimum) for its \
                         share of the {:.1} dB gain",
                        s.pair_l_um,
                        s.spec.dc_gain().db()
                    ),
                );
            }
            StepOutcome::Done
        })
        .reads(["spec", "process", "alpha", "gm1", "i_tail"])
        .writes(["pair_l_um"])
        .emits(["pair-gain-short"])
        .step("design-pair", |s: &mut State, ctx| {
            let spec =
                DiffPairSpec::new(Polarity::Nmos, s.gm1, s.i_tail).with_length_um(s.pair_l_um);
            match DiffPair::design_with(&spec, &s.process, ctx) {
                Ok(pair) => {
                    s.pair = Some(pair);
                    StepOutcome::Done
                }
                Err(e) => StepOutcome::failed("pair-design", e.to_string()),
            }
        })
        .reads(["process", "gm1", "i_tail", "pair_l_um"])
        .writes(["pair"])
        .emits(["pair-design"])
        .step("design-load", |s: &mut State, ctx| {
            let load_budget = (1.0 - s.alpha) * s.gout_total();
            let vdd = s.process.vdd().volts();
            // Headroom: the load stack must stay saturated up to the most
            // positive output the spec demands.
            let headroom = if s.spec.has_swing() {
                vdd - s.spec.output_swing().volts()
            } else {
                (vdd - 3.0).max(1.0)
            };
            let style = if s.load_cascoded {
                MirrorStyle::Cascode
            } else {
                MirrorStyle::Simple
            };
            let spec = MirrorSpec::new(Polarity::Pmos, s.i_tail / 2.0)
                .with_min_rout(1.0 / load_budget)
                .with_headroom(headroom)
                .with_only_style(style);
            match CurrentMirror::design_with(&spec, &s.process, ctx) {
                Ok(m) => {
                    s.load = Some(m);
                    StepOutcome::Done
                }
                Err(e) => StepOutcome::failed("load-design", e.to_string()),
            }
        })
        .reads(["spec", "process", "alpha", "gm1", "i_tail", "load_cascoded"])
        .writes(["load"])
        .emits(["load-design"])
        .step("design-tail", |s: &mut State, ctx| {
            let spec = MirrorSpec::new(Polarity::Nmos, s.i_tail)
                .with_headroom(1.5)
                .with_only_style(MirrorStyle::Simple);
            match CurrentMirror::design_with(&spec, &s.process, ctx) {
                Ok(m) => {
                    s.tail = Some(m);
                    StepOutcome::Done
                }
                Err(e) => StepOutcome::failed("tail-design", e.to_string()),
            }
        })
        .reads(["process", "i_tail"])
        .writes(["tail"])
        .emits(["tail-design"])
        .step("bias-resistor", |s: &mut State, _| {
            let tail = s.tail.as_ref().expect("design-tail ran");
            let span = s.process.supply_span().volts();
            let drop = span - tail.input_voltage();
            if drop < 0.5 {
                return StepOutcome::failed(
                    "bias-headroom",
                    "no headroom left for the bias resistor",
                );
            }
            s.r_bias = drop / tail.spec().input_current();
            StepOutcome::Done
        })
        .reads(["process", "tail"])
        .writes(["r_bias"])
        .emits(["bias-headroom"])
        .step("check-swing", |s: &mut State, _| {
            let load = s.load.as_ref().expect("design-load ran");
            let tail = s.tail.as_ref().expect("design-tail ran");
            let pair = s.pair.as_ref().expect("design-pair ran");
            let vdd = s.process.vdd().volts();
            let vss = s.process.vss().volts();
            let hi = vdd - load.compliance();
            // Two floors limit the negative swing: the tail/pair compliance,
            // and — the binding one at mid-rail common mode — the pair
            // output device entering triode once the output drops more than
            // a (body-effect-corrected) threshold below its gate.
            let compliance_lo = vss + tail.compliance() + pair.vov();
            let nmos = s.process.nmos();
            let mut vgs1 = nmos.vth().volts() + pair.vov();
            for _ in 0..3 {
                let vsb = (-vgs1 - vss).max(0.0);
                vgs1 = nmos.vth().volts()
                    + nmos.gamma() * ((nmos.phi() + vsb).sqrt() - nmos.phi().sqrt())
                    + pair.vov();
            }
            let triode_lo = -(vgs1 - pair.vov()); // v_cm(=0) − Vth_eff
            let lo = compliance_lo.max(triode_lo);
            s.swing = (lo, hi);
            if s.spec.has_swing() {
                let need = s.spec.output_swing().volts();
                if hi < need || lo > -need {
                    return StepOutcome::failed(
                        "swing-short",
                        format!("achievable swing {lo:+.2} V … {hi:+.2} V misses ±{need:.1} V"),
                    );
                }
            }
            StepOutcome::Done
        })
        .reads(["spec", "process", "pair", "load", "tail"])
        .writes(["swing"])
        .emits(["swing-short"])
        .step("check-offset", |s: &mut State, _| {
            // The 5T OTA's inherent systematic offset: the two load-mirror
            // devices see different V_DS (diode voltage vs. the output at
            // mid-rail), so their currents mismatch by λ·ΔV_DS; referred
            // to the input through gm1. A cascoded load shields the bottom
            // devices and shrinks the error to ΔV·g_out/gm1.
            let load = s.load.as_ref().expect("design-load ran");
            let vdd = s.process.vdd().volts();
            let diode_v = vdd - load.input_voltage(); // output-branch DC at balance
            let delta_v = diode_v.abs(); // target output is 0 V
            s.offset_v = if s.load_cascoded {
                delta_v / load.rout() / s.gm1
            } else {
                let lambda = s.process.pmos().lambda(load.unit_geometry().l_um());
                lambda * delta_v * (s.i_tail / 2.0) / s.gm1
            };
            if s.spec.has_offset() && s.offset_v > s.spec.max_offset().volts() {
                return StepOutcome::failed(
                    "offset-high",
                    format!(
                        "systematic offset {:.2} mV exceeds the {:.2} mV ceiling",
                        s.offset_v * 1e3,
                        s.spec.max_offset().volts() * 1e3
                    ),
                );
            }
            StepOutcome::Done
        })
        .reads(["spec", "process", "gm1", "i_tail", "load", "load_cascoded"])
        .writes(["offset_v"])
        .emits(["offset-high"])
        .step("check-phase", |s: &mut State, _| {
            // Non-dominant pole at the mirror node: gm3 over the
            // capacitance hanging there (both mirror gates plus the pair
            // drain junction).
            let load = s.load.as_ref().expect("design-load ran");
            let pair = s.pair.as_ref().expect("design-pair ran");
            let gm3 = 2.0 * (s.i_tail / 2.0) / load.vov();
            let c_mirror = {
                let m3 = Mosfet::new(Polarity::Pmos, load.input_geometry(), &s.process);
                let vgs = load.vgs();
                let op = m3.operating_point(-vgs, -vgs, 0.0);
                let c3 = m3.capacitances(&op);
                let m1 = Mosfet::new(Polarity::Nmos, pair.geometry(), &s.process);
                let op1 = m1.operating_point(s.process.nmos().vth().volts() + pair.vov(), 2.0, 0.0);
                let c1 = m1.capacitances(&op1);
                2.0 * c3.cgs().farads() + c3.cdb().farads() + c1.drain_total().farads()
            };
            let p2 = gm3 / (2.0 * std::f64::consts::PI * c_mirror);
            let fu = s.gm1 / (2.0 * std::f64::consts::PI * s.spec.load().farads());
            s.pm_deg = 90.0 - (fu / p2).atan().to_degrees();
            if s.pm_deg < s.spec.phase_margin().degrees() {
                return StepOutcome::failed(
                    "pm-short",
                    format!(
                        "mirror pole at {p2:.3e} Hz leaves only {:.1}° of margin",
                        s.pm_deg
                    ),
                );
            }
            StepOutcome::Done
        })
        .reads(["spec", "process", "gm1", "i_tail", "pair", "load"])
        .writes(["pm_deg"])
        .emits(["pm-short"])
        .step("check-power", |s: &mut State, _| {
            let span = s.process.supply_span().volts();
            let power = span * 2.0 * s.i_tail; // tail branch + reference branch
            if s.spec.has_power() && power > s.spec.max_power().watts() {
                return StepOutcome::failed(
                    "power-high",
                    format!(
                        "quiescent power {:.2} mW exceeds the {:.2} mW budget",
                        power * 1e3,
                        s.spec.max_power().watts() * 1e3
                    ),
                );
            }
            StepOutcome::Done
        })
        .reads(["spec", "process", "i_tail"])
        .writes(NONE)
        .emits(["power-high"])
        .step("check-noise", |s: &mut State, _| {
            if !s.spec.has_noise() {
                return StepOutcome::Done;
            }
            let load = s.load.as_ref().expect("design-load ran");
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
        .reads(["spec", "gm1", "i_tail", "load"])
        .writes(NONE)
        .emits(["noise-high"])
        .step("check-slew", |s: &mut State, _| {
            if !s.spec.has_slew() {
                return StepOutcome::Done;
            }
            let sr = s.i_tail / s.cl_effective();
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
        .reads(["spec", "process", "i_tail", "pair", "load"])
        .writes(NONE)
        .emits(["slew-short"])
        .step("predict", |s: &mut State, _| {
            let pair = s.pair.as_ref().expect("design-pair ran");
            let load = s.load.as_ref().expect("design-load ran");
            let tail = s.tail.as_ref().expect("design-tail ran");
            let span = s.process.supply_span().volts();
            let gain = s.gm1 / (pair.gds() + 1.0 / load.rout());
            // Classic mirror-loaded pair: A_cm ≈ 1/(2·gm3·R_tail), so
            // CMRR ≈ A_dm · 2·gm3·R_tail (systematic component only).
            let gm3 = 2.0 * (s.i_tail / 2.0) / load.vov();
            let cmrr = gain * 2.0 * gm3 * tail.rout();
            // Thermal floor: both pair devices plus both mirror devices,
            // the latter weighted by (gm3/gm1)².
            let kt = 1.380649e-23 * 300.0;
            let gm1_side = s.gm1;
            let noise = (2.0 * (8.0 / 3.0) * kt / gm1_side * (1.0 + gm3 / gm1_side)).sqrt();
            s.predicted = Some(Predicted {
                dc_gain_db: 20.0 * gain.log10(),
                unity_gain_hz: s.gm1 / (2.0 * std::f64::consts::PI * s.spec.load().farads()),
                phase_margin_deg: s.pm_deg,
                slew_v_per_s: s.i_tail / s.cl_effective(),
                swing_neg_v: s.swing.0,
                swing_pos_v: s.swing.1,
                offset_v: s.offset_v,
                power_w: span * 2.0 * s.i_tail,
                cmrr_db: 20.0 * cmrr.log10(),
                noise_v_rthz: noise,
            });
            StepOutcome::Done
        })
        .reads([
            "spec", "process", "gm1", "i_tail", "pair", "load", "tail", "pm_deg", "swing",
            "offset_v",
        ])
        .writes(["predicted"])
        .emits(NONE)
        // ---- patch rules (consulted in order) ----
        .rule(
            "cascode-load",
            ["pair-gain-short", "load-design", "offset-high", "pm-short"],
        )
        .when(|s: &State| !s.load_cascoded)
        .patch(|s: &mut State, _| {
            s.load_cascoded = true;
            s.alpha = ALPHA_CASCODE;
            s.notes
                .push("cascoded the load mirror for gain/offset".to_owned());
            Ok(())
        })
        .reads(["load_cascoded"])
        .writes(["load_cascoded", "alpha", "notes"])
        .restarts_from("gain-budget")
        .rule("boost-tail-for-slew", ["slew-short"])
        .when(|s: &State| s.slew_boost < 2.5)
        .patch(|s: &mut State, _| {
            s.slew_boost *= 1.25;
            Ok(())
        })
        .reads(["slew_boost"])
        .writes(["slew_boost"])
        .restarts_from("size-input-gm")
        .rule("relax-input-overdrive", ["pm-short"])
        .when(|s: &State| {
            // When slew (not bandwidth) set the tail current, f_u
            // overshoots its spec; trading that excess back (higher
            // V_ov → lower gm1) buys phase margin for free.
            let fu = s.gm1 / (2.0 * std::f64::consts::PI * s.spec.load().farads());
            // Guard against fighting the gain rules: raising V_ov
            // lengthens the pair the gain budget demands; only fire
            // while that stays manufacturable.
            let l_projected =
                s.process.nmos().lambda_l() * (s.vov1 * 1.4) * s.spec.dc_gain_linear()
                    / (2.0 * s.alpha);
            s.vov1 < 0.45
                && fu > 1.3 * s.spec.unity_gain_freq().hertz()
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
        .reads(["spec", "process", "gm1", "vov1", "alpha"])
        .writes(["vov1", "notes"])
        .restarts_from("size-input-gm")
        .rule("lower-pair-overdrive", ["pair-gain-short", "noise-high"])
        .when(|s: &State| s.vov1 > 0.11)
        .patch(|s: &mut State, _| {
            s.vov1 /= 2.0;
            s.notes.push(format!(
                "lowered pair overdrive to {:.2} V for gain",
                s.vov1
            ));
            Ok(())
        })
        .reads(["vov1"])
        .writes(["vov1", "notes"])
        .restarts_from("size-input-gm")
        .rule("swing-gain-conflict", ["swing-short"])
        .when(|s: &State| s.load_cascoded)
        .reads(["load_cascoded"])
        .writes(NONE)
        .aborts(
            "the cascoded load the gain requires cannot meet the output \
             swing — one-stage style cannot satisfy gain and swing \
             simultaneously",
        )
        .rule("inherent-offset", ["offset-high"])
        .when(|s: &State| s.load_cascoded)
        .reads(["load_cascoded"])
        .writes(NONE)
        .aborts(
            "the one-stage style's inherent systematic offset exceeds the \
             specification",
        )
        .rule("give-up-gain", ["pair-gain-short", "load-design"])
        .writes(NONE)
        .aborts(
            "gain infeasible for the one-stage style (with swing and \
             offset constraints limiting the load)",
        )
        .rule(
            "give-up",
            [
                "spec-unsupported",
                "pair-design",
                "tail-design",
                "bias-headroom",
                "swing-short",
                "pm-short",
                "power-high",
                "slew-short",
                "noise-high",
            ],
        )
        .writes(NONE)
        .aborts("one-stage style infeasible")
        .build()
}

/// Runs the one-stage plan and assembles the sized schematic.
///
/// # Errors
///
/// [`StyleError::Plan`] when the plan (after patching) cannot meet the
/// specification; [`StyleError::Netlist`] for template assembly bugs.
pub fn design_one_stage(spec: &OpAmpSpec, process: &Process) -> Result<OpAmpDesign, StyleError> {
    let tel = Telemetry::disabled();
    design_one_stage_with(spec, process, &tel)
}

/// [`design_one_stage`] with telemetry: plan execution and netlist
/// assembly are recorded as spans/events on `tel`.
///
/// # Errors
///
/// Same contract as [`design_one_stage`].
pub fn design_one_stage_with(
    spec: &OpAmpSpec,
    process: &Process,
    tel: &Telemetry,
) -> Result<OpAmpDesign, StyleError> {
    run_style::<OneStageDef>(spec, process, &DesignContext::new(tel))
}

/// The one-stage OTA's [`StyleDef`]: the plan above plus state
/// construction. Everything else is the shared [`run_style`] engine.
pub(super) struct OneStageDef;

impl StyleDef for OneStageDef {
    const STYLE: OpAmpStyle = OpAmpStyle::OneStageOta;
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
        let pair = self.pair.as_ref().expect("plan completed");
        let load = self.load.as_ref().expect("plan completed");
        let tail = self.tail.as_ref().expect("plan completed");
        let w_min = self.process.min_width().micrometers();
        let r_area = self.r_bias / BIAS_SHEET_OHMS * w_min * w_min;
        pair.area() + load.area() + tail.area() + AreaEstimate::from_um2(r_area, 0.0)
    }

    fn predicted(&self) -> Predicted {
        self.predicted.expect("predict step ran")
    }

    fn take_notes(&mut self) -> Vec<String> {
        std::mem::take(&mut self.notes)
    }
}

/// Assembles the OTA netlist from the designed sub-blocks.
fn emit(state: &State) -> Result<Circuit, oasys_netlist::ValidateError> {
    let pair = state.pair.as_ref().expect("plan completed");
    let load = state.load.as_ref().expect("plan completed");
    let tail = state.tail.as_ref().expect("plan completed");

    let mut c = Circuit::new("one-stage OTA");
    let vdd = c.node("vdd");
    let vss = c.node("vss");
    let inp = c.node("inp");
    let inn = c.node("inn");
    let out = c.node("out");
    let tail_node = c.node("tail");
    let d1 = c.node("d1");
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

    // Differential pair: M1 gate = inp drains into the mirror diode (d1),
    // M2 gate = inn drains into the output.
    pair.emit(&mut c, "DP_", inp, inn, out, d1, tail_node, vss)?;
    // PMOS load mirror: diode side at d1, mirrored side at out.
    load.emit(&mut c, "LD_", d1, out, vdd, None)?;
    // NMOS tail mirror fed from the bias resistor.
    tail.emit(&mut c, "TL_", nbias, tail_node, vss, None)?;
    c.add_resistor("RBIAS", vdd, nbias, state.r_bias)?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::test_cases;
    use oasys_process::builtin;

    #[test]
    fn plan_analyzes_clean() {
        let report = oasys_plan::analyze(OneStageDef::plan());
        assert!(report.is_empty(), "{}", report.render_human());
    }

    #[test]
    fn case_a_designs_successfully() {
        let design = design_one_stage(&test_cases::spec_a(), &builtin::cmos_5um()).unwrap();
        assert_eq!(design.style(), OpAmpStyle::OneStageOta);
        let p = design.predicted();
        assert!(p.dc_gain_db >= 60.0, "gain {:.1} dB", p.dc_gain_db);
        assert!(p.unity_gain_hz >= 0.5e6);
        assert!(p.phase_margin_deg >= 45.0);
        assert!(p.slew_v_per_s >= 2e6 * 0.99);
        assert!(p.swing_symmetric() >= 1.2);
        // Netlist shape: 2 pair + load mirror + tail mirror devices.
        assert!(design.device_count() >= 6);
        design.circuit().validate().unwrap();
    }

    #[test]
    fn case_a_cascodes_the_load_for_gain() {
        let tel = Telemetry::new();
        let design =
            design_one_stage_with(&test_cases::spec_a(), &builtin::cmos_5um(), &tel).unwrap();
        assert!(
            design.notes().iter().any(|n| n.contains("cascoded")),
            "notes: {:?}",
            design.notes()
        );
        assert!(tel.counter("plan.rule_firings") >= 1);
    }

    #[test]
    fn case_b_fails_as_the_paper_reports() {
        let err = design_one_stage(&test_cases::spec_b(), &builtin::cmos_5um()).unwrap_err();
        let reason = err.reason();
        assert!(
            reason.contains("gain") || reason.contains("swing") || reason.contains("offset"),
            "unexpected failure reason: {reason}"
        );
    }

    #[test]
    fn case_c_fails() {
        assert!(design_one_stage(&test_cases::spec_c(), &builtin::cmos_5um()).is_err());
    }

    #[test]
    fn low_gain_spec_keeps_simple_load() {
        let spec = test_cases::spec_a().with_dc_gain_db(40.0);
        let design = design_one_stage(&spec, &builtin::cmos_5um()).unwrap();
        assert!(
            design.notes().is_empty(),
            "no patching expected at 40 dB: {:?}",
            design.notes()
        );
        // Simple load: 2 pair + 2 load + 2 tail = 6 devices.
        assert_eq!(design.device_count(), 6);
    }

    #[test]
    fn high_gain_uses_more_devices() {
        let lo = design_one_stage(
            &test_cases::spec_a().with_dc_gain_db(40.0),
            &builtin::cmos_5um(),
        )
        .unwrap();
        let hi = design_one_stage(
            &test_cases::spec_a().with_dc_gain_db(61.0),
            &builtin::cmos_5um(),
        )
        .unwrap();
        assert!(
            hi.device_count() > lo.device_count(),
            "cascode adds devices"
        );
    }

    #[test]
    fn absurd_gain_fails_after_patching() {
        let spec = test_cases::spec_a().with_dc_gain_db(100.0);
        let tel = Telemetry::new();
        let err = design_one_stage_with(&spec, &builtin::cmos_5um(), &tel).unwrap_err();
        assert!(matches!(err, StyleError::Plan(_)), "{err}");
        assert!(
            tel.counter("plan.rule_firings") >= 1,
            "rules should have tried patching"
        );
    }

    #[test]
    fn bigger_load_means_bigger_devices() {
        let small = design_one_stage(&test_cases::spec_a(), &builtin::cmos_5um()).unwrap();
        let large = design_one_stage(
            &test_cases::spec_a().with_load_pf(20.0),
            &builtin::cmos_5um(),
        )
        .unwrap();
        assert!(large.area().total_um2() > small.area().total_um2());
    }
}
