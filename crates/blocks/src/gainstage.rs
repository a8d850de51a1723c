//! Transconductance (gain) stage designer.
//!
//! The second stage of the two-stage op-amp style: a common-source
//! amplifier whose load is a current source (supplied by a mirror). Two
//! styles are available, matching the paper's patch rule that *"one stage
//! is cascoded to increase the gain"* when a gain partition proves
//! unimplementable: a plain common-source stage, and a cascoded one with
//! roughly `gm·r_o` more gain.

use crate::area::AreaEstimate;
use crate::common::{require_positive, snap_width_um, DesignError, DEFAULT_VOV};
use oasys_mos::{sizing, Geometry};
use oasys_netlist::{Circuit, NodeId, ValidateError};
use oasys_plan::{BlockDesigner, CacheKey, DesignContext, Selected, StyleRejection};
use oasys_process::{Polarity, Process};
use oasys_telemetry::{sym, Telemetry};
use std::fmt;

/// Overdrive floor for the driver device.
const MIN_VOV: f64 = 0.10;

/// Gain-stage topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GainStageStyle {
    /// Plain common-source driver.
    Simple,
    /// Common-source driver with a cascode device stacked on its drain.
    Cascode,
}

impl GainStageStyle {
    /// Both styles in escalation order (cheapest first).
    pub const ALL: [GainStageStyle; 2] = [GainStageStyle::Simple, GainStageStyle::Cascode];

    /// Every style's [`name`](Self::name), in [`ALL`](Self::ALL) order.
    pub(crate) const NAMES: [&'static str; Self::ALL.len()] =
        [Self::ALL[0].name(), Self::ALL[1].name()];

    /// The style's display name, which [`GainStageStyle::from_name`]
    /// reads back.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            GainStageStyle::Simple => "simple",
            GainStageStyle::Cascode => "cascode",
        }
    }

    /// Parses a style from its display name (`"simple"`, `"cascode"`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for GainStageStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Specification for a gain stage.
///
/// # Examples
///
/// ```
/// use oasys_blocks::gainstage::GainStageSpec;
/// use oasys_process::Polarity;
/// let spec = GainStageSpec::new(Polarity::Nmos, 500e-6, 100e-6)
///     .with_min_gain(100.0);
/// assert_eq!(spec.bias_current(), 100e-6);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GainStageSpec {
    polarity: Polarity,
    /// Target driver transconductance, S.
    gm: f64,
    /// Stage bias current, A.
    bias_current: f64,
    /// Minimum stage voltage gain magnitude (driver gm × total r_out),
    /// counting the load mirror's conductance. 0 = unconstrained.
    min_gain: f64,
    /// Output conductance of the load the stage drives (its mirror), S.
    /// Defaults to a load matching the driver's own g_ds.
    load_gds: Option<f64>,
    /// Optional driver channel-length override, µm (defaults to the
    /// process minimum).
    length_um: Option<f64>,
}

impl GainStageSpec {
    /// A stage with target transconductance `gm` at `bias_current`.
    #[must_use]
    pub fn new(polarity: Polarity, gm: f64, bias_current: f64) -> Self {
        Self {
            polarity,
            gm,
            bias_current,
            min_gain: 0.0,
            load_gds: None,
            length_um: None,
        }
    }

    /// Overrides the driver channel length (µm), lowering `g_ds` for
    /// gain-driven designs.
    #[must_use]
    pub fn with_length_um(mut self, l_um: f64) -> Self {
        self.length_um = Some(l_um);
        self
    }

    /// Requires at least this much voltage gain from the stage.
    #[must_use]
    pub fn with_min_gain(mut self, gain: f64) -> Self {
        self.min_gain = gain;
        self
    }

    /// Declares the load's output conductance (S), so the stage gain
    /// accounting is honest about the mirror it works against.
    #[must_use]
    pub fn with_load_gds(mut self, gds: f64) -> Self {
        self.load_gds = Some(gds);
        self
    }

    /// Driver polarity.
    #[must_use]
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// Target transconductance, S.
    #[must_use]
    pub fn gm(&self) -> f64 {
        self.gm
    }

    /// Stage bias current, A.
    #[must_use]
    pub fn bias_current(&self) -> f64 {
        self.bias_current
    }

    /// Minimum required stage gain.
    #[must_use]
    pub fn min_gain(&self) -> f64 {
        self.min_gain
    }

    fn validate(&self) -> Result<(), DesignError> {
        require_positive("gainstage", "gm", self.gm)?;
        require_positive("gainstage", "bias_current", self.bias_current)?;
        if self.min_gain < 0.0 || !self.min_gain.is_finite() {
            return Err(DesignError::invalid(
                "gainstage",
                format!("min_gain must be non-negative, got {}", self.min_gain),
            ));
        }
        Ok(())
    }
}

/// A designed gain stage.
#[derive(Clone, Debug, PartialEq)]
pub struct GainStage {
    style: GainStageStyle,
    spec: GainStageSpec,
    driver: Geometry,
    cascode: Option<Geometry>,
    vov: f64,
    gm: f64,
    /// Conductance looking into the stage output (driver side only), S.
    gout_driver: f64,
    gain: f64,
    area: AreaEstimate,
}

impl GainStage {
    /// Designs the stage on the shared [`BlockDesigner`] engine: both
    /// styles are evaluated breadth-first and the smallest-area feasible
    /// one wins. The simple driver is always smaller than the cascoded
    /// one, so the stage cascodes only when the gain floor demands it —
    /// the paper's escalation rule, expressed as area selection.
    ///
    /// # Errors
    ///
    /// [`DesignError::InvalidSpec`] for malformed inputs;
    /// [`DesignError::Infeasible`] when even the cascoded style cannot
    /// reach `min_gain`.
    pub fn design(spec: &GainStageSpec, process: &Process) -> Result<Self, DesignError> {
        let tel = Telemetry::disabled();
        Self::select(spec, process, &DesignContext::new(&tel))
    }

    /// As [`GainStage::design`], but recording through `ctx`: the
    /// invocation appears as a `block:gain stage` telemetry span, and a
    /// context-carried [`oasys_plan::MemoCache`] memoizes the result under
    /// the spec's bit-exact fingerprint.
    ///
    /// # Errors
    ///
    /// As for [`GainStage::design`].
    pub fn design_with(
        spec: &GainStageSpec,
        process: &Process,
        ctx: &DesignContext<'_>,
    ) -> Result<Self, DesignError> {
        ctx.design_child_sym(
            sym!("block:gain stage"),
            "gain stage",
            Some(Self::cache_key(spec)),
            || Self::select(spec, process, ctx),
        )
    }

    fn select(
        spec: &GainStageSpec,
        process: &Process,
        ctx: &DesignContext<'_>,
    ) -> Result<Self, DesignError> {
        spec.validate()?;
        GainStageDesigner::new(process)
            .design(spec, ctx)
            .map(Selected::into_output)
            .map_err(|failure| {
                // Surface the last rejection (the cascode, the final
                // escalation step) on its own — it carries the "even
                // cascoded gain…" diagnosis callers match on.
                failure.into_rejections().pop().map_or_else(
                    || DesignError::infeasible("gainstage", "no style fits"),
                    StyleRejection::into_error,
                )
            })
    }

    /// Bit-exact fingerprint of everything the designer reads from the
    /// spec (the process is fixed per synthesis run).
    fn cache_key(spec: &GainStageSpec) -> CacheKey {
        CacheKey::new("pol gm ibias min_gain load_gds l_um")
            .tag(spec.polarity as u64)
            .num(spec.gm)
            .num(spec.bias_current)
            .num(spec.min_gain)
            .num(spec.load_gds.unwrap_or(f64::NEG_INFINITY))
            .num(spec.length_um.unwrap_or(f64::NEG_INFINITY))
    }

    /// Designs one specific style.
    ///
    /// # Errors
    ///
    /// As for [`GainStage::design`], but without escalation.
    pub fn design_style(
        spec: &GainStageSpec,
        process: &Process,
        style: GainStageStyle,
    ) -> Result<Self, DesignError> {
        spec.validate()?;

        let mos = process.mos(spec.polarity);
        let id = spec.bias_current;
        let vov = sizing::vov_from_gm_id(spec.gm, id);
        if vov < MIN_VOV {
            return Err(DesignError::infeasible(
                "gainstage",
                format!(
                    "gm {:.2e} S at {:.2e} A implies V_ov {vov:.3} V below the \
                     {MIN_VOV} V floor",
                    spec.gm, id
                ),
            ));
        }

        let wl = sizing::w_over_l_from_gm_id(spec.gm, id, mos.kprime());
        let l_um = spec
            .length_um
            .unwrap_or_else(|| process.min_length().micrometers());
        require_positive("gainstage", "length_um", l_um)?;
        let w_um = snap_width_um(wl * l_um, process.min_width().micrometers());
        let driver = Geometry::new_um(w_um, l_um)
            .map_err(|e| DesignError::infeasible("gainstage", e.to_string()))?;

        let wl_real = driver.w_over_l();
        let gm = sizing::gm_from_wl_id(wl_real, id, mos.kprime());
        let gds_driver = mos.lambda(l_um) * id;

        let (cascode, gout_driver, area) = match style {
            GainStageStyle::Simple => {
                (None, gds_driver, AreaEstimate::for_device(&driver, process))
            }
            GainStageStyle::Cascode => {
                // Cascode at the default overdrive, same length.
                let vov_c = DEFAULT_VOV;
                let wl_c = sizing::w_over_l_from_id_vov(id, vov_c, mos.kprime());
                let w_c = snap_width_um(wl_c * l_um, process.min_width().micrometers());
                let casc = Geometry::new_um(w_c, l_um)
                    .map_err(|e| DesignError::infeasible("gainstage", e.to_string()))?;
                let gm_c = 2.0 * id / vov_c;
                // Looking into the cascode drain:
                // g_out ≈ gds_driver · gds_casc / gm_casc.
                let gds_c = mos.lambda(l_um) * id;
                let gout = gds_driver * gds_c / gm_c;
                let area = AreaEstimate::for_device(&driver, process)
                    + AreaEstimate::for_device(&casc, process);
                (Some(casc), gout, area)
            }
        };

        let load_gds = spec.load_gds.unwrap_or(gds_driver);
        let gain = gm / (gout_driver + load_gds);

        Ok(Self {
            style,
            spec: *spec,
            driver,
            cascode,
            vov,
            gm,
            gout_driver,
            gain,
            area,
        })
    }

    /// The chosen style.
    #[must_use]
    pub fn style(&self) -> GainStageStyle {
        self.style
    }

    /// The specification.
    #[must_use]
    pub fn spec(&self) -> &GainStageSpec {
        &self.spec
    }

    /// Driver geometry.
    #[must_use]
    pub fn driver_geometry(&self) -> Geometry {
        self.driver
    }

    /// Cascode geometry, if cascoded.
    #[must_use]
    pub fn cascode_geometry(&self) -> Option<Geometry> {
        self.cascode
    }

    /// Achieved driver transconductance, S.
    #[must_use]
    pub fn gm(&self) -> f64 {
        self.gm
    }

    /// Driver overdrive, V.
    #[must_use]
    pub fn vov(&self) -> f64 {
        self.vov
    }

    /// Conductance looking into the stage output (driver side), S.
    #[must_use]
    pub fn gout_driver(&self) -> f64 {
        self.gout_driver
    }

    /// Predicted stage voltage-gain magnitude against the declared load.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Gate-source voltage magnitude, V.
    #[must_use]
    pub fn vgs(&self, process: &Process) -> f64 {
        process.mos(self.spec.polarity).vth().volts() + self.vov
    }

    /// Estimated layout area.
    #[must_use]
    pub fn area(&self) -> AreaEstimate {
        self.area
    }

    /// Instantiates the stage. `input` drives the gate; `output` is the
    /// stage output; `rail` is the source rail; `bulk` the body. For the
    /// cascode style a `casc_bias` gate voltage node is required.
    ///
    /// # Errors
    ///
    /// Netlist name collisions, or a missing `casc_bias` for the cascode
    /// style.
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &self,
        circuit: &mut Circuit,
        prefix: &str,
        input: NodeId,
        output: NodeId,
        rail: NodeId,
        bulk: NodeId,
        casc_bias: Option<NodeId>,
    ) -> Result<(), ValidateError> {
        match self.style {
            GainStageStyle::Simple => {
                circuit.add_mosfet(
                    format!("{prefix}MDRV"),
                    self.spec.polarity,
                    self.driver,
                    output,
                    input,
                    rail,
                    bulk,
                )?;
            }
            GainStageStyle::Cascode => {
                let Some(bias) = casc_bias else {
                    return Err(ValidateError::BadValue {
                        element: format!("{prefix}MCAS"),
                        detail: "cascode gain stage requires a bias node".to_owned(),
                    });
                };
                let Some(cascode) = self.cascode else {
                    return Err(ValidateError::BadValue {
                        element: format!("{prefix}MCAS"),
                        detail: "cascode gain stage has no cascode geometry".to_owned(),
                    });
                };
                let mid = circuit.node(format!("{prefix}_mid"));
                circuit.add_mosfet(
                    format!("{prefix}MDRV"),
                    self.spec.polarity,
                    self.driver,
                    mid,
                    input,
                    rail,
                    bulk,
                )?;
                circuit.add_mosfet(
                    format!("{prefix}MCAS"),
                    self.spec.polarity,
                    cascode,
                    output,
                    bias,
                    mid,
                    bulk,
                )?;
            }
        }
        Ok(())
    }
}

/// The gain stage's [`BlockDesigner`] implementation. A style is rejected
/// when it cannot reach the spec's `min_gain`, so the engine's
/// smallest-area selection reproduces the paper's escalation rule: the
/// (always smaller) simple driver wins unless only the cascode reaches
/// the gain floor.
#[derive(Clone, Copy, Debug)]
pub struct GainStageDesigner<'a> {
    process: &'a Process,
}

impl<'a> GainStageDesigner<'a> {
    /// A designer sizing against `process`.
    #[must_use]
    pub fn new(process: &'a Process) -> Self {
        Self { process }
    }
}

impl BlockDesigner for GainStageDesigner<'_> {
    type Spec = GainStageSpec;
    type Output = GainStage;
    type Error = DesignError;

    fn styles(&self) -> &'static [&'static str] {
        &GainStageStyle::NAMES
    }

    fn design_style(
        &self,
        spec: &GainStageSpec,
        style: &str,
        _ctx: &DesignContext<'_>,
    ) -> Result<GainStage, DesignError> {
        let style = GainStageStyle::from_name(style)
            .unwrap_or_else(|| panic!("unknown gain-stage style {style:?}"));
        let stage = GainStage::design_style(spec, self.process, style)?;
        if spec.min_gain > 0.0 && stage.gain < spec.min_gain {
            let detail = match style {
                GainStageStyle::Simple => format!(
                    "simple-stage gain {:.0} < required {:.0}",
                    stage.gain, spec.min_gain
                ),
                GainStageStyle::Cascode => format!(
                    "even cascoded gain {:.0} < required {:.0}",
                    stage.gain, spec.min_gain
                ),
            };
            return Err(DesignError::infeasible("gainstage", detail));
        }
        Ok(stage)
    }

    fn area_um2(&self, output: &GainStage) -> f64 {
        output.area.total_um2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_process::builtin;

    fn process() -> Process {
        builtin::cmos_5um()
    }

    #[test]
    fn modest_gain_uses_simple_style() {
        let spec = GainStageSpec::new(Polarity::Nmos, 400e-6, 100e-6).with_min_gain(50.0);
        let stage = GainStage::design(&spec, &process()).unwrap();
        assert_eq!(stage.style(), GainStageStyle::Simple);
        assert!(stage.gain() >= 50.0);
    }

    #[test]
    fn high_gain_escalates_to_cascode() {
        // A light load (cascoded mirror) lets the cascoded driver reach
        // the gain the simple style cannot.
        let spec = GainStageSpec::new(Polarity::Nmos, 400e-6, 100e-6)
            .with_min_gain(500.0)
            .with_load_gds(1e-7);
        let stage = GainStage::design(&spec, &process()).unwrap();
        assert_eq!(stage.style(), GainStageStyle::Cascode);
        assert!(stage.gain() >= 500.0);
    }

    #[test]
    fn impossible_gain_is_infeasible() {
        let spec = GainStageSpec::new(Polarity::Nmos, 400e-6, 100e-6).with_min_gain(1e9);
        let err = GainStage::design(&spec, &process()).unwrap_err();
        assert!(err.is_infeasible());
    }

    #[test]
    fn cascode_multiplies_output_resistance() {
        let spec = GainStageSpec::new(Polarity::Nmos, 400e-6, 100e-6);
        let simple = GainStage::design_style(&spec, &process(), GainStageStyle::Simple).unwrap();
        let casc = GainStage::design_style(&spec, &process(), GainStageStyle::Cascode).unwrap();
        assert!(casc.gout_driver() < simple.gout_driver() / 50.0);
        assert!(casc.area().total_um2() > simple.area().total_um2());
    }

    #[test]
    fn achieved_gm_meets_target() {
        let spec = GainStageSpec::new(Polarity::Nmos, 400e-6, 100e-6);
        let stage = GainStage::design(&spec, &process()).unwrap();
        assert!(stage.gm() >= 400e-6 * 0.999);
        assert!((stage.vov() - 0.5).abs() < 0.05); // 2·100µ/400µ
    }

    #[test]
    fn load_gds_affects_predicted_gain() {
        let light = GainStageSpec::new(Polarity::Nmos, 400e-6, 100e-6).with_load_gds(1e-7);
        let heavy = GainStageSpec::new(Polarity::Nmos, 400e-6, 100e-6).with_load_gds(1e-4);
        let g_light = GainStage::design(&light, &process()).unwrap().gain();
        let g_heavy = GainStage::design(&heavy, &process()).unwrap().gain();
        assert!(g_light > g_heavy);
    }

    #[test]
    fn emit_simple_and_cascode() {
        let p = process();
        let spec = GainStageSpec::new(Polarity::Nmos, 400e-6, 100e-6);
        let simple = GainStage::design_style(&spec, &p, GainStageStyle::Simple).unwrap();
        let casc = GainStage::design_style(&spec, &p, GainStageStyle::Cascode).unwrap();

        let mut c = Circuit::new("gs");
        let input = c.node("in");
        let out1 = c.node("out1");
        let out2 = c.node("out2");
        let bias = c.node("vcasc");
        let gnd = c.ground();
        simple
            .emit(&mut c, "S_", input, out1, gnd, gnd, None)
            .unwrap();
        casc.emit(&mut c, "C_", input, out2, gnd, gnd, Some(bias))
            .unwrap();
        assert_eq!(c.mosfets().count(), 3);
        // Cascode without bias node is an error.
        let err = casc
            .emit(&mut c, "X_", input, out2, gnd, gnd, None)
            .unwrap_err();
        assert!(err.to_string().contains("bias"));
    }

    #[test]
    fn impossible_gain_keeps_the_cascode_diagnosis() {
        let spec = GainStageSpec::new(Polarity::Nmos, 400e-6, 100e-6).with_min_gain(1e9);
        let err = GainStage::design(&spec, &process()).unwrap_err();
        assert!(
            err.to_string().contains("even cascoded gain"),
            "escalation diagnosis preserved: {err}"
        );
    }

    #[test]
    fn design_with_memoizes_identical_specs() {
        use oasys_plan::MemoCache;
        let p = process();
        let tel = Telemetry::new();
        let cache = MemoCache::new();
        let ctx = DesignContext::new(&tel)
            .with_cache(&cache)
            .with_scope("two-stage");
        let spec = GainStageSpec::new(Polarity::Nmos, 400e-6, 100e-6).with_min_gain(50.0);
        let a = GainStage::design_with(&spec, &p, &ctx).unwrap();
        let b = GainStage::design_with(&spec, &p, &ctx).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.hits(), 1);
        let spans: Vec<_> = tel
            .report()
            .spans()
            .iter()
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(spans, ["block:gain stage", "block:gain stage"]);
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(
            GainStage::design(&GainStageSpec::new(Polarity::Nmos, 0.0, 1e-6), &process()).is_err()
        );
        assert!(
            GainStage::design(&GainStageSpec::new(Polarity::Nmos, 1e-4, -1.0), &process()).is_err()
        );
        assert!(GainStage::design(
            &GainStageSpec::new(Polarity::Nmos, 1e-4, 1e-6).with_min_gain(f64::NAN),
            &process()
        )
        .is_err());
    }
}
