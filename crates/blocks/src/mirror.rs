//! Current-mirror designer.
//!
//! The paper uses the mirror as its worked example of a sub-block designer
//! (Section 4.2): *"There are two possible topologies (simple and cascode)
//! for a current mirror. Selection is based primarily on area, as
//! evaluated from circuit equations; the style with the smaller area is
//! selected."* And the cascode sizing heuristic: *"in a four-transistor
//! cascode topology, we choose to fix the length of two devices at their
//! minimum size, and require the width of all four devices to be equal."*
//!
//! This module implements both paper styles plus a wide-swing cascode
//! extension (the kind of sub-block the paper lists as future work).

use crate::area::AreaEstimate;
use crate::common::{require_positive, snap_width_um, DesignError, DEFAULT_VOV};
use oasys_mos::{sizing, Geometry};
use oasys_netlist::{Circuit, NodeId, ValidateError};
use oasys_plan::{BlockDesigner, CacheKey, DesignContext, Selected};
use oasys_process::{Polarity, Process};
use oasys_telemetry::{sym, Telemetry};
use std::fmt;

/// Minimum usable gate overdrive; below this, matching and modeling
/// accuracy collapse.
const MIN_VOV: f64 = 0.12;
/// Largest overdrive a mirror designer will pick (keeps devices out of
/// the near-velocity-saturated corner the square law mispredicts).
const MAX_VOV: f64 = 0.60;
/// Longest channel (in multiples of the process minimum) the simple style
/// will stretch to before conceding to the cascode.
const MAX_LENGTH_FACTOR: f64 = 4.0;

/// Which fixed mirror topology was selected.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MirrorStyle {
    /// Two-transistor mirror.
    Simple,
    /// Four-transistor cascode (paper style).
    Cascode,
    /// Wide-swing cascode (extension; needs an external bias voltage).
    WideSwing,
}

impl MirrorStyle {
    /// All styles in preference order (cheapest first).
    pub const ALL: [MirrorStyle; 3] = [
        MirrorStyle::Simple,
        MirrorStyle::Cascode,
        MirrorStyle::WideSwing,
    ];

    /// Every style's [`name`](Self::name), in [`ALL`](Self::ALL) order.
    pub(crate) const NAMES: [&'static str; Self::ALL.len()] = [
        Self::ALL[0].name(),
        Self::ALL[1].name(),
        Self::ALL[2].name(),
    ];

    /// The style's display name, which [`MirrorStyle::from_name`] reads
    /// back.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            MirrorStyle::Simple => "simple",
            MirrorStyle::Cascode => "cascode",
            MirrorStyle::WideSwing => "wide-swing",
        }
    }

    /// Parses a style from its display name (`"simple"`, `"cascode"`,
    /// `"wide-swing"`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for MirrorStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Specification for a current mirror.
///
/// # Examples
///
/// ```
/// use oasys_blocks::mirror::MirrorSpec;
/// use oasys_process::Polarity;
/// let spec = MirrorSpec::new(Polarity::Pmos, 50e-6)
///     .with_ratio(2.0)
///     .with_min_rout(1e6)
///     .with_headroom(0.8);
/// assert_eq!(spec.output_current(), 50e-6);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MirrorSpec {
    polarity: Polarity,
    /// Output branch current, A.
    iout: f64,
    /// `I_out / I_in`.
    ratio: f64,
    /// Minimum small-signal output resistance, Ω (0 = unconstrained).
    min_rout: f64,
    /// Voltage budget across the output branch, V.
    headroom: f64,
    /// Styles the caller permits.
    allowed: [bool; 3],
}

impl MirrorSpec {
    /// A unity-ratio mirror of `iout` amperes with default constraints
    /// (1 V headroom, no explicit `r_out` floor, all styles allowed).
    #[must_use]
    pub fn new(polarity: Polarity, iout: f64) -> Self {
        Self {
            polarity,
            iout,
            ratio: 1.0,
            min_rout: 0.0,
            headroom: 1.0,
            allowed: [true, true, true],
        }
    }

    /// Sets the current ratio `I_out / I_in`.
    #[must_use]
    pub fn with_ratio(mut self, ratio: f64) -> Self {
        self.ratio = ratio;
        self
    }

    /// Sets the minimum output resistance, Ω.
    #[must_use]
    pub fn with_min_rout(mut self, ohms: f64) -> Self {
        self.min_rout = ohms;
        self
    }

    /// Sets the voltage budget across the output branch, V.
    #[must_use]
    pub fn with_headroom(mut self, volts: f64) -> Self {
        self.headroom = volts;
        self
    }

    /// Restricts the selector to a single style.
    #[must_use]
    pub fn with_only_style(mut self, style: MirrorStyle) -> Self {
        self.allowed = [false, false, false];
        self.allowed[style as usize] = true;
        self
    }

    /// Removes one style from consideration (e.g. the wide-swing cascode
    /// when no external bias voltage is available).
    #[must_use]
    pub fn without_style(mut self, style: MirrorStyle) -> Self {
        self.allowed[style as usize] = false;
        self
    }

    /// The mirror polarity.
    #[must_use]
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// The output branch current, A.
    #[must_use]
    pub fn output_current(&self) -> f64 {
        self.iout
    }

    /// The input branch current, A.
    #[must_use]
    pub fn input_current(&self) -> f64 {
        self.iout / self.ratio
    }

    /// Whether the caller permits this style.
    #[must_use]
    pub fn allows(&self, style: MirrorStyle) -> bool {
        self.allowed[style as usize]
    }

    fn validate(&self) -> Result<(), DesignError> {
        require_positive("mirror", "iout", self.iout)?;
        require_positive("mirror", "ratio", self.ratio)?;
        require_positive("mirror", "headroom", self.headroom)?;
        if self.min_rout < 0.0 || !self.min_rout.is_finite() {
            return Err(DesignError::invalid(
                "mirror",
                format!("min_rout must be non-negative, got {}", self.min_rout),
            ));
        }
        Ok(())
    }
}

/// A designed, sized current mirror.
#[derive(Clone, Debug, PartialEq)]
pub struct CurrentMirror {
    style: MirrorStyle,
    spec: MirrorSpec,
    /// Unit output device (bottom pair for cascodes).
    unit: Geometry,
    /// Input-branch device (width scaled by `1/ratio`).
    input: Geometry,
    /// Cascode device (top pair), if any.
    cascode: Option<Geometry>,
    vov: f64,
    vth: f64,
    rout: f64,
    area: AreaEstimate,
}

impl CurrentMirror {
    /// Designs a mirror: tries every allowed style, keeps the feasible one
    /// with the smallest estimated area (the paper's selection policy).
    /// Selection runs on the shared [`BlockDesigner`] engine via
    /// [`MirrorDesigner`].
    ///
    /// # Errors
    ///
    /// [`DesignError::InvalidSpec`] for malformed specs;
    /// [`DesignError::Infeasible`] when no allowed style meets the
    /// headroom/`r_out` constraints.
    pub fn design(spec: &MirrorSpec, process: &Process) -> Result<Self, DesignError> {
        let tel = Telemetry::disabled();
        Self::select(spec, process, &DesignContext::new(&tel))
    }

    /// As [`CurrentMirror::design`], but recording through `ctx`: the
    /// invocation appears as a `block:mirror` telemetry span, and when the
    /// context carries a [`oasys_plan::MemoCache`] the result is memoized
    /// under the spec's bit-exact fingerprint (scoped to the invoking
    /// style), so plan restarts that re-derive an unchanged mirror reuse
    /// the earlier design.
    ///
    /// # Errors
    ///
    /// As for [`CurrentMirror::design`].
    pub fn design_with(
        spec: &MirrorSpec,
        process: &Process,
        ctx: &DesignContext<'_>,
    ) -> Result<Self, DesignError> {
        ctx.design_child_sym(
            sym!("block:mirror"),
            "mirror",
            Some(Self::cache_key(spec)),
            || Self::select(spec, process, ctx),
        )
    }

    /// Runs the engine's breadth-first selection and maps its structured
    /// failure onto this block's legacy error message.
    fn select(
        spec: &MirrorSpec,
        process: &Process,
        ctx: &DesignContext<'_>,
    ) -> Result<Self, DesignError> {
        spec.validate()?;
        MirrorDesigner::new(process)
            .design(spec, ctx)
            .map(Selected::into_output)
            .map_err(|failure| {
                DesignError::infeasible("mirror", format!("no style fits: {}", failure.reasons()))
            })
    }

    /// Bit-exact fingerprint of everything [`CurrentMirror::design`] reads
    /// from the spec (the process is fixed per synthesis run).
    fn cache_key(spec: &MirrorSpec) -> CacheKey {
        let allowed = spec
            .allowed
            .iter()
            .enumerate()
            .fold(0, |mask, (bit, &on)| mask | (u64::from(on) << bit));
        CacheKey::new("pol iout ratio min_rout headroom allowed")
            .tag(spec.polarity as u64)
            .num(spec.iout)
            .num(spec.ratio)
            .num(spec.min_rout)
            .num(spec.headroom)
            .tag(allowed)
    }

    /// Designs one specific style (used by the selector and by ablation
    /// experiments).
    ///
    /// # Errors
    ///
    /// As for [`CurrentMirror::design`], but for this style alone.
    pub fn design_style(
        spec: &MirrorSpec,
        process: &Process,
        style: MirrorStyle,
    ) -> Result<Self, DesignError> {
        spec.validate()?;
        let mos = process.mos(spec.polarity);
        let vth = mos.vth().volts();
        let l_min = process.min_length().micrometers();
        let w_min = process.min_width().micrometers();

        // Headroom → allowed overdrive per style.
        let vov_budget = match style {
            MirrorStyle::Simple => spec.headroom,
            // Cascode compliance ≈ V_T + 2·V_ov.
            MirrorStyle::Cascode => (spec.headroom - vth) / 2.0,
            // Wide-swing compliance ≈ 2·V_ov.
            MirrorStyle::WideSwing => spec.headroom / 2.0,
        };
        if vov_budget < MIN_VOV {
            return Err(DesignError::infeasible(
                "mirror",
                format!(
                    "{style} needs ≥ {MIN_VOV} V of overdrive but the headroom \
                     budget allows only {vov_budget:.3} V"
                ),
            ));
        }
        let vov = vov_budget
            .min(MAX_VOV)
            .min(DEFAULT_VOV.max(MIN_VOV))
            .max(MIN_VOV);

        match style {
            MirrorStyle::Simple => {
                // r_out = 1/(λ·I) with λ = λ_L/L → pick L for the r_out floor.
                let mut l_um = l_min;
                if spec.min_rout > 0.0 {
                    let needed_l = spec.min_rout * mos.lambda_l() * spec.iout;
                    if needed_l > l_um {
                        l_um = needed_l;
                    }
                }
                if l_um > MAX_LENGTH_FACTOR * l_min {
                    return Err(DesignError::infeasible(
                        "mirror",
                        format!(
                            "simple mirror would need L = {l_um:.1} µm \
                             (> {MAX_LENGTH_FACTOR}× minimum) to reach \
                             r_out ≥ {:.2e} Ω",
                            spec.min_rout
                        ),
                    ));
                }
                let wl = sizing::w_over_l_from_id_vov(spec.iout, vov, mos.kprime());
                let w_um = snap_width_um(wl * l_um, w_min);
                let unit = Geometry::new_um(w_um, l_um)
                    .map_err(|e| DesignError::infeasible("mirror", e.to_string()))?;
                let lambda = mos.lambda(l_um);
                let rout = sizing::rout_from_lambda_id(lambda, spec.iout);
                // Input device has W scaled by 1/ratio.
                let w_in = snap_width_um(w_um / spec.ratio, w_min);
                let input = Geometry::new_um(w_in, l_um)
                    .map_err(|e| DesignError::infeasible("mirror", e.to_string()))?;
                let area = AreaEstimate::for_device(&unit, process)
                    + AreaEstimate::for_device(&input, process);
                Ok(Self {
                    style,
                    spec: *spec,
                    unit,
                    input,
                    cascode: None,
                    vov,
                    vth,
                    rout,
                    area,
                })
            }
            MirrorStyle::Cascode | MirrorStyle::WideSwing => {
                // Paper heuristic: cascode lengths at minimum, all widths
                // equal. Bottom length also minimum unless r_out still
                // shy (cascode multiplies r_out by gm·r_o, usually ample).
                let l_um = l_min;
                let wl = sizing::w_over_l_from_id_vov(spec.iout, vov, mos.kprime());
                let w_um = snap_width_um(wl * l_um, w_min);
                let unit = Geometry::new_um(w_um, l_um)
                    .map_err(|e| DesignError::infeasible("mirror", e.to_string()))?;
                let lambda = mos.lambda(l_um);
                let ro = sizing::rout_from_lambda_id(lambda, spec.iout);
                let gm = 2.0 * spec.iout / vov;
                let rout = gm * ro * ro;
                if spec.min_rout > 0.0 && rout < spec.min_rout {
                    return Err(DesignError::infeasible(
                        "mirror",
                        format!(
                            "even cascoded r_out {rout:.2e} Ω < required {:.2e} Ω",
                            spec.min_rout
                        ),
                    ));
                }
                // Four equal-width devices (input pair scaled by ratio).
                let w_in = snap_width_um(w_um / spec.ratio, w_min);
                let input = Geometry::new_um(w_in, l_um)
                    .map_err(|e| DesignError::infeasible("mirror", e.to_string()))?;
                let area = (AreaEstimate::for_device(&unit, process)
                    + AreaEstimate::for_device(&input, process))
                    * 2.0;
                Ok(Self {
                    style,
                    spec: *spec,
                    unit,
                    input,
                    cascode: Some(unit),
                    vov,
                    vth,
                    rout,
                    area,
                })
            }
        }
    }

    /// The selected style.
    #[must_use]
    pub fn style(&self) -> MirrorStyle {
        self.style
    }

    /// The specification this mirror was designed to.
    #[must_use]
    pub fn spec(&self) -> &MirrorSpec {
        &self.spec
    }

    /// Unit (output bottom) device geometry.
    #[must_use]
    pub fn unit_geometry(&self) -> Geometry {
        self.unit
    }

    /// Input-branch device geometry (width scaled by `1/ratio`).
    #[must_use]
    pub fn input_geometry(&self) -> Geometry {
        self.input
    }

    /// Cascode device geometry, if the style has one.
    #[must_use]
    pub fn cascode_geometry(&self) -> Option<Geometry> {
        self.cascode
    }

    /// Designed gate overdrive, V.
    #[must_use]
    pub fn vov(&self) -> f64 {
        self.vov
    }

    /// Gate-source voltage magnitude `V_T + V_ov`, V (zero body bias).
    #[must_use]
    pub fn vgs(&self) -> f64 {
        self.vth + self.vov
    }

    /// Predicted small-signal output resistance, Ω.
    #[must_use]
    pub fn rout(&self) -> f64 {
        self.rout
    }

    /// Minimum voltage across the output branch for all devices to stay
    /// saturated (the compliance voltage), V.
    #[must_use]
    pub fn compliance(&self) -> f64 {
        match self.style {
            MirrorStyle::Simple => self.vov,
            MirrorStyle::Cascode => self.vth + 2.0 * self.vov,
            MirrorStyle::WideSwing => 2.0 * self.vov,
        }
    }

    /// Voltage between the input terminal and the rail, V.
    #[must_use]
    pub fn input_voltage(&self) -> f64 {
        match self.style {
            MirrorStyle::Simple => self.vgs(),
            MirrorStyle::Cascode => 2.0 * self.vgs(),
            MirrorStyle::WideSwing => self.vgs(),
        }
    }

    /// Estimated layout area.
    #[must_use]
    pub fn area(&self) -> AreaEstimate {
        self.area
    }

    /// Number of transistors this mirror instantiates.
    #[must_use]
    pub fn device_count(&self) -> usize {
        match self.style {
            MirrorStyle::Simple => 2,
            MirrorStyle::Cascode | MirrorStyle::WideSwing => 4,
        }
    }

    /// Instantiates the mirror into `circuit`. `input` is the
    /// diode-connected terminal, `output` the mirrored branch, `rail` the
    /// common source rail (ground/VSS for NMOS, VDD for PMOS). Instance
    /// names are prefixed with `prefix`.
    ///
    /// The wide-swing style needs an externally generated cascode gate
    /// bias; pass it as `Some(vbias)`. The paper styles ignore `vbias`.
    ///
    /// # Errors
    ///
    /// Propagates [`ValidateError`] for name collisions, and reports a
    /// missing `vbias` for the wide-swing style as a `BadValue`.
    pub fn emit(
        &self,
        circuit: &mut Circuit,
        prefix: &str,
        input: NodeId,
        output: NodeId,
        rail: NodeId,
        vbias: Option<NodeId>,
    ) -> Result<(), ValidateError> {
        let p = self.spec.polarity;
        let input_geom = self.input;
        match self.style {
            MirrorStyle::Simple => {
                circuit.add_mosfet(
                    format!("{prefix}MIN"),
                    p,
                    input_geom,
                    input,
                    input,
                    rail,
                    rail,
                )?;
                circuit.add_mosfet(
                    format!("{prefix}MOUT"),
                    p,
                    self.unit,
                    output,
                    input,
                    rail,
                    rail,
                )?;
            }
            MirrorStyle::Cascode => {
                let Some(casc) = self.cascode else {
                    return Err(ValidateError::BadValue {
                        element: format!("{prefix}MCIN"),
                        detail: "cascode mirror has no cascode geometry".to_owned(),
                    });
                };
                let n_in = circuit.node(format!("{prefix}_nin"));
                let n_out = circuit.node(format!("{prefix}_nout"));
                // Input branch: stacked diodes. Bottom MIN (gate at its
                // drain n_in), top MCIN (gate at its drain = input).
                circuit.add_mosfet(
                    format!("{prefix}MIN"),
                    p,
                    input_geom,
                    n_in,
                    n_in,
                    rail,
                    rail,
                )?;
                circuit.add_mosfet(format!("{prefix}MCIN"), p, casc, input, input, n_in, rail)?;
                // Output branch: bottom gate from n_in, cascode gate from
                // input.
                circuit.add_mosfet(
                    format!("{prefix}MOUT"),
                    p,
                    self.unit,
                    n_out,
                    n_in,
                    rail,
                    rail,
                )?;
                circuit.add_mosfet(
                    format!("{prefix}MCOUT"),
                    p,
                    casc,
                    output,
                    input,
                    n_out,
                    rail,
                )?;
            }
            MirrorStyle::WideSwing => {
                let Some(vbias) = vbias else {
                    return Err(ValidateError::BadValue {
                        element: format!("{prefix}MC"),
                        detail: "wide-swing mirror requires a cascode bias node".to_owned(),
                    });
                };
                let Some(casc) = self.cascode else {
                    return Err(ValidateError::BadValue {
                        element: format!("{prefix}MCIN"),
                        detail: "wide-swing mirror has no cascode geometry".to_owned(),
                    });
                };
                let n_in = circuit.node(format!("{prefix}_nin"));
                let n_out = circuit.node(format!("{prefix}_nout"));
                circuit.add_mosfet(
                    format!("{prefix}MIN"),
                    p,
                    input_geom,
                    n_in,
                    input,
                    rail,
                    rail,
                )?;
                circuit.add_mosfet(format!("{prefix}MCIN"), p, casc, input, vbias, n_in, rail)?;
                circuit.add_mosfet(
                    format!("{prefix}MOUT"),
                    p,
                    self.unit,
                    n_out,
                    input,
                    rail,
                    rail,
                )?;
                circuit.add_mosfet(
                    format!("{prefix}MCOUT"),
                    p,
                    casc,
                    output,
                    vbias,
                    n_out,
                    rail,
                )?;
            }
        }
        Ok(())
    }
}

/// The mirror's [`BlockDesigner`] implementation: the engine runs the
/// paper's smallest-area selection over [`MirrorStyle::ALL`], honoring the
/// spec's style restrictions and aggregating per-style rejections.
#[derive(Clone, Copy, Debug)]
pub struct MirrorDesigner<'a> {
    process: &'a Process,
}

impl<'a> MirrorDesigner<'a> {
    /// A designer sizing against `process`.
    #[must_use]
    pub fn new(process: &'a Process) -> Self {
        Self { process }
    }
}

impl BlockDesigner for MirrorDesigner<'_> {
    type Spec = MirrorSpec;
    type Output = CurrentMirror;
    type Error = DesignError;

    fn styles(&self) -> &'static [&'static str] {
        &MirrorStyle::NAMES
    }

    fn allowed(&self, spec: &MirrorSpec, style: &str) -> bool {
        MirrorStyle::from_name(style).is_some_and(|s| spec.allows(s))
    }

    fn design_style(
        &self,
        spec: &MirrorSpec,
        style: &str,
        _ctx: &DesignContext<'_>,
    ) -> Result<CurrentMirror, DesignError> {
        let style = MirrorStyle::from_name(style)
            .unwrap_or_else(|| panic!("unknown mirror style {style:?}"));
        CurrentMirror::design_style(spec, self.process, style)
    }

    fn area_um2(&self, output: &CurrentMirror) -> f64 {
        output.area.total_um2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_netlist::SourceValue;
    use oasys_process::builtin;
    use oasys_sim::dc;

    fn process() -> Process {
        builtin::cmos_5um()
    }

    #[test]
    fn unconstrained_spec_selects_simple() {
        let spec = MirrorSpec::new(Polarity::Nmos, 20e-6);
        let m = CurrentMirror::design(&spec, &process()).unwrap();
        assert_eq!(m.style(), MirrorStyle::Simple);
        assert_eq!(m.device_count(), 2);
        assert!(m.rout() > 1e5);
    }

    #[test]
    fn high_rout_selects_cascode() {
        let spec = MirrorSpec::new(Polarity::Nmos, 20e-6)
            .with_min_rout(5e7)
            .with_headroom(1.5);
        let m = CurrentMirror::design(&spec, &process()).unwrap();
        assert_eq!(m.style(), MirrorStyle::Cascode);
        assert!(m.rout() >= 5e7);
    }

    #[test]
    fn moderate_rout_stretches_simple_length() {
        let spec = MirrorSpec::new(Polarity::Nmos, 20e-6).with_min_rout(6e6);
        let m = CurrentMirror::design(&spec, &process()).unwrap();
        if m.style() == MirrorStyle::Simple {
            assert!(m.unit_geometry().l_um() > process().min_length().micrometers());
            assert!(m.rout() >= 6e6);
        }
    }

    #[test]
    fn tight_headroom_rules_out_cascode() {
        let spec = MirrorSpec::new(Polarity::Nmos, 20e-6)
            .with_headroom(0.4)
            .with_only_style(MirrorStyle::Cascode);
        let err = CurrentMirror::design(&spec, &process()).unwrap_err();
        assert!(err.is_infeasible());
    }

    #[test]
    fn wide_swing_survives_headroom_that_kills_cascode() {
        let spec = MirrorSpec::new(Polarity::Nmos, 20e-6)
            .with_min_rout(5e7)
            .with_headroom(0.8);
        let m = CurrentMirror::design(&spec, &process()).unwrap();
        assert_eq!(m.style(), MirrorStyle::WideSwing);
        assert!(m.compliance() <= 0.8 + 1e-9);
    }

    #[test]
    fn invalid_spec_rejected() {
        let spec = MirrorSpec::new(Polarity::Nmos, -5e-6);
        assert!(matches!(
            CurrentMirror::design(&spec, &process()),
            Err(DesignError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn compliance_ordering_across_styles() {
        let p = process();
        let spec = MirrorSpec::new(Polarity::Nmos, 20e-6).with_headroom(2.0);
        let simple = CurrentMirror::design_style(&spec, &p, MirrorStyle::Simple).unwrap();
        let casc = CurrentMirror::design_style(&spec, &p, MirrorStyle::Cascode).unwrap();
        let ws = CurrentMirror::design_style(&spec, &p, MirrorStyle::WideSwing).unwrap();
        assert!(simple.compliance() < ws.compliance());
        assert!(ws.compliance() < casc.compliance());
        // Cascode multiplies rout enormously.
        assert!(casc.rout() > 100.0 * simple.rout());
    }

    #[test]
    fn area_ordering() {
        let p = process();
        let spec = MirrorSpec::new(Polarity::Nmos, 20e-6).with_headroom(2.0);
        let simple = CurrentMirror::design_style(&spec, &p, MirrorStyle::Simple).unwrap();
        let casc = CurrentMirror::design_style(&spec, &p, MirrorStyle::Cascode).unwrap();
        assert!(simple.area().total_um2() < casc.area().total_um2());
    }

    /// Build a test harness: ideal input current, voltage-source output,
    /// and check the mirrored current in simulation.
    fn simulated_accuracy(style: MirrorStyle, vout: f64) -> f64 {
        let p = process();
        let spec = MirrorSpec::new(Polarity::Nmos, 20e-6)
            .with_headroom(2.0)
            .with_only_style(style);
        let m = CurrentMirror::design(&spec, &p).unwrap();

        let mut c = Circuit::new("mirror test");
        let input = c.node("in");
        let output = c.node("out");
        let gnd = c.ground();
        // Input current from a rail into the diode.
        let vdd = c.node("vdd");
        c.add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
            .unwrap();
        c.add_isource("IIN", vdd, input, SourceValue::dc(20e-6))
            .unwrap();
        // Output held at a fixed voltage; measure its current.
        c.add_vsource("VOUT", output, gnd, SourceValue::dc(vout))
            .unwrap();
        m.emit(&mut c, "M_", input, output, gnd, None).unwrap();

        let sol = dc::solve(&c, &p, &Telemetry::disabled()).unwrap();
        // The NMOS mirror sinks I_out from the output node; the VOUT
        // source supplies it, so its branch current (pos→neg through the
        // source) is −I_out.
        let iout = -sol.source_current("VOUT").unwrap();
        (iout - 20e-6).abs() / 20e-6
    }

    #[test]
    fn simple_mirror_simulated_accuracy() {
        // At V_out = input diode voltage the λ error cancels; at 2 V the
        // simple mirror shows a few percent of λ-induced error.
        let err = simulated_accuracy(MirrorStyle::Simple, 2.0);
        assert!(err < 0.10, "simple mirror error {err}");
    }

    #[test]
    fn cascode_mirror_simulated_accuracy_beats_simple() {
        let e_simple = simulated_accuracy(MirrorStyle::Simple, 3.0);
        let e_casc = simulated_accuracy(MirrorStyle::Cascode, 3.0);
        assert!(
            e_casc < e_simple,
            "cascode {e_casc} should beat simple {e_simple}"
        );
        assert!(e_casc < 0.02, "cascode error {e_casc}");
    }

    #[test]
    fn ratio_scales_input_device() {
        let p = process();
        let spec = MirrorSpec::new(Polarity::Nmos, 40e-6).with_ratio(4.0);
        let m = CurrentMirror::design(&spec, &p).unwrap();
        assert!((m.spec().input_current() - 10e-6).abs() < 1e-12);
        // Emit and check the input device is narrower than the output.
        let mut c = Circuit::new("ratio");
        let input = c.node("in");
        let output = c.node("out");
        let gnd = c.ground();
        m.emit(&mut c, "M_", input, output, gnd, None).unwrap();
        let widths: std::collections::HashMap<String, f64> = c
            .mosfets()
            .map(|d| (d.name.clone(), d.geometry.w_um()))
            .collect();
        assert!(widths["M_MIN"] < widths["M_MOUT"]);
    }

    #[test]
    fn wide_swing_requires_bias_node() {
        let p = process();
        let spec = MirrorSpec::new(Polarity::Nmos, 20e-6).with_only_style(MirrorStyle::WideSwing);
        let m = CurrentMirror::design(&spec, &p).unwrap();
        let mut c = Circuit::new("ws");
        let input = c.node("in");
        let output = c.node("out");
        let gnd = c.ground();
        let err = m.emit(&mut c, "M_", input, output, gnd, None).unwrap_err();
        assert!(err.to_string().contains("bias"));
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
        let spec = MirrorSpec::new(Polarity::Nmos, 20e-6);
        let a = CurrentMirror::design_with(&spec, &p, &ctx).unwrap();
        let b = CurrentMirror::design_with(&spec, &p, &ctx).unwrap();
        assert_eq!(a, b, "cache replays the identical design");
        assert_eq!(cache.hits(), 1);
        assert_eq!(tel.counter("engine.cache_hits"), 1);
        // A one-ulp spec change must miss.
        let other = MirrorSpec::new(Polarity::Nmos, 20e-6 + f64::EPSILON * 20e-6);
        CurrentMirror::design_with(&other, &p, &ctx).unwrap();
        assert_eq!(cache.hits(), 1);
        // Every invocation records a block:mirror span.
        let spans = tel.report().spans().len();
        assert_eq!(spans, 3);
    }

    #[test]
    fn selection_failure_reports_every_allowed_style() {
        let spec = MirrorSpec::new(Polarity::Nmos, 20e-6)
            .with_min_rout(1e12)
            .with_headroom(0.3);
        let err = CurrentMirror::design(&spec, &process()).unwrap_err();
        assert!(err.is_infeasible());
        let msg = err.to_string();
        assert!(msg.contains("no style fits"), "{msg}");
        assert!(msg.contains("simple:"), "{msg}");
        assert!(msg.contains("cascode:"), "{msg}");
        assert!(msg.contains("wide-swing:"), "{msg}");
    }

    #[test]
    fn designer_trait_exposes_styles_and_selection() {
        let p = process();
        let d = MirrorDesigner::new(&p);
        assert_eq!(d.styles(), ["simple", "cascode", "wide-swing"]);
        let spec = MirrorSpec::new(Polarity::Nmos, 20e-6)
            .with_headroom(1.5)
            .with_only_style(MirrorStyle::Cascode);
        assert!(!d.allowed(&spec, "simple"));
        assert!(d.allowed(&spec, "cascode"));
        let tel = Telemetry::disabled();
        let sel = d.design(&spec, &DesignContext::new(&tel)).unwrap();
        assert_eq!(sel.style(), "cascode");
        assert_eq!(sel.output().style(), MirrorStyle::Cascode);
        assert_eq!(sel.area_um2(), sel.output().area().total_um2());
    }

    #[test]
    fn style_names_round_trip() {
        for style in MirrorStyle::ALL {
            assert_eq!(MirrorStyle::from_name(&style.to_string()), Some(style));
        }
        assert_eq!(MirrorStyle::from_name("bogus"), None);
    }

    #[test]
    fn pmos_mirror_emits_toward_vdd() {
        let p = process();
        let spec = MirrorSpec::new(Polarity::Pmos, 20e-6);
        let m = CurrentMirror::design(&spec, &p).unwrap();
        let mut c = Circuit::new("pmos mirror");
        let vdd = c.node("vdd");
        let input = c.node("in");
        let output = c.node("out");
        let gnd = c.ground();
        c.add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
            .unwrap();
        c.add_isource("IIN", input, gnd, SourceValue::dc(20e-6))
            .unwrap();
        c.add_vsource("VOUT", output, gnd, SourceValue::dc(2.0))
            .unwrap();
        m.emit(&mut c, "MP_", input, output, vdd, None).unwrap();
        let sol = dc::solve(&c, &p, &Telemetry::disabled()).unwrap();
        // The PMOS mirror pushes I_out into the output node; the VOUT
        // source absorbs it, so its branch current is +I_out.
        let iout = sol.source_current("VOUT").unwrap();
        assert!((iout - 20e-6).abs() / 20e-6 < 0.10, "iout = {iout}");
    }
}
