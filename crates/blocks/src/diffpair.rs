//! Differential-pair designer.
//!
//! The input sub-block of every OASYS op-amp style: two matched devices
//! sized for a target transconductance at a given tail current. The
//! designer also reports the quantities the op-amp plans trade off —
//! common-mode range consumed, gate capacitance, and the overdrive that
//! sets slew-rate-per-microamp.

use crate::area::AreaEstimate;
use crate::common::{require_positive, snap_width_um, DesignError};
use oasys_mos::{sizing, Geometry};
use oasys_netlist::{Circuit, NodeId, ValidateError};
use oasys_plan::{BlockDesigner, CacheKey, DesignContext};
use oasys_process::{Polarity, Process};
use oasys_telemetry::sym;

/// Highest W/L the pair designer will use; beyond this the input
/// capacitance and offset sensitivity are unreasonable.
const MAX_WL: f64 = 2000.0;
/// Smallest usable overdrive, V (matching floor).
const MIN_VOV: f64 = 0.05;

/// Specification for a differential pair.
///
/// # Examples
///
/// ```
/// use oasys_blocks::diffpair::DiffPairSpec;
/// use oasys_process::Polarity;
/// let spec = DiffPairSpec::new(Polarity::Nmos, 100e-6, 20e-6);
/// assert_eq!(spec.side_current(), 10e-6);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiffPairSpec {
    polarity: Polarity,
    /// Target per-side transconductance, S.
    gm: f64,
    /// Tail current (both sides), A.
    tail_current: f64,
    /// Optional channel length override, µm (defaults to process minimum).
    length_um: Option<f64>,
}

impl DiffPairSpec {
    /// A pair with target transconductance `gm` at `tail_current`.
    #[must_use]
    pub fn new(polarity: Polarity, gm: f64, tail_current: f64) -> Self {
        Self {
            polarity,
            gm,
            tail_current,
            length_um: None,
        }
    }

    /// Overrides the channel length (µm), e.g. for gain-driven sizing.
    #[must_use]
    pub fn with_length_um(mut self, l_um: f64) -> Self {
        self.length_um = Some(l_um);
        self
    }

    /// The pair polarity.
    #[must_use]
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// Target transconductance, S.
    #[must_use]
    pub fn gm(&self) -> f64 {
        self.gm
    }

    /// Tail current, A.
    #[must_use]
    pub fn tail_current(&self) -> f64 {
        self.tail_current
    }

    /// Per-side drain current, A.
    #[must_use]
    pub fn side_current(&self) -> f64 {
        self.tail_current / 2.0
    }
}

/// A designed differential pair.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffPair {
    spec: DiffPairSpec,
    geometry: Geometry,
    vov: f64,
    gm: f64,
    gds: f64,
    area: AreaEstimate,
}

impl DiffPair {
    /// Sizes the pair from the square law: `W/L = gm²/(2·K'·I_side)`.
    ///
    /// # Errors
    ///
    /// [`DesignError::InvalidSpec`] for malformed inputs;
    /// [`DesignError::Infeasible`] if the required aspect ratio exceeds
    /// the manufacturable bound or the implied overdrive collapses below
    /// the matching floor.
    pub fn design(spec: &DiffPairSpec, process: &Process) -> Result<Self, DesignError> {
        require_positive("diffpair", "gm", spec.gm)?;
        require_positive("diffpair", "tail_current", spec.tail_current)?;
        let mos = process.mos(spec.polarity);
        let id = spec.side_current();

        let vov = sizing::vov_from_gm_id(spec.gm, id);
        if vov < MIN_VOV {
            return Err(DesignError::infeasible(
                "diffpair",
                format!(
                    "target gm {:.2e} S at {:.2e} A/side implies V_ov = {vov:.3} V \
                     below the {MIN_VOV} V matching floor — raise the tail current",
                    spec.gm, id
                ),
            ));
        }

        let wl = sizing::w_over_l_from_gm_id(spec.gm, id, mos.kprime());
        if wl > MAX_WL {
            return Err(DesignError::infeasible(
                "diffpair",
                format!("required W/L = {wl:.0} exceeds the {MAX_WL} bound"),
            ));
        }

        let l_um = spec
            .length_um
            .unwrap_or_else(|| process.min_length().micrometers());
        require_positive("diffpair", "length_um", l_um)?;
        let w_um = snap_width_um(wl * l_um, process.min_width().micrometers());
        let geometry = Geometry::new_um(w_um, l_um)
            .map_err(|e| DesignError::infeasible("diffpair", e.to_string()))?;

        // Recompute achieved values from the snapped geometry.
        let wl_real = geometry.w_over_l();
        let gm = sizing::gm_from_wl_id(wl_real, id, mos.kprime());
        let vov_real = sizing::vov_from_wl_id(wl_real, id, mos.kprime());
        let gds = mos.lambda(l_um) * id;

        let area = AreaEstimate::for_device(&geometry, process) * 2.0;
        Ok(Self {
            spec: *spec,
            geometry,
            vov: vov_real,
            gm,
            gds,
            area,
        })
    }

    /// As [`DiffPair::design`], but recording through `ctx`: the
    /// invocation appears as a `block:diff pair` telemetry span, and a
    /// context-carried [`oasys_plan::MemoCache`] memoizes the result under
    /// the spec's bit-exact fingerprint.
    ///
    /// # Errors
    ///
    /// As for [`DiffPair::design`].
    pub fn design_with(
        spec: &DiffPairSpec,
        process: &Process,
        ctx: &DesignContext<'_>,
    ) -> Result<Self, DesignError> {
        let key = CacheKey::new("pol gm itail l_um")
            .tag(spec.polarity as u64)
            .num(spec.gm)
            .num(spec.tail_current)
            .num(spec.length_um.unwrap_or(f64::NEG_INFINITY));
        ctx.design_child_sym(sym!("block:diff pair"), "diff pair", Some(key), || {
            Self::design(spec, process)
        })
    }

    /// The specification this pair was designed to.
    #[must_use]
    pub fn spec(&self) -> &DiffPairSpec {
        &self.spec
    }

    /// Per-device geometry.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Achieved per-side transconductance, S (≥ the spec thanks to width
    /// snapping).
    #[must_use]
    pub fn gm(&self) -> f64 {
        self.gm
    }

    /// Achieved gate overdrive, V.
    #[must_use]
    pub fn vov(&self) -> f64 {
        self.vov
    }

    /// Per-side output conductance, S.
    #[must_use]
    pub fn gds(&self) -> f64 {
        self.gds
    }

    /// Gate-source voltage magnitude, V (zero body bias).
    #[must_use]
    pub fn vgs(&self, process: &Process) -> f64 {
        process.mos(self.spec.polarity).vth().volts() + self.vov
    }

    /// Common-mode voltage consumed between an input and the tail rail:
    /// `V_GS` of the pair plus the saturation voltage of the tail source.
    #[must_use]
    pub fn cm_consumed(&self, process: &Process, tail_vsat: f64) -> f64 {
        self.vgs(process) + tail_vsat
    }

    /// Slew rate into a load `cl` with this tail current, V/s.
    #[must_use]
    pub fn slew_rate(&self, cl: f64) -> f64 {
        self.spec.tail_current / cl
    }

    /// Estimated layout area (both devices).
    #[must_use]
    pub fn area(&self) -> AreaEstimate {
        self.area
    }

    /// Instantiates the pair. `inp`/`inn` are the gate inputs, `outp` is
    /// the drain of the `inn` device and `outn` the drain of the `inp`
    /// device (drains are the non-inverting/inverting outputs for a
    /// resistive or mirror load), `tail` the common source node, `bulk`
    /// the body rail.
    ///
    /// # Errors
    ///
    /// Propagates netlist name collisions.
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &self,
        circuit: &mut Circuit,
        prefix: &str,
        inp: NodeId,
        inn: NodeId,
        outp: NodeId,
        outn: NodeId,
        tail: NodeId,
        bulk: NodeId,
    ) -> Result<(), ValidateError> {
        circuit.add_mosfet(
            format!("{prefix}M1"),
            self.spec.polarity,
            self.geometry,
            outn,
            inp,
            tail,
            bulk,
        )?;
        circuit.add_mosfet(
            format!("{prefix}M2"),
            self.spec.polarity,
            self.geometry,
            outp,
            inn,
            tail,
            bulk,
        )?;
        Ok(())
    }
}

/// The differential pair's single-style [`BlockDesigner`] implementation
/// (the paper's op-amp templates fix the pair topology; only its sizing
/// varies).
#[derive(Clone, Copy, Debug)]
pub struct DiffPairDesigner<'a> {
    process: &'a Process,
}

impl<'a> DiffPairDesigner<'a> {
    /// A designer sizing against `process`.
    #[must_use]
    pub fn new(process: &'a Process) -> Self {
        Self { process }
    }
}

impl BlockDesigner for DiffPairDesigner<'_> {
    type Spec = DiffPairSpec;
    type Output = DiffPair;
    type Error = DesignError;

    fn level(&self) -> &'static str {
        "diff pair"
    }

    fn styles(&self) -> &'static [&'static str] {
        &["matched pair"]
    }

    fn design_style(
        &self,
        spec: &DiffPairSpec,
        _style: &str,
        _ctx: &DesignContext<'_>,
    ) -> Result<DiffPair, DesignError> {
        DiffPair::design(spec, self.process)
    }

    fn area_um2(&self, output: &DiffPair) -> f64 {
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
    fn sizes_for_target_gm() {
        let spec = DiffPairSpec::new(Polarity::Nmos, 100e-6, 20e-6);
        let pair = DiffPair::design(&spec, &process()).unwrap();
        // Snapping rounds the width up, so gm meets or exceeds target.
        assert!(pair.gm() >= 100e-6 * 0.999);
        assert!(pair.gm() < 120e-6);
        // Vov = 2·Id/gm = 0.2 V nominal.
        assert!((pair.vov() - 0.2).abs() < 0.05);
    }

    #[test]
    fn pmos_pair_is_wider_for_same_gm() {
        let n = DiffPair::design(
            &DiffPairSpec::new(Polarity::Nmos, 100e-6, 20e-6),
            &process(),
        )
        .unwrap();
        let p = DiffPair::design(
            &DiffPairSpec::new(Polarity::Pmos, 100e-6, 20e-6),
            &process(),
        )
        .unwrap();
        assert!(p.geometry().w_um() > n.geometry().w_um());
    }

    #[test]
    fn excessive_gm_is_infeasible() {
        // gm so large the W/L blows past the bound.
        let spec = DiffPairSpec::new(Polarity::Nmos, 0.1, 20e-6);
        let err = DiffPair::design(&spec, &process()).unwrap_err();
        assert!(err.is_infeasible());
    }

    #[test]
    fn starved_gm_hits_vov_floor() {
        // Tiny gm at a large current implies a huge Vov — fine; but a huge
        // gm at tiny current implies sub-threshold Vov → infeasible.
        let spec = DiffPairSpec::new(Polarity::Nmos, 1e-3, 10e-6);
        let err = DiffPair::design(&spec, &process()).unwrap_err();
        assert!(err.is_infeasible());
        assert!(err.to_string().contains("V_ov"));
    }

    #[test]
    fn length_override_respected() {
        let spec = DiffPairSpec::new(Polarity::Nmos, 100e-6, 20e-6).with_length_um(10.0);
        let pair = DiffPair::design(&spec, &process()).unwrap();
        assert!((pair.geometry().l_um() - 10.0).abs() < 1e-9);
        // Longer channel → lower gds at the same current.
        let short = DiffPair::design(
            &DiffPairSpec::new(Polarity::Nmos, 100e-6, 20e-6),
            &process(),
        )
        .unwrap();
        assert!(pair.gds() < short.gds());
    }

    #[test]
    fn slew_rate_and_cm() {
        let spec = DiffPairSpec::new(Polarity::Nmos, 100e-6, 20e-6);
        let pair = DiffPair::design(&spec, &process()).unwrap();
        assert!((pair.slew_rate(5e-12) - 4e6).abs() < 1e3); // 20µA/5pF = 4 V/µs
        let cm = pair.cm_consumed(&process(), 0.25);
        assert!(cm > pair.vgs(&process()));
    }

    #[test]
    fn emit_creates_matched_devices() {
        let spec = DiffPairSpec::new(Polarity::Nmos, 100e-6, 20e-6);
        let pair = DiffPair::design(&spec, &process()).unwrap();
        let mut c = Circuit::new("dp");
        let inp = c.node("inp");
        let inn = c.node("inn");
        let outp = c.node("outp");
        let outn = c.node("outn");
        let tail = c.node("tail");
        let gnd = c.ground();
        pair.emit(&mut c, "DP_", inp, inn, outp, outn, tail, gnd)
            .unwrap();
        let devices: Vec<_> = c.mosfets().collect();
        assert_eq!(devices.len(), 2);
        assert_eq!(devices[0].geometry, devices[1].geometry);
        // Cross-connection: M1 gate=inp drain=outn.
        assert_eq!(devices[0].gate, inp);
        assert_eq!(devices[0].drain, outn);
    }

    #[test]
    fn invalid_spec_rejected() {
        assert!(
            DiffPair::design(&DiffPairSpec::new(Polarity::Nmos, -1.0, 20e-6), &process()).is_err()
        );
        assert!(
            DiffPair::design(&DiffPairSpec::new(Polarity::Nmos, 100e-6, 0.0), &process()).is_err()
        );
    }
}
