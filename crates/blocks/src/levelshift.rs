//! Level-shifter (source-follower) designer.
//!
//! The paper's case C shows OASYS inserting *"a level shifter to match the
//! output voltage of the differential pair in the first stage to the input
//! voltage of the transconductance amplifier in the second stage."* The
//! shifter is a source follower: its `V_GS` (at the design bias) is the
//! DC shift it introduces.

use crate::area::AreaEstimate;
use crate::common::{require_positive, snap_width_um, DesignError};
use oasys_mos::{sizing, Geometry};
use oasys_netlist::{Circuit, NodeId, ValidateError};
use oasys_plan::{CacheKey, DesignContext};
use oasys_process::{Polarity, Process};
use oasys_telemetry::sym;

/// Overdrive bounds for a useful follower.
const MIN_VOV: f64 = 0.08;
const MAX_VOV: f64 = 1.5;

/// Specification for a level shifter.
///
/// # Examples
///
/// ```
/// use oasys_blocks::levelshift::LevelShiftSpec;
/// use oasys_process::Polarity;
/// // Shift down by 1.4 V at 10 µA.
/// let spec = LevelShiftSpec::new(Polarity::Nmos, 1.4, 10e-6);
/// assert_eq!(spec.shift(), 1.4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelShiftSpec {
    polarity: Polarity,
    /// Desired DC shift magnitude (the follower's `V_GS`), V.
    shift: f64,
    /// Bias current through the follower, A.
    bias_current: f64,
    /// Estimated source-bulk reverse bias at the operating point, V
    /// (body effect raises the threshold and eats into the overdrive).
    vsb_estimate: f64,
}

impl LevelShiftSpec {
    /// A shifter that drops `shift` volts at `bias_current`.
    #[must_use]
    pub fn new(polarity: Polarity, shift: f64, bias_current: f64) -> Self {
        Self {
            polarity,
            shift,
            bias_current,
            vsb_estimate: 0.0,
        }
    }

    /// Sets the estimated source-bulk bias, V.
    #[must_use]
    pub fn with_vsb(mut self, vsb: f64) -> Self {
        self.vsb_estimate = vsb;
        self
    }

    /// The polarity of the follower device.
    #[must_use]
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// The DC shift magnitude, V.
    #[must_use]
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// The bias current, A.
    #[must_use]
    pub fn bias_current(&self) -> f64 {
        self.bias_current
    }
}

/// A designed level shifter.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelShifter {
    spec: LevelShiftSpec,
    geometry: Geometry,
    vov: f64,
    gm: f64,
    gmb: f64,
    area: AreaEstimate,
}

impl LevelShifter {
    /// Sizes the follower so its `V_GS` (threshold plus overdrive, with
    /// the body-effect estimate applied) equals the requested shift.
    ///
    /// # Errors
    ///
    /// [`DesignError::InvalidSpec`] for malformed inputs;
    /// [`DesignError::Infeasible`] when the shift is smaller than the
    /// (body-effect-corrected) threshold plus the minimum overdrive, or
    /// implausibly large.
    pub fn design(spec: &LevelShiftSpec, process: &Process) -> Result<Self, DesignError> {
        require_positive("levelshift", "shift", spec.shift)?;
        require_positive("levelshift", "bias_current", spec.bias_current)?;
        if spec.vsb_estimate < 0.0 {
            return Err(DesignError::invalid(
                "levelshift",
                format!("vsb estimate must be ≥ 0, got {}", spec.vsb_estimate),
            ));
        }

        let mos = process.mos(spec.polarity);
        let vth_eff = {
            let gamma = mos.gamma();
            let phi = mos.phi();
            mos.vth().volts() + gamma * ((phi + spec.vsb_estimate).sqrt() - phi.sqrt())
        };

        let vov = spec.shift - vth_eff;
        if vov < MIN_VOV {
            return Err(DesignError::infeasible(
                "levelshift",
                format!(
                    "requested shift {:.3} V ≤ effective threshold {vth_eff:.3} V \
                     + {MIN_VOV} V minimum overdrive",
                    spec.shift
                ),
            ));
        }
        if vov > MAX_VOV {
            return Err(DesignError::infeasible(
                "levelshift",
                format!("implied overdrive {vov:.2} V exceeds the {MAX_VOV} V bound"),
            ));
        }

        let wl = sizing::w_over_l_from_id_vov(spec.bias_current, vov, mos.kprime());
        let l_um = process.min_length().micrometers();
        let w_um = snap_width_um(wl * l_um, process.min_width().micrometers());
        let geometry = Geometry::new_um(w_um, l_um)
            .map_err(|e| DesignError::infeasible("levelshift", e.to_string()))?;

        let gm = 2.0 * spec.bias_current / vov;
        let gmb = gm * mos.gamma() / (2.0 * (mos.phi() + spec.vsb_estimate).sqrt());
        let area = AreaEstimate::for_device(&geometry, process);
        Ok(Self {
            spec: *spec,
            geometry,
            vov,
            gm,
            gmb,
            area,
        })
    }

    /// As [`LevelShifter::design`], but recording through `ctx`: the
    /// invocation appears as a `block:level shifter` telemetry span, and a
    /// context-carried [`oasys_plan::MemoCache`] memoizes the result under
    /// the spec's bit-exact fingerprint.
    ///
    /// # Errors
    ///
    /// As for [`LevelShifter::design`].
    pub fn design_with(
        spec: &LevelShiftSpec,
        process: &Process,
        ctx: &DesignContext<'_>,
    ) -> Result<Self, DesignError> {
        let key = CacheKey::new("pol shift ibias vsb")
            .tag(spec.polarity as u64)
            .num(spec.shift)
            .num(spec.bias_current)
            .num(spec.vsb_estimate);
        ctx.design_child_sym(
            sym!("block:level shifter"),
            "level shifter",
            Some(key),
            || Self::design(spec, process),
        )
    }

    /// The specification.
    #[must_use]
    pub fn spec(&self) -> &LevelShiftSpec {
        &self.spec
    }

    /// The follower geometry.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Designed overdrive, V.
    #[must_use]
    pub fn vov(&self) -> f64 {
        self.vov
    }

    /// Follower transconductance, S.
    #[must_use]
    pub fn gm(&self) -> f64 {
        self.gm
    }

    /// Small-signal voltage gain of the follower,
    /// `gm / (gm + gmb)` (< 1 because of the body effect).
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gm / (self.gm + self.gmb)
    }

    /// Output resistance looking into the source, Ω.
    #[must_use]
    pub fn rout(&self) -> f64 {
        1.0 / (self.gm + self.gmb)
    }

    /// Estimated layout area (follower device only; the bias sink belongs
    /// to whichever mirror supplies it).
    #[must_use]
    pub fn area(&self) -> AreaEstimate {
        self.area
    }

    /// Instantiates the follower: gate at `input`, source at `output`
    /// (the shifted copy), drain at `drain_rail`, bulk at `bulk`.
    /// The caller must provide the bias-current sink at `output`.
    ///
    /// # Errors
    ///
    /// Propagates netlist name collisions.
    pub fn emit(
        &self,
        circuit: &mut Circuit,
        prefix: &str,
        input: NodeId,
        output: NodeId,
        drain_rail: NodeId,
        bulk: NodeId,
    ) -> Result<(), ValidateError> {
        circuit.add_mosfet(
            format!("{prefix}MLS"),
            self.spec.polarity,
            self.geometry,
            drain_rail,
            input,
            output,
            bulk,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_netlist::SourceValue;
    use oasys_process::builtin;
    use oasys_sim::dc;
    use oasys_telemetry::Telemetry;

    fn process() -> Process {
        builtin::cmos_5um()
    }

    #[test]
    fn designs_reasonable_shift() {
        let spec = LevelShiftSpec::new(Polarity::Nmos, 1.4, 10e-6);
        let ls = LevelShifter::design(&spec, &process()).unwrap();
        assert!((ls.vov() - 0.4).abs() < 1e-9);
        assert!(ls.gain() < 1.0);
        assert!(ls.gain() > 0.7);
        assert!(ls.rout() > 0.0);
    }

    #[test]
    fn shift_below_threshold_is_infeasible() {
        let spec = LevelShiftSpec::new(Polarity::Nmos, 0.9, 10e-6);
        let err = LevelShifter::design(&spec, &process()).unwrap_err();
        assert!(err.is_infeasible());
        assert!(err.to_string().contains("threshold"));
    }

    #[test]
    fn body_effect_requires_larger_shift() {
        let no_body = LevelShiftSpec::new(Polarity::Nmos, 1.2, 10e-6);
        assert!(LevelShifter::design(&no_body, &process()).is_ok());
        let with_body = no_body.with_vsb(4.0);
        let err = LevelShifter::design(&with_body, &process()).unwrap_err();
        assert!(err.is_infeasible(), "body effect should consume the margin");
    }

    #[test]
    fn huge_shift_is_infeasible() {
        let spec = LevelShiftSpec::new(Polarity::Nmos, 4.0, 10e-6);
        let err = LevelShifter::design(&spec, &process()).unwrap_err();
        assert!(err.is_infeasible());
    }

    #[test]
    fn simulated_shift_matches_design() {
        let p = process();
        // Bulk at VSS (−5 V), input at 1 V: the source lands near −1 V so
        // V_SB ≈ 4 V. A 2.0 V shift clears the body-boosted threshold.
        let spec = LevelShiftSpec::new(Polarity::Nmos, 2.0, 10e-6).with_vsb(4.0);
        let ls = LevelShifter::design(&spec, &p).unwrap();

        let mut c = Circuit::new("ls test");
        let vdd = c.node("vdd");
        let vss = c.node("vss");
        let input = c.node("in");
        let output = c.node("out");
        let gnd = c.ground();
        c.add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
            .unwrap();
        c.add_vsource("VSS", vss, gnd, SourceValue::dc(-5.0))
            .unwrap();
        c.add_vsource("VIN", input, gnd, SourceValue::dc(1.0))
            .unwrap();
        c.add_isource("IB", output, vss, SourceValue::dc(10e-6))
            .unwrap();
        ls.emit(&mut c, "LS_", input, output, vdd, vss).unwrap();

        let sol = dc::solve(&c, &p, &Telemetry::disabled()).unwrap();
        let shift = sol.voltage(input) - sol.voltage(output);
        assert!(
            (shift - 2.0).abs() < 0.1,
            "designed 2.0 V shift, simulated {shift:.3} V"
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(
            LevelShifter::design(&LevelShiftSpec::new(Polarity::Nmos, -1.0, 1e-6), &process())
                .is_err()
        );
        assert!(
            LevelShifter::design(&LevelShiftSpec::new(Polarity::Nmos, 1.4, 0.0), &process())
                .is_err()
        );
        assert!(LevelShifter::design(
            &LevelShiftSpec::new(Polarity::Nmos, 1.4, 1e-6).with_vsb(-1.0),
            &process()
        )
        .is_err());
    }
}
