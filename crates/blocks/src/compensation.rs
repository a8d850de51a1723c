//! Miller-compensation designer.
//!
//! The paper singles compensation out architecturally: *"because the
//! feedback compensation scheme depends on the specifications of almost
//! every other block in the op amp, its design cannot be easily deferred
//! to some lower-level block designer … it is conceptually one level
//! higher in the hierarchy than the other sub-blocks."* Accordingly this
//! designer works on stage-level quantities (`gm1`, `gm2`, `C_L`) rather
//! than devices, and the two-stage op-amp *plan* invokes it directly.
//!
//! Design equations (standard two-stage Miller analysis):
//!
//! ```text
//! f_u  = gm1 / (2π·Cc)                  unity-gain frequency
//! p2   = gm2 / (2π·C_L_eff)             output pole
//! z    = gm2 / (2π·Cc)                  right-half-plane zero
//! PM   = 90° − atan(f_u/p2) − atan(f_u/z)
//! ```

use crate::common::{require_positive, DesignError};
use oasys_plan::{CacheKey, DesignContext};
use oasys_telemetry::sym;

/// Smallest compensation capacitor worth drawing, F.
const MIN_CC: f64 = 0.2e-12;

/// Specification for Miller compensation of a two-stage amplifier.
///
/// # Examples
///
/// ```
/// use oasys_blocks::compensation::CompensationSpec;
/// let spec = CompensationSpec {
///     gm1: 100e-6,
///     gm2: 1e-3,
///     load_cap: 5e-12,
///     unity_gain_freq: 1e6,
///     phase_margin_deg: 60.0,
/// };
/// assert!(spec.gm2 > spec.gm1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompensationSpec {
    /// First-stage transconductance, S.
    pub gm1: f64,
    /// Second-stage transconductance, S.
    pub gm2: f64,
    /// Load capacitance, F.
    pub load_cap: f64,
    /// Target unity-gain frequency, Hz.
    pub unity_gain_freq: f64,
    /// Target phase margin, degrees.
    pub phase_margin_deg: f64,
}

/// A designed compensation network with its predicted stability numbers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Compensation {
    /// Miller capacitor, F.
    cc: f64,
    /// Predicted unity-gain frequency, Hz.
    fu: f64,
    /// Predicted phase margin, degrees.
    pm_deg: f64,
    /// Output (second) pole, Hz.
    p2: f64,
    /// Right-half-plane zero, Hz.
    zero: f64,
}

/// The phase the second pole and the RHP zero take beyond 95 % of the
/// budget φ = 90° − PM, as a function of gm2: the root
/// [`Compensation::required_gm2`] bisects for. The budget is split
/// between pole and zero in the ratio they actually contribute: both
/// atan arguments share gm2, with p2-term : z-term = C_L : Cc. Monotone
/// decreasing in gm2.
fn excess_phase(
    gm1: f64,
    load_cap: f64,
    unity_gain_freq: f64,
    phase_margin_deg: f64,
) -> impl Fn(f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let cc = (gm1 / (two_pi * unity_gain_freq)).max(MIN_CC);
    let fu = gm1 / (two_pi * cc);
    let phase_budget = (90.0 - phase_margin_deg).to_radians();
    move |gm2| {
        let p2 = gm2 / (two_pi * load_cap);
        let z = gm2 / (two_pi * cc);
        (fu / p2).atan() + (fu / z).atan() - phase_budget * 0.95
    }
}

impl Compensation {
    /// Sizes the Miller capacitor for the target unity-gain frequency and
    /// verifies the resulting phase margin.
    ///
    /// # Errors
    ///
    /// [`DesignError::InvalidSpec`] for malformed inputs;
    /// [`DesignError::Infeasible`] when the predicted phase margin falls
    /// short — the caller's patch rules react by raising `gm2` (more
    /// second-stage current) or lowering the bandwidth target.
    pub fn design(spec: &CompensationSpec) -> Result<Self, DesignError> {
        require_positive("compensation", "gm1", spec.gm1)?;
        require_positive("compensation", "gm2", spec.gm2)?;
        require_positive("compensation", "load_cap", spec.load_cap)?;
        require_positive("compensation", "unity_gain_freq", spec.unity_gain_freq)?;
        if !(0.0..90.0).contains(&spec.phase_margin_deg) {
            return Err(DesignError::invalid(
                "compensation",
                format!(
                    "phase margin must be in (0°, 90°), got {}",
                    spec.phase_margin_deg
                ),
            ));
        }

        let two_pi = 2.0 * std::f64::consts::PI;
        let cc = (spec.gm1 / (two_pi * spec.unity_gain_freq)).max(MIN_CC);
        let fu = spec.gm1 / (two_pi * cc);
        let p2 = spec.gm2 / (two_pi * spec.load_cap);
        let zero = spec.gm2 / (two_pi * cc);
        let pm_deg = 90.0 - (fu / p2).atan().to_degrees() - (fu / zero).atan().to_degrees();

        if pm_deg < spec.phase_margin_deg {
            return Err(DesignError::infeasible(
                "compensation",
                format!(
                    "predicted phase margin {pm_deg:.1}° < target {:.1}° \
                     (f_u = {fu:.3e} Hz, p2 = {p2:.3e} Hz, z = {zero:.3e} Hz); \
                     raise gm2 or lower the bandwidth target",
                    spec.phase_margin_deg
                ),
            ));
        }

        Ok(Self {
            cc,
            fu,
            pm_deg,
            p2,
            zero,
        })
    }

    /// As [`Compensation::design`], but recording through `ctx`: the
    /// invocation appears as a `block:compensation` telemetry span, and a
    /// context-carried [`oasys_plan::MemoCache`] memoizes the result under
    /// the spec's bit-exact fingerprint. Compensation is process-free —
    /// it works on stage-level quantities only.
    ///
    /// # Errors
    ///
    /// As for [`Compensation::design`].
    pub fn design_with(
        spec: &CompensationSpec,
        ctx: &DesignContext<'_>,
    ) -> Result<Self, DesignError> {
        let key = CacheKey::new("gm1 gm2 cl fu pm")
            .num(spec.gm1)
            .num(spec.gm2)
            .num(spec.load_cap)
            .num(spec.unity_gain_freq)
            .num(spec.phase_margin_deg);
        ctx.design_child_sym(
            sym!("block:compensation"),
            "compensation",
            Some(key),
            || Self::design(spec),
        )
    }

    /// Required second-stage transconductance for a compensation spec to
    /// close with margin to spare: solves the phase-margin equation for
    /// `gm2` given everything else (used by the op-amp plan to set the
    /// second stage's current budget before designing it).
    ///
    /// # Errors
    ///
    /// [`DesignError::InvalidSpec`] for malformed inputs.
    pub fn required_gm2(
        gm1: f64,
        load_cap: f64,
        unity_gain_freq: f64,
        phase_margin_deg: f64,
    ) -> Result<f64, DesignError> {
        require_positive("compensation", "gm1", gm1)?;
        require_positive("compensation", "load_cap", load_cap)?;
        require_positive("compensation", "unity_gain_freq", unity_gain_freq)?;
        if !(0.0..90.0).contains(&phase_margin_deg) {
            return Err(DesignError::invalid(
                "compensation",
                format!("phase margin must be in (0°, 90°), got {phase_margin_deg}"),
            ));
        }
        let margin = excess_phase(gm1, load_cap, unity_gain_freq, phase_margin_deg);
        let mut lo = gm1 * 1e-2;
        let mut hi = gm1 * 1e5;
        if margin(hi) > 0.0 {
            return Err(DesignError::infeasible(
                "compensation",
                "no practical gm2 achieves the phase margin".to_owned(),
            ));
        }
        // Geometric bisection, at most 200 steps, stopping at its fixed
        // point: once the midpoint rounds to an end, a step changes
        // neither end and every later step repeats it (57–59 steps from
        // this bracket), so the answer is the 200-step one.
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            let (next_lo, next_hi) = if margin(mid) > 0.0 {
                (mid, hi)
            } else {
                (lo, mid)
            };
            if (next_lo, next_hi) == (lo, hi) {
                break;
            }
            (lo, hi) = (next_lo, next_hi);
        }
        Ok(hi)
    }

    /// The Miller capacitor, F.
    #[must_use]
    pub fn cc(&self) -> f64 {
        self.cc
    }

    /// Predicted unity-gain frequency, Hz.
    #[must_use]
    pub fn unity_gain_freq(&self) -> f64 {
        self.fu
    }

    /// Predicted phase margin, degrees.
    #[must_use]
    pub fn phase_margin_deg(&self) -> f64 {
        self.pm_deg
    }

    /// The output pole, Hz.
    #[must_use]
    pub fn p2(&self) -> f64 {
        self.p2
    }

    /// The right-half-plane zero, Hz.
    #[must_use]
    pub fn zero(&self) -> f64 {
        self.zero
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec() -> CompensationSpec {
        CompensationSpec {
            gm1: 100e-6,
            gm2: 1.5e-3,
            load_cap: 5e-12,
            unity_gain_freq: 1e6,
            phase_margin_deg: 60.0,
        }
    }

    #[test]
    fn sizes_cc_for_bandwidth() {
        let c = Compensation::design(&base_spec()).unwrap();
        // Cc = gm1/(2π fu) ≈ 15.9 pF.
        assert!((c.cc() / 15.9e-12 - 1.0).abs() < 0.01);
        assert!((c.unity_gain_freq() / 1e6 - 1.0).abs() < 1e-9);
        assert!(c.phase_margin_deg() >= 60.0);
    }

    #[test]
    fn weak_second_stage_fails_margin() {
        let spec = CompensationSpec {
            gm2: 50e-6, // p2 = 1.6 MHz ≈ fu → bad margin
            ..base_spec()
        };
        let err = Compensation::design(&spec).unwrap_err();
        assert!(err.is_infeasible());
        assert!(err.to_string().contains("phase margin"));
    }

    #[test]
    fn required_gm2_closes_the_design() {
        let spec = base_spec();
        let gm2 = Compensation::required_gm2(
            spec.gm1,
            spec.load_cap,
            spec.unity_gain_freq,
            spec.phase_margin_deg,
        )
        .unwrap();
        let closed = Compensation::design(&CompensationSpec { gm2, ..spec }).unwrap();
        assert!(closed.phase_margin_deg() >= spec.phase_margin_deg);
        // And it is not wildly overdesigned (within 3× of the failing
        // boundary).
        let barely = Compensation::design(&CompensationSpec {
            gm2: gm2 / 3.0,
            ..spec
        });
        assert!(barely.is_err(), "gm2/3 should be too weak");
    }

    #[test]
    fn pole_zero_ordering() {
        let c = Compensation::design(&base_spec()).unwrap();
        // With Cc > CL here, the RHP zero sits below p2; both must be
        // beyond fu for a healthy margin.
        assert!(c.p2() > c.unity_gain_freq());
        assert!(c.zero() > c.unity_gain_freq());
    }

    #[test]
    fn required_gm2_matches_the_full_200_step_bisection() {
        let mut rng = oasys_testutil::Rng::seeded(24_701);
        let mut feasible = 0;
        for _ in 0..2_000 {
            let gm1 = 10f64.powf(rng.range_f64(-6.0, -2.0));
            let load_cap = 10f64.powf(rng.range_f64(-13.0, -10.0));
            let unity_gain_freq = 10f64.powf(rng.range_f64(4.0, 8.0));
            let phase_margin_deg = rng.range_f64(30.0, 85.0);
            let Ok(gm2) =
                Compensation::required_gm2(gm1, load_cap, unity_gain_freq, phase_margin_deg)
            else {
                continue;
            };
            feasible += 1;
            let margin = excess_phase(gm1, load_cap, unity_gain_freq, phase_margin_deg);
            let (mut lo, mut hi) = (gm1 * 1e-2, gm1 * 1e5);
            for _ in 0..200 {
                let mid = (lo * hi).sqrt();
                if margin(mid) > 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            assert_eq!(
                gm2.to_bits(),
                hi.to_bits(),
                "gm1 {gm1}, C_L {load_cap}, fu {unity_gain_freq}, PM {phase_margin_deg}"
            );
        }
        assert!(feasible > 1_000, "{feasible} feasible draws");
    }

    #[test]
    fn tighter_margin_needs_more_gm2() {
        let g60 = Compensation::required_gm2(100e-6, 5e-12, 1e6, 60.0).unwrap();
        let g75 = Compensation::required_gm2(100e-6, 5e-12, 1e6, 75.0).unwrap();
        assert!(g75 > g60);
    }

    #[test]
    fn bigger_load_needs_more_gm2() {
        let small = Compensation::required_gm2(100e-6, 5e-12, 1e6, 60.0).unwrap();
        let large = Compensation::required_gm2(100e-6, 20e-12, 1e6, 60.0).unwrap();
        assert!(large > small);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = base_spec();
        s.gm1 = 0.0;
        assert!(Compensation::design(&s).is_err());
        let mut s = base_spec();
        s.phase_margin_deg = 95.0;
        assert!(Compensation::design(&s).is_err());
        assert!(Compensation::required_gm2(1e-4, 5e-12, 1e6, 95.0).is_err());
    }
}
