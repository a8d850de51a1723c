//! Forward device evaluation: regions, drain current, small-signal
//! conductances.
//!
//! The model is the classical SPICE level-1 square law with channel-length
//! modulation `(1 + λ·V_DS)` in both triode and saturation (so current and
//! its derivatives are continuous at the region boundary) and the
//! body-effect threshold shift `V_T = V_T0 + γ(√(2φ_F + V_SB) − √(2φ_F))`.
//!
//! All public entry points take *electrical* terminal voltages; PMOS
//! devices are internally mapped onto the NMOS equations by the polarity
//! sign convention of [`Polarity::sign`]. Negative `V_DS` is handled by
//! drain/source mode reversal, as in SPICE.

use crate::geometry::Geometry;
use crate::smallsignal::Capacitances;
use oasys_process::{Polarity, Process};
use std::fmt;

/// MOSFET operating region.
///
/// # Examples
///
/// ```
/// use oasys_mos::Region;
/// assert!(Region::Saturation.is_saturation());
/// assert!(!Region::Triode.is_saturation());
/// assert_eq!(Region::Cutoff.to_string(), "cutoff");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Region {
    /// `V_GS ≤ V_T`: the channel is off.
    Cutoff,
    /// `V_DS < V_GS − V_T`: resistive (linear) operation.
    Triode,
    /// `V_DS ≥ V_GS − V_T`: current-source operation.
    Saturation,
}

impl Region {
    /// Returns `true` for [`Region::Saturation`].
    #[must_use]
    pub fn is_saturation(self) -> bool {
        self == Region::Saturation
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Region::Cutoff => "cutoff",
            Region::Triode => "triode",
            Region::Saturation => "saturation",
        })
    }
}

/// A bias point: region, current, and small-signal parameters.
///
/// Produced by [`Mosfet::operating_point`]. The drain current is signed in
/// electrical convention (current *into* the drain terminal), so a PMOS in
/// normal operation reports a negative `id`. The conductances `gm`, `gds`,
/// `gmb` are non-negative for both polarities.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct OperatingPoint {
    region: Region,
    id: f64,
    gm: f64,
    gds: f64,
    gmb: f64,
    vov: f64,
    vdsat: f64,
    reversed: bool,
}

impl OperatingPoint {
    /// Operating region.
    #[must_use]
    pub fn region(&self) -> Region {
        self.region
    }

    /// Drain terminal current in amperes, electrical sign convention.
    #[must_use]
    pub fn id(&self) -> f64 {
        self.id
    }

    /// Gate transconductance `∂I_D/∂V_GS`, siemens (non-negative).
    #[must_use]
    pub fn gm(&self) -> f64 {
        self.gm
    }

    /// Output conductance `∂I_D/∂V_DS`, siemens (non-negative).
    #[must_use]
    pub fn gds(&self) -> f64 {
        self.gds
    }

    /// Body transconductance `∂I_D/∂V_BS`, siemens (non-negative).
    #[must_use]
    pub fn gmb(&self) -> f64 {
        self.gmb
    }

    /// Gate overdrive `|V_GS| − |V_T|` in volts (zero in cutoff).
    #[must_use]
    pub fn vov(&self) -> f64 {
        self.vov
    }

    /// Saturation voltage `V_DSAT` magnitude in volts.
    #[must_use]
    pub fn vdsat(&self) -> f64 {
        self.vdsat
    }

    /// `true` if drain and source exchanged roles (negative `V_DS` in the
    /// device frame).
    #[must_use]
    pub fn is_reversed(&self) -> bool {
        self.reversed
    }
}

/// A MOSFET instance bound to a process: geometry plus the device
/// parameters the equations need.
///
/// # Examples
///
/// ```
/// use oasys_mos::{Geometry, Mosfet, Region};
/// use oasys_process::{builtin, Polarity};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = builtin::cmos_5um();
/// let m = Mosfet::new(Polarity::Pmos, Geometry::new_um(100.0, 5.0)?, &p);
/// // PMOS with Vgs = -2 V, Vds = -3 V conducts in saturation…
/// let op = m.operating_point(-2.0, -3.0, 0.0);
/// assert_eq!(op.region(), Region::Saturation);
/// // …and its drain terminal current is negative (flows out of the drain).
/// assert!(op.id() < 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Mosfet {
    polarity: Polarity,
    geometry: Geometry,
    /// Threshold magnitude at zero body bias, V.
    vth0: f64,
    /// `K' = µCox`, A/V².
    kprime: f64,
    /// Channel-length modulation at this L, 1/V.
    lambda: f64,
    /// Body-effect coefficient, V^½.
    gamma: f64,
    /// Surface potential 2φF, V.
    phi: f64,
    /// Gate oxide capacitance, F/m².
    cox: f64,
    /// Gate-drain/source overlap capacitance, F/m.
    cgdo: f64,
    /// Gate-bulk overlap capacitance, F/m.
    cgbo: f64,
    /// Junction bottom capacitance, F/m².
    cj: f64,
    /// Junction sidewall capacitance, F/m.
    cjsw: f64,
    /// Drain/source diffusion width, m.
    diff_width: f64,
}

impl Mosfet {
    /// Binds a geometry to a process, extracting the parameters the
    /// square-law equations need. `λ` is evaluated from the process
    /// `λ = f(L)` model at this device's channel length.
    #[must_use]
    pub fn new(polarity: Polarity, geometry: Geometry, process: &Process) -> Self {
        let mos = process.mos(polarity);
        Self {
            polarity,
            geometry,
            vth0: mos.vth().volts(),
            kprime: mos.kprime(),
            lambda: mos.lambda(geometry.l_um()),
            gamma: mos.gamma(),
            phi: mos.phi(),
            cox: process.cox(),
            cgdo: process.cgdo(),
            cgbo: process.cgbo(),
            cj: mos.cj(),
            cjsw: mos.cjsw(),
            diff_width: process.min_drain_width().meters(),
        }
    }

    /// Returns a copy with per-device Monte-Carlo mismatch applied:
    /// `delta_vth_v` shifts the zero-bias threshold *magnitude* (clamped
    /// at zero — a mismatch draw cannot turn the device on at zero
    /// bias), and `kprime_factor` scales the transconductance parameter
    /// (clamped to stay positive). The nominal device is recovered with
    /// `(0.0, 1.0)`.
    #[must_use]
    pub fn with_mismatch(mut self, delta_vth_v: f64, kprime_factor: f64) -> Self {
        self.vth0 = (self.vth0 + delta_vth_v).max(0.0);
        self.kprime *= kprime_factor.max(f64::MIN_POSITIVE);
        self
    }

    /// Channel polarity.
    #[must_use]
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// Drawn geometry.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Channel-length modulation `λ` (1/V) at this geometry.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Effective threshold-voltage *magnitude* at body bias `vsb_mag`
    /// (the magnitude of source-bulk reverse bias, volts).
    #[must_use]
    pub fn vth_eff(&self, vsb_mag: f64) -> f64 {
        // Forward body bias beyond ~φ/2 is clamped; the square-root model
        // is invalid there and synthesized circuits never operate there.
        let vsb = vsb_mag.max(-self.phi / 2.0);
        self.vth0 + self.gamma * ((self.phi + vsb).sqrt() - self.phi.sqrt())
    }

    /// Evaluates the bias point from electrical terminal voltages
    /// (`vgs = V_G − V_S`, `vds = V_D − V_S`, `vsb = V_S − V_B`), volts.
    ///
    /// PMOS devices are sign-mapped internally; negative device-frame
    /// `V_DS` triggers drain/source mode reversal.
    #[must_use]
    pub fn operating_point(&self, vgs: f64, vds: f64, vsb: f64) -> OperatingPoint {
        let s = self.polarity.sign();
        // Map to the NMOS frame.
        let (vgs_n, vds_n, vsb_n) = (s * vgs, s * vds, s * vsb);

        if vds_n >= 0.0 {
            let mut op = self.nmos_frame_point(vgs_n, vds_n, vsb_n, false);
            op.id *= s;
            op
        } else {
            // Mode reversal: the terminal at lower (NMOS-frame) potential
            // acts as the source. In the swapped frame:
            //   vgs' = vgd = vgs − vds, vds' = −vds, vsb' = vdb = vsb + vds.
            let mut op = self.nmos_frame_point(vgs_n - vds_n, -vds_n, vsb_n + vds_n, true);
            // Current flows in the opposite terminal direction.
            op.id *= -s;
            op
        }
    }

    /// Square-law evaluation with `vds ≥ 0` in the NMOS frame.
    fn nmos_frame_point(&self, vgs: f64, vds: f64, vsb: f64, reversed: bool) -> OperatingPoint {
        debug_assert!(vds >= 0.0);
        let vt = self.vth_eff(vsb);
        let vov = vgs - vt;
        let beta = self.kprime * self.geometry.w_over_l();
        let clm = 1.0 + self.lambda * vds;

        // Body-effect derivative dVt/dVsb, guarded for the clamped region.
        let dvt_dvsb = {
            let vsb_c = vsb.max(-self.phi / 2.0);
            self.gamma / (2.0 * (self.phi + vsb_c).sqrt())
        };

        if vov <= 0.0 {
            return OperatingPoint {
                region: Region::Cutoff,
                id: 0.0,
                gm: 0.0,
                gds: 0.0,
                gmb: 0.0,
                vov: 0.0,
                vdsat: 0.0,
                reversed,
            };
        }

        if vds >= vov {
            // Saturation.
            let id = 0.5 * beta * vov * vov * clm;
            let gm = beta * vov * clm;
            let gds = 0.5 * beta * vov * vov * self.lambda;
            let gmb = gm * dvt_dvsb;
            OperatingPoint {
                region: Region::Saturation,
                id,
                gm,
                gds,
                gmb,
                vov,
                vdsat: vov,
                reversed,
            }
        } else {
            // Triode.
            let id = beta * (vov - vds / 2.0) * vds * clm;
            let gm = beta * vds * clm;
            let gds = beta * ((vov - vds) * clm + (vov - vds / 2.0) * vds * self.lambda);
            let gmb = gm * dvt_dvsb;
            OperatingPoint {
                region: Region::Triode,
                id,
                gm,
                gds,
                gmb,
                vov,
                vdsat: vov,
                reversed,
            }
        }
    }

    /// Meyer-style terminal capacitances at the given bias point.
    #[must_use]
    pub fn capacitances(&self, op: &OperatingPoint) -> Capacitances {
        Capacitances::evaluate(self, op)
    }

    pub(crate) fn cox(&self) -> f64 {
        self.cox
    }

    pub(crate) fn cgdo(&self) -> f64 {
        self.cgdo
    }

    pub(crate) fn cgbo(&self) -> f64 {
        self.cgbo
    }

    pub(crate) fn cj(&self) -> f64 {
        self.cj
    }

    pub(crate) fn cjsw(&self) -> f64 {
        self.cjsw
    }

    pub(crate) fn diff_width(&self) -> f64 {
        self.diff_width
    }
}

impl fmt::Display for Mosfet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.polarity, self.geometry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_process::builtin;

    fn nmos(w: f64, l: f64) -> Mosfet {
        Mosfet::new(
            Polarity::Nmos,
            Geometry::new_um(w, l).unwrap(),
            &builtin::cmos_5um(),
        )
    }

    fn pmos(w: f64, l: f64) -> Mosfet {
        Mosfet::new(
            Polarity::Pmos,
            Geometry::new_um(w, l).unwrap(),
            &builtin::cmos_5um(),
        )
    }

    #[test]
    fn cutoff_below_threshold() {
        let m = nmos(10.0, 5.0);
        let op = m.operating_point(0.5, 3.0, 0.0);
        assert_eq!(op.region(), Region::Cutoff);
        assert_eq!(op.id(), 0.0);
        assert_eq!(op.gm(), 0.0);
    }

    #[test]
    fn saturation_square_law() {
        let m = nmos(50.0, 5.0);
        // Vov = 1 V, deep saturation.
        let op = m.operating_point(2.0, 4.0, 0.0);
        assert_eq!(op.region(), Region::Saturation);
        let beta = 25e-6 * 10.0;
        let lambda = m.lambda();
        let expected = 0.5 * beta * 1.0 * (1.0 + lambda * 4.0);
        assert!((op.id() / expected - 1.0).abs() < 1e-12);
        // gm = 2 Id / Vov, up to the λ factor consistency.
        assert!((op.gm() / (beta * (1.0 + lambda * 4.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn triode_current_lower_than_saturation() {
        let m = nmos(50.0, 5.0);
        let sat = m.operating_point(2.0, 4.0, 0.0);
        let tri = m.operating_point(2.0, 0.2, 0.0);
        assert_eq!(tri.region(), Region::Triode);
        assert!(tri.id() < sat.id());
        assert!(tri.id() > 0.0);
    }

    #[test]
    fn current_is_continuous_at_region_boundary() {
        let m = nmos(50.0, 5.0);
        let vov = 1.0;
        let below = m.operating_point(2.0, vov - 1e-9, 0.0);
        let above = m.operating_point(2.0, vov + 1e-9, 0.0);
        assert!((below.id() / above.id() - 1.0).abs() < 1e-6);
        // gds is continuous too (λ in both regions).
        assert!((below.gds() / above.gds() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn gm_matches_numerical_derivative() {
        let m = nmos(50.0, 5.0);
        let dv = 1e-7;
        for (vgs, vds) in [(2.0, 4.0), (2.0, 0.3), (1.5, 1.0)] {
            let op = m.operating_point(vgs, vds, 0.0);
            let hi = m.operating_point(vgs + dv, vds, 0.0);
            let lo = m.operating_point(vgs - dv, vds, 0.0);
            let num = (hi.id() - lo.id()) / (2.0 * dv);
            assert!(
                (op.gm() - num).abs() <= 1e-6 * num.abs().max(1e-12),
                "gm mismatch at vgs={vgs} vds={vds}: analytic {} vs numeric {num}",
                op.gm()
            );
        }
    }

    #[test]
    fn gds_matches_numerical_derivative() {
        let m = nmos(50.0, 5.0);
        let dv = 1e-7;
        for (vgs, vds) in [(2.0, 4.0), (2.0, 0.3)] {
            let op = m.operating_point(vgs, vds, 0.0);
            let hi = m.operating_point(vgs, vds + dv, 0.0);
            let lo = m.operating_point(vgs, vds - dv, 0.0);
            let num = (hi.id() - lo.id()) / (2.0 * dv);
            assert!(
                (op.gds() - num).abs() <= 1e-5 * num.abs().max(1e-12),
                "gds mismatch at vgs={vgs} vds={vds}: analytic {} vs numeric {num}",
                op.gds()
            );
        }
    }

    #[test]
    fn gmb_matches_numerical_derivative() {
        let m = nmos(50.0, 5.0);
        let dv = 1e-7;
        let vsb = 1.0;
        let op = m.operating_point(2.0, 4.0, vsb);
        // gmb = ∂Id/∂Vbs = −∂Id/∂Vsb.
        let hi = m.operating_point(2.0, 4.0, vsb - dv);
        let lo = m.operating_point(2.0, 4.0, vsb + dv);
        let num = (hi.id() - lo.id()) / (2.0 * dv);
        assert!(
            (op.gmb() - num).abs() <= 1e-5 * num.abs().max(1e-12),
            "gmb mismatch: analytic {} vs numeric {num}",
            op.gmb()
        );
    }

    #[test]
    fn body_effect_raises_threshold() {
        let m = nmos(10.0, 5.0);
        assert!(m.vth_eff(2.0) > m.vth_eff(0.0));
        let op0 = m.operating_point(2.0, 4.0, 0.0);
        let op1 = m.operating_point(2.0, 4.0, 2.0);
        assert!(op1.id() < op0.id());
    }

    #[test]
    fn pmos_mirrors_nmos_behaviour() {
        let n = nmos(50.0, 5.0);
        let p = pmos(50.0, 5.0);
        let opn = n.operating_point(2.0, 4.0, 0.0);
        let opp = p.operating_point(-2.0, -4.0, 0.0);
        assert_eq!(opp.region(), Region::Saturation);
        assert!(opp.id() < 0.0);
        // Same equations, different K': ratio equals K'p/K'n (λ differs
        // slightly, so compare within a few percent).
        let ratio = opp.id().abs() / opn.id();
        assert!((ratio / (10.0 / 25.0) - 1.0).abs() < 0.05, "ratio {ratio}");
        assert!(opp.gm() > 0.0);
        assert!(opp.gds() > 0.0);
    }

    #[test]
    fn mode_reversal_antisymmetric_current() {
        let m = nmos(50.0, 5.0);
        // Swap drain and source with symmetric bias: in the reversed case
        // vgs' = vgd = 2 − (−1) = 3 at the same vsb' — not exactly the
        // mirror image unless the gate is referenced correctly. Verify the
        // fundamental antisymmetry instead: Id(vgd, −vds) from the swapped
        // terminal equals −Id when we relabel.
        let fwd = m.operating_point(3.0, 1.0, 0.0);
        let rev = m.operating_point(3.0 - 1.0, -1.0, 1.0);
        assert!(rev.is_reversed());
        assert!((fwd.id() + rev.id()).abs() < 1e-6 * fwd.id().abs());
    }

    #[test]
    fn vds_zero_gives_zero_current_but_finite_gds() {
        let m = nmos(50.0, 5.0);
        let op = m.operating_point(2.0, 0.0, 0.0);
        assert_eq!(op.region(), Region::Triode);
        assert_eq!(op.id(), 0.0);
        assert!(op.gds() > 0.0, "triode at vds=0 is a resistor");
    }

    #[test]
    fn larger_width_more_current() {
        let a = nmos(10.0, 5.0).operating_point(2.0, 4.0, 0.0);
        let b = nmos(100.0, 5.0).operating_point(2.0, 4.0, 0.0);
        assert!((b.id() / a.id() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn longer_channel_lower_lambda_higher_rout() {
        let short = nmos(50.0, 5.0);
        let long = nmos(100.0, 10.0); // same W/L
        let op_s = short.operating_point(2.0, 4.0, 0.0);
        let op_l = long.operating_point(2.0, 4.0, 0.0);
        assert!(op_l.gds() < op_s.gds());
    }
}
