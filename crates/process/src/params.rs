//! Validated process-parameter containers.

use oasys_units::{Length, Voltage};
use std::fmt;

/// MOSFET channel polarity.
///
/// # Examples
///
/// ```
/// use oasys_process::Polarity;
/// assert_eq!(Polarity::Nmos.other(), Polarity::Pmos);
/// assert_eq!(Polarity::Nmos.to_string(), "NMOS");
/// assert_eq!(Polarity::Nmos.sign(), 1.0);
/// assert_eq!(Polarity::Pmos.sign(), -1.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Polarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

impl Polarity {
    /// Both polarities, NMOS first.
    pub const ALL: [Polarity; 2] = [Polarity::Nmos, Polarity::Pmos];

    /// The polarity's display name, `"NMOS"` or `"PMOS"`.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Polarity::Nmos => "NMOS",
            Polarity::Pmos => "PMOS",
        }
    }

    /// Returns the opposite polarity.
    #[must_use]
    pub fn other(self) -> Self {
        match self {
            Polarity::Nmos => Polarity::Pmos,
            Polarity::Pmos => Polarity::Nmos,
        }
    }

    /// Sign convention for terminal voltages and currents: `+1` for NMOS,
    /// `-1` for PMOS. Multiplying a PMOS terminal quantity by this sign maps
    /// it onto the NMOS equations.
    #[must_use]
    pub fn sign(self) -> f64 {
        match self {
            Polarity::Nmos => 1.0,
            Polarity::Pmos => -1.0,
        }
    }
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-polarity device parameters (rows 1, 2, 8 and 14 of OASYS Table 1,
/// plus the body-effect coefficients used by the level-shifter designer).
///
/// All magnitudes are stored in SI base units; accessors expose the
/// customary engineering units.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MosParams {
    pub(crate) polarity: Polarity,
    /// Threshold voltage magnitude, volts (always positive; the device model
    /// applies the polarity sign).
    pub(crate) vth: f64,
    /// Transconductance parameter `K' = µ·Cox`, A/V².
    pub(crate) kprime: f64,
    /// Carrier mobility, m²/(V·s).
    pub(crate) mobility: f64,
    /// Channel-length-modulation coefficient: `λ(L) = lambda_l / L[µm]`,
    /// so the stored value has units V⁻¹·µm.
    pub(crate) lambda_l: f64,
    /// Zero-bias bulk junction bottom capacitance, F/m².
    pub(crate) cj: f64,
    /// Zero-bias bulk junction sidewall capacitance, F/m.
    pub(crate) cjsw: f64,
    /// Body-effect coefficient γ, V^½.
    pub(crate) gamma: f64,
    /// Surface potential 2φF, volts.
    pub(crate) phi: f64,
}

impl MosParams {
    /// Channel polarity these parameters describe.
    #[must_use]
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// Threshold voltage magnitude (always positive).
    #[must_use]
    pub fn vth(&self) -> Voltage {
        Voltage::new(self.vth)
    }

    /// Transconductance parameter `K' = µ·Cox` in A/V².
    #[must_use]
    pub fn kprime(&self) -> f64 {
        self.kprime
    }

    /// Transconductance parameter in the datasheet unit µA/V².
    #[must_use]
    pub fn kprime_ua_per_v2(&self) -> f64 {
        self.kprime * 1e6
    }

    /// Carrier mobility in m²/(V·s).
    #[must_use]
    pub fn mobility(&self) -> f64 {
        self.mobility
    }

    /// Carrier mobility in the datasheet unit cm²/(V·s).
    #[must_use]
    pub fn mobility_cm2(&self) -> f64 {
        self.mobility * 1e4
    }

    /// Channel-length modulation `λ` (V⁻¹) for a channel of length
    /// `l_um` micrometers: `λ = c / L`, the paper's `λ = f(L)` model.
    ///
    /// # Panics
    ///
    /// Panics if `l_um` is not strictly positive.
    #[must_use]
    pub fn lambda(&self, l_um: f64) -> f64 {
        assert!(l_um > 0.0, "channel length must be positive, got {l_um}");
        self.lambda_l / l_um
    }

    /// The raw λ·L product in V⁻¹·µm.
    #[must_use]
    pub fn lambda_l(&self) -> f64 {
        self.lambda_l
    }

    /// Zero-bias junction bottom capacitance in F/m².
    #[must_use]
    pub fn cj(&self) -> f64 {
        self.cj
    }

    /// Zero-bias junction bottom capacitance in fF/µm².
    #[must_use]
    pub fn cj_ff_per_um2(&self) -> f64 {
        self.cj * 1e3
    }

    /// Zero-bias junction sidewall capacitance in F/m.
    #[must_use]
    pub fn cjsw(&self) -> f64 {
        self.cjsw
    }

    /// Zero-bias junction sidewall capacitance in fF/µm.
    #[must_use]
    pub fn cjsw_ff_per_um(&self) -> f64 {
        self.cjsw * 1e9
    }

    /// Body-effect coefficient γ in V^½.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Surface potential 2φF in volts.
    #[must_use]
    pub fn phi(&self) -> f64 {
        self.phi
    }
}

/// A complete, validated CMOS process description (OASYS Table 1).
///
/// Construct with [`crate::ProcessBuilder`], load from a technology file via
/// [`crate::techfile::parse`], or use a ready-made set from [`crate::builtin`].
///
/// # Examples
///
/// ```
/// use oasys_process::builtin;
/// let p = builtin::cmos_5um();
/// assert!(p.vdd().volts() > 0.0);
/// assert!(p.cox() > 0.0);
/// assert!(p.min_length().micrometers() > 0.0);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Process {
    pub(crate) name: String,
    pub(crate) nmos: MosParams,
    pub(crate) pmos: MosParams,
    /// Minimum drawn channel width, m. (Table 1 row 3.)
    pub(crate) min_width: f64,
    /// Minimum drawn channel length, m.
    pub(crate) min_length: f64,
    /// Minimum drain/source diffusion width, m. (Table 1 row 5.)
    pub(crate) min_drain_width: f64,
    /// Junction built-in voltage, V. (Table 1 row 4.)
    pub(crate) built_in: f64,
    /// Positive supply rail, V. (Table 1 row 6; symmetric rails assumed.)
    pub(crate) vdd: f64,
    /// Negative supply rail, V.
    pub(crate) vss: f64,
    /// Gate-oxide thickness, m. (Table 1 row 7.)
    pub(crate) tox: f64,
    /// Gate-oxide capacitance per area, F/m². (Table 1 row 9.)
    pub(crate) cox: f64,
    /// Gate-drain overlap capacitance per width, F/m. (Table 1 row 10.)
    pub(crate) cgdo: f64,
    /// Gate-bulk overlap capacitance per length, F/m. (Table 1 row 11.)
    pub(crate) cgbo: f64,
    /// Capacitance per area of the poly-poly (or MOS) capacitor used for
    /// compensation, F/m². Needed for the paper's compensation-capacitor
    /// area estimate in style selection.
    pub(crate) cap_per_area: f64,
}

impl Process {
    /// Human-readable process name, e.g. `"generic-5um"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-polarity device parameters.
    #[must_use]
    pub fn mos(&self, polarity: Polarity) -> &MosParams {
        match polarity {
            Polarity::Nmos => &self.nmos,
            Polarity::Pmos => &self.pmos,
        }
    }

    /// NMOS device parameters.
    #[must_use]
    pub fn nmos(&self) -> &MosParams {
        &self.nmos
    }

    /// PMOS device parameters.
    #[must_use]
    pub fn pmos(&self) -> &MosParams {
        &self.pmos
    }

    /// Minimum drawn channel width.
    #[must_use]
    pub fn min_width(&self) -> Length {
        Length::new(self.min_width)
    }

    /// Minimum drawn channel length.
    #[must_use]
    pub fn min_length(&self) -> Length {
        Length::new(self.min_length)
    }

    /// Minimum drain/source diffusion width (sets the diffusion area that
    /// loads every internal node).
    #[must_use]
    pub fn min_drain_width(&self) -> Length {
        Length::new(self.min_drain_width)
    }

    /// Junction built-in voltage.
    #[must_use]
    pub fn built_in(&self) -> Voltage {
        Voltage::new(self.built_in)
    }

    /// Positive supply rail.
    #[must_use]
    pub fn vdd(&self) -> Voltage {
        Voltage::new(self.vdd)
    }

    /// Negative supply rail (negative for the dual-supply processes used
    /// here).
    #[must_use]
    pub fn vss(&self) -> Voltage {
        Voltage::new(self.vss)
    }

    /// Total supply span `VDD − VSS`.
    #[must_use]
    pub fn supply_span(&self) -> Voltage {
        Voltage::new(self.vdd - self.vss)
    }

    /// Gate-oxide thickness.
    #[must_use]
    pub fn tox(&self) -> Length {
        Length::new(self.tox)
    }

    /// Gate-oxide capacitance per unit area, F/m².
    #[must_use]
    pub fn cox(&self) -> f64 {
        self.cox
    }

    /// Gate-oxide capacitance in the datasheet unit fF/µm².
    #[must_use]
    pub fn cox_ff_per_um2(&self) -> f64 {
        self.cox * 1e3
    }

    /// Gate-drain overlap capacitance per unit width, F/m.
    #[must_use]
    pub fn cgdo(&self) -> f64 {
        self.cgdo
    }

    /// Gate-bulk overlap capacitance per unit length, F/m.
    #[must_use]
    pub fn cgbo(&self) -> f64 {
        self.cgbo
    }

    /// Compensation-capacitor plate capacitance per unit area, F/m².
    #[must_use]
    pub fn cap_per_area(&self) -> f64 {
        self.cap_per_area
    }
}

impl fmt::Display for Process {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} CMOS process (Lmin = {}, VDD = {}, VSS = {})",
            self.name,
            self.min_length(),
            self.vdd(),
            self.vss()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;

    #[test]
    fn polarity_other_and_sign() {
        assert_eq!(Polarity::Nmos.other(), Polarity::Pmos);
        assert_eq!(Polarity::Pmos.other(), Polarity::Nmos);
        assert_eq!(Polarity::Nmos.sign(), 1.0);
        assert_eq!(Polarity::Pmos.sign(), -1.0);
        assert_eq!(Polarity::ALL.len(), 2);
    }

    #[test]
    fn lambda_scales_inversely_with_length() {
        let p = builtin::cmos_5um();
        let n = p.nmos();
        let l5 = n.lambda(5.0);
        let l10 = n.lambda(10.0);
        assert!((l5 / l10 - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "channel length must be positive")]
    fn lambda_rejects_zero_length() {
        let p = builtin::cmos_5um();
        let _ = p.nmos().lambda(0.0);
    }

    #[test]
    fn unit_accessors_are_consistent() {
        let p = builtin::cmos_5um();
        let n = p.nmos();
        assert!((n.kprime_ua_per_v2() - n.kprime() * 1e6).abs() < 1e-9);
        assert!((n.mobility_cm2() - n.mobility() * 1e4).abs() < 1e-9);
        assert!((p.cox_ff_per_um2() - p.cox() * 1e3).abs() < 1e-12);
    }

    #[test]
    fn supply_span_is_rail_to_rail() {
        let p = builtin::cmos_5um();
        let span = p.supply_span();
        assert!((span.volts() - (p.vdd().volts() - p.vss().volts())).abs() < 1e-12);
        assert!(span.volts() > 0.0);
    }

    #[test]
    fn mos_lookup_matches_direct_accessors() {
        let p = builtin::cmos_5um();
        assert_eq!(p.mos(Polarity::Nmos), p.nmos());
        assert_eq!(p.mos(Polarity::Pmos), p.pmos());
        assert_eq!(p.nmos().polarity(), Polarity::Nmos);
        assert_eq!(p.pmos().polarity(), Polarity::Pmos);
    }

    #[test]
    fn display_mentions_name_and_rails() {
        let p = builtin::cmos_5um();
        let s = p.to_string();
        assert!(s.contains("generic-5um"));
        assert!(s.contains("VDD"));
    }
}
