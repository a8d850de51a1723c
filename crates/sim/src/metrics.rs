//! Datasheet-style measurements extracted from simulation results.
//!
//! This module turns raw sweeps into the numbers Table 2 of the paper
//! reports: DC gain, unity-gain frequency, phase margin, −3 dB bandwidth,
//! output swing. Frequency-domain quantities interpolate on a log-frequency
//! axis; phase is unwrapped before any margin is computed.

use crate::ac::AcSolution;
use crate::complex::Complex;
use oasys_netlist::NodeId;
use oasys_units::{Decibels, Degrees, Frequency};

/// A gain/phase response: the data behind the paper's Figure 6.
#[derive(Clone, Debug)]
pub struct Bode {
    frequencies: Vec<f64>,
    gain_db: Vec<f64>,
    /// Unwrapped phase, degrees, normalized so the DC phase is 0.
    phase_deg: Vec<f64>,
    /// The raw (non-normalized) phase of the first point, degrees.
    dc_phase_deg: f64,
}

impl Bode {
    /// Builds a Bode dataset from the output-node phasors of an AC sweep.
    ///
    /// The phase is unwrapped (no ±360° jumps between adjacent points) and
    /// then shifted so the first (lowest-frequency) point reads 0°; the
    /// original DC phase is kept in [`Bode::dc_phase_deg`]. With this
    /// normalization, the phase margin is `180° + phase(f_unity)`.
    ///
    /// # Panics
    ///
    /// Panics if the sweep is empty.
    #[must_use]
    pub fn from_ac(ac: &AcSolution, output: NodeId) -> Self {
        let transfer = ac.transfer(output);
        assert!(
            !transfer.is_empty(),
            "cannot build Bode data from an empty sweep"
        );
        Self::from_transfer(ac.frequencies().to_vec(), &transfer)
    }

    /// Builds a Bode dataset from explicit transfer-function samples.
    ///
    /// # Panics
    ///
    /// Panics if the inputs are empty or of different lengths.
    #[must_use]
    pub fn from_transfer(frequencies: Vec<f64>, transfer: &[Complex]) -> Self {
        assert_eq!(frequencies.len(), transfer.len());
        assert!(!transfer.is_empty());
        let gain_db: Vec<f64> = transfer
            .iter()
            .map(|h| 20.0 * h.abs().max(1e-30).log10())
            .collect();

        // Unwrap phase.
        let mut phase_deg = Vec::with_capacity(transfer.len());
        let mut prev = transfer[0].arg().to_degrees();
        phase_deg.push(prev);
        for h in &transfer[1..] {
            let mut p = h.arg().to_degrees();
            while p - prev > 180.0 {
                p -= 360.0;
            }
            while p - prev < -180.0 {
                p += 360.0;
            }
            phase_deg.push(p);
            prev = p;
        }
        let dc_phase_deg = phase_deg[0];
        for p in &mut phase_deg {
            *p -= dc_phase_deg;
        }

        Self {
            frequencies,
            gain_db,
            phase_deg,
            dc_phase_deg,
        }
    }

    /// The frequency axis, hertz.
    #[must_use]
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Gain samples, dB.
    #[must_use]
    pub fn gain_db(&self) -> &[f64] {
        &self.gain_db
    }

    /// Unwrapped, DC-normalized phase samples, degrees.
    #[must_use]
    pub fn phase_deg(&self) -> &[f64] {
        &self.phase_deg
    }

    /// The raw phase of the lowest-frequency point, degrees (≈180 for an
    /// inverting path, ≈0 for a non-inverting one).
    #[must_use]
    pub fn dc_phase_deg(&self) -> f64 {
        self.dc_phase_deg
    }

    /// Interpolates the gain (dB) at an arbitrary frequency on the
    /// log-frequency axis. Clamps outside the sweep.
    #[must_use]
    pub fn gain_at(&self, hz: f64) -> f64 {
        interp_log(&self.frequencies, &self.gain_db, hz)
    }

    /// Interpolates the normalized phase (degrees) at an arbitrary
    /// frequency. Clamps outside the sweep.
    #[must_use]
    pub fn phase_at(&self, hz: f64) -> f64 {
        interp_log(&self.frequencies, &self.phase_deg, hz)
    }
}

/// Measurements from a [`Bode`] response: the AC half of a Table 2 row.
#[derive(Clone, Copy, Debug)]
pub struct AcMetrics {
    /// Low-frequency gain.
    pub dc_gain: Decibels,
    /// Unity-gain (0 dB) crossover, if the gain crosses 0 dB inside the
    /// sweep.
    pub unity_gain_freq: Option<Frequency>,
    /// Phase margin `180° + φ(f_unity)`, if a crossover exists.
    pub phase_margin: Option<Degrees>,
    /// −3 dB bandwidth relative to the DC gain, if inside the sweep.
    pub f3db: Option<Frequency>,
    /// Gain (dB) where the phase crosses −180°, if inside the sweep;
    /// `gain_margin = −this`.
    pub gain_at_phase_180: Option<Decibels>,
}

impl AcMetrics {
    /// Extracts all metrics from a Bode response.
    ///
    /// # Examples
    ///
    /// ```
    /// use oasys_sim::{metrics::AcMetrics, Bode, Complex};
    /// // Single-pole system: A0 = 1000, pole at 1 kHz.
    /// let freqs: Vec<f64> = (0..100)
    ///     .map(|k| 10f64.powf(1.0 + 6.0 * k as f64 / 99.0))
    ///     .collect();
    /// let h: Vec<Complex> = freqs
    ///     .iter()
    ///     .map(|&f| {
    ///         Complex::from_real(1000.0)
    ///             / Complex::new(1.0, f / 1e3)
    ///     })
    ///     .collect();
    /// let bode = Bode::from_transfer(freqs, &h);
    /// let m = AcMetrics::extract(&bode);
    /// assert!((m.dc_gain.db() - 60.0).abs() < 0.1);
    /// // Unity-gain at ≈ A0·fp = 1 MHz, phase margin ≈ 90°.
    /// let fu = m.unity_gain_freq.unwrap().hertz();
    /// assert!((fu / 1e6 - 1.0).abs() < 0.05);
    /// assert!((m.phase_margin.unwrap().degrees() - 90.0).abs() < 2.0);
    /// ```
    #[must_use]
    pub fn extract(bode: &Bode) -> Self {
        let freqs = bode.frequencies();
        let gain = bode.gain_db();
        let phase = bode.phase_deg();
        let dc_gain = Decibels::new(gain[0]);

        let unity = crossing(freqs, gain, 0.0);
        let phase_margin = unity.map(|fu| Degrees::new(180.0 + bode.phase_at(fu)));
        let f3 = crossing(freqs, gain, gain[0] - 3.0103);
        let phase_180 = crossing(freqs, phase, -180.0);
        let gain_at_phase_180 = phase_180.map(|f| Decibels::new(bode.gain_at(f)));

        Self {
            dc_gain,
            unity_gain_freq: unity.map(Frequency::new),
            phase_margin,
            f3db: f3.map(Frequency::new),
            gain_at_phase_180,
        }
    }
}

/// First downward crossing of `values` through `target`, interpolated on
/// the log-frequency axis.
fn crossing(freqs: &[f64], values: &[f64], target: f64) -> Option<f64> {
    for k in 1..values.len() {
        let (v0, v1) = (values[k - 1], values[k]);
        if (v0 >= target && v1 < target) || (v0 > target && v1 <= target) {
            let t = (v0 - target) / (v0 - v1);
            let lf0 = freqs[k - 1].log10();
            let lf1 = freqs[k].log10();
            return Some(10f64.powf(lf0 + t * (lf1 - lf0)));
        }
    }
    None
}

/// Linear interpolation of `values` on the log-frequency axis, clamped at
/// the ends.
fn interp_log(freqs: &[f64], values: &[f64], hz: f64) -> f64 {
    if freqs.is_empty() || freqs.len() != values.len() {
        return f64::NAN;
    }
    let (first, last) = (values[0], values[values.len() - 1]);
    if hz <= freqs[0] {
        return first;
    }
    if hz >= freqs[freqs.len() - 1] {
        return last;
    }
    let lx = hz.log10();
    for k in 1..freqs.len() {
        if hz <= freqs[k] {
            let lf0 = freqs[k - 1].log10();
            let lf1 = freqs[k].log10();
            let t = (lx - lf0) / (lf1 - lf0);
            return values[k - 1] + t * (values[k] - values[k - 1]);
        }
    }
    last
}

/// Output swing measured from a DC transfer sweep's `(input, output
/// voltage)` points, as [`crate::sweep::dc_transfer`] returns them: the
/// output range over which the incremental gain stays above
/// `gain_fraction` of its peak.
///
/// Returns `(v_low, v_high)` — e.g. `(-2.5, 2.5)` for a symmetric ±2.5 V
/// swing — or `None` if the sweep has fewer than three points.
///
/// # Examples
///
/// A clipping amplifier's linear region is recovered:
///
/// ```
/// use oasys_sim::metrics::output_swing;
/// // Gain −10, clipped at ±2 V, swept over ±0.5 V.
/// let points: Vec<(f64, f64)> = (0..=100)
///     .map(|k| {
///         let vin = -0.5 + k as f64 / 100.0;
///         (vin, (-10.0 * vin).clamp(-2.0, 2.0))
///     })
///     .collect();
/// let (lo, hi) = output_swing(&points, 0.25).unwrap();
/// assert!((lo + 2.0).abs() < 1e-9 && (hi - 2.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn output_swing(points: &[(f64, f64)], gain_fraction: f64) -> Option<(f64, f64)> {
    if points.len() < 3 {
        return None;
    }
    // Central-difference incremental gain.
    let n = points.len();
    let mut gains = vec![0.0; n];
    for k in 1..n - 1 {
        let ((vin0, vout0), (vin1, vout1)) = (points[k - 1], points[k + 1]);
        gains[k] = ((vout1 - vout0) / (vin1 - vin0)).abs();
    }
    gains[0] = gains[1];
    gains[n - 1] = gains[n - 2];
    let peak = gains.iter().cloned().fold(0.0f64, f64::max);
    if peak == 0.0 {
        return None;
    }
    let threshold = peak * gain_fraction;
    // The output values reached while the gain is above threshold.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (&(_, vout), &gain) in points.iter().zip(&gains) {
        if gain >= threshold {
            lo = lo.min(vout);
            hi = hi.max(vout);
        }
    }
    if lo.is_finite() && hi.is_finite() {
        Some((lo, hi))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_pole(a0: f64, fp: f64) -> Bode {
        let freqs: Vec<f64> = (0..200)
            .map(|k| 10f64.powf(0.0 + 8.0 * k as f64 / 199.0))
            .collect();
        let h: Vec<Complex> = freqs
            .iter()
            .map(|&f| Complex::from_real(a0) / Complex::new(1.0, f / fp))
            .collect();
        Bode::from_transfer(freqs, &h)
    }

    fn two_pole(a0: f64, fp1: f64, fp2: f64) -> Bode {
        let freqs: Vec<f64> = (0..400)
            .map(|k| 10f64.powf(0.0 + 9.0 * k as f64 / 399.0))
            .collect();
        let h: Vec<Complex> = freqs
            .iter()
            .map(|&f| {
                Complex::from_real(a0) / (Complex::new(1.0, f / fp1) * Complex::new(1.0, f / fp2))
            })
            .collect();
        Bode::from_transfer(freqs, &h)
    }

    #[test]
    fn single_pole_metrics() {
        let bode = single_pole(1e4, 100.0);
        let m = AcMetrics::extract(&bode);
        assert!((m.dc_gain.db() - 80.0).abs() < 0.05);
        assert!((m.f3db.unwrap().hertz() / 100.0 - 1.0).abs() < 0.05);
        assert!((m.unity_gain_freq.unwrap().hertz() / 1e6 - 1.0).abs() < 0.05);
        let pm = m.phase_margin.unwrap().degrees();
        assert!((pm - 90.0).abs() < 1.5, "pm = {pm}");
        // Single pole never reaches −180°.
        assert!(m.gain_at_phase_180.is_none());
    }

    #[test]
    fn two_pole_phase_margin() {
        // Second pole at the single-pole GBW product: the crossover pulls
        // down to ≈0.786·fp2 and the exact phase margin is
        // 180 − 90 − atan(0.786) ≈ 52°.
        let bode = two_pole(1e3, 1e3, 1e6);
        let m = AcMetrics::extract(&bode);
        let pm = m.phase_margin.unwrap().degrees();
        assert!((pm - 52.0).abs() < 3.0, "pm = {pm}");
        let fu = m.unity_gain_freq.unwrap().hertz();
        assert!((fu / 786e3 - 1.0).abs() < 0.05, "fu = {fu}");
    }

    #[test]
    fn inverting_dc_phase_normalized() {
        let freqs = vec![1.0, 10.0, 100.0];
        let h = vec![
            Complex::from_real(-100.0),
            Complex::from_real(-100.0),
            Complex::from_real(-99.0),
        ];
        let bode = Bode::from_transfer(freqs, &h);
        assert!((bode.dc_phase_deg().abs() - 180.0).abs() < 1e-9);
        assert!(bode.phase_deg()[0].abs() < 1e-9);
    }

    #[test]
    fn phase_unwrapping_no_jumps() {
        // Synthetic 3-pole system whose raw atan2 phase wraps past −180°.
        let freqs: Vec<f64> = (0..300)
            .map(|k| 10f64.powf(0.0 + 8.0 * k as f64 / 299.0))
            .collect();
        let h: Vec<Complex> = freqs
            .iter()
            .map(|&f| {
                let p = Complex::new(1.0, f / 1e2)
                    * Complex::new(1.0, f / 1e4)
                    * Complex::new(1.0, f / 1e5);
                Complex::from_real(1e5) / p
            })
            .collect();
        let bode = Bode::from_transfer(freqs, &h);
        for pair in bode.phase_deg().windows(2) {
            assert!((pair[1] - pair[0]).abs() < 90.0, "phase jump: {pair:?}");
        }
        // Deep high-frequency phase approaches −270°.
        assert!(*bode.phase_deg().last().unwrap() < -220.0);
    }

    #[test]
    fn gain_interpolation_clamps() {
        let bode = single_pole(10.0, 1e3);
        assert!((bode.gain_at(1e-3) - bode.gain_db()[0]).abs() < 1e-9);
        assert!((bode.gain_at(1e12) - bode.gain_db().last().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn no_unity_crossing_when_gain_below_zero_db() {
        let bode = single_pole(0.5, 1e3); // −6 dB everywhere
        let m = AcMetrics::extract(&bode);
        assert!(m.unity_gain_freq.is_none());
        assert!(m.phase_margin.is_none());
    }
}
