//! Small-signal noise analysis.
//!
//! For each noise generator in the circuit — the channel thermal noise of
//! every saturated MOSFET (`S_id = (8/3)·kT·gm` A²/Hz) and the Johnson
//! noise of every resistor (`S_i = 4kT/R`) — a unit AC current is injected
//! across the element and the transfer to the output node is solved on
//! the caller's [`crate::ac::AcSystem`], factored once at the analysis
//! frequency for every generator. The per-generator contributions add in
//! power:
//!
//! ```text
//! S_out(f) = Σ_k  S_k · |H_k(f)|²          (V²/Hz at the output)
//! v_n,in(f) = √S_out(f) / |A(f)|           (input-referred V/√Hz)
//! ```
//!
//! Flicker noise is not modeled (the level-1 era model set has no `KF`);
//! results are thermal-floor densities, which is what the white region of
//! a 1987 datasheet quotes.

use crate::ac::{AcSystem, SolveAcError};
use crate::complex::Complex;
use crate::dc::DcSolution;
use oasys_netlist::{Circuit, Element, NodeId};

/// Boltzmann constant times 300 K, joules.
const KT: f64 = 1.380649e-23 * 300.0;

/// One noise generator's contribution at the analysis frequency.
#[derive(Clone, Debug)]
pub struct NoiseContribution {
    /// The element responsible.
    pub element: String,
    /// Its share of the output noise PSD, V²/Hz.
    pub output_psd: f64,
}

/// The result of a noise analysis at one frequency.
#[derive(Clone, Debug)]
pub struct NoiseReport {
    /// Analysis frequency, Hz.
    pub frequency: f64,
    /// Total output noise PSD, V²/Hz.
    pub output_psd: f64,
    /// Input-referred noise density, V/√Hz (output noise over the gain
    /// magnitude from the circuit's own AC stimulus).
    pub input_density: f64,
    /// Per-element breakdown, largest contributor first.
    pub contributions: Vec<NoiseContribution>,
}

impl NoiseReport {
    /// Input-referred density in the datasheet unit nV/√Hz.
    #[must_use]
    pub fn input_nv_per_rthz(&self) -> f64 {
        self.input_density * 1e9
    }

    /// The element contributing the most output noise.
    #[must_use]
    pub fn dominant(&self) -> Option<&NoiseContribution> {
        self.contributions.first()
    }
}

/// Runs a noise analysis at `frequency` on `system`, the linearization
/// of `circuit` at `dc`, measuring at `output`. The circuit must carry
/// its own AC stimulus (a unit-magnitude source on the input under test)
/// so the input-referred division is meaningful. `Y(f)` is factored once,
/// and every generator is one more right-hand side.
///
/// # Errors
///
/// Reports a singular admittance matrix.
///
/// # Panics
///
/// Panics if `dc` has no bias point for one of the circuit's MOSFETs.
pub fn analyze(
    system: &mut AcSystem,
    circuit: &Circuit,
    dc: &DcSolution,
    output: NodeId,
    frequency: f64,
) -> Result<NoiseReport, SolveAcError> {
    // The right-hand sides, the circuit's own stimulus first (the gain,
    // for input referral), then one per generator with its current PSD:
    // MOSFET channel thermal noise, a current source between drain and
    // source with PSD (8/3)kT·gm, and resistor Johnson noise.
    let mut gain = system.stimulus().to_vec();
    let mut generators = Vec::new();
    for element in circuit.elements() {
        match element {
            Element::Mos(m) => {
                let op = dc
                    .device_op(&m.name)
                    .copied()
                    .unwrap_or_else(|| panic!("device {} has no bias point", m.name));
                let gm_eff = op.gm().max(op.gds());
                if gm_eff <= 0.0 {
                    continue;
                }
                let b = system.current_injection(m.drain, m.source);
                generators.push((&m.name, (8.0 / 3.0) * KT * gm_eff, b));
            }
            Element::Resistor(r) => {
                let b = system.current_injection(r.a, r.b);
                generators.push((&r.name, 4.0 * KT / r.ohms, b));
            }
            _ => {}
        }
    }
    let output_var = system.index().node_var(output);
    let at_output = |x: &[Complex]| output_var.map_or(Complex::ZERO, |i| x[i]).abs();

    let factors = system.factor(frequency)?;
    factors.solve_in_place(&mut gain);
    let gain = at_output(&gain).max(1e-18);
    let mut contributions: Vec<NoiseContribution> = generators
        .into_iter()
        .map(|(element, psd_current, mut h)| {
            factors.solve_in_place(&mut h);
            let transfer = at_output(&h);
            NoiseContribution {
                element: element.clone(),
                output_psd: psd_current * transfer * transfer,
            }
        })
        .collect();

    contributions.sort_by(|a, b| b.output_psd.total_cmp(&a.output_psd));
    let output_psd: f64 = contributions.iter().map(|c| c.output_psd).sum();

    Ok(NoiseReport {
        frequency,
        output_psd,
        input_density: output_psd.sqrt() / gain,
        contributions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_netlist::SourceValue;
    use oasys_process::{builtin, Process};
    use oasys_telemetry::Telemetry;

    /// [`analyze`] on a fresh linearization of `c` at `dc`.
    fn noise_at(
        c: &Circuit,
        process: &Process,
        dc: &DcSolution,
        output: NodeId,
        frequency: f64,
    ) -> NoiseReport {
        let mut system = AcSystem::new(c, process, dc);
        analyze(&mut system, c, dc, output, frequency).unwrap()
    }

    /// A bare resistor divider: output noise equals the Johnson noise of
    /// the parallel combination, 4kT·(R1∥R2).
    #[test]
    fn resistor_divider_johnson_noise() {
        let mut c = Circuit::new("div");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("VIN", a, c.ground(), SourceValue::new(0.0, 1.0))
            .unwrap();
        c.add_resistor("R1", a, b, 10e3).unwrap();
        c.add_resistor("R2", b, c.ground(), 10e3).unwrap();

        let process = builtin::cmos_5um();
        let dc = crate::dc::solve(&c, &process, &Telemetry::disabled()).unwrap();
        let report = noise_at(&c, &process, &dc, b, 1e3);

        let r_par = 5e3;
        let expected = 4.0 * KT * r_par;
        assert!(
            (report.output_psd / expected - 1.0).abs() < 1e-6,
            "measured {:.3e}, expected {:.3e}",
            report.output_psd,
            expected
        );
        // √(4kT·5k) ≈ 9.1 nV/√Hz; the divider gain is 0.5 so the
        // input-referred density doubles.
        assert!((report.input_nv_per_rthz() / 18.2 - 1.0).abs() < 0.02);
    }

    /// A common-source stage: the input device's channel noise dominates
    /// and the input-referred density is √(8kT/(3gm)) plus the load
    /// contribution.
    #[test]
    fn common_source_channel_noise() {
        use oasys_mos::Geometry;
        use oasys_process::Polarity;
        let mut c = Circuit::new("cs");
        let vdd = c.node("vdd");
        let out = c.node("out");
        let inp = c.node("in");
        let gnd = c.ground();
        c.add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
            .unwrap();
        c.add_vsource("VIN", inp, gnd, SourceValue::new(1.5, 1.0))
            .unwrap();
        c.add_resistor("RL", vdd, out, 100e3).unwrap();
        c.add_mosfet(
            "M1",
            Polarity::Nmos,
            Geometry::new_um(50.0, 5.0).unwrap(),
            out,
            inp,
            gnd,
            gnd,
        )
        .unwrap();

        let process = builtin::cmos_5um();
        let dc = crate::dc::solve(&c, &process, &Telemetry::disabled()).unwrap();
        let op = *dc.device_op("M1").unwrap();
        let report = noise_at(&c, &process, &dc, out, 1e3);

        // Input-referred: channel noise 8kT/(3gm) plus the load resistor
        // 4kT·RL referred through the gain (gm·RL)².
        let gm = op.gm();
        let rl_referred = 4.0 * KT * 100e3 / (gm * gm * 100e3 * 100e3);
        let expected = (8.0 * KT / (3.0 * gm) + rl_referred).sqrt();
        assert!(
            (report.input_density / expected - 1.0).abs() < 0.05,
            "measured {:.3e}, expected {:.3e}",
            report.input_density,
            expected
        );
        // The transistor dominates at this gm.
        assert_eq!(report.dominant().unwrap().element, "M1");
    }

    /// Noise falls with frequency past the circuit's pole (the output
    /// capacitor shunts it), so the output PSD at high frequency is lower.
    #[test]
    fn output_noise_rolls_off() {
        let mut c = Circuit::new("rc");
        let a = c.node("a");
        c.add_vsource("VIN", a, c.ground(), SourceValue::new(0.0, 1.0))
            .unwrap();
        let b = c.node("b");
        c.add_resistor("R1", a, b, 100e3).unwrap();
        c.add_capacitor("C1", b, c.ground(), 1e-9).unwrap();

        let process = builtin::cmos_5um();
        let dc = crate::dc::solve(&c, &process, &Telemetry::disabled()).unwrap();
        let low = noise_at(&c, &process, &dc, b, 10.0);
        let high = noise_at(&c, &process, &dc, b, 1e6);
        assert!(high.output_psd < low.output_psd / 100.0);
    }

    #[test]
    fn contributions_are_sorted_and_sum() {
        let mut c = Circuit::new("two r");
        let a = c.node("a");
        c.add_vsource("VIN", a, c.ground(), SourceValue::new(0.0, 1.0))
            .unwrap();
        let b = c.node("b");
        c.add_resistor("RBIG", a, b, 1e6).unwrap();
        c.add_resistor("RSMALL", b, c.ground(), 1e3).unwrap();
        let process = builtin::cmos_5um();
        let dc = crate::dc::solve(&c, &process, &Telemetry::disabled()).unwrap();
        let report = noise_at(&c, &process, &dc, b, 1e3);
        let sum: f64 = report.contributions.iter().map(|c| c.output_psd).sum();
        assert!((sum / report.output_psd - 1.0).abs() < 1e-12);
        for pair in report.contributions.windows(2) {
            assert!(pair[0].output_psd >= pair[1].output_psd);
        }
    }
}
