//! DC transfer sweeps and bias searches.
//!
//! These drive the Table 2 measurements that AC analysis cannot provide:
//! output voltage swing (sweep the input, watch where the output stops
//! following) and systematic input offset (bisect for the input voltage
//! that centers the output).
//!
//! Both compile the circuit once and solve it many times. Only the first
//! point is solved cold; every later point starts Newton from the last
//! converged solution, which sits a small input step away, and falls back
//! to the cold continuation only if that stalls.

use crate::dc::{DcSolution, Engine, SolveDcError};
use crate::mna::volt;
use oasys_netlist::{Circuit, NodeId};
use oasys_process::Process;
use oasys_telemetry::Telemetry;

/// One point of a DC transfer sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The swept source's DC value at this point.
    pub input: f64,
    /// The full DC solution at this point.
    pub solution: DcSolution,
}

/// Sweeps the DC value of source `source_name` over `values` and solves at
/// each point. Points that fail to converge are skipped (deep saturation
/// corners occasionally defeat continuation; the swing extraction only
/// needs the converged shape).
///
/// # Errors
///
/// Returns an error if the source does not exist, or if *no* point
/// converges.
///
/// # Examples
///
/// ```
/// use oasys_netlist::{Circuit, SourceValue};
/// use oasys_process::builtin;
/// use oasys_sim::sweep;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut c = Circuit::new("follower");
/// let inp = c.node("in");
/// let out = c.node("out");
/// c.add_vsource("VIN", inp, c.ground(), SourceValue::dc(0.0))?;
/// c.add_resistor("R1", inp, out, 1e3)?;
/// c.add_resistor("R2", out, c.ground(), 1e3)?;
/// let pts = sweep::dc_transfer(
///     &c,
///     &builtin::cmos_5um(),
///     "VIN",
///     &[-1.0, 0.0, 1.0],
/// )?;
/// assert_eq!(pts.len(), 3);
/// assert!((pts[2].solution.voltage(out) - 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn dc_transfer(
    circuit: &Circuit,
    process: &Process,
    source_name: &str,
    values: &[f64],
) -> Result<Vec<SweepPoint>, SolveDcError> {
    dc_transfer_with(
        circuit,
        process,
        source_name,
        values,
        &Telemetry::disabled(),
    )
}

/// [`dc_transfer`] with every point's solve counted into `tel`'s
/// `sim.dc.solves` / `sim.dc.newton_iterations` / `sim.dc.failures` /
/// `sim.dc.warm_fallbacks` counters. It opens no span, so a sweep's
/// time stays in its caller's span.
///
/// # Errors
///
/// Same failure modes as [`dc_transfer`].
pub fn dc_transfer_with(
    circuit: &Circuit,
    process: &Process,
    source_name: &str,
    values: &[f64],
    tel: &Telemetry,
) -> Result<Vec<SweepPoint>, SolveDcError> {
    let mut engine = Engine::compile(circuit, process)?;
    let source = engine.source(source_name)?;

    let mut points = Vec::with_capacity(values.len());
    let mut last_err = None;
    let mut last_x: Option<Vec<f64>> = None;
    for &value in values {
        engine.set_source(source, value);
        match engine.solve_counted(last_x.as_deref(), tel) {
            Ok(solved) => {
                points.push(SweepPoint {
                    input: value,
                    solution: engine.package(&solved),
                });
                last_x = Some(solved.x);
            }
            Err(e) => last_err = Some(e),
        }
    }
    if points.is_empty() {
        return Err(last_err.unwrap_or(SolveDcError::NotConverged {
            circuit: circuit.title().to_owned(),
            residual: f64::NAN,
        }));
    }
    Ok(points)
}

/// Generates `n` linearly spaced values across `[lo, hi]` inclusive.
///
/// # Panics
///
/// Panics if `n < 2` or `lo >= hi`.
#[must_use]
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    assert!(lo < hi, "linspace needs lo < hi, got {lo}..{hi}");
    (0..n)
        .map(|k| lo + (hi - lo) * k as f64 / (n - 1) as f64)
        .collect()
}

/// Bisects the DC value of `source_name` in `[lo, hi]` for the value that
/// drives `target_node` to `target_voltage`. This is how the systematic
/// input offset of a synthesized op amp is measured: the differential
/// input voltage required to center the output.
///
/// Assumes the transfer function is monotone over the bracket (true for
/// an op amp's input stage around its operating region).
///
/// # Errors
///
/// Returns [`SolveDcError`] if the endpoints fail to converge or do not
/// bracket the target.
pub fn bisect_input(
    circuit: &Circuit,
    process: &Process,
    source_name: &str,
    target_node: NodeId,
    target_voltage: f64,
    lo: f64,
    hi: f64,
) -> Result<f64, SolveDcError> {
    bisect_input_with(
        circuit,
        process,
        source_name,
        target_node,
        target_voltage,
        lo,
        hi,
        &Telemetry::disabled(),
    )
}

/// [`bisect_input`] with every evaluation's solve counted into `tel`, as
/// [`dc_transfer_with`] counts its points. It opens no span.
///
/// # Errors
///
/// Same failure modes as [`bisect_input`].
#[allow(clippy::too_many_arguments)]
pub fn bisect_input_with(
    circuit: &Circuit,
    process: &Process,
    source_name: &str,
    target_node: NodeId,
    target_voltage: f64,
    lo: f64,
    hi: f64,
    tel: &Telemetry,
) -> Result<f64, SolveDcError> {
    let mut engine = Engine::compile(circuit, process)?;
    let source = engine.source(source_name)?;
    let target = engine.plan().index().node_var(target_node);
    let mut last_x: Option<Vec<f64>> = None;
    let mut eval = |vin: f64| -> Result<f64, SolveDcError> {
        engine.set_source(source, vin);
        let solved = engine.solve_counted(last_x.as_deref(), tel)?;
        let v = volt(&solved.x, target);
        last_x = Some(solved.x);
        Ok(v - target_voltage)
    };

    let mut f_lo = eval(lo)?;
    let f_hi = eval(hi)?;
    if f_lo == 0.0 {
        return Ok(lo);
    }
    if f_hi == 0.0 {
        return Ok(hi);
    }
    if f_lo.signum() == f_hi.signum() {
        return Err(SolveDcError::Invalid(format!(
            "bisection bracket [{lo}, {hi}] does not straddle the target \
             (f(lo)={f_lo:.3e}, f(hi)={f_hi:.3e})"
        )));
    }

    let (mut a, mut b) = (lo, hi);
    for _ in 0..80 {
        let mid = 0.5 * (a + b);
        let f_mid = eval(mid)?;
        if f_mid == 0.0 || (b - a).abs() < 1e-12 {
            return Ok(mid);
        }
        if f_mid.signum() == f_lo.signum() {
            a = mid;
            f_lo = f_mid;
        } else {
            b = mid;
        }
    }
    Ok(0.5 * (a + b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc;
    use oasys_mos::Geometry;
    use oasys_netlist::SourceValue;
    use oasys_process::{builtin, Polarity};

    #[test]
    fn linspace_endpoints_and_spacing() {
        let v = linspace(-1.0, 1.0, 5);
        assert_eq!(v.len(), 5);
        assert!((v[0] + 1.0).abs() < 1e-12);
        assert!((v[4] - 1.0).abs() < 1e-12);
        assert!((v[2]).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn linspace_rejects_single_point() {
        let _ = linspace(0.0, 1.0, 1);
    }

    fn inverter() -> (Circuit, NodeId) {
        let mut c = Circuit::new("inv");
        let vdd = c.node("vdd");
        let out = c.node("out");
        let inp = c.node("in");
        c.add_vsource("VDD", vdd, c.ground(), SourceValue::dc(5.0))
            .unwrap();
        c.add_vsource("VIN", inp, c.ground(), SourceValue::dc(2.5))
            .unwrap();
        c.add_mosfet(
            "MN",
            Polarity::Nmos,
            Geometry::new_um(10.0, 5.0).unwrap(),
            out,
            inp,
            c.ground(),
            c.ground(),
        )
        .unwrap();
        c.add_mosfet(
            "MP",
            Polarity::Pmos,
            Geometry::new_um(25.0, 5.0).unwrap(),
            out,
            inp,
            vdd,
            vdd,
        )
        .unwrap();
        (c, out)
    }

    #[test]
    fn inverter_transfer_is_monotone_decreasing() {
        let (c, out) = inverter();
        let pts = dc_transfer(&c, &builtin::cmos_5um(), "VIN", &linspace(0.0, 5.0, 11)).unwrap();
        assert_eq!(pts.len(), 11);
        let vouts: Vec<f64> = pts.iter().map(|p| p.solution.voltage(out)).collect();
        for pair in vouts.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-6, "not monotone: {vouts:?}");
        }
        // Rail-ish at the ends.
        assert!(vouts[0] > 4.5);
        assert!(vouts[10] < 0.5);
    }

    #[test]
    fn bisect_finds_inverter_switching_point() {
        let (c, out) = inverter();
        let vin = bisect_input(&c, &builtin::cmos_5um(), "VIN", out, 2.5, 0.0, 5.0).unwrap();
        // The switching threshold of this skewed inverter sits near
        // mid-supply.
        assert!(vin > 1.5 && vin < 3.5, "threshold {vin}");
        // Verify it actually lands.
        let mut work = c.clone();
        work.set_source_dc("VIN", vin).unwrap();
        let sol = dc::solve(&work, &builtin::cmos_5um()).unwrap();
        assert!((sol.voltage(out) - 2.5).abs() < 1e-3);
    }

    #[test]
    fn bad_bracket_is_reported() {
        let (c, out) = inverter();
        let err = bisect_input(&c, &builtin::cmos_5um(), "VIN", out, 10.0, 0.0, 5.0).unwrap_err();
        assert!(err.to_string().contains("bracket"));
    }

    #[test]
    fn stalled_warm_start_falls_back_to_the_cold_continuation() {
        // A 1000 V jump is 2000 clamped 0.5 V Newton steps from the
        // previous point: the warm start stalls at the iteration cap, and
        // the cold continuation's source stepping converges instead.
        let mut c = Circuit::new("divider");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("VIN", inp, c.ground(), SourceValue::dc(0.0))
            .unwrap();
        c.add_resistor("R1", inp, out, 1e3).unwrap();
        c.add_resistor("R2", out, c.ground(), 1e3).unwrap();
        let tel = Telemetry::new();
        let pts = dc_transfer_with(&c, &builtin::cmos_5um(), "VIN", &[0.0, 1000.0], &tel).unwrap();
        assert_eq!(pts.len(), 2);
        assert!((pts[1].solution.voltage(out) - 500.0).abs() < 1e-6);
        assert_eq!(tel.counter("sim.dc.solves"), 2);
        assert_eq!(tel.counter("sim.dc.warm_fallbacks"), 1);
        assert_eq!(tel.counter("sim.dc.failures"), 0);
    }

    #[test]
    fn unknown_source_is_reported() {
        let (c, _) = inverter();
        let err = dc_transfer(&c, &builtin::cmos_5um(), "NOPE", &[0.0]).unwrap_err();
        assert!(matches!(err, SolveDcError::Invalid(_)));
    }
}
