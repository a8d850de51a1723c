//! Newton–Raphson DC operating-point analysis.
//!
//! The solver assembles the exact MNA Jacobian from [`crate::mna::mos_stamp`]
//! and iterates with per-component step damping. If plain Newton from a
//! zero start fails, it falls back to `gmin` stepping and then source
//! stepping — the same continuation tricks production SPICE uses — so the
//! op-amp circuits OASYS synthesizes converge reliably.
//!
//! The work that does not depend on the operating point — validating
//! the circuit, indexing its unknowns, binding every MOSFET, allocating
//! the Jacobian and marking its pattern in the engine's LU plan — happens
//! once per compiled engine, and every Newton iteration factors its
//! Jacobian through that plan (see [`crate::linalg`]). A DC sweep
//! compiles once and starts each point's Newton iteration from a start
//! its earlier points give (see [`crate::sweep`]); only when that stalls
//! does it fall back to the cold continuation above. [`solve`] and its
//! `*_with` variants compile and solve cold.

use crate::linalg::{LuCounts, LuPlan, Matrix};
use crate::mna::{DeviceNames, SourceRef, StampPlan};
use oasys_faults::{fail_point, Deadline, DeadlineExceeded};
use oasys_mos::OperatingPoint;
use oasys_netlist::{Circuit, NodeId, ValidateError};
use oasys_process::Process;
use oasys_telemetry::{sym, sym_u64, Telemetry};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Error returned when DC analysis fails. Every variant that comes out
/// of a solve names the circuit it failed on, so the message survives
/// verbatim through batch records and `--explain`.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveDcError {
    /// The circuit failed structural validation first.
    Invalid(String),
    /// No continuation strategy converged.
    NotConverged {
        /// Title of the circuit that failed to converge.
        circuit: String,
        /// Residual norm of the best attempt.
        residual: f64,
    },
    /// The Jacobian was singular even with `gmin` regularization.
    Singular {
        /// Title of the circuit with the singular Jacobian.
        circuit: String,
    },
    /// The cooperative deadline fired inside the solve.
    DeadlineExceeded {
        /// Title of the circuit being solved when the deadline fired.
        circuit: String,
        /// Whether the budget ran out or the job was cancelled.
        exceeded: DeadlineExceeded,
    },
}

impl fmt::Display for SolveDcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveDcError::Invalid(detail) => write!(f, "invalid circuit: {detail}"),
            SolveDcError::NotConverged { circuit, residual } => {
                write!(
                    f,
                    "dc analysis of `{circuit}` did not converge (residual {residual:.3e} A)"
                )
            }
            SolveDcError::Singular { circuit } => {
                write!(f, "dc jacobian of `{circuit}` is singular")
            }
            SolveDcError::DeadlineExceeded { circuit, exceeded } => {
                write!(f, "dc analysis of `{circuit}` stopped: {exceeded}")
            }
        }
    }
}

impl Error for SolveDcError {}

/// A converged DC operating point.
///
/// Branch currents and device bias points are stored by position (the
/// circuit's voltage-source and MOSFET order); the by-name accessors
/// look the position up in a name table shared by every solution of the
/// same compiled circuit.
///
/// # Examples
///
/// See the crate-level example; key accessors are
/// [`DcSolution::voltage`], [`DcSolution::source_current`],
/// [`DcSolution::device_op`] and [`DcSolution::supply_power`].
#[derive(Clone, Debug)]
pub struct DcSolution {
    node_voltages: Vec<f64>,
    branch_currents: Vec<f64>,
    device_ops: Vec<OperatingPoint>,
    names: Arc<DeviceNames>,
    iterations: usize,
}

impl DcSolution {
    /// Voltage of a node, volts (ground reads 0).
    ///
    /// # Panics
    ///
    /// Panics if `node` did not come from the analyzed circuit.
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.node_voltages[node.index()]
    }

    /// All node voltages indexed by [`NodeId::index`].
    #[must_use]
    pub fn node_voltages(&self) -> &[f64] {
        &self.node_voltages
    }

    /// Branch current of a voltage source (positive flowing from the `pos`
    /// terminal through the source to `neg`), amperes.
    #[must_use]
    pub fn source_current(&self, name: &str) -> Option<f64> {
        let k = self.names.vsources.iter().position(|n| n == name)?;
        Some(self.branch_currents[k])
    }

    /// Bias point of a MOSFET by instance name.
    #[must_use]
    pub fn device_op(&self, name: &str) -> Option<&OperatingPoint> {
        let k = self.names.mosfets.iter().position(|n| n == name)?;
        Some(&self.device_ops[k])
    }

    /// All device bias points with their instance names, in circuit
    /// order.
    pub fn device_ops(&self) -> impl Iterator<Item = (&str, &OperatingPoint)> {
        self.names
            .mosfets
            .iter()
            .map(String::as_str)
            .zip(&self.device_ops)
    }

    /// Newton iterations the successful strategy used.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Total power delivered by all sources, watts. For a circuit whose
    /// only stimuli are its supplies this equals the dissipated power.
    #[must_use]
    pub fn supply_power(&self, circuit: &Circuit) -> f64 {
        let mut power = 0.0;
        for v in circuit.vsources() {
            if let Some(i) = self.source_current(&v.name) {
                // Source delivers P = V·(−i) with i defined pos→neg
                // through the source.
                power += v.value.dc_value() * (-i);
            }
        }
        for i in circuit.isources() {
            let v = self.voltage(i.pos) - self.voltage(i.neg);
            // Current i flows pos→neg through the source: it delivers
            // −v·I into the external circuit.
            power += -v * i.value.dc_value();
        }
        power
    }
}

/// Floor conductance from every node to ground, for regularization.
const GMIN_FLOOR: f64 = 1e-12;
/// Newton iteration cap per continuation stage.
const MAX_ITERS: usize = 300;
/// Per-component Newton step clamp, volts.
const MAX_STEP: f64 = 0.5;
/// Voltage convergence tolerance.
const VTOL: f64 = 1e-9;
/// Residual (current) convergence tolerance.
const ITOL: f64 = 1e-10;

/// Computes the DC operating point of `circuit` under `process`.
///
/// # Errors
///
/// Returns [`SolveDcError::Invalid`] for structurally broken circuits and
/// [`SolveDcError::NotConverged`]/[`SolveDcError::Singular`] if every
/// continuation strategy fails.
pub fn solve(circuit: &Circuit, process: &Process) -> Result<DcSolution, SolveDcError> {
    let mut engine = Engine::compile(circuit, process)?;
    let solved = engine.solve(None, &Deadline::none())?;
    Ok(engine.package(&solved))
}

/// [`solve`] with run telemetry recorded into `tel`: a `sim:dc` span plus
/// the `sim.dc.solves` / `sim.dc.newton_iterations` / `sim.dc.failures`
/// and `sim.lu.*` counters.
///
/// # Errors
///
/// Same failure modes as [`solve`].
pub fn solve_with(
    circuit: &Circuit,
    process: &Process,
    tel: &Telemetry,
) -> Result<DcSolution, SolveDcError> {
    solve_with_deadline(circuit, process, tel, &Deadline::none())
}

/// [`solve_with`] under a cooperative [`Deadline`], checked at every
/// Newton iteration and continuation stage — a diverging operating
/// point aborts with [`SolveDcError::DeadlineExceeded`] instead of
/// burning the whole iteration budget.
///
/// # Errors
///
/// Same failure modes as [`solve`], plus
/// [`SolveDcError::DeadlineExceeded`].
pub fn solve_with_deadline(
    circuit: &Circuit,
    process: &Process,
    tel: &Telemetry,
    deadline: &Deadline,
) -> Result<DcSolution, SolveDcError> {
    let span = tel.span_sym(sym!("sim:dc"));
    let (result, lu) = match Engine::compile(circuit, process) {
        Ok(mut engine) => {
            let result = engine.solve(None, deadline).map(|s| engine.package(&s));
            (result, engine.lu.take_counts())
        }
        Err(e) => (Err(e), LuCounts::default()),
    };
    count_solve(
        tel,
        result.as_ref().ok().map(|sol| (sol.iterations(), false)),
        lu,
    );
    if tel.is_enabled() {
        match &result {
            Ok(solution) => {
                span.annotate_sym(sym!("iterations"), sym_u64(solution.iterations() as u64));
            }
            Err(e) => span.annotate_sym(sym!("error"), tel.text(e)),
        }
    }
    result
}

/// Records one solve into the `sim.dc.*` counters: `solves`, then, for
/// a converged `(newton iterations, warm fallback)` outcome,
/// `newton_iterations` (total and per-solve histogram) and
/// `warm_fallbacks` when a warm start stalled into the cold
/// continuation, or `failures` for `None`. The solve's factorizations go
/// into the `sim.lu.*` counters.
fn count_solve(tel: &Telemetry, outcome: Option<(usize, bool)>, lu: LuCounts) {
    if !tel.is_enabled() {
        return;
    }
    tel.incr_sym(sym!("sim.dc.solves"));
    lu.record(tel);
    match outcome {
        Some((iterations, warm_fallback)) => {
            let (newton, iters) = (sym!("sim.dc.newton_iterations"), iterations as u64);
            tel.add_sym(newton, iters);
            tel.observe_sym(newton, iters);
            if warm_fallback {
                tel.incr_sym(sym!("sim.dc.warm_fallbacks"));
            }
        }
        None => tel.incr_sym(sym!("sim.dc.failures")),
    }
}

/// A converged unknown vector and how the engine reached it.
#[derive(Clone, Debug)]
pub(crate) struct Solved {
    /// The unknown vector `[v_1 … v_{N-1}, i_V1 … i_VM]`.
    pub(crate) x: Vec<f64>,
    /// Newton iterations the successful strategy used.
    pub(crate) iterations: usize,
    /// The warm start stalled and the cold continuation converged.
    pub(crate) warm_fallback: bool,
}

/// A circuit compiled once for DC analysis: validated, indexed, every
/// MOSFET bound (inside the caller's Monte-Carlo scope, so its draws
/// hold for every solve), and the Newton workspace allocated, with the
/// Jacobian's LU plan. Lives for one analysis — a sweep, a bisection, a
/// transient run — and never beyond it.
pub(crate) struct Engine<'c> {
    circuit: &'c Circuit,
    plan: StampPlan,
    jac: Matrix<f64>,
    lu: LuPlan,
    residual: Vec<f64>,
    delta: Vec<f64>,
}

impl<'c> Engine<'c> {
    /// Validates and compiles `circuit`.
    pub(crate) fn compile(circuit: &'c Circuit, process: &Process) -> Result<Self, SolveDcError> {
        circuit
            .validate()
            .map_err(|e| SolveDcError::Invalid(e.to_string()))?;
        let plan = StampPlan::compile(circuit, process);
        let dim = plan.index().dim();
        let mut lu = LuPlan::new(dim);
        plan.mark_pattern(&mut lu);
        Ok(Self {
            circuit,
            plan,
            jac: Matrix::zeros(dim),
            lu,
            residual: vec![0.0; dim],
            delta: vec![0.0; dim],
        })
    }

    /// The compiled circuit.
    pub(crate) fn plan(&self) -> &StampPlan {
        &self.plan
    }

    /// Resolves an independent source by name, for [`Engine::set_source`].
    pub(crate) fn source(&self, name: &str) -> Result<SourceRef, SolveDcError> {
        self.plan.source(name).ok_or_else(|| {
            SolveDcError::Invalid(ValidateError::UnknownElement(name.to_owned()).to_string())
        })
    }

    /// Sets a source's DC value for the next solve.
    pub(crate) fn set_source(&mut self, source: SourceRef, value: f64) {
        self.plan.set_source(source, value);
    }

    /// [`Engine::solve`] without a deadline, counted into `tel`'s
    /// `sim.dc.*` and `sim.lu.*` counters: the per-point solve of a
    /// sweep.
    pub(crate) fn solve_counted(
        &mut self,
        start: Option<&[f64]>,
        tel: &Telemetry,
    ) -> Result<Solved, SolveDcError> {
        let result = self.solve(start, &Deadline::none());
        count_solve(
            tel,
            result
                .as_ref()
                .ok()
                .map(|s| (s.iterations, s.warm_fallback)),
            self.lu.take_counts(),
        );
        result
    }

    /// A Newton start from node voltages indexed by [`NodeId::index`]
    /// (ground first, as [`DcSolution::node_voltages`]), with every branch
    /// current at zero.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` does not hold one voltage per node.
    pub(crate) fn start_from_nodes(&self, nodes: &[f64]) -> Vec<f64> {
        let count = self.circuit.node_count();
        assert_eq!(nodes.len(), count, "one start voltage per node");
        let mut x = vec![0.0; self.plan.index().dim()];
        x[..count - 1].copy_from_slice(&nodes[1..]);
        x
    }

    /// Solves for the operating point. With a `start` vector, Newton runs
    /// from it first; if that stalls, the cold continuation runs exactly
    /// as it would without one: plain Newton from zero, then `gmin`
    /// stepping, then source stepping.
    pub(crate) fn solve(
        &mut self,
        start: Option<&[f64]>,
        deadline: &Deadline,
    ) -> Result<Solved, SolveDcError> {
        fail_point!("sim.dc.solve", |msg: String| SolveDcError::Invalid(msg));
        let deadline_err = |exceeded: DeadlineExceeded| SolveDcError::DeadlineExceeded {
            circuit: self.circuit.title().to_owned(),
            exceeded,
        };
        let dim = self.plan.index().dim();

        let mut warm_fallback = false;
        if let Some(start) = start {
            match self.newton(GMIN_FLOOR, 1.0, start.to_vec(), deadline) {
                Ok((x, iterations)) => {
                    return Ok(Solved {
                        x,
                        iterations,
                        warm_fallback,
                    })
                }
                Err(StageFailure::Deadline(exceeded)) => return Err(deadline_err(exceeded)),
                Err(StageFailure::Stuck { .. }) => warm_fallback = true,
            }
        }
        let solved = |x: Vec<f64>, iterations: usize| Solved {
            x,
            iterations,
            warm_fallback,
        };
        let mut best_residual = f64::INFINITY;

        // Strategy 1: plain Newton from zero.
        let x0 = vec![0.0; dim];
        match self.newton(GMIN_FLOOR, 1.0, x0.clone(), deadline) {
            Ok((x, iters)) => return Ok(solved(x, iters)),
            Err(StageFailure::Deadline(exceeded)) => return Err(deadline_err(exceeded)),
            Err(StageFailure::Stuck { residual, .. }) => {
                best_residual = best_residual.min(residual)
            }
        }

        // Strategy 2: gmin stepping.
        let mut x = x0.clone();
        let mut gmin = 1e-3;
        let mut ok = true;
        let mut total_iters = 0;
        while gmin >= GMIN_FLOOR {
            match self.newton(gmin, 1.0, x.clone(), deadline) {
                Ok((next, iters)) => {
                    x = next;
                    total_iters += iters;
                }
                Err(StageFailure::Deadline(exceeded)) => return Err(deadline_err(exceeded)),
                Err(StageFailure::Stuck { residual, .. }) => {
                    best_residual = best_residual.min(residual);
                    ok = false;
                    break;
                }
            }
            if gmin <= GMIN_FLOOR {
                break;
            }
            gmin = (gmin / 100.0).max(GMIN_FLOOR);
        }
        if ok {
            return Ok(solved(x, total_iters));
        }

        // Strategy 3: source stepping.
        let mut x = x0;
        let mut total_iters = 0;
        let mut ok = true;
        for step in 1..=10 {
            let scale = f64::from(step) / 10.0;
            match self.newton(GMIN_FLOOR, scale, x.clone(), deadline) {
                Ok((next, iters)) => {
                    x = next;
                    total_iters += iters;
                }
                Err(StageFailure::Deadline(exceeded)) => return Err(deadline_err(exceeded)),
                Err(StageFailure::Stuck { residual, singular }) => {
                    best_residual = best_residual.min(residual);
                    if singular {
                        return Err(SolveDcError::Singular {
                            circuit: self.circuit.title().to_owned(),
                        });
                    }
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            return Ok(solved(x, total_iters));
        }

        Err(SolveDcError::NotConverged {
            circuit: self.circuit.title().to_owned(),
            residual: best_residual,
        })
    }

    /// One Newton continuation stage. Returns the solution and iteration
    /// count, or the best residual reached.
    fn newton(
        &mut self,
        gmin: f64,
        source_scale: f64,
        mut x: Vec<f64>,
        deadline: &Deadline,
    ) -> Result<(Vec<f64>, usize), StageFailure> {
        let mut best_residual = f64::INFINITY;
        let sources = (self.plan.vsource_values(), self.plan.isources().1);

        for iter in 0..MAX_ITERS {
            fail_point!("sim.dc.newton");
            if let Err(exceeded) = deadline.check() {
                return Err(StageFailure::Deadline(exceeded));
            }
            self.jac.clear();
            self.residual.fill(0.0);
            self.plan
                .stamp_gmin(gmin, &x, &mut self.jac, &mut self.residual);
            self.plan
                .stamp_elements(sources, source_scale, &x, &mut self.jac, &mut self.residual);

            let res_norm = self.residual.iter().fold(0.0f64, |m, r| m.max(r.abs()));
            best_residual = best_residual.min(res_norm);

            // Solve J·δ = −f.
            for (d, r) in self.delta.iter_mut().zip(&self.residual) {
                *d = -r;
            }
            match self.lu.factor(&mut self.jac) {
                Ok(factors) => factors.solve_in_place(&mut self.delta),
                Err(_) => {
                    return Err(StageFailure::Stuck {
                        residual: best_residual,
                        singular: true,
                    })
                }
            }

            // Damped update.
            let max_delta = self.delta.iter().fold(0.0f64, |m, d| m.max(d.abs()));
            let damp = if max_delta > MAX_STEP {
                MAX_STEP / max_delta
            } else {
                1.0
            };
            for (xi, di) in x.iter_mut().zip(&self.delta) {
                *xi += damp * di;
            }
            if !x.iter().all(|v| v.is_finite()) {
                return Err(StageFailure::Stuck {
                    residual: best_residual,
                    singular: false,
                });
            }

            if damp == 1.0 && max_delta < VTOL && res_norm < ITOL {
                return Ok((x, iter + 1));
            }
        }

        Err(StageFailure::Stuck {
            residual: best_residual,
            singular: false,
        })
    }

    /// Wraps a converged unknown vector into a [`DcSolution`].
    pub(crate) fn package(&self, solved: &Solved) -> DcSolution {
        let x = &solved.x;
        let nodes = self.circuit.node_count();
        let mut node_voltages = vec![0.0; nodes];
        node_voltages[1..nodes].copy_from_slice(&x[..nodes - 1]);
        DcSolution {
            node_voltages,
            branch_currents: x[nodes - 1..].to_vec(),
            device_ops: self
                .plan
                .mosfets()
                .iter()
                .map(|m| m.operating_point(x))
                .collect(),
            names: Arc::clone(self.plan.names()),
            iterations: solved.iterations,
        }
    }
}

enum StageFailure {
    /// The stage stalled: best residual reached, and whether the
    /// Jacobian went singular.
    Stuck { residual: f64, singular: bool },
    /// The cooperative deadline fired mid-stage.
    Deadline(DeadlineExceeded),
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_mos::Geometry;
    use oasys_netlist::SourceValue;
    use oasys_process::{builtin, Polarity};

    fn process() -> Process {
        builtin::cmos_5um()
    }

    #[test]
    fn resistive_divider() {
        let mut c = Circuit::new("div");
        let top = c.node("top");
        let mid = c.node("mid");
        c.add_vsource("V1", top, c.ground(), SourceValue::dc(10.0))
            .unwrap();
        c.add_resistor("R1", top, mid, 3e3).unwrap();
        c.add_resistor("R2", mid, c.ground(), 1e3).unwrap();
        let sol = solve(&c, &process()).unwrap();
        assert!((sol.voltage(mid) - 2.5).abs() < 1e-6);
        // Source current: 10 V across 4 kΩ = 2.5 mA flowing out of the
        // source's positive terminal into the circuit, so the branch
        // current (pos→neg through the source) is −2.5 mA.
        assert!((sol.source_current("V1").unwrap() + 2.5e-3).abs() < 1e-8);
        // Power delivered = 25 mW.
        assert!((sol.supply_power(&c) - 25e-3).abs() < 1e-7);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new("ir");
        let n = c.node("n");
        // 1 mA pulled from ground into node n (pos=gnd, neg=n means
        // current flows gnd→n through the source, i.e. into n).
        c.add_isource("I1", c.ground(), n, SourceValue::dc(1e-3))
            .unwrap();
        c.add_resistor("R1", n, c.ground(), 2e3).unwrap();
        let sol = solve(&c, &process()).unwrap();
        assert!((sol.voltage(n) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn diode_connected_nmos_bias() {
        // IB from VDD into a diode-connected NMOS: solves VGS such that
        // Id = IB.
        let mut c = Circuit::new("diode");
        let vdd = c.node("vdd");
        let g = c.node("gate");
        c.add_vsource("VDD", vdd, c.ground(), SourceValue::dc(5.0))
            .unwrap();
        c.add_isource("IB", vdd, g, SourceValue::dc(20e-6)).unwrap();
        c.add_mosfet(
            "M1",
            Polarity::Nmos,
            Geometry::new_um(50.0, 5.0).unwrap(),
            g,
            g,
            c.ground(),
            c.ground(),
        )
        .unwrap();
        let sol = solve(&c, &process()).unwrap();
        let vgs = sol.voltage(g);
        // Square law: 20µ = ½·25µ·10·Vov² → Vov ≈ 0.4 → VGS ≈ 1.4.
        assert!((vgs - 1.4).abs() < 0.05, "vgs = {vgs}");
        let op = sol.device_op("M1").unwrap();
        assert!(op.region().is_saturation());
        assert!((op.id() - 20e-6).abs() < 1e-7);
    }

    #[test]
    fn nmos_common_source_amplifier_bias() {
        let mut c = Circuit::new("cs");
        let vdd = c.node("vdd");
        let out = c.node("out");
        let inp = c.node("in");
        c.add_vsource("VDD", vdd, c.ground(), SourceValue::dc(5.0))
            .unwrap();
        c.add_vsource("VIN", inp, c.ground(), SourceValue::new(1.5, 1.0))
            .unwrap();
        c.add_resistor("RL", vdd, out, 100e3).unwrap();
        c.add_mosfet(
            "M1",
            Polarity::Nmos,
            Geometry::new_um(10.0, 5.0).unwrap(),
            out,
            inp,
            c.ground(),
            c.ground(),
        )
        .unwrap();
        let sol = solve(&c, &process()).unwrap();
        let vout = sol.voltage(out);
        // Id ≈ ½·25µ·2·0.25 = 6.25µ (before λ), drop ≈ 0.64 V.
        assert!(vout > 3.5 && vout < 4.8, "vout = {vout}");
        let op = sol.device_op("M1").unwrap();
        assert!(op.region().is_saturation());
    }

    #[test]
    fn cmos_inverter_midpoint() {
        // Both gates at mid-supply with matched strengths: output settles
        // between the rails.
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
        let sol = solve(&c, &process()).unwrap();
        let vout = sol.voltage(out);
        assert!(vout > 0.5 && vout < 4.5, "vout = {vout}");
    }

    #[test]
    fn invalid_circuit_reported() {
        let c = Circuit::new("empty");
        let err = solve(&c, &process()).unwrap_err();
        assert!(matches!(err, SolveDcError::Invalid(_)));
    }

    #[test]
    fn floating_gate_regularized_by_gmin() {
        // A capacitively-coupled gate has no DC path; gmin must keep the
        // matrix nonsingular and pull it to ground.
        let mut c = Circuit::new("floatgate");
        let vdd = c.node("vdd");
        let out = c.node("out");
        let gate = c.node("gate");
        c.add_vsource("VDD", vdd, c.ground(), SourceValue::dc(5.0))
            .unwrap();
        c.add_capacitor("CG", gate, c.ground(), 1e-12).unwrap();
        c.add_capacitor("CG2", gate, vdd, 1e-12).unwrap();
        c.add_resistor("RL", vdd, out, 100e3).unwrap();
        c.add_mosfet(
            "M1",
            Polarity::Nmos,
            Geometry::new_um(10.0, 5.0).unwrap(),
            out,
            gate,
            c.ground(),
            c.ground(),
        )
        .unwrap();
        let sol = solve(&c, &process()).unwrap();
        assert!(sol.voltage(gate).abs() < 1e-3);
        // Gate at 0 → device off → no drop across RL.
        assert!((sol.voltage(out) - 5.0).abs() < 1e-3);
    }

    #[test]
    fn iterations_reported() {
        let mut c = Circuit::new("r");
        let a = c.node("a");
        c.add_vsource("V", a, c.ground(), SourceValue::dc(1.0))
            .unwrap();
        c.add_resistor("R", a, c.ground(), 1e3).unwrap();
        let sol = solve(&c, &process()).unwrap();
        assert!(sol.iterations() >= 1);
    }
}
