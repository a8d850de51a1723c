//! Small-signal AC analysis.
//!
//! Linearizes every MOSFET at the DC operating point (conductances from
//! [`crate::mna::mos_stamp`], Meyer capacitances from the device model) and
//! solves the complex MNA system `Y(jω)·x = b` at each frequency of a
//! logarithmic sweep. The AC magnitudes of the circuit's sources form the
//! stimulus vector `b`; with a unit-magnitude input source, the node
//! values are transfer functions directly.
//!
//! An analysis is the circuit's DC point ([`crate::dc::solve`]), its
//! linearization ([`AcSystem::new`]) and the sweep ([`AcSystem::sweep`]).
//! An [`AcSystem`] keeps one LU plan for its whole life: every frequency
//! of a sweep, and every further factorization its callers ask for,
//! factors `Y(jω)` through it (see [`crate::linalg`]). The pattern is the
//! conductance matrix's nonzeros, fixed at linearization, plus the
//! capacitors' positions.

use crate::complex::Complex;
use crate::dc::DcSolution;
use crate::linalg::{Lu, LuPlan, Matrix};
use crate::mna::{bound_mosfets, mark_two_terminal, mos_stamp, MnaIndex};
use oasys_netlist::{Circuit, Element, NodeId};
use oasys_process::Process;
use oasys_telemetry::{sym, sym_u64, Telemetry};
use std::error::Error;
use std::fmt;

/// Error returned by AC analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveAcError {
    /// The admittance matrix was singular at some frequency.
    Singular {
        /// The frequency at which factorization failed, hertz.
        frequency: f64,
    },
    /// The sweep specification was empty or inverted.
    BadSweep(String),
}

impl fmt::Display for SolveAcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveAcError::Singular { frequency } => {
                write!(f, "ac matrix singular at {frequency:.3e} Hz")
            }
            SolveAcError::BadSweep(detail) => write!(f, "bad ac sweep: {detail}"),
        }
    }
}

impl Error for SolveAcError {}

/// Logarithmic frequency sweep specification.
///
/// # Examples
///
/// ```
/// use oasys_sim::AcSweepSpec;
/// let spec = AcSweepSpec::new(1.0, 1e6, 10)?;
/// let freqs = spec.frequencies();
/// assert_eq!(freqs.len(), 61); // 6 decades × 10 + endpoint
/// assert!((freqs[0] - 1.0).abs() < 1e-9);
/// # Ok::<(), oasys_sim::ac::SolveAcError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AcSweepSpec {
    start_hz: f64,
    stop_hz: f64,
    points_per_decade: usize,
}

impl AcSweepSpec {
    /// Creates a sweep from `start_hz` to `stop_hz` with
    /// `points_per_decade` logarithmically spaced points per decade.
    ///
    /// # Errors
    ///
    /// Returns [`SolveAcError::BadSweep`] if the bounds are non-positive,
    /// inverted, or `points_per_decade` is zero.
    pub fn new(
        start_hz: f64,
        stop_hz: f64,
        points_per_decade: usize,
    ) -> Result<Self, SolveAcError> {
        if !(start_hz > 0.0 && stop_hz > start_hz) {
            return Err(SolveAcError::BadSweep(format!(
                "need 0 < start < stop, got {start_hz}..{stop_hz}"
            )));
        }
        if points_per_decade == 0 {
            return Err(SolveAcError::BadSweep(
                "points_per_decade must be at least 1".to_owned(),
            ));
        }
        Ok(Self {
            start_hz,
            stop_hz,
            points_per_decade,
        })
    }

    /// The default datasheet sweep: 1 Hz to 100 MHz, 10 points per decade
    /// (the span of the paper's Figure 6).
    #[must_use]
    pub fn standard() -> Self {
        Self {
            start_hz: 1.0,
            stop_hz: 1e8,
            points_per_decade: 10,
        }
    }

    /// Materializes the frequency list, inclusive of both endpoints.
    #[must_use]
    pub fn frequencies(&self) -> Vec<f64> {
        let decades = (self.stop_hz / self.start_hz).log10();
        let steps = (decades * self.points_per_decade as f64).ceil() as usize;
        let mut out: Vec<f64> = (0..=steps)
            .map(|k| self.start_hz * 10f64.powf(k as f64 / self.points_per_decade as f64))
            .take_while(|&f| f < self.stop_hz * (1.0 - 1e-12))
            .collect();
        out.push(self.stop_hz);
        out
    }
}

/// The result of an AC sweep: per-frequency complex node voltages.
#[derive(Clone, Debug)]
pub struct AcSolution {
    frequencies: Vec<f64>,
    /// `node_values[k][node_index]` = phasor of that node at frequency k.
    node_values: Vec<Vec<Complex>>,
}

impl AcSolution {
    /// The swept frequencies, hertz.
    #[must_use]
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// The phasor of `node` across the sweep.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not from the analyzed circuit.
    #[must_use]
    pub fn transfer(&self, node: NodeId) -> Vec<Complex> {
        self.node_values
            .iter()
            .map(|values| values[node.index()])
            .collect()
    }

    /// The phasor of `node` at sweep point `k`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn value(&self, k: usize, node: NodeId) -> Complex {
        self.node_values[k][node.index()]
    }

    /// Number of sweep points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frequencies.len()
    }

    /// Returns `true` if the sweep is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frequencies.is_empty()
    }
}

/// Floor conductance matching the DC engine's regularization.
const GMIN_FLOOR: f64 = 1e-12;

/// The linearized small-signal system of a circuit at its DC operating
/// point: the frequency-independent conductance stamps, the capacitance
/// list, and the source stimulus vector. Lets callers (the AC sweep, the
/// noise analysis, a verification's rejection ratios) factor `Y(jω)` at
/// any frequency and solve it against any number of right-hand sides,
/// all through one LU plan.
pub struct AcSystem {
    index: MnaIndex,
    node_count: usize,
    g_matrix: Matrix<Complex>,
    caps: Vec<(Option<usize>, Option<usize>, f64)>,
    stimulus: Vec<Complex>,
    /// `Y(jω)` at the last factored frequency, in its LU factors.
    y: Matrix<Complex>,
    lu: LuPlan,
}

impl AcSystem {
    /// Linearizes `circuit` at the DC solution `dc`.
    #[must_use]
    pub fn new(circuit: &Circuit, process: &Process, dc: &DcSolution) -> Self {
        let index = MnaIndex::new(circuit);
        let dim = index.dim();

        let mut g_matrix: Matrix<Complex> = Matrix::zeros(dim);
        let mut b = vec![Complex::ZERO; dim];
        let mut caps: Vec<(Option<usize>, Option<usize>, f64)> = Vec::new();

        for node_idx in 0..circuit.node_count() - 1 {
            g_matrix.stamp(node_idx, node_idx, Complex::from_real(GMIN_FLOOR));
        }

        let volt = |node: NodeId| dc.voltage(node);
        let mut vsrc_k = 0usize;
        for element in circuit.elements() {
            match element {
                Element::Resistor(r) => {
                    let g = Complex::from_real(1.0 / r.ohms);
                    two_node_stamp(&mut g_matrix, &index, r.a, r.b, g);
                }
                Element::Capacitor(c) => {
                    caps.push((index.node_var(c.a), index.node_var(c.b), c.farads));
                }
                Element::Isource(src) => {
                    let i_ac = src.value.ac();
                    if i_ac != 0.0 {
                        if let Some(i) = index.node_var(src.pos) {
                            b[i] -= Complex::from_real(i_ac);
                        }
                        if let Some(i) = index.node_var(src.neg) {
                            b[i] += Complex::from_real(i_ac);
                        }
                    }
                }
                Element::Vsource(src) => {
                    let branch = index.branch_var(vsrc_k);
                    vsrc_k += 1;
                    if let Some(i) = index.node_var(src.pos) {
                        g_matrix.stamp(i, branch, Complex::ONE);
                        g_matrix.stamp(branch, i, Complex::ONE);
                    }
                    if let Some(i) = index.node_var(src.neg) {
                        g_matrix.stamp(i, branch, -Complex::ONE);
                        g_matrix.stamp(branch, i, -Complex::ONE);
                    }
                    b[branch] = Complex::from_real(src.value.ac());
                }
                Element::Mos(_) => {
                    // Handled below with the bound device list.
                }
            }
        }

        for (inst, device) in bound_mosfets(circuit, process) {
            let stamp = mos_stamp(
                &device,
                volt(inst.drain),
                volt(inst.gate),
                volt(inst.source),
                volt(inst.bulk),
            );
            let terminals = [
                (inst.drain, stamp.d_dvd),
                (inst.gate, stamp.d_dvg),
                (inst.source, stamp.d_dvs),
                (inst.bulk, stamp.d_dvb),
            ];
            if let Some(i) = index.node_var(inst.drain) {
                for (node, deriv) in terminals {
                    if let Some(j) = index.node_var(node) {
                        g_matrix.stamp(i, j, Complex::from_real(deriv));
                    }
                }
            }
            if let Some(i) = index.node_var(inst.source) {
                for (node, deriv) in terminals {
                    if let Some(j) = index.node_var(node) {
                        g_matrix.stamp(i, j, Complex::from_real(-deriv));
                    }
                }
            }
            // Device capacitances.
            let c = device.capacitances(&stamp.op);
            let pairs = [
                (inst.gate, inst.source, c.cgs().farads()),
                (inst.gate, inst.drain, c.cgd().farads()),
                (inst.gate, inst.bulk, c.cgb().farads()),
                (inst.drain, inst.bulk, c.cdb().farads()),
                (inst.source, inst.bulk, c.csb().farads()),
            ];
            for (a, node_b, farads) in pairs {
                if farads > 0.0 {
                    caps.push((index.node_var(a), index.node_var(node_b), farads));
                }
            }
        }

        // The conductances are fixed from here on, so their nonzeros are
        // the stamps' positions; the capacitors add theirs.
        let mut lu = LuPlan::new(dim);
        for i in 0..dim {
            for j in 0..dim {
                if g_matrix[(i, j)] != Complex::ZERO {
                    lu.mark(i, j);
                }
            }
        }
        for &(a, b, _) in &caps {
            mark_two_terminal(&mut lu, a, b);
        }
        Self {
            index,
            node_count: circuit.node_count(),
            y: Matrix::zeros(dim),
            g_matrix,
            caps,
            stimulus: b,
            lu,
        }
    }

    /// The unknown-vector dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.g_matrix.n()
    }

    /// The MNA index mapping nodes to unknowns.
    #[must_use]
    pub fn index(&self) -> &MnaIndex {
        &self.index
    }

    /// The circuit's own source stimulus (the AC magnitudes of its
    /// voltage and current sources).
    #[must_use]
    pub fn stimulus(&self) -> &[Complex] {
        &self.stimulus
    }

    /// A right-hand side injecting a unit AC current from `from` into
    /// `into` (through the external circuit).
    #[must_use]
    pub fn current_injection(&self, from: NodeId, into: NodeId) -> Vec<Complex> {
        let mut b = vec![Complex::ZERO; self.dim()];
        if let Some(i) = self.index.node_var(from) {
            b[i] -= Complex::ONE;
        }
        if let Some(i) = self.index.node_var(into) {
            b[i] += Complex::ONE;
        }
        b
    }

    /// Assembles `Y(f)` and factors it through the system's LU plan. The
    /// factorization solves any number of right-hand sides.
    ///
    /// # Errors
    ///
    /// Reports a singular admittance matrix.
    pub fn factor(&mut self, freq: f64) -> Result<Lu<'_, Complex>, SolveAcError> {
        let omega = 2.0 * std::f64::consts::PI * freq;
        self.y.clone_from(&self.g_matrix);
        for &(ia, ib, farads) in &self.caps {
            let jwc = Complex::new(0.0, omega * farads);
            if let Some(i) = ia {
                self.y.stamp(i, i, jwc);
                if let Some(j) = ib {
                    self.y.stamp(i, j, -jwc);
                }
            }
            if let Some(i) = ib {
                self.y.stamp(i, i, jwc);
                if let Some(j) = ia {
                    self.y.stamp(i, j, -jwc);
                }
            }
        }
        self.lu
            .factor(&mut self.y)
            .map_err(|_| SolveAcError::Singular { frequency: freq })
    }

    /// Sweeps the circuit's own stimulus over `spec`'s frequencies, with
    /// run telemetry recorded into `tel`: a `sim:ac` span plus the
    /// `sim.ac.sweeps` / `sim.ac.points` / `sim.ac.failures` counters,
    /// and the system's factorizations so far in the `sim.lu.*` counters
    /// (as [`AcSystem::record_lu`]).
    ///
    /// # Errors
    ///
    /// Reports a singular admittance matrix.
    pub fn sweep(
        &mut self,
        spec: &AcSweepSpec,
        tel: &Telemetry,
    ) -> Result<AcSolution, SolveAcError> {
        let span = tel.span_sym(sym!("sim:ac"));
        tel.incr_sym(sym!("sim.ac.sweeps"));
        let frequencies = spec.frequencies();
        let mut node_values = Vec::with_capacity(frequencies.len());
        let mut x = Vec::with_capacity(self.dim());
        let mut failure = None;
        for &freq in &frequencies {
            x.clone_from(&self.stimulus);
            match self.factor(freq) {
                Ok(factors) => factors.solve_in_place(&mut x),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
            node_values.push(self.to_node_voltages(&x));
        }
        let result = match failure {
            None => Ok(AcSolution {
                frequencies,
                node_values,
            }),
            Some(e) => Err(e),
        };
        self.record_lu(tel);
        if tel.is_enabled() {
            match &result {
                Ok(solution) => {
                    let points = solution.frequencies().len() as u64;
                    tel.add_sym(sym!("sim.ac.points"), points);
                    span.annotate_sym(sym!("points"), sym_u64(points));
                }
                Err(e) => {
                    tel.incr_sym(sym!("sim.ac.failures"));
                    span.annotate_sym(sym!("error"), tel.text(e));
                }
            }
        }
        result
    }

    /// Adds the factorizations made since the last record to `tel`'s
    /// `sim.lu.factorizations` and `sim.lu.repivots` counters.
    pub fn record_lu(&mut self, tel: &Telemetry) {
        let counts = self.lu.take_counts();
        if tel.is_enabled() {
            counts.record(tel);
        }
    }

    /// Expands an unknown vector into per-node voltages (ground at
    /// index 0).
    #[must_use]
    pub fn to_node_voltages(&self, x: &[Complex]) -> Vec<Complex> {
        let mut values = vec![Complex::ZERO; self.node_count];
        values[1..self.node_count].copy_from_slice(&x[..self.node_count - 1]);
        values
    }
}

/// Stamps a two-terminal admittance between nodes `a` and `b`.
fn two_node_stamp(
    matrix: &mut Matrix<Complex>,
    index: &MnaIndex,
    a: NodeId,
    b: NodeId,
    y: Complex,
) {
    let ia = index.node_var(a);
    let ib = index.node_var(b);
    if let Some(i) = ia {
        matrix.stamp(i, i, y);
        if let Some(j) = ib {
            matrix.stamp(i, j, -y);
        }
    }
    if let Some(i) = ib {
        matrix.stamp(i, i, y);
        if let Some(j) = ia {
            matrix.stamp(i, j, -y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_mos::Geometry;
    use oasys_netlist::SourceValue;
    use oasys_process::{builtin, Polarity};

    /// The DC point of `c`, then the sweep over `spec`.
    fn sweep(c: &Circuit, process: &Process, spec: &AcSweepSpec) -> AcSolution {
        let tel = Telemetry::disabled();
        let dc = crate::dc::solve(c, process, &tel).unwrap();
        AcSystem::new(c, process, &dc).sweep(spec, &tel).unwrap()
    }

    #[test]
    fn sweep_spec_endpoints() {
        let spec = AcSweepSpec::new(10.0, 1e4, 5).unwrap();
        let f = spec.frequencies();
        assert!((f[0] - 10.0).abs() < 1e-9);
        assert!((f.last().unwrap() - 1e4).abs() < 1e-6);
        // Monotone increasing.
        for pair in f.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }

    #[test]
    fn sweep_spec_rejects_bad_bounds() {
        assert!(AcSweepSpec::new(-1.0, 10.0, 5).is_err());
        assert!(AcSweepSpec::new(100.0, 10.0, 5).is_err());
        assert!(AcSweepSpec::new(1.0, 10.0, 0).is_err());
    }

    #[test]
    fn rc_lowpass_pole() {
        // R = 1 kΩ into C = 159.155 pF → f_3dB = 1 MHz.
        let mut c = Circuit::new("rc");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("VIN", inp, c.ground(), SourceValue::new(0.0, 1.0))
            .unwrap();
        c.add_resistor("R1", inp, out, 1e3).unwrap();
        c.add_capacitor("C1", out, c.ground(), 159.1549e-12)
            .unwrap();
        let process = builtin::cmos_5um();
        let spec = AcSweepSpec::new(1e3, 1e9, 20).unwrap();
        let ac = sweep(&c, &process, &spec);
        let h = ac.transfer(out);
        let f = ac.frequencies();
        // At low frequency |H| ≈ 1.
        assert!((h[0].abs() - 1.0).abs() < 1e-3);
        // Find the point nearest 1 MHz: |H| ≈ 1/√2, phase ≈ −45°.
        let k = f
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - 1e6).abs().partial_cmp(&(b.1 - 1e6).abs()).unwrap())
            .unwrap()
            .0;
        assert!((h[k].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.02);
        assert!((h[k].arg().to_degrees() + 45.0).abs() < 2.0);
        // Rolls off at −20 dB/dec far above the pole.
        let hi = h.last().unwrap().abs();
        assert!(hi < 2e-3);
    }

    #[test]
    fn common_source_gain_matches_gm_ro_rl() {
        // NMOS common-source with resistive load: |A| ≈ gm·(RL ∥ ro).
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
        let process = builtin::cmos_5um();
        let dc = crate::dc::solve(&c, &process, &Telemetry::disabled()).unwrap();
        let op = *dc.device_op("M1").unwrap();
        let spec = AcSweepSpec::new(1.0, 1e3, 5).unwrap();
        let ac = AcSystem::new(&c, &process, &dc)
            .sweep(&spec, &Telemetry::disabled())
            .unwrap();
        let h0 = ac.transfer(out)[0];
        let expected = op.gm() * (1.0 / (1.0 / 100e3 + op.gds()));
        assert!(
            (h0.abs() / expected - 1.0).abs() < 0.01,
            "|A| = {} expected {expected}",
            h0.abs()
        );
        // Inverting stage: phase ≈ 180°.
        assert!((h0.arg().to_degrees().abs() - 180.0).abs() < 1.0);
    }

    #[test]
    fn vsource_ac_stimulus_is_exact_at_node() {
        let mut c = Circuit::new("t");
        let a = c.node("a");
        c.add_vsource("VIN", a, c.ground(), SourceValue::new(0.0, 1.0))
            .unwrap();
        c.add_resistor("R", a, c.ground(), 1e3).unwrap();
        let spec = AcSweepSpec::new(1.0, 10.0, 1).unwrap();
        let ac = sweep(&c, &builtin::cmos_5um(), &spec);
        for v in ac.transfer(a) {
            assert!((v - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn solution_accessors() {
        let mut c = Circuit::new("t");
        let a = c.node("a");
        c.add_vsource("VIN", a, c.ground(), SourceValue::new(0.0, 1.0))
            .unwrap();
        c.add_resistor("R", a, c.ground(), 1e3).unwrap();
        let spec = AcSweepSpec::new(1.0, 100.0, 1).unwrap();
        let ac = sweep(&c, &builtin::cmos_5um(), &spec);
        assert_eq!(ac.len(), ac.frequencies().len());
        assert!(!ac.is_empty());
        assert_eq!(ac.value(0, a), ac.transfer(a)[0]);
    }
}
