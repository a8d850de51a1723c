//! Transient analysis: fixed-step backward Euler with per-step Newton.
//!
//! Adds the time axis the slew-rate measurement needs. Capacitors (both
//! explicit elements and the MOSFET Meyer capacitances, the latter frozen
//! at their `t = 0` operating-point values) become backward-Euler
//! companion models: a conductance `C/h` in parallel with a history
//! current source. Every step solves the full nonlinear system by Newton,
//! so large-signal behaviour (the slewing of an op amp) is captured
//! exactly as the level-1 model allows. The first step starts Newton
//! from the initial point, and every later one from the line through
//! the last two points, extended by one fixed step.
//!
//! Time-varying stimuli are supplied per source name through [`Stimuli`];
//! sources without an override hold their DC value.
//!
//! A run compiles the circuit once: the initial operating point and every
//! timestep stamp from the same device list, bound at compile time. The
//! initial point is a DC solve, counted into the `sim.dc.*` counters,
//! from zero or from a start the caller gives; the timesteps factor
//! their Jacobian through one LU plan per run (see [`crate::linalg`]),
//! whose pattern is the compiled stamps' plus the capacitor companions'.
//!
//! One stepping loop serves every entry point. It hands each accepted
//! time point to an observer, which may end the run. [`solve`] observes
//! every point and stores the waveform. [`slew_between_with`] stores
//! nothing and stops at the first crossing of its window's upper
//! threshold, because no later point can change the measurement (the
//! fixed-step form of SPICE's "autostop").

use crate::dc::{Engine, SolveDcError};
use crate::linalg::{LuCounts, LuPlan, Matrix};
use crate::mna::{mark_two_terminal, volt, SourceRef, StampPlan};
use oasys_netlist::{Circuit, Element, NodeId};
use oasys_process::Process;
use oasys_telemetry::{sym, sym_u64, Telemetry};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::ops::ControlFlow;

/// Error returned by transient analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveTranError {
    /// The initial operating point failed.
    InitialDc(SolveDcError),
    /// Newton failed to converge at a timestep.
    StepNotConverged {
        /// Simulation time of the failing step, seconds.
        time: f64,
    },
    /// The timestep specification was invalid.
    BadSpec(String),
}

impl fmt::Display for SolveTranError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveTranError::InitialDc(e) => write!(f, "transient initial point: {e}"),
            SolveTranError::StepNotConverged { time } => {
                write!(f, "transient step at t = {time:.3e} s did not converge")
            }
            SolveTranError::BadSpec(detail) => write!(f, "bad transient spec: {detail}"),
        }
    }
}

impl Error for SolveTranError {}

impl From<SolveDcError> for SolveTranError {
    fn from(e: SolveDcError) -> Self {
        SolveTranError::InitialDc(e)
    }
}

/// Timestep specification for a transient run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TranSpec {
    /// Total simulated time, seconds.
    pub t_stop: f64,
    /// Fixed timestep, seconds.
    pub dt: f64,
}

impl TranSpec {
    /// Creates a spec, validating the time parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SolveTranError::BadSpec`] for non-positive times or runs
    /// longer than 10 million steps.
    pub fn new(t_stop: f64, dt: f64) -> Result<Self, SolveTranError> {
        if !(t_stop > 0.0 && dt > 0.0 && t_stop.is_finite() && dt.is_finite()) {
            return Err(SolveTranError::BadSpec(format!(
                "need positive finite times, got t_stop = {t_stop}, dt = {dt}"
            )));
        }
        if t_stop / dt > 1e7 {
            return Err(SolveTranError::BadSpec(format!(
                "{:.0} steps is beyond the fixed-step engine's budget",
                t_stop / dt
            )));
        }
        Ok(Self { t_stop, dt })
    }
}

/// Per-source time-varying stimuli.
///
/// # Examples
///
/// ```
/// use oasys_sim::tran::Stimuli;
/// let mut stimuli = Stimuli::new();
/// stimuli.step("VIN", 0.0, 1.0, 1e-6);
/// assert_eq!(stimuli.value_at("VIN", 0.5e-6), Some(0.0));
/// assert_eq!(stimuli.value_at("VIN", 2e-6), Some(1.0));
/// assert_eq!(stimuli.value_at("VOTHER", 0.0), None);
/// ```
#[derive(Default)]
pub struct Stimuli {
    overrides: HashMap<String, Box<dyn Fn(f64) -> f64 + Send + Sync>>,
}

impl Stimuli {
    /// No overrides: every source holds its DC value.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides a source with an arbitrary waveform.
    pub fn waveform(
        &mut self,
        source: impl Into<String>,
        f: impl Fn(f64) -> f64 + Send + Sync + 'static,
    ) -> &mut Self {
        self.overrides.insert(source.into(), Box::new(f));
        self
    }

    /// Overrides a source with an ideal step from `v0` to `v1` at
    /// `t_step`.
    pub fn step(&mut self, source: impl Into<String>, v0: f64, v1: f64, t_step: f64) -> &mut Self {
        self.waveform(source, move |t| if t < t_step { v0 } else { v1 })
    }

    /// The override value for `source` at time `t`, if one exists.
    #[must_use]
    pub fn value_at(&self, source: &str, t: f64) -> Option<f64> {
        self.overrides.get(source).map(|f| f(t))
    }
}

/// The result of a transient run.
#[derive(Clone, Debug)]
pub struct TranSolution {
    times: Vec<f64>,
    /// `voltages[k][node_index]`.
    voltages: Vec<Vec<f64>>,
}

impl TranSolution {
    /// The time axis, seconds.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The waveform of one node across the run.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not from the analyzed circuit.
    #[must_use]
    pub fn waveform(&self, node: NodeId) -> Vec<f64> {
        self.voltages.iter().map(|v| v[node.index()]).collect()
    }

    /// Number of stored time points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if the run produced no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Maximum `|dv/dt|` of a node's waveform, V/s — the raw slew
    /// measurement.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not from the analyzed circuit.
    #[must_use]
    pub fn max_slope(&self, node: NodeId) -> f64 {
        let w = self.waveform(node);
        w.windows(2)
            .zip(self.times.windows(2))
            .map(|(v, t)| ((v[1] - v[0]) / (t[1] - t[0])).abs())
            .fold(0.0, f64::max)
    }

    /// 10%–90% average slope of a transition from `v_from` to `v_to`
    /// observed on `node`, V/s — the datasheet slew-rate definition.
    /// Returns `None` if the waveform never crosses both thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not from the analyzed circuit.
    #[must_use]
    pub fn slew_10_90(&self, node: NodeId, v_from: f64, v_to: f64) -> Option<f64> {
        self.slew_between(node, v_from, v_to, 0.1, 0.9)
    }

    /// Average slope between two fractional crossings of a transition —
    /// e.g. 15% to 65%, the window that stays inside the slew-limited
    /// portion of an op-amp step response (the 10–90 window includes the
    /// final linear settling and understates the slew rate).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not from the analyzed circuit or the fractions
    /// are not ordered in `(0, 1)`.
    #[must_use]
    pub fn slew_between(
        &self,
        node: NodeId,
        v_from: f64,
        v_to: f64,
        frac_a: f64,
        frac_b: f64,
    ) -> Option<f64> {
        let mut crossings = Crossings::new(&SlewWindow {
            node,
            v_from,
            v_to,
            frac_a,
            frac_b,
        });
        for (&t, v) in self.times.iter().zip(&self.voltages) {
            if crossings.observe(t, v[node.index()]).is_break() {
                break;
            }
        }
        crossings.slew()
    }
}

/// A slew measurement: the transition of `node` from `v_from` to `v_to`,
/// timed between its `frac_a` and `frac_b` fractional crossings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlewWindow {
    /// The node whose transition is measured.
    pub node: NodeId,
    /// Voltage the transition starts from.
    pub v_from: f64,
    /// Voltage the transition heads to.
    pub v_to: f64,
    /// Fraction of the transition that starts the window.
    pub frac_a: f64,
    /// Fraction of the transition that ends the window.
    pub frac_b: f64,
}

/// The first crossing of each threshold of a [`SlewWindow`], observed
/// point by point in time order: the one slew rule behind
/// [`TranSolution::slew_between`] and [`slew_between_with`].
struct Crossings {
    rising: bool,
    v_a: f64,
    v_b: f64,
    t_a: Option<f64>,
    t_b: Option<f64>,
}

impl Crossings {
    fn new(window: &SlewWindow) -> Self {
        let SlewWindow {
            v_from,
            v_to,
            frac_a,
            frac_b,
            ..
        } = *window;
        assert!(0.0 < frac_a && frac_a < frac_b && frac_b < 1.0);
        Self {
            rising: v_to > v_from,
            v_a: v_from + frac_a * (v_to - v_from),
            v_b: v_from + frac_b * (v_to - v_from),
            t_a: None,
            t_b: None,
        }
    }

    fn crossed(&self, v: f64, threshold: f64) -> bool {
        if self.rising {
            v >= threshold
        } else {
            v <= threshold
        }
    }

    /// Records the point `(t, v)`. Breaks at the first crossing of the
    /// upper (`frac_b`) threshold: the `frac_a` threshold lies between it
    /// and the start, so it has been crossed by then, and later points
    /// cannot change either first crossing.
    fn observe(&mut self, t: f64, v: f64) -> ControlFlow<()> {
        if self.t_a.is_none() && self.crossed(v, self.v_a) {
            self.t_a = Some(t);
        }
        if self.crossed(v, self.v_b) {
            self.t_b = Some(t);
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }

    /// The average slope between the two crossings, or `None` unless
    /// both were seen and the upper one is strictly later.
    fn slew(&self) -> Option<f64> {
        let (t_a, t_b) = (self.t_a?, self.t_b?);
        if t_b <= t_a {
            return None;
        }
        Some((self.v_b - self.v_a).abs() / (t_b - t_a))
    }
}

const MAX_NEWTON: usize = 100;
const GMIN: f64 = 1e-12;
const VTOL: f64 = 1e-7;
const MAX_STEP_V: f64 = 1.0;

/// Runs a transient analysis.
///
/// The initial condition is the DC operating point with every stimulus
/// evaluated at `t = 0`. Device capacitances are frozen at that operating
/// point (a documented approximation — the explicit load and compensation
/// capacitors dominate slewing behaviour).
///
/// # Errors
///
/// Returns [`SolveTranError`] if the initial DC point fails or any step's
/// Newton iteration does not converge.
pub fn solve(
    circuit: &Circuit,
    process: &Process,
    spec: &TranSpec,
    stimuli: &Stimuli,
) -> Result<TranSolution, SolveTranError> {
    solve_with(circuit, process, spec, stimuli, &Telemetry::disabled())
}

/// [`solve`] with run telemetry recorded into `tel`: a `sim:tran` span
/// plus the `sim.tran.runs` / `sim.tran.steps` /
/// `sim.tran.newton_iterations` / `sim.tran.failures` and `sim.lu.*`
/// counters, and the initial point's solve in the `sim.dc.*` counters.
///
/// # Errors
///
/// Same failure modes as [`solve`].
pub fn solve_with(
    circuit: &Circuit,
    process: &Process,
    spec: &TranSpec,
    stimuli: &Stimuli,
    tel: &Telemetry,
) -> Result<TranSolution, SolveTranError> {
    let nodes = circuit.node_count();
    let mut times = Vec::new();
    let mut voltages = Vec::new();
    run(circuit, process, spec, stimuli, None, tel, |t, x| {
        let mut v = vec![0.0; nodes];
        v[1..nodes].copy_from_slice(&x[..nodes - 1]);
        times.push(t);
        voltages.push(v);
        ControlFlow::Continue(())
    })?;
    Ok(TranSolution { times, voltages })
}

/// Measures a slew window on a transient run without storing the
/// waveform, and stops the run at the window's upper crossing.
///
/// With a `start`, the initial point's Newton iteration starts from
/// those node voltages, indexed by [`NodeId::index`] (ground first, as
/// [`crate::DcSolution::node_voltages`]), with every branch current at
/// zero. If it stalls, the cold continuation runs as it would without
/// one. Either way it converges to the same operating point, within
/// Newton's tolerances.
///
/// The result equals `solve_with(..)?.slew_between(..)` on the full run
/// under `==`: the same points, the same thresholds and the same rule.
/// Only a step that fails after the window has closed is different: it
/// is never run, so the measurement stands where the full run would
/// return an error. Telemetry is recorded as by [`solve_with`], and
/// `sim.tran.steps` counts only the points actually run.
///
/// # Errors
///
/// Same failure modes as [`solve`], for the points before the stop.
///
/// # Panics
///
/// Panics if `window.node` is not from `circuit`, the fractions are
/// not ordered in `(0, 1)`, or `start` does not hold one voltage per
/// node.
pub fn slew_between_with(
    circuit: &Circuit,
    process: &Process,
    spec: &TranSpec,
    stimuli: &Stimuli,
    window: &SlewWindow,
    start: Option<&[f64]>,
    tel: &Telemetry,
) -> Result<Option<f64>, SolveTranError> {
    let node = window.node;
    assert!(
        node.index() < circuit.node_count(),
        "node is not from the analyzed circuit"
    );
    let mut crossings = Crossings::new(window);
    run(circuit, process, spec, stimuli, start, tel, |t, x| {
        let v = if node.is_ground() {
            0.0
        } else {
            x[node.index() - 1]
        };
        crossings.observe(t, v)
    })?;
    Ok(crossings.slew())
}

/// The stepping loop under every entry point, with its telemetry. Hands
/// each accepted time point `(t, x)` to `observe`, the initial point
/// first, and ends the run early when `observe` breaks. `x` is the
/// solution vector: node `k`'s voltage is `x[k − 1]`.
///
/// `sim.tran.steps` counts the points handed to `observe`, and
/// `sim.tran.newton_iterations` the Newton iterations of the timesteps
/// among them. The initial point is a DC solve from `start` (node
/// voltages by [`NodeId::index`]) or from zero, counted into the
/// `sim.dc.*` counters; `sim.lu.*` counts the timesteps'
/// factorizations once the run ends.
fn run(
    circuit: &Circuit,
    process: &Process,
    spec: &TranSpec,
    stimuli: &Stimuli,
    start: Option<&[f64]>,
    tel: &Telemetry,
    mut observe: impl FnMut(f64, &[f64]) -> ControlFlow<()>,
) -> Result<(), SolveTranError> {
    let span = tel.span_sym(sym!("sim:tran"));
    tel.incr_sym(sym!("sim.tran.runs"));
    let result = integrate(circuit, process, spec, stimuli, start, tel, &mut observe);
    if tel.is_enabled() {
        match &result {
            Ok((points, iterations, lu)) => {
                tel.add_sym(sym!("sim.tran.steps"), *points);
                tel.add_sym(sym!("sim.tran.newton_iterations"), *iterations);
                lu.record(tel);
                span.annotate_sym(sym!("steps"), sym_u64(*points));
            }
            Err(e) => {
                tel.incr_sym(sym!("sim.tran.failures"));
                span.annotate_sym(sym!("error"), tel.text(e));
            }
        }
    }
    result.map(|_| ())
}

/// [`run`]'s loop. Returns the number of points observed, the Newton
/// iterations their timesteps took and the timesteps' factorizations.
fn integrate(
    circuit: &Circuit,
    process: &Process,
    spec: &TranSpec,
    stimuli: &Stimuli,
    start: Option<&[f64]>,
    tel: &Telemetry,
    observe: &mut impl FnMut(f64, &[f64]) -> ControlFlow<()>,
) -> Result<(u64, u64, LuCounts), SolveTranError> {
    let mut engine = Engine::compile(circuit, process)?;
    let mut sources = SourceTable::new(engine.plan(), stimuli);

    // Initial condition: the DC point with every stimulus at t = 0.
    sources.at(0.0);
    sources.apply(&mut engine);
    let start = start.map(|nodes| engine.start_from_nodes(nodes));
    let mut x = engine.solve_counted(start.as_deref(), tel)?.x;
    if observe(0.0, &x).is_break() {
        return Ok((1, 0, LuCounts::default()));
    }
    let plan = engine.plan();

    // Collect all capacitances as (node_a, node_b, farads): explicit
    // capacitors plus device capacitances frozen at the initial point.
    let caps = collect_capacitances(circuit, plan, &x);

    let steps = (spec.t_stop / spec.dt).ceil() as usize;
    let dim = plan.index().dim();
    let mut jac: Matrix<f64> = Matrix::zeros(dim);
    let mut lu = LuPlan::new(dim);
    plan.mark_pattern(&mut lu);
    for &(a, b, _) in &caps {
        mark_two_terminal(&mut lu, a, b);
    }
    let mut residual = vec![0.0; dim];
    let mut delta = vec![0.0; dim];
    // The last two accepted points: `x_prev` is also the history the
    // companion models integrate from.
    let mut x_prev = x.clone();
    let mut x_older = Vec::new();
    let mut iterations = 0;

    for step in 1..=steps {
        let t = step as f64 * spec.dt;
        sources.at(t);
        // Newton at this timestep, started from the previous point
        // extrapolated by one step (`x` holds the previous point).
        if step >= 2 {
            for (xi, (&p, &o)) in x.iter_mut().zip(x_prev.iter().zip(&x_older)) {
                *xi = 2.0 * p - o;
            }
        }
        let mut converged = false;
        for _ in 0..MAX_NEWTON {
            iterations += 1;
            jac.clear();
            residual.fill(0.0);
            plan.stamp_gmin(GMIN, &x, &mut jac, &mut residual);
            stamp_companions(&caps, spec.dt, &x, &x_prev, &mut jac, &mut residual);
            plan.stamp_elements(sources.values(), 1.0, &x, &mut jac, &mut residual);
            for (d, r) in delta.iter_mut().zip(&residual) {
                *d = -r;
            }
            match lu.factor(&mut jac) {
                Ok(factors) => factors.solve_in_place(&mut delta),
                Err(_) => return Err(SolveTranError::StepNotConverged { time: t }),
            }
            let max_delta = delta.iter().fold(0.0f64, |m, d| m.max(d.abs()));
            let damp = if max_delta > MAX_STEP_V {
                MAX_STEP_V / max_delta
            } else {
                1.0
            };
            for (xi, di) in x.iter_mut().zip(&delta) {
                *xi += damp * di;
            }
            if damp == 1.0 && max_delta < VTOL {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(SolveTranError::StepNotConverged { time: t });
        }
        if observe(t, &x).is_break() {
            return Ok((step as u64 + 1, iterations, lu.take_counts()));
        }
        std::mem::swap(&mut x_older, &mut x_prev);
        x_prev.clone_from(&x);
    }
    Ok((steps as u64 + 1, iterations, lu.take_counts()))
}

/// The source values of a compiled circuit at one instant: each
/// stimulus override evaluated at `t`, every other source at its DC
/// value. The overridden sources are found once, and each override is
/// evaluated once per timestep rather than once per Newton iteration.
struct SourceTable<'s> {
    stimuli: &'s Stimuli,
    vsources: Vec<f64>,
    isources: Vec<f64>,
    overridden: Vec<(SourceRef, String)>,
}

impl<'s> SourceTable<'s> {
    fn new(plan: &StampPlan, stimuli: &'s Stimuli) -> Self {
        let index = plan.index();
        let (isource_names, isources) = plan.isources();
        let overridden = (0..index.vsource_count())
            .map(|k| (SourceRef::V(k), index.vsource_name(k)))
            .chain(
                isource_names
                    .iter()
                    .enumerate()
                    .map(|(k, name)| (SourceRef::I(k), name.as_str())),
            )
            .filter(|(_, name)| stimuli.value_at(name, 0.0).is_some())
            .map(|(source, name)| (source, name.to_owned()))
            .collect();
        Self {
            stimuli,
            vsources: plan.vsource_values().to_vec(),
            isources: isources.to_vec(),
            overridden,
        }
    }

    /// Re-evaluates every override at time `t`.
    fn at(&mut self, t: f64) {
        for (source, name) in &self.overridden {
            let Some(value) = self.stimuli.value_at(name, t) else {
                continue;
            };
            match *source {
                SourceRef::V(k) => self.vsources[k] = value,
                SourceRef::I(k) => self.isources[k] = value,
            }
        }
    }

    /// Sets the overridden sources of `engine` to their current values.
    fn apply(&self, engine: &mut Engine<'_>) {
        for (source, _) in &self.overridden {
            let value = match *source {
                SourceRef::V(k) => self.vsources[k],
                SourceRef::I(k) => self.isources[k],
            };
            engine.set_source(*source, value);
        }
    }

    /// Voltage- and current-source values, indexed like the plan's
    /// tables.
    fn values(&self) -> (&[f64], &[f64]) {
        (&self.vsources, &self.isources)
    }
}

/// A capacitance between two unknowns (`None` is ground), farads.
type Cap = (Option<usize>, Option<usize>, f64);

/// Gathers explicit capacitors and the device capacitances at the
/// initial point `x`.
fn collect_capacitances(circuit: &Circuit, plan: &StampPlan, x: &[f64]) -> Vec<Cap> {
    let index = plan.index();
    let mut caps = Vec::new();
    for element in circuit.elements() {
        if let Element::Capacitor(c) = element {
            caps.push((index.node_var(c.a), index.node_var(c.b), c.farads));
        }
    }
    for m in plan.mosfets() {
        let c = m.device.capacitances(&m.operating_point(x));
        for (a, b, farads) in [
            (m.gate, m.source, c.cgs().farads()),
            (m.gate, m.drain, c.cgd().farads()),
            (m.gate, m.bulk, c.cgb().farads()),
            (m.drain, m.bulk, c.cdb().farads()),
            (m.source, m.bulk, c.csb().farads()),
        ] {
            if farads > 0.0 {
                caps.push((a, b, farads));
            }
        }
    }
    caps
}

/// Stamps the backward-Euler capacitor companions: a conductance `C/h`
/// with the history current `C/h·(v − v_prev)`.
fn stamp_companions(
    caps: &[Cap],
    dt: f64,
    x: &[f64],
    x_prev: &[f64],
    jac: &mut Matrix<f64>,
    residual: &mut [f64],
) {
    for &(a, b, farads) in caps {
        let g = farads / dt;
        let v_now = volt(x, a) - volt(x, b);
        let v_old = volt(x_prev, a) - volt(x_prev, b);
        let i_cap = g * (v_now - v_old);
        if let Some(i) = a {
            residual[i] += i_cap;
            jac.stamp(i, i, g);
            if let Some(j) = b {
                jac.stamp(i, j, -g);
            }
        }
        if let Some(i) = b {
            residual[i] -= i_cap;
            jac.stamp(i, i, g);
            if let Some(j) = a {
                jac.stamp(i, j, -g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_netlist::SourceValue;
    use oasys_process::builtin;
    use oasys_telemetry::Telemetry;

    #[test]
    fn rc_charging_curve() {
        // R = 1 kΩ, C = 1 nF: τ = 1 µs. Step 0 → 1 V.
        let mut c = Circuit::new("rc");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("VIN", inp, c.ground(), SourceValue::dc(0.0))
            .unwrap();
        c.add_resistor("R", inp, out, 1e3).unwrap();
        c.add_capacitor("C", out, c.ground(), 1e-9).unwrap();

        let mut stimuli = Stimuli::new();
        stimuli.step("VIN", 0.0, 1.0, 1e-9);
        let spec = TranSpec::new(5e-6, 5e-9).unwrap();
        let process = builtin::cmos_5um();
        let sol = solve(&c, &process, &spec, &stimuli).unwrap();

        let w = sol.waveform(out);
        // Starts discharged, ends charged.
        assert!(w[0].abs() < 1e-6);
        assert!((w.last().unwrap() - 1.0).abs() < 1e-2);
        // Value at t ≈ τ is 1 − 1/e (backward Euler is first-order, allow
        // a few percent).
        let k_tau = sol.times().iter().position(|&t| t >= 1e-6).unwrap();
        assert!(
            (w[k_tau] - 0.632).abs() < 0.03,
            "v(τ) = {} expected ≈ 0.632",
            w[k_tau]
        );
    }

    #[test]
    fn slope_measurements() {
        // Current source into a capacitor: perfect ramp at I/C = 1 V/µs.
        let mut c = Circuit::new("ramp");
        let out = c.node("out");
        c.add_isource("ISTEP", c.ground(), out, SourceValue::dc(0.0))
            .unwrap();
        c.add_capacitor("C", out, c.ground(), 1e-12).unwrap();
        // Bleeder to keep the DC point defined.
        c.add_resistor("RB", out, c.ground(), 1e9).unwrap();

        let mut stimuli = Stimuli::new();
        stimuli.step("ISTEP", 0.0, 1e-6, 1e-9); // 1 µA into 1 pF
        let spec = TranSpec::new(5e-6, 1e-8).unwrap();
        let sol = solve(&c, &builtin::cmos_5um(), &spec, &stimuli).unwrap();
        let slope = sol.max_slope(out);
        assert!(
            (slope / 1e6 - 1.0).abs() < 0.05,
            "ramp slope {slope:.3e} ≈ 1 V/µs"
        );
        // And the 10–90 measurement over the 0 → 4.x V ramp portion.
        let final_v = *sol.waveform(out).last().unwrap();
        assert!(final_v > 3.0);
        let sr = sol.slew_10_90(out, 0.0, 4.0).unwrap();
        assert!((sr / 1e6 - 1.0).abs() < 0.1, "10-90 slew {sr:.3e}");
    }

    #[test]
    fn mosfet_inverter_switches() {
        use oasys_mos::Geometry;
        use oasys_process::Polarity;
        let mut c = Circuit::new("inv");
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("VDD", vdd, c.ground(), SourceValue::dc(5.0))
            .unwrap();
        c.add_vsource("VIN", inp, c.ground(), SourceValue::dc(0.0))
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
        c.add_capacitor("CL", out, c.ground(), 1e-12).unwrap();

        let mut stimuli = Stimuli::new();
        stimuli.step("VIN", 0.0, 5.0, 1e-7);
        let spec = TranSpec::new(2e-6, 2e-9).unwrap();
        let sol = solve(&c, &builtin::cmos_5um(), &spec, &stimuli).unwrap();
        let w = sol.waveform(out);
        assert!(w[0] > 4.5, "output starts high: {}", w[0]);
        assert!(*w.last().unwrap() < 0.5, "output ends low");
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(TranSpec::new(-1.0, 1e-9).is_err());
        assert!(TranSpec::new(1.0, 0.0).is_err());
        assert!(TranSpec::new(1.0, 1e-9).is_err(), "too many steps");
    }

    /// An RC low-pass driven by a 0 → 1 V step at 1 ns: τ = 1 µs, 5 µs
    /// at 5 ns steps.
    fn rc_step() -> (Circuit, NodeId, TranSpec, Stimuli) {
        let mut c = Circuit::new("rc");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("VIN", inp, c.ground(), SourceValue::dc(0.0))
            .unwrap();
        c.add_resistor("R", inp, out, 1e3).unwrap();
        c.add_capacitor("C", out, c.ground(), 1e-9).unwrap();
        let mut stimuli = Stimuli::new();
        stimuli.step("VIN", 0.0, 1.0, 1e-9);
        (c, out, TranSpec::new(5e-6, 5e-9).unwrap(), stimuli)
    }

    /// Runs the stepping loop until `observe` has seen `k` points and
    /// returns them with the run's `sim.tran.steps` count.
    fn run_for(
        c: &Circuit,
        node: NodeId,
        spec: &TranSpec,
        stimuli: &Stimuli,
        k: usize,
    ) -> (Vec<(f64, f64)>, u64) {
        let tel = Telemetry::new();
        let mut seen = Vec::new();
        run(
            c,
            &builtin::cmos_5um(),
            spec,
            stimuli,
            None,
            &tel,
            |t, x| {
                seen.push((t, x[node.index() - 1]));
                if seen.len() == k {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        )
        .unwrap();
        (seen, tel.counter("sim.tran.steps"))
    }

    #[test]
    fn observed_points_are_a_bit_identical_prefix_of_the_full_run() {
        let (c, out, spec, stimuli) = rc_step();
        let full = solve(&c, &builtin::cmos_5um(), &spec, &stimuli).unwrap();
        let bits: Vec<(u64, u64)> = full
            .times()
            .iter()
            .zip(full.waveform(out))
            .map(|(t, v)| (t.to_bits(), v.to_bits()))
            .collect();
        for k in [1, 2, 37, 400] {
            let (seen, _) = run_for(&c, out, &spec, &stimuli, k);
            let seen: Vec<(u64, u64)> = seen
                .iter()
                .map(|(t, v)| (t.to_bits(), v.to_bits()))
                .collect();
            assert_eq!(seen, bits[..k], "first {k} points");
        }
    }

    #[test]
    fn stopping_at_step_k_counts_k_steps() {
        let (c, out, spec, stimuli) = rc_step();
        // A full run counts every point, the initial one included.
        let tel = Telemetry::new();
        let full = solve_with(&c, &builtin::cmos_5um(), &spec, &stimuli, &tel).unwrap();
        assert_eq!(tel.counter("sim.tran.steps"), full.len() as u64);
        assert_eq!(tel.counter("sim.tran.runs"), 1);
        for k in [1, 2, 37, full.len()] {
            let (seen, steps) = run_for(&c, out, &spec, &stimuli, k);
            assert_eq!(seen.len(), k);
            assert_eq!(steps, k as u64, "stopped at point {k}");
        }
    }

    #[test]
    fn slew_window_stops_at_its_upper_crossing() {
        let (c, out, spec, stimuli) = rc_step();
        let window = SlewWindow {
            node: out,
            v_from: 0.0,
            v_to: 1.0,
            frac_a: 0.15,
            frac_b: 0.65,
        };
        let tel = Telemetry::new();
        let process = builtin::cmos_5um();
        let stopped =
            slew_between_with(&c, &process, &spec, &stimuli, &window, None, &tel).unwrap();
        let full = solve(&c, &process, &spec, &stimuli).unwrap();
        assert_eq!(stopped, full.slew_between(out, 0.0, 1.0, 0.15, 0.65));
        assert!(stopped.is_some());
        // v crosses 0.65 V near t = τ·ln(1/0.35) ≈ 1.05 µs, point ≈ 211.
        let crossing = full.waveform(out).iter().position(|&v| v >= 0.65).unwrap();
        assert_eq!(tel.counter("sim.tran.steps"), crossing as u64 + 1);
    }

    #[test]
    fn initial_point_past_the_upper_threshold_returns_none_without_stepping() {
        let (c, out, spec, stimuli) = rc_step();
        // Falling from 2 V to 0.5 V: the upper threshold is 1.025 V and
        // the output starts at 0 V, past both thresholds.
        let window = SlewWindow {
            node: out,
            v_from: 2.0,
            v_to: 0.5,
            frac_a: 0.15,
            frac_b: 0.65,
        };
        let tel = Telemetry::new();
        let slew = slew_between_with(
            &c,
            &builtin::cmos_5um(),
            &spec,
            &stimuli,
            &window,
            None,
            &tel,
        )
        .unwrap();
        assert_eq!(slew, None);
        assert_eq!(tel.counter("sim.tran.steps"), 1, "only the initial point");
    }

    #[test]
    fn a_waveform_that_never_crosses_runs_the_whole_spec() {
        let (c, out, spec, stimuli) = rc_step();
        // The output settles at 1 V and never reaches 0.65 · 2 V.
        let window = SlewWindow {
            node: out,
            v_from: 0.0,
            v_to: 2.0,
            frac_a: 0.15,
            frac_b: 0.65,
        };
        let tel = Telemetry::new();
        let process = builtin::cmos_5um();
        let slew = slew_between_with(&c, &process, &spec, &stimuli, &window, None, &tel).unwrap();
        assert_eq!(slew, None);
        let full = solve(&c, &process, &spec, &stimuli).unwrap();
        assert_eq!(tel.counter("sim.tran.steps"), full.len() as u64);
    }

    /// The slew rule as two whole-waveform scans: the first point past
    /// each threshold, then the slope between them.
    fn two_scan_slew(times: &[f64], w: &[f64], window: &SlewWindow) -> Option<f64> {
        let (v_from, v_to) = (window.v_from, window.v_to);
        let v10 = v_from + window.frac_a * (v_to - v_from);
        let v90 = v_from + window.frac_b * (v_to - v_from);
        let rising = v_to > v_from;
        let crossed = |v: f64, threshold: f64| {
            if rising {
                v >= threshold
            } else {
                v <= threshold
            }
        };
        let first = |threshold: f64| {
            times
                .iter()
                .zip(w)
                .find(|&(_, &v)| crossed(v, threshold))
                .map(|(&t, _)| t)
        };
        let (t10, t90) = (first(v10)?, first(v90)?);
        if t90 <= t10 {
            return None;
        }
        Some((v90 - v10).abs() / (t90 - t10))
    }

    #[test]
    fn streaming_slew_matches_the_two_scan_rule() {
        let mut rng = oasys_testutil::Rng::seeded(14);
        let mut measured = 0;
        for case in 0..2000 {
            let n = rng.range_u64(1, 40) as usize;
            // Non-decreasing times with repeats, so equal crossing times
            // occur; noisy waveforms that overshoot and ring.
            let mut t = 0.0;
            let times: Vec<f64> = (0..n)
                .map(|_| {
                    t += [0.0, 1e-9, 2.5e-9][rng.range_u64(0, 3) as usize];
                    t
                })
                .collect();
            let w: Vec<f64> = (0..n).map(|_| rng.range_f64(-3.0, 3.0)).collect();
            let frac_a = rng.range_f64(0.01, 0.5);
            let window = SlewWindow {
                node: NodeId::GROUND,
                v_from: rng.range_f64(-2.0, 2.0),
                v_to: rng.range_f64(-2.0, 2.0),
                frac_a,
                frac_b: rng.range_f64(frac_a + 0.01, 0.99),
            };
            let mut crossings = Crossings::new(&window);
            for (&t, &v) in times.iter().zip(&w) {
                if crossings.observe(t, v).is_break() {
                    break;
                }
            }
            let oracle = two_scan_slew(&times, &w, &window);
            assert_eq!(
                crossings.slew().map(f64::to_bits),
                oracle.map(f64::to_bits),
                "case {case}"
            );
            measured += usize::from(oracle.is_some());
        }
        assert!(measured > 200, "only {measured} cases measured a slope");
    }

    #[test]
    fn constant_circuit_stays_at_dc() {
        let mut c = Circuit::new("hold");
        let a = c.node("a");
        c.add_vsource("V", a, c.ground(), SourceValue::dc(2.0))
            .unwrap();
        c.add_resistor("R", a, c.ground(), 1e3).unwrap();
        let spec = TranSpec::new(1e-6, 1e-8).unwrap();
        let sol = solve(&c, &builtin::cmos_5um(), &spec, &Stimuli::new()).unwrap();
        for v in sol.waveform(a) {
            assert!((v - 2.0).abs() < 1e-9);
        }
    }
}
