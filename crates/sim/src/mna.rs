//! Modified-nodal-analysis bookkeeping shared by the DC and AC engines.
//!
//! The unknown vector is `[v_1 … v_{N-1}, i_V1 … i_VM]`: every non-ground
//! node voltage followed by one branch current per independent voltage
//! source. [`MnaIndex`] maps circuit entities to vector positions;
//! [`mos_stamp`] evaluates a MOSFET and its exact partial derivatives with
//! respect to the four terminal voltages (handling polarity and mode
//! reversal), which is what both the Newton Jacobian and the AC admittance
//! matrix stamp. `StampPlan` is a circuit compiled for repeated Newton
//! assembly, which the DC and transient engines build once per analysis.

use crate::linalg::Matrix;
use oasys_mos::{Mosfet, OperatingPoint};
use oasys_netlist::{Circuit, Element, NodeId};
use oasys_process::Process;
use std::sync::Arc;

/// Maps nodes and voltage-source branches to unknown-vector indices.
///
/// # Examples
///
/// ```
/// use oasys_netlist::{Circuit, SourceValue};
/// use oasys_sim::mna::MnaIndex;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut c = Circuit::new("t");
/// let a = c.node("a");
/// c.add_vsource("V1", a, c.ground(), SourceValue::dc(1.0))?;
/// let index = MnaIndex::new(&c);
/// assert_eq!(index.dim(), 2); // one node voltage + one branch current
/// assert_eq!(index.node_var(a), Some(0));
/// assert_eq!(index.node_var(c.ground()), None);
/// assert_eq!(index.branch_var(0), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct MnaIndex {
    node_count: usize,
    vsource_names: Vec<String>,
}

impl MnaIndex {
    /// Builds the index for a circuit.
    #[must_use]
    pub fn new(circuit: &Circuit) -> Self {
        let vsource_names = circuit.vsources().map(|v| v.name.clone()).collect();
        Self {
            node_count: circuit.node_count(),
            vsource_names,
        }
    }

    /// Total number of unknowns.
    #[must_use]
    pub fn dim(&self) -> usize {
        (self.node_count - 1) + self.vsource_names.len()
    }

    /// Unknown index of a node voltage, or `None` for ground.
    #[must_use]
    pub fn node_var(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Unknown index of the `k`-th voltage source's branch current
    /// (in circuit insertion order).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn branch_var(&self, k: usize) -> usize {
        assert!(k < self.vsource_names.len(), "no voltage source #{k}");
        (self.node_count - 1) + k
    }

    /// Number of voltage sources (branch unknowns).
    #[must_use]
    pub fn vsource_count(&self) -> usize {
        self.vsource_names.len()
    }

    /// Name of the `k`-th voltage source.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn vsource_name(&self, k: usize) -> &str {
        &self.vsource_names[k]
    }

    /// Index of a voltage source's branch unknown by name.
    #[must_use]
    pub fn branch_var_by_name(&self, name: &str) -> Option<usize> {
        self.vsource_names
            .iter()
            .position(|n| n == name)
            .map(|k| self.branch_var(k))
    }
}

/// A MOSFET evaluated at actual terminal voltages: drain current plus its
/// exact partial derivatives with respect to each terminal voltage.
///
/// Sign conventions: `id` is the current flowing *into* the drain
/// terminal. The four derivatives sum to zero (shifting all terminals
/// together changes nothing).
#[derive(Clone, Copy, Debug)]
pub struct MosStamp {
    /// Drain terminal current, amperes.
    pub id: f64,
    /// `∂I_D/∂V_d`.
    pub d_dvd: f64,
    /// `∂I_D/∂V_g`.
    pub d_dvg: f64,
    /// `∂I_D/∂V_s`.
    pub d_dvs: f64,
    /// `∂I_D/∂V_b`.
    pub d_dvb: f64,
    /// The underlying bias point (for capacitances and reporting).
    pub op: OperatingPoint,
}

/// Evaluates `mosfet` at absolute terminal potentials and returns the
/// current and Jacobian entries.
#[must_use]
pub fn mos_stamp(mosfet: &Mosfet, vd: f64, vg: f64, vs: f64, vb: f64) -> MosStamp {
    let op = mosfet.operating_point(vg - vs, vd - vs, vs - vb);
    let (gm, gds, gmb) = (op.gm(), op.gds(), op.gmb());
    let (d_dvd, d_dvg, d_dvs, d_dvb) = if op.is_reversed() {
        // Drain and source have exchanged roles; see the derivation in the
        // DC engine docs: derivatives transform as below.
        (gm + gds + gmb, -gm, -gds, -gmb)
    } else {
        (gds, gm, -(gm + gds + gmb), gmb)
    };
    MosStamp {
        id: op.id(),
        d_dvd,
        d_dvg,
        d_dvs,
        d_dvb,
        op,
    }
}

/// Convenience: iterate MOSFET instances of a circuit paired with their
/// bound device models.
pub fn bound_mosfets<'c>(
    circuit: &'c Circuit,
    process: &'c Process,
) -> impl Iterator<Item = (&'c oasys_netlist::MosInstance, Mosfet)> + 'c {
    circuit.elements().iter().filter_map(move |e| match e {
        Element::Mos(m) => Some((m, crate::mismatch::bind(m, process))),
        _ => None,
    })
}

/// A MOSFET bound once at compile time, with its terminals resolved to
/// unknown indices (`None` is ground).
#[derive(Clone, Copy, Debug)]
pub(crate) struct BoundMos {
    pub(crate) drain: Option<usize>,
    pub(crate) gate: Option<usize>,
    pub(crate) source: Option<usize>,
    pub(crate) bulk: Option<usize>,
    pub(crate) device: Mosfet,
}

impl BoundMos {
    /// The device's bias point at the unknown vector `x`.
    pub(crate) fn operating_point(&self, x: &[f64]) -> OperatingPoint {
        let (vd, vg, vs, vb) = (
            volt(x, self.drain),
            volt(x, self.gate),
            volt(x, self.source),
            volt(x, self.bulk),
        );
        self.device.operating_point(vg - vs, vd - vs, vs - vb)
    }
}

/// One element's Newton stamp, terminals resolved. Capacitors are open
/// at DC; the transient engine stamps them as companions itself.
#[derive(Clone, Copy, Debug)]
enum Stamp {
    Resistor {
        a: Option<usize>,
        b: Option<usize>,
        g: f64,
    },
    /// Current source; `k` indexes the current-source value table.
    Isource {
        pos: Option<usize>,
        neg: Option<usize>,
        k: usize,
    },
    /// Voltage source; `k` indexes the voltage-source value table and
    /// its branch unknown.
    Vsource {
        pos: Option<usize>,
        neg: Option<usize>,
        k: usize,
    },
    /// MOSFET; indexes [`StampPlan::mosfets`].
    Mos(usize),
}

/// Names of a compiled circuit's voltage sources and MOSFETs, in circuit
/// order, shared by every solution packaged from the plan.
#[derive(Debug)]
pub(crate) struct DeviceNames {
    pub(crate) vsources: Vec<String>,
    pub(crate) mosfets: Vec<String>,
}

/// An independent source of a compiled circuit, resolved by name once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SourceRef {
    /// The `k`-th voltage source.
    V(usize),
    /// The `k`-th current source.
    I(usize),
}

/// A circuit compiled for repeated Newton assembly: every element's
/// stamp with its terminals resolved to unknown indices, in circuit
/// order (so each matrix entry accumulates in the same order as a
/// stamp-by-stamp walk of the netlist), every MOSFET bound once, and the
/// independent sources' DC values in tables a sweep can rewrite between
/// solves.
///
/// Binding happens at compile time, so a plan compiled inside a
/// [`crate::mismatch::scoped`] region carries that Monte-Carlo sample's
/// draws for its whole life.
#[derive(Clone, Debug)]
pub(crate) struct StampPlan {
    index: MnaIndex,
    stamps: Vec<Stamp>,
    mosfets: Vec<BoundMos>,
    vsource_values: Vec<f64>,
    isource_names: Vec<String>,
    isource_values: Vec<f64>,
    names: Arc<DeviceNames>,
}

impl StampPlan {
    /// Compiles `circuit`, binding its MOSFETs against `process` under
    /// the ambient Monte-Carlo sample.
    pub(crate) fn compile(circuit: &Circuit, process: &Process) -> Self {
        let index = MnaIndex::new(circuit);
        let var = |node: NodeId| index.node_var(node);
        let mut stamps = Vec::with_capacity(circuit.elements().len());
        let mut mosfets = Vec::new();
        let mut mos_names = Vec::new();
        let mut vsource_values = Vec::new();
        let mut isource_names = Vec::new();
        let mut isource_values = Vec::new();
        for element in circuit.elements() {
            match element {
                Element::Resistor(r) => stamps.push(Stamp::Resistor {
                    a: var(r.a),
                    b: var(r.b),
                    g: 1.0 / r.ohms,
                }),
                Element::Capacitor(_) => {}
                Element::Isource(src) => {
                    stamps.push(Stamp::Isource {
                        pos: var(src.pos),
                        neg: var(src.neg),
                        k: isource_values.len(),
                    });
                    isource_names.push(src.name.clone());
                    isource_values.push(src.value.dc_value());
                }
                Element::Vsource(src) => {
                    stamps.push(Stamp::Vsource {
                        pos: var(src.pos),
                        neg: var(src.neg),
                        k: vsource_values.len(),
                    });
                    vsource_values.push(src.value.dc_value());
                }
                Element::Mos(m) => {
                    stamps.push(Stamp::Mos(mosfets.len()));
                    mosfets.push(BoundMos {
                        drain: var(m.drain),
                        gate: var(m.gate),
                        source: var(m.source),
                        bulk: var(m.bulk),
                        device: crate::mismatch::bind(m, process),
                    });
                    mos_names.push(m.name.clone());
                }
            }
        }
        let vsources = (0..index.vsource_count())
            .map(|k| index.vsource_name(k).to_owned())
            .collect();
        Self {
            names: Arc::new(DeviceNames {
                vsources,
                mosfets: mos_names,
            }),
            index,
            stamps,
            mosfets,
            vsource_values,
            isource_names,
            isource_values,
        }
    }

    /// The unknown-vector layout.
    pub(crate) fn index(&self) -> &MnaIndex {
        &self.index
    }

    /// The bound MOSFETs, in circuit order.
    pub(crate) fn mosfets(&self) -> &[BoundMos] {
        &self.mosfets
    }

    /// Device names, shared with packaged solutions.
    pub(crate) fn names(&self) -> &Arc<DeviceNames> {
        &self.names
    }

    /// The independent source named `name`, if the circuit has one.
    pub(crate) fn source(&self, name: &str) -> Option<SourceRef> {
        if let Some(k) = self.names.vsources.iter().position(|n| n == name) {
            return Some(SourceRef::V(k));
        }
        self.isource_names
            .iter()
            .position(|n| n == name)
            .map(SourceRef::I)
    }

    /// Sets a source's DC value.
    pub(crate) fn set_source(&mut self, source: SourceRef, value: f64) {
        match source {
            SourceRef::V(k) => self.vsource_values[k] = value,
            SourceRef::I(k) => self.isource_values[k] = value,
        }
    }

    /// Voltage-source DC values, in circuit order.
    pub(crate) fn vsource_values(&self) -> &[f64] {
        &self.vsource_values
    }

    /// Current-source names and DC values, in circuit order.
    pub(crate) fn isources(&self) -> (&[String], &[f64]) {
        (&self.isource_names, &self.isource_values)
    }

    /// Stamps `gmin` from every node to ground.
    pub(crate) fn stamp_gmin(
        &self,
        gmin: f64,
        x: &[f64],
        jac: &mut Matrix<f64>,
        residual: &mut [f64],
    ) {
        for node_idx in 0..self.index.node_count - 1 {
            jac.stamp(node_idx, node_idx, gmin);
            residual[node_idx] += gmin * x[node_idx];
        }
    }

    /// Stamps every element's Jacobian entries and residual at `x`, in
    /// circuit order. Sources take their values from `vsources` and
    /// `isources` (indexed like the plan's tables) times `scale`.
    pub(crate) fn stamp_elements(
        &self,
        sources: (&[f64], &[f64]),
        scale: f64,
        x: &[f64],
        jac: &mut Matrix<f64>,
        residual: &mut [f64],
    ) {
        let (vsources, isources) = sources;
        for stamp in &self.stamps {
            match *stamp {
                Stamp::Resistor { a, b, g } => {
                    let (va, vb) = (volt(x, a), volt(x, b));
                    if let Some(i) = a {
                        residual[i] += g * (va - vb);
                        jac.stamp(i, i, g);
                        if let Some(j) = b {
                            jac.stamp(i, j, -g);
                        }
                    }
                    if let Some(i) = b {
                        residual[i] += g * (vb - va);
                        jac.stamp(i, i, g);
                        if let Some(j) = a {
                            jac.stamp(i, j, -g);
                        }
                    }
                }
                Stamp::Isource { pos, neg, k } => {
                    let i0 = isources[k] * scale;
                    if let Some(i) = pos {
                        residual[i] += i0;
                    }
                    if let Some(i) = neg {
                        residual[i] -= i0;
                    }
                }
                Stamp::Vsource { pos, neg, k } => {
                    let branch = self.index.branch_var(k);
                    let i_branch = x[branch];
                    if let Some(i) = pos {
                        residual[i] += i_branch;
                        jac.stamp(i, branch, 1.0);
                    }
                    if let Some(i) = neg {
                        residual[i] -= i_branch;
                        jac.stamp(i, branch, -1.0);
                    }
                    // Branch equation: v_pos − v_neg − V = 0.
                    residual[branch] = volt(x, pos) - volt(x, neg) - vsources[k] * scale;
                    if let Some(i) = pos {
                        jac.stamp(branch, i, 1.0);
                    }
                    if let Some(i) = neg {
                        jac.stamp(branch, i, -1.0);
                    }
                }
                Stamp::Mos(m) => {
                    let m = &self.mosfets[m];
                    let stamp = mos_stamp(
                        &m.device,
                        volt(x, m.drain),
                        volt(x, m.gate),
                        volt(x, m.source),
                        volt(x, m.bulk),
                    );
                    let terminals = [
                        (m.drain, stamp.d_dvd),
                        (m.gate, stamp.d_dvg),
                        (m.source, stamp.d_dvs),
                        (m.bulk, stamp.d_dvb),
                    ];
                    if let Some(i) = m.drain {
                        residual[i] += stamp.id;
                        for (node, deriv) in terminals {
                            if let Some(j) = node {
                                jac.stamp(i, j, deriv);
                            }
                        }
                    }
                    if let Some(i) = m.source {
                        residual[i] -= stamp.id;
                        for (node, deriv) in terminals {
                            if let Some(j) = node {
                                jac.stamp(i, j, -deriv);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The voltage of an unknown-index terminal (`None` is ground).
pub(crate) fn volt(x: &[f64], var: Option<usize>) -> f64 {
    var.map_or(0.0, |i| x[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_mos::Geometry;
    use oasys_process::{builtin, Polarity};

    fn nmos() -> Mosfet {
        Mosfet::new(
            Polarity::Nmos,
            Geometry::new_um(50.0, 5.0).unwrap(),
            &builtin::cmos_5um(),
        )
    }

    fn pmos() -> Mosfet {
        Mosfet::new(
            Polarity::Pmos,
            Geometry::new_um(50.0, 5.0).unwrap(),
            &builtin::cmos_5um(),
        )
    }

    fn check_derivatives(m: &Mosfet, vd: f64, vg: f64, vs: f64, vb: f64) {
        let s = mos_stamp(m, vd, vg, vs, vb);
        let h = 1e-7;
        let num = |fd: &dyn Fn(f64) -> f64| (fd(h) - fd(-h)) / (2.0 * h);
        let dd = num(&|e| mos_stamp(m, vd + e, vg, vs, vb).id);
        let dg = num(&|e| mos_stamp(m, vd, vg + e, vs, vb).id);
        let ds = num(&|e| mos_stamp(m, vd, vg, vs + e, vb).id);
        let db = num(&|e| mos_stamp(m, vd, vg, vs, vb + e).id);
        let tol = 1e-4
            * [dd, dg, ds, db]
                .iter()
                .map(|x| x.abs())
                .fold(1e-9, f64::max);
        assert!((s.d_dvd - dd).abs() < tol, "d/dvd {} vs {dd}", s.d_dvd);
        assert!((s.d_dvg - dg).abs() < tol, "d/dvg {} vs {dg}", s.d_dvg);
        assert!((s.d_dvs - ds).abs() < tol, "d/dvs {} vs {ds}", s.d_dvs);
        assert!((s.d_dvb - db).abs() < tol, "d/dvb {} vs {db}", s.d_dvb);
        // Derivatives sum to ~0 (translation invariance).
        assert!(
            (s.d_dvd + s.d_dvg + s.d_dvs + s.d_dvb).abs() < tol,
            "derivative sum not zero"
        );
    }

    #[test]
    fn nmos_saturation_derivatives() {
        check_derivatives(&nmos(), 4.0, 2.0, 0.0, 0.0);
    }

    #[test]
    fn nmos_triode_derivatives() {
        check_derivatives(&nmos(), 0.3, 2.5, 0.0, 0.0);
    }

    #[test]
    fn nmos_with_body_bias_derivatives() {
        check_derivatives(&nmos(), 4.0, 3.0, 1.0, 0.0);
    }

    #[test]
    fn nmos_reversed_derivatives() {
        // Drain below source.
        check_derivatives(&nmos(), 0.0, 2.5, 1.0, -1.0);
    }

    #[test]
    fn pmos_derivatives() {
        check_derivatives(&pmos(), 0.0, 2.0, 5.0, 5.0);
        check_derivatives(&pmos(), 4.5, 2.0, 5.0, 5.0); // triode
    }

    #[test]
    fn pmos_reversed_derivatives() {
        check_derivatives(&pmos(), 5.0, 2.0, 4.0, 5.0);
    }

    #[test]
    fn index_layout() {
        use oasys_netlist::SourceValue;
        let mut c = Circuit::new("t");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, c.ground(), SourceValue::dc(1.0))
            .unwrap();
        c.add_vsource("V2", b, c.ground(), SourceValue::dc(2.0))
            .unwrap();
        let idx = MnaIndex::new(&c);
        assert_eq!(idx.dim(), 4);
        assert_eq!(idx.node_var(a), Some(0));
        assert_eq!(idx.node_var(b), Some(1));
        assert_eq!(idx.branch_var(0), 2);
        assert_eq!(idx.branch_var(1), 3);
        assert_eq!(idx.vsource_name(1), "V2");
        assert_eq!(idx.branch_var_by_name("V2"), Some(3));
        assert_eq!(idx.branch_var_by_name("nope"), None);
    }
}
