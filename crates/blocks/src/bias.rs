//! Bias-generator designer.
//!
//! Produces the reference branch every op amp needs: a resistor-defined
//! reference current plus diode-connected devices that turn it into gate
//! bias voltages for the mirrors and cascodes. In the paper's templates
//! this is the "bias" sub-block of Figure 4.

use crate::area::AreaEstimate;
use crate::common::{require_positive, snap_width_um, DesignError, DEFAULT_VOV};
use oasys_mos::{sizing, Geometry};
use oasys_netlist::{Circuit, NodeId, ValidateError};
use oasys_plan::{CacheKey, DesignContext};
use oasys_process::{Polarity, Process};
use oasys_telemetry::sym;

/// Specification for a bias generator.
///
/// # Examples
///
/// ```
/// use oasys_blocks::bias::BiasSpec;
/// use oasys_process::Polarity;
/// let spec = BiasSpec::new(Polarity::Nmos, 20e-6);
/// assert_eq!(spec.reference_current(), 20e-6);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BiasSpec {
    /// Polarity of the diode device the reference current flows through
    /// (an NMOS diode makes an NMOS-mirror gate bias).
    polarity: Polarity,
    /// Reference current, A.
    iref: f64,
    /// Diode overdrive, V.
    vov: f64,
}

impl BiasSpec {
    /// A reference of `iref` amperes with the default overdrive.
    #[must_use]
    pub fn new(polarity: Polarity, iref: f64) -> Self {
        Self {
            polarity,
            iref,
            vov: DEFAULT_VOV,
        }
    }

    /// Overrides the diode overdrive, V.
    #[must_use]
    pub fn with_vov(mut self, vov: f64) -> Self {
        self.vov = vov;
        self
    }

    /// The diode polarity.
    #[must_use]
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// The reference current, A.
    #[must_use]
    pub fn reference_current(&self) -> f64 {
        self.iref
    }
}

/// A designed bias generator: a rail-to-rail resistor string through a
/// diode-connected device.
#[derive(Clone, Debug, PartialEq)]
pub struct BiasGenerator {
    spec: BiasSpec,
    diode: Geometry,
    /// Reference resistor, Ω.
    resistor: f64,
    /// The diode's gate-source voltage magnitude, V.
    vgs: f64,
    area: AreaEstimate,
}

impl BiasGenerator {
    /// Designs the reference branch for the given supply span.
    ///
    /// The resistor absorbs whatever voltage the diode does not:
    /// `R = (V_span − V_GS) / I_ref`.
    ///
    /// # Errors
    ///
    /// [`DesignError::InvalidSpec`] for malformed inputs;
    /// [`DesignError::Infeasible`] if the supply span cannot accommodate
    /// the diode drop.
    pub fn design(spec: &BiasSpec, process: &Process) -> Result<Self, DesignError> {
        require_positive("bias", "iref", spec.iref)?;
        require_positive("bias", "vov", spec.vov)?;

        let mos = process.mos(spec.polarity);
        let vgs = mos.vth().volts() + spec.vov;
        let span = process.supply_span().volts();
        let r_drop = span - vgs;
        if r_drop < 0.5 {
            return Err(DesignError::infeasible(
                "bias",
                format!(
                    "supply span {span:.2} V leaves only {r_drop:.2} V across the \
                     reference resistor"
                ),
            ));
        }
        let resistor = r_drop / spec.iref;

        let wl = sizing::w_over_l_from_id_vov(spec.iref, spec.vov, mos.kprime());
        let l_um = process.min_length().micrometers();
        let w_um = snap_width_um(wl * l_um, process.min_width().micrometers());
        let diode = Geometry::new_um(w_um, l_um)
            .map_err(|e| DesignError::infeasible("bias", e.to_string()))?;

        // Resistor area is estimated at a nominal 50 Ω/square poly with a
        // minimum-width track: squares × (min width)².
        let w_min = process.min_width().micrometers();
        let squares = resistor / 50.0;
        let r_area = squares * w_min * w_min;
        let area = AreaEstimate::for_device(&diode, process) + AreaEstimate::from_um2(r_area, 0.0);

        Ok(Self {
            spec: *spec,
            diode,
            resistor,
            vgs,
            area,
        })
    }

    /// As [`BiasGenerator::design`], but recording through `ctx`: the
    /// invocation appears as a `block:bias` telemetry span, and a
    /// context-carried [`oasys_plan::MemoCache`] memoizes the result under
    /// the spec's bit-exact fingerprint.
    ///
    /// # Errors
    ///
    /// As for [`BiasGenerator::design`].
    pub fn design_with(
        spec: &BiasSpec,
        process: &Process,
        ctx: &DesignContext<'_>,
    ) -> Result<Self, DesignError> {
        let key = CacheKey::new("pol iref vov")
            .tag(spec.polarity as u64)
            .num(spec.iref)
            .num(spec.vov);
        ctx.design_child_sym(sym!("block:bias"), "bias", Some(key), || {
            Self::design(spec, process)
        })
    }

    /// The specification.
    #[must_use]
    pub fn spec(&self) -> &BiasSpec {
        &self.spec
    }

    /// The diode geometry.
    #[must_use]
    pub fn diode_geometry(&self) -> Geometry {
        self.diode
    }

    /// The reference resistor, Ω.
    #[must_use]
    pub fn resistor_ohms(&self) -> f64 {
        self.resistor
    }

    /// The bias voltage magnitude between the diode gate and its rail, V.
    #[must_use]
    pub fn vgs(&self) -> f64 {
        self.vgs
    }

    /// Estimated layout area.
    #[must_use]
    pub fn area(&self) -> AreaEstimate {
        self.area
    }

    /// Instantiates the branch from `top_rail` to `bottom_rail`. For an
    /// NMOS diode the resistor hangs from `top_rail` and the diode sits on
    /// `bottom_rail`; the produced gate-bias node is returned.
    ///
    /// # Errors
    ///
    /// Netlist name collisions.
    pub fn emit(
        &self,
        circuit: &mut Circuit,
        prefix: &str,
        top_rail: NodeId,
        bottom_rail: NodeId,
    ) -> Result<NodeId, ValidateError> {
        let bias_node = circuit.node(format!("{prefix}_vbias"));
        match self.spec.polarity {
            Polarity::Nmos => {
                circuit.add_resistor(
                    format!("{prefix}RREF"),
                    top_rail,
                    bias_node,
                    self.resistor,
                )?;
                circuit.add_mosfet(
                    format!("{prefix}MDIO"),
                    Polarity::Nmos,
                    self.diode,
                    bias_node,
                    bias_node,
                    bottom_rail,
                    bottom_rail,
                )?;
            }
            Polarity::Pmos => {
                circuit.add_resistor(
                    format!("{prefix}RREF"),
                    bias_node,
                    bottom_rail,
                    self.resistor,
                )?;
                circuit.add_mosfet(
                    format!("{prefix}MDIO"),
                    Polarity::Pmos,
                    self.diode,
                    bias_node,
                    bias_node,
                    top_rail,
                    top_rail,
                )?;
            }
        }
        Ok(bias_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_netlist::SourceValue;
    use oasys_process::builtin;
    use oasys_sim::dc;

    fn process() -> Process {
        builtin::cmos_5um()
    }

    #[test]
    fn designs_reference_branch() {
        let spec = BiasSpec::new(Polarity::Nmos, 20e-6);
        let b = BiasGenerator::design(&spec, &process()).unwrap();
        // 10 V span − 1.25 V diode = 8.75 V over R at 20 µA → 437.5 kΩ.
        assert!((b.resistor_ohms() - 437.5e3).abs() < 1e3);
        assert!((b.vgs() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn simulated_reference_current_close_to_spec() {
        let p = process();
        let spec = BiasSpec::new(Polarity::Nmos, 20e-6);
        let b = BiasGenerator::design(&spec, &p).unwrap();

        let mut c = Circuit::new("bias test");
        let vdd = c.node("vdd");
        let vss = c.node("vss");
        let gnd = c.ground();
        c.add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
            .unwrap();
        c.add_vsource("VSS", vss, gnd, SourceValue::dc(-5.0))
            .unwrap();
        let bias_node = b.emit(&mut c, "B_", vdd, vss).unwrap();

        let sol = dc::solve(&c, &p).unwrap();
        let v_bias = sol.voltage(bias_node);
        // Diode sits ~1.25 V above VSS.
        assert!((v_bias - (-5.0 + 1.25)).abs() < 0.15, "v_bias = {v_bias}");
        let op = sol.device_op("B_MDIO").unwrap();
        assert!((op.id() - 20e-6).abs() / 20e-6 < 0.1);
    }

    #[test]
    fn pmos_diode_hangs_from_top_rail() {
        let p = process();
        let spec = BiasSpec::new(Polarity::Pmos, 20e-6);
        let b = BiasGenerator::design(&spec, &p).unwrap();
        let mut c = Circuit::new("bias p");
        let vdd = c.node("vdd");
        let vss = c.node("vss");
        let gnd = c.ground();
        c.add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
            .unwrap();
        c.add_vsource("VSS", vss, gnd, SourceValue::dc(-5.0))
            .unwrap();
        let bias_node = b.emit(&mut c, "B_", vdd, vss).unwrap();
        let sol = dc::solve(&c, &p).unwrap();
        // PMOS diode: bias node ~1.25 V below VDD.
        assert!((sol.voltage(bias_node) - (5.0 - 1.25)).abs() < 0.2);
    }

    #[test]
    fn tiny_supply_is_infeasible() {
        // 1.2 µm process has ±2.5 V rails: still fine. Force failure with
        // a large overdrive on the diode.
        let spec = BiasSpec::new(Polarity::Nmos, 20e-6).with_vov(8.8);
        let err = BiasGenerator::design(&spec, &process()).unwrap_err();
        assert!(err.is_infeasible());
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(BiasGenerator::design(&BiasSpec::new(Polarity::Nmos, 0.0), &process()).is_err());
        assert!(BiasGenerator::design(
            &BiasSpec::new(Polarity::Nmos, 1e-6).with_vov(-0.1),
            &process()
        )
        .is_err());
    }
}
