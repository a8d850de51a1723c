//! An MNA-based analog circuit simulator: the reproduction's stand-in for
//! SPICE.
//!
//! The OASYS paper verifies every synthesized op amp by detailed circuit
//! simulation (Table 2's "actual" columns, Figure 6's Bode plot). This
//! crate provides that measurement capability over the same level-1 device
//! model the synthesis equations assume:
//!
//! * [`complex`] — complex arithmetic (no external dependency),
//! * [`linalg`] — LU factorization with partial pivoting, generic over
//!   real and complex scalars, replayed along each matrix's sparsity
//!   pattern and last pivot order,
//! * [`mna`] — modified nodal analysis stamps,
//! * [`dc`] — Newton–Raphson DC operating point with damping, `gmin`
//!   stepping and source stepping fallbacks, over a circuit compiled
//!   once per analysis,
//! * [`ac`] — small-signal frequency sweeps of an [`ac::AcSystem`], the
//!   circuit linearized at its DC point,
//! * [`sweep`] — DC transfer sweeps and bisections, each point
//!   warm-started from the points before it,
//! * [`tran`] — fixed-step backward-Euler transient analysis (slew-rate
//!   measurements),
//! * [`metrics`] — datasheet-style measurements: DC gain, unity-gain
//!   frequency, phase margin, −3 dB bandwidth, output swing, systematic
//!   offset, supply power,
//! * [`noise`] — small-signal noise analysis (channel thermal + Johnson
//!   noise, per-element breakdown, input-referred density).
//!
//! # Examples
//!
//! Measure a resistive divider:
//!
//! ```
//! use oasys_netlist::{Circuit, SourceValue};
//! use oasys_process::builtin;
//! use oasys_sim::dc;
//! use oasys_telemetry::Telemetry;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut c = Circuit::new("divider");
//! let top = c.node("top");
//! let mid = c.node("mid");
//! let gnd = c.ground();
//! c.add_vsource("V1", top, gnd, SourceValue::dc(10.0))?;
//! c.add_resistor("R1", top, mid, 1e3)?;
//! c.add_resistor("R2", mid, gnd, 1e3)?;
//!
//! let process = builtin::cmos_5um();
//! let sol = dc::solve(&c, &process, &Telemetry::disabled())?;
//! assert!((sol.voltage(mid) - 5.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ac;
pub mod complex;
pub mod dc;
pub mod linalg;
pub mod metrics;
pub mod mismatch;
pub mod mna;
pub mod noise;
pub mod sweep;
pub mod tran;

pub use ac::{AcSolution, AcSweepSpec};
pub use complex::Complex;
pub use dc::{DcSolution, SolveDcError};
pub use metrics::{AcMetrics, Bode};
