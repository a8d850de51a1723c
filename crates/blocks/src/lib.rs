//! Reusable analog sub-block designers.
//!
//! OASYS represents op-amp topologies as interconnections of sub-blocks —
//! *"differential pairs, current mirrors, level shifters, and
//! transconductance amplifiers"* — each of which has its own independent
//! templates and design plans and is *"fully reusable as parts of other
//! higher-level designs."* This crate implements those designers. Each
//! block follows the paper's two-step structure:
//!
//! 1. **Style selection** among fixed topology alternatives (e.g. a simple
//!    vs. a cascode current mirror), evaluated from circuit equations and
//!    chosen primarily by estimated area;
//! 2. **Translation** of the block's electrical specification into device
//!    geometries via the inverse square-law equations
//!    ([`oasys_mos::sizing`]), using the paper's documented heuristics
//!    (e.g. the four-transistor cascode fixes two lengths at minimum and
//!    makes all widths equal).
//!
//! Every designer returns a result type that carries the chosen style, the
//! sized devices, predicted small-signal behaviour, and an [`AreaEstimate`];
//! each has an `emit` method that instantiates the block into an
//! [`oasys_netlist::Circuit`] against caller-supplied nodes.
//!
//! # Examples
//!
//! Design a 20 µA NMOS current mirror that must present at least 50 MΩ:
//!
//! ```
//! use oasys_blocks::mirror::{CurrentMirror, MirrorSpec, MirrorStyle};
//! use oasys_process::{builtin, Polarity};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let process = builtin::cmos_5um();
//! let spec = MirrorSpec::new(Polarity::Nmos, 20e-6)
//!     .with_min_rout(5e7)
//!     .with_headroom(1.5);
//! let mirror = CurrentMirror::design(&spec, &process)?;
//! assert_eq!(mirror.style(), MirrorStyle::Cascode); // simple can't reach 50 MΩ
//! assert!(mirror.rout() >= 5e7);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod area;
pub mod compensation;
pub mod diffpair;
pub mod gainstage;
pub mod levelshift;
pub mod mirror;

mod common;

pub use area::AreaEstimate;
pub use common::{DesignError, DEFAULT_VOV};
