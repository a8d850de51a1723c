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
pub mod bias;
pub mod compensation;
pub mod diffpair;
pub mod gainstage;
pub mod levelshift;
pub mod mirror;

mod common;

pub use area::AreaEstimate;
pub use common::{DesignError, DEFAULT_VOV};

use oasys_plan::{DesignerDescriptor, DesignerRegistry};

/// The catalog of this crate's block designers: each level name with its
/// style alternatives, in trial order. The hierarchy layer uses it to
/// link the paper's Figure 1 decomposition blocks to the designers that
/// can realize them; callers can extend the returned registry with
/// higher-level designers (the op amp itself).
#[must_use]
pub fn designer_registry() -> DesignerRegistry {
    let mut registry = DesignerRegistry::new();
    registry.register(DesignerDescriptor::new(
        "mirror",
        ["simple", "cascode", "wide-swing"],
    ));
    registry.register(DesignerDescriptor::new("diff pair", ["matched pair"]));
    registry.register(DesignerDescriptor::new("gain stage", ["simple", "cascode"]));
    registry.register(DesignerDescriptor::new(
        "level shifter",
        ["source follower"],
    ));
    registry.register(DesignerDescriptor::new("bias", ["resistor reference"]));
    registry.register(DesignerDescriptor::new("compensation", ["miller"]));
    registry
}

#[cfg(test)]
mod registry_tests {
    use super::*;
    use oasys_plan::BlockDesigner as _;
    use oasys_process::builtin;

    /// The registry's declared styles must match what each designer
    /// actually implements — a drifted registry would lie to the
    /// hierarchy layer.
    #[test]
    fn registry_matches_designer_declarations() {
        let p = builtin::cmos_5um();
        let registry = designer_registry();
        let declared: Vec<(&str, &[&str])> = vec![
            (
                mirror::MirrorDesigner::new(&p).level(),
                mirror::MirrorDesigner::new(&p).styles(),
            ),
            (
                diffpair::DiffPairDesigner::new(&p).level(),
                diffpair::DiffPairDesigner::new(&p).styles(),
            ),
            (
                gainstage::GainStageDesigner::new(&p).level(),
                gainstage::GainStageDesigner::new(&p).styles(),
            ),
            (
                levelshift::LevelShiftDesigner::new(&p).level(),
                levelshift::LevelShiftDesigner::new(&p).styles(),
            ),
            (
                bias::BiasDesigner::new(&p).level(),
                bias::BiasDesigner::new(&p).styles(),
            ),
            (
                compensation::CompensationDesigner.level(),
                compensation::CompensationDesigner.styles(),
            ),
        ];
        assert_eq!(registry.len(), declared.len());
        for (level, styles) in declared {
            let descriptor = registry
                .get(level)
                .unwrap_or_else(|| panic!("level {level:?} missing from registry"));
            assert_eq!(descriptor.styles(), styles, "styles for {level}");
        }
    }
}
