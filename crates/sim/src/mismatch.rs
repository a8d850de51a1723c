//! Per-device Monte-Carlo mismatch for model evaluation.
//!
//! Real wafers do not give two identically drawn transistors identical
//! parameters: local fluctuation of dopant count and oxide thickness
//! perturbs each device's threshold voltage and transconductance
//! independently. The classic Pelgrom model says the standard deviation
//! of those perturbations shrinks with the square root of gate area:
//!
//! ```text
//! σ(ΔVth) = A_vt / √(W·L)        σ(ΔK'/K') = A_kp / √(W·L)
//! ```
//!
//! A [`Mismatch`] carries the two Pelgrom coefficients plus a seed; the
//! draw for a device is a pure function of `(seed, device name,
//! geometry)` — independent of binding order, thread count, and how many
//! other devices exist — so a Monte-Carlo sample is reproducible
//! anywhere its seed is known.
//!
//! Analyses consult the mismatch through an ambient, thread-scoped
//! binding ([`scoped`]): `oasys`'s job answer wraps one verification
//! run per Monte-Carlo instance, and every [`bind`] of a device model inside
//! that scope (DC, AC, transient, noise — all model evaluation funnels
//! through the same three binding sites) applies that instance's draws.
//! Outside any scope, [`bind`] is exactly [`Mosfet::new`].

use oasys_mos::Mosfet;
use oasys_netlist::MosInstance;
use oasys_process::Process;
use std::cell::Cell;

/// A Monte-Carlo mismatch sample: Pelgrom coefficients plus the seed
/// that makes every per-device draw reproducible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mismatch {
    /// Threshold-voltage area coefficient `A_vt`, V·µm.
    pub avt_v_um: f64,
    /// Fractional `K'` area coefficient `A_kp`, (ΔK'/K')·µm.
    pub akp_frac_um: f64,
    /// Seed of this Monte-Carlo instance.
    pub seed: u64,
}

/// One device's drawn parameter perturbations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceDelta {
    /// Threshold-magnitude shift, V (signed).
    pub delta_vth_v: f64,
    /// Multiplicative `K'` factor (1.0 = nominal).
    pub kprime_factor: f64,
}

impl DeviceDelta {
    /// The nominal (no-mismatch) delta.
    #[must_use]
    pub fn nominal() -> Self {
        Self {
            delta_vth_v: 0.0,
            kprime_factor: 1.0,
        }
    }
}

impl Mismatch {
    /// A mismatch sample with both coefficients zero: draws are always
    /// nominal whatever the seed.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            avt_v_um: 0.0,
            akp_frac_um: 0.0,
            seed: 0,
        }
    }

    /// `true` when both Pelgrom coefficients are zero.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.avt_v_um == 0.0 && self.akp_frac_um == 0.0
    }

    /// Draws the perturbation for a named device of the given drawn
    /// gate area. Pure: the same `(seed, name, area)` always yields the
    /// same delta, independent of call order or thread.
    #[must_use]
    pub fn delta_for(&self, name: &str, gate_area_um2: f64) -> DeviceDelta {
        if self.is_disabled() {
            return DeviceDelta::nominal();
        }
        let inv_sqrt_area = if gate_area_um2 > 0.0 {
            1.0 / gate_area_um2.sqrt()
        } else {
            1.0
        };
        let key = splitmix64(self.seed ^ fnv1a(name.as_bytes()));
        let (g_vth, g_kp) = gaussian_pair(key);
        DeviceDelta {
            delta_vth_v: self.avt_v_um * inv_sqrt_area * g_vth,
            kprime_factor: (1.0 + self.akp_frac_um * inv_sqrt_area * g_kp).max(f64::MIN_POSITIVE),
        }
    }
}

thread_local! {
    static ACTIVE: Cell<Option<Mismatch>> = const { Cell::new(None) };
}

/// Runs `f` with `mismatch` installed as this thread's ambient
/// Monte-Carlo sample: every [`bind`] inside applies its draws. The
/// previous ambient sample (normally none) is restored when `f`
/// returns — or unwinds, so a panicking analysis cannot leak mismatch
/// into a later, unrelated run on the same pooled thread.
pub fn scoped<T>(mismatch: Mismatch, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Mismatch>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(ACTIVE.with(|cell| cell.replace(Some(mismatch))));
    f()
}

/// The thread's ambient Monte-Carlo sample, when inside a [`scoped`]
/// region.
#[must_use]
pub fn active() -> Option<Mismatch> {
    ACTIVE.with(Cell::get)
}

/// Binds an instance's device model against a process, applying the
/// ambient Monte-Carlo draws when inside a [`scoped`] region. This is
/// the single choke point every analysis uses to construct a [`Mosfet`]
/// from the netlist, so mismatch reaches DC, AC, transient, and noise
/// model evaluation uniformly.
#[must_use]
pub fn bind(instance: &MosInstance, process: &Process) -> Mosfet {
    let device = Mosfet::new(instance.polarity, instance.geometry, process);
    match active() {
        Some(mismatch) if !mismatch.is_disabled() => {
            let area = instance.geometry.w_um() * instance.geometry.l_um();
            let delta = mismatch.delta_for(&instance.name, area);
            device.with_mismatch(delta.delta_vth_v, delta.kprime_factor)
        }
        _ => device,
    }
}

/// SplitMix64: the finalizer that turns a key into a well-mixed word.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over bytes — the same family the batch fingerprint uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Two independent standard-normal draws from one 64-bit key, via one
/// Box-Muller transform over two derived uniforms in (0, 1].
fn gaussian_pair(key: u64) -> (f64, f64) {
    let u1 = to_unit(splitmix64(key));
    let u2 = to_unit(splitmix64(key ^ 0xa5a5_a5a5_a5a5_a5a5));
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Maps a word to a uniform in (0, 1] (never exactly 0, so `ln` is
/// finite).
fn to_unit(x: u64) -> f64 {
    (((x >> 11) + 1) as f64) / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_mos::Geometry;
    use oasys_netlist::Circuit;
    use oasys_process::{builtin, Polarity};

    fn sample() -> Mismatch {
        Mismatch {
            avt_v_um: 20.0e-3,
            akp_frac_um: 0.02,
            seed: 42,
        }
    }

    #[test]
    fn draws_are_reproducible_and_name_keyed() {
        let m = sample();
        let a1 = m.delta_for("M1", 100.0);
        let a2 = m.delta_for("M1", 100.0);
        assert_eq!(a1, a2);
        let b = m.delta_for("M2", 100.0);
        assert_ne!(a1, b);
        let other_seed = Mismatch { seed: 43, ..m };
        assert_ne!(a1, other_seed.delta_for("M1", 100.0));
    }

    #[test]
    fn sigma_shrinks_with_gate_area() {
        let m = sample();
        // Same draw, scaled by 1/√area: a 4× larger device sees half
        // the Vth shift.
        let small = m.delta_for("M1", 25.0);
        let large = m.delta_for("M1", 100.0);
        assert!((small.delta_vth_v - 2.0 * large.delta_vth_v).abs() < 1e-15);
    }

    #[test]
    fn disabled_mismatch_is_nominal() {
        let m = Mismatch::disabled();
        assert_eq!(m.delta_for("M1", 25.0), DeviceDelta::nominal());
    }

    #[test]
    fn scoped_installs_and_restores() {
        assert_eq!(active(), None);
        let inner = scoped(sample(), || {
            assert_eq!(active(), Some(sample()));
            scoped(Mismatch::disabled(), || {
                assert_eq!(active(), Some(Mismatch::disabled()));
            });
            assert_eq!(active(), Some(sample()));
            7
        });
        assert_eq!(inner, 7);
        assert_eq!(active(), None);
    }

    #[test]
    fn scoped_restores_across_unwind() {
        let caught = std::panic::catch_unwind(|| {
            scoped(sample(), || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(active(), None);
    }

    #[test]
    fn bind_applies_ambient_draws() {
        let process = builtin::cmos_5um();
        let mut c = Circuit::new("t");
        let d = c.node("d");
        let g = c.node("g");
        let gnd = c.ground();
        c.add_mosfet(
            "M1",
            Polarity::Nmos,
            Geometry::new_um(50.0, 5.0).unwrap(),
            d,
            g,
            gnd,
            gnd,
        )
        .unwrap();
        let inst = match c.elements().first().unwrap() {
            oasys_netlist::Element::Mos(m) => m.clone(),
            _ => unreachable!(),
        };
        let nominal = bind(&inst, &process);
        let perturbed = scoped(sample(), || bind(&inst, &process));
        assert_ne!(nominal, perturbed);
        // Threshold shift matches the pure draw exactly.
        let delta = sample().delta_for("M1", 250.0);
        let expected = nominal.with_mismatch(delta.delta_vth_v, delta.kprime_factor);
        assert_eq!(perturbed, expected);
        // Out of scope the binding is nominal again.
        assert_eq!(bind(&inst, &process), nominal);
    }
}
