//! Deterministic fault injection and cooperative deadlines for the
//! OASYS workspace.
//!
//! # The fault plane
//!
//! Production choke points carry named *fail points* — the `fail_point!`
//! macro compiled into `sim::dc`, the plan executor, the style-search
//! engine, and the batch driver. With no faults configured the whole
//! plane is one relaxed atomic load per site hit; configuring
//! `site=spec` pairs (via [`configure`] in-process, or the
//! `OASYS_FAULTS` environment variable for an `oasys` process, the only
//! way to arm one from outside) arms it and injects panics, typed
//! errors, delays, or deterministic failure rates at the named sites.
//! See [`FaultSpec`] for the spec grammar and DESIGN.md §11 for the
//! site-naming convention.
//!
//! ```
//! use oasys_faults as faults;
//!
//! fn fallible() -> Result<u32, String> {
//!     faults::fail_point!("example.site", |msg: String| msg);
//!     Ok(7)
//! }
//!
//! assert_eq!(fallible(), Ok(7));
//! faults::set("example.site", faults::FaultSpec::FailOnce);
//! assert!(fallible().unwrap_err().contains("example.site"));
//! assert_eq!(fallible(), Ok(7));
//! faults::remove("example.site");
//! ```
//!
//! # Determinism
//!
//! Everything a fault does is a pure function of the spec and the
//! site's hit counter: `fail_once` fires on hit 1, `fail_rate(p,seed)`
//! hashes `(seed, hit)` — so a run with the same configuration and the
//! same hit order injects exactly the same faults, and a chaos test
//! that resumes a killed sweep reproduces it byte-for-byte.
//!
//! # Deadlines
//!
//! [`Deadline`] is the cooperative-cancellation half: a wall-clock
//! budget plus a shared cancel flag, threaded through `DesignContext`,
//! the plan executor, and the DC solver so a diverging job aborts at a
//! checkpoint inside the computation instead of being abandoned on a
//! detached thread.

mod deadline;
mod registry;
mod spec;

pub use deadline::{Deadline, DeadlineExceeded};
pub use registry::{
    armed, clear, configure, eval_err, eval_unit, fired, init_from_env, remove, set, FAULTS_ENV,
};
pub use spec::{FaultSpec, FaultSpecError};

/// A named fault-injection site.
///
/// Two forms:
///
/// * `fail_point!("site")` — unit form: honors `panic` and `delay(ms)`
///   specs; error-injecting specs are ignored (no error channel).
/// * `fail_point!("site", |msg: String| expr)` — error form, usable in
///   functions returning `Result<_, E>`: when the site's spec injects
///   an error, the closure maps the injected message to `E` and the
///   macro returns `Err` from the enclosing function. `panic` and
///   `delay` specs behave as in the unit form.
///
/// Disabled cost (no site configured anywhere): one relaxed atomic
/// load.
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        if $crate::armed() {
            $crate::eval_unit($site);
        }
    };
    ($site:expr, $map_err:expr) => {
        if $crate::armed() {
            if let ::std::option::Option::Some(msg) = $crate::eval_err($site) {
                return ::std::result::Result::Err(($map_err)(msg));
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guarded(site: &str) -> Result<u32, String> {
        fail_point!(site, |msg: String| format!("wrapped: {msg}"));
        Ok(1)
    }

    #[test]
    fn error_form_maps_injected_message() {
        assert_eq!(guarded("tests.macro.err"), Ok(1));
        set("tests.macro.err", FaultSpec::Err(Some("boom".to_owned())));
        assert_eq!(guarded("tests.macro.err"), Err("wrapped: boom".to_owned()));
        remove("tests.macro.err");
        assert_eq!(guarded("tests.macro.err"), Ok(1));
    }

    #[test]
    fn unit_form_ignores_error_specs() {
        set("tests.macro.unit", FaultSpec::Err(None));
        fail_point!("tests.macro.unit");
        remove("tests.macro.unit");
    }
}
