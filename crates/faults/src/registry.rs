//! The global fault-site registry.
//!
//! Disabled cost is one relaxed atomic load per [`fail_point!`] hit: the
//! `ARMED` flag flips on only while at least one site is configured, and
//! the registry map is consulted only behind it.
//!
//! [`fail_point!`]: crate::fail_point

use crate::spec::{FaultSpec, FaultSpecError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{OnceLock, RwLock};

/// Environment variable holding a `site=spec,site=spec` configuration,
/// applied by [`init_from_env`].
pub const FAULTS_ENV: &str = "OASYS_FAULTS";

static ARMED: AtomicBool = AtomicBool::new(false);

struct SiteState {
    spec: FaultSpec,
    hits: u64,
}

fn registry() -> &'static RwLock<HashMap<String, SiteState>> {
    static REGISTRY: OnceLock<RwLock<HashMap<String, SiteState>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(HashMap::new()))
}

/// `true` while any fault site is configured — the fast path every
/// [`fail_point!`] checks before touching the registry.
///
/// [`fail_point!`]: crate::fail_point
#[inline]
#[must_use]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Configures one site, replacing any earlier spec (and resetting its
/// hit counter). Arms the plane.
pub fn set(site: impl Into<String>, spec: FaultSpec) {
    let mut map = registry()
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    map.insert(site.into(), SiteState { spec, hits: 0 });
    ARMED.store(true, Ordering::Relaxed);
}

/// Removes one site's configuration. Disarms the plane when it was the
/// last one.
pub fn remove(site: &str) {
    let mut map = registry()
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    map.remove(site);
    if map.is_empty() {
        ARMED.store(false, Ordering::Relaxed);
    }
}

/// Removes every configured site and disarms the plane.
pub fn clear() {
    let mut map = registry()
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    map.clear();
    ARMED.store(false, Ordering::Relaxed);
}

/// Parses and applies a `site=spec,site=spec` list (the `OASYS_FAULTS`
/// syntax). Empty input configures nothing; a site listed twice takes
/// its last spec. Returns the number of entries applied.
///
/// # Errors
///
/// Returns [`FaultSpecError`] for entries without `=` or with a spec
/// [`FaultSpec::parse`] rejects; earlier entries in the list stay
/// applied.
pub fn configure(text: &str) -> Result<usize, FaultSpecError> {
    let mut count = 0;
    for entry in split_entries(text) {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, spec_text) = entry
            .split_once('=')
            .ok_or_else(|| FaultSpecError::new(format!("expected `site=spec`, got `{entry}`")))?;
        let spec = FaultSpec::parse(spec_text)?;
        set(site.trim(), spec);
        count += 1;
    }
    Ok(count)
}

/// Splits a configuration list on commas that are *outside* parentheses,
/// so `a=fail_rate(0.5,7),b=err` yields two entries.
fn split_entries(text: &str) -> Vec<&str> {
    let mut entries = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, ch) in text.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                entries.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    entries.push(&text[start..]);
    entries
}

/// Applies the configuration in the `OASYS_FAULTS` environment variable,
/// if set. Call once at process startup (the `oasys` CLI does). Returns
/// the number of sites configured.
///
/// # Errors
///
/// Returns [`FaultSpecError`] when the variable's value does not parse.
pub fn init_from_env() -> Result<usize, FaultSpecError> {
    match std::env::var(FAULTS_ENV) {
        Ok(value) => configure(&value),
        Err(_) => Ok(0),
    }
}

/// What a hit at a configured site resolved to.
enum Hit {
    Continue,
    Error(String),
    Panic(String),
    Delay(u64),
}

/// Registers a hit at `site` and decides the action. Increments the
/// site's hit counter even when the spec decides not to fire.
fn hit(site: &str) -> Hit {
    let mut map = registry()
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let Some(state) = map.get_mut(site) else {
        return Hit::Continue;
    };
    state.hits += 1;
    let message = |custom: &Option<String>| {
        custom
            .clone()
            .unwrap_or_else(|| format!("injected fault at {site}"))
    };
    match &state.spec {
        FaultSpec::Panic => Hit::Panic(format!("injected panic at {site}")),
        FaultSpec::Err(msg) => Hit::Error(message(msg)),
        FaultSpec::Delay(ms) => Hit::Delay(*ms),
        FaultSpec::FailOnce => {
            if state.hits == 1 {
                Hit::Error(format!("injected fault at {site} (once)"))
            } else {
                Hit::Continue
            }
        }
        FaultSpec::FailRate { p, seed } => {
            if unit_hash(*seed, state.hits) < *p {
                Hit::Error(format!("injected fault at {site} (hit {})", state.hits))
            } else {
                Hit::Continue
            }
        }
    }
}

/// Evaluates a unit-form fail point: honors `panic` and `delay(ms)`;
/// error-injecting specs configured on a unit site are ignored (the
/// site has no error channel to inject into).
pub fn eval_unit(site: &str) {
    match hit(site) {
        Hit::Panic(msg) => panic!("{msg}"),
        Hit::Delay(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        Hit::Continue | Hit::Error(_) => {}
    }
}

/// Evaluates an error-form fail point: `Some(message)` when an error
/// should be injected; `panic`/`delay` specs act as in [`eval_unit`].
#[must_use]
pub fn eval_err(site: &str) -> Option<String> {
    match hit(site) {
        Hit::Panic(msg) => panic!("{msg}"),
        Hit::Delay(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            None
        }
        Hit::Error(msg) => Some(msg),
        Hit::Continue => None,
    }
}

/// `true` when the site's spec decides this hit should fire — for call
/// sites that implement a custom failure (e.g. a torn checkpoint write)
/// instead of returning an error. `err`, `fail_once` and `fail_rate`
/// specs drive it; `delay` sleeps and reports `false`.
#[must_use]
pub fn fired(site: &str) -> bool {
    if !armed() {
        return false;
    }
    eval_err(site).is_some()
}

/// SplitMix64-style hash of `(seed, n)` mapped to `[0, 1)` — the
/// deterministic per-hit coin for `fail_rate`.
fn unit_hash(seed: u64, n: u64) -> f64 {
    let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    #[allow(clippy::cast_precision_loss)]
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    unit
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; each test uses its own site names
    // so the suite stays order- and parallelism-independent.

    #[test]
    fn unconfigured_sites_are_inert() {
        assert_eq!(eval_err("tests.registry.nosuch"), None);
        eval_unit("tests.registry.nosuch");
        assert!(!fired("tests.registry.nosuch"));
    }

    #[test]
    fn err_fires_every_hit_until_removed() {
        set("tests.registry.err", FaultSpec::Err(None));
        assert!(armed());
        assert!(eval_err("tests.registry.err").is_some());
        assert!(eval_err("tests.registry.err").is_some());
        remove("tests.registry.err");
        assert_eq!(eval_err("tests.registry.err"), None);
    }

    #[test]
    fn err_message_names_the_site() {
        set("tests.registry.named", FaultSpec::Err(None));
        let msg = eval_err("tests.registry.named").unwrap();
        assert!(msg.contains("tests.registry.named"), "{msg}");
        remove("tests.registry.named");
    }

    #[test]
    fn fail_once_fires_exactly_once() {
        set("tests.registry.once", FaultSpec::FailOnce);
        assert!(eval_err("tests.registry.once").is_some());
        assert_eq!(eval_err("tests.registry.once"), None);
        assert_eq!(eval_err("tests.registry.once"), None);
        remove("tests.registry.once");
    }

    #[test]
    fn fail_rate_is_deterministic_per_seed() {
        let run = || -> Vec<bool> {
            set(
                "tests.registry.rate",
                FaultSpec::FailRate { p: 0.5, seed: 7 },
            );
            let fires = (0..32)
                .map(|_| eval_err("tests.registry.rate").is_some())
                .collect();
            remove("tests.registry.rate");
            fires
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must fail the same hits");
        assert!(
            a.iter().any(|f| *f) && a.iter().any(|f| !*f),
            "p=0.5 over 32 hits mixes"
        );
    }

    #[test]
    fn fail_rate_extremes() {
        set(
            "tests.registry.always",
            FaultSpec::FailRate { p: 1.0, seed: 1 },
        );
        set(
            "tests.registry.never",
            FaultSpec::FailRate { p: 0.0, seed: 1 },
        );
        assert!(eval_err("tests.registry.always").is_some());
        assert_eq!(eval_err("tests.registry.never"), None);
        remove("tests.registry.always");
        remove("tests.registry.never");
    }

    #[test]
    #[should_panic(expected = "injected panic at tests.registry.panic")]
    fn panic_spec_panics_with_site_name() {
        set("tests.registry.panic", FaultSpec::Panic);
        // Clean up from the panicking thread is impossible; the site name
        // is unique to this test so no other test sees it.
        eval_unit("tests.registry.panic");
    }

    #[test]
    fn delay_spec_sleeps_then_continues() {
        set("tests.registry.delay", FaultSpec::Delay(20));
        let start = std::time::Instant::now();
        eval_unit("tests.registry.delay");
        assert!(start.elapsed() >= std::time::Duration::from_millis(15));
        assert_eq!(
            eval_err("tests.registry.delay"),
            None,
            "delay is not an error"
        );
        remove("tests.registry.delay");
    }

    #[test]
    fn configure_parses_lists_and_reports_errors() {
        let n = configure("tests.registry.a=err, tests.registry.b=fail_once").unwrap();
        assert_eq!(n, 2);
        assert!(eval_err("tests.registry.a").is_some());
        assert!(fired("tests.registry.b"));
        remove("tests.registry.a");
        remove("tests.registry.b");

        assert_eq!(configure("").unwrap(), 0);
        assert!(configure("justasite").is_err());
        assert!(configure("site=explode").is_err());
    }

    #[test]
    fn configure_keeps_commas_inside_parentheses() {
        let n = configure("tests.registry.r=fail_rate(1.0,3),tests.registry.d=delay(1)").unwrap();
        assert_eq!(n, 2);
        assert!(eval_err("tests.registry.r").is_some());
        assert_eq!(eval_err("tests.registry.d"), None);
        remove("tests.registry.r");
        remove("tests.registry.d");
    }
}
