//! The fault-spec grammar: what a configured site does when hit.
//!
//! One spec per site, written as `site=spec` in `OASYS_FAULTS`. The
//! spec forms:
//!
//! | spec               | behavior on hit                                  |
//! |--------------------|--------------------------------------------------|
//! | `panic`            | panic with a message naming the site             |
//! | `err`              | inject an error (`err(msg)` sets the message)    |
//! | `delay(ms)`        | sleep `ms` milliseconds, then continue           |
//! | `fail_once`        | inject an error on the first hit only            |
//! | `fail_rate(p,seed)`| inject an error with probability `p`, derived    |
//! |                    | deterministically from `seed` and the hit count  |

use std::error::Error;
use std::fmt;

/// A parsed fault specification. See the module docs for the grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Panic at the site.
    Panic,
    /// Inject an error, with an optional custom message.
    Err(Option<String>),
    /// Sleep this many milliseconds, then continue normally.
    Delay(u64),
    /// Inject an error on the first hit only; later hits pass through.
    FailOnce,
    /// Inject an error with probability `p` per hit, decided by a hash
    /// of `seed` and the site's hit counter — the same seed always
    /// fails the same hits.
    FailRate {
        /// Failure probability in `[0, 1]`.
        p: f64,
        /// Seed feeding the per-hit decision hash.
        seed: u64,
    },
}

/// Error from parsing a fault spec or a `site=spec` configuration list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    detail: String,
}

impl FaultSpecError {
    pub(crate) fn new(detail: impl Into<String>) -> Self {
        Self {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault spec: {}", self.detail)
    }
}

impl Error for FaultSpecError {}

impl FaultSpec {
    /// Parses one spec (the right-hand side of `site=spec`).
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] for unknown forms or malformed
    /// arguments.
    pub fn parse(text: &str) -> Result<Self, FaultSpecError> {
        let text = text.trim();
        if let Some(args) = call_args(text, "delay") {
            let ms: u64 = args.parse().map_err(|_| {
                FaultSpecError::new(format!("delay wants milliseconds, got `{args}`"))
            })?;
            return Ok(FaultSpec::Delay(ms));
        }
        if let Some(args) = call_args(text, "err") {
            return Ok(FaultSpec::Err(Some(args.to_owned())));
        }
        if let Some(args) = call_args(text, "fail_rate") {
            let (p_text, seed_text) = args.split_once(',').ok_or_else(|| {
                FaultSpecError::new(format!("fail_rate wants `(p,seed)`, got `({args})`"))
            })?;
            let p: f64 = p_text.trim().parse().map_err(|_| {
                FaultSpecError::new(format!("fail_rate probability `{p_text}` is not a number"))
            })?;
            if !(0.0..=1.0).contains(&p) {
                return Err(FaultSpecError::new(format!(
                    "fail_rate probability {p} is outside [0, 1]"
                )));
            }
            let seed: u64 = seed_text.trim().parse().map_err(|_| {
                FaultSpecError::new(format!("fail_rate seed `{seed_text}` is not an integer"))
            })?;
            return Ok(FaultSpec::FailRate { p, seed });
        }
        match text {
            "panic" => Ok(FaultSpec::Panic),
            "err" => Ok(FaultSpec::Err(None)),
            "fail_once" => Ok(FaultSpec::FailOnce),
            other => Err(FaultSpecError::new(format!("unknown spec `{other}`"))),
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpec::Panic => write!(f, "panic"),
            FaultSpec::Err(None) => write!(f, "err"),
            FaultSpec::Err(Some(msg)) => write!(f, "err({msg})"),
            FaultSpec::Delay(ms) => write!(f, "delay({ms})"),
            FaultSpec::FailOnce => write!(f, "fail_once"),
            FaultSpec::FailRate { p, seed } => write!(f, "fail_rate({p},{seed})"),
        }
    }
}

/// `call_args("delay(25)", "delay")` → `Some("25")`; `None` when `text`
/// is not a call of `name`.
fn call_args<'t>(text: &'t str, name: &str) -> Option<&'t str> {
    text.strip_prefix(name)?
        .strip_prefix('(')?
        .strip_suffix(')')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_form() {
        assert_eq!(FaultSpec::parse("panic").unwrap(), FaultSpec::Panic);
        assert_eq!(FaultSpec::parse("err").unwrap(), FaultSpec::Err(None));
        assert_eq!(
            FaultSpec::parse("err(disk on fire)").unwrap(),
            FaultSpec::Err(Some("disk on fire".to_owned()))
        );
        assert_eq!(FaultSpec::parse("delay(25)").unwrap(), FaultSpec::Delay(25));
        assert_eq!(FaultSpec::parse("fail_once").unwrap(), FaultSpec::FailOnce);
        assert_eq!(
            FaultSpec::parse("fail_rate(0.5,42)").unwrap(),
            FaultSpec::FailRate { p: 0.5, seed: 42 }
        );
    }

    #[test]
    fn display_round_trips() {
        for text in [
            "panic",
            "err",
            "err(m)",
            "delay(3)",
            "fail_once",
            "fail_rate(0.25,7)",
        ] {
            let spec = FaultSpec::parse(text).unwrap();
            assert_eq!(FaultSpec::parse(&spec.to_string()).unwrap(), spec);
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "explode",
            "delay",
            "delay(soon)",
            "delay(-1)",
            "fail_rate(2.0,1)",
            "fail_rate(0.5)",
            "fail_rate(p,s)",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
