//! Specification files: the op-amp requirements as a `key = value` text
//! file, mirroring the technology-file format so a whole synthesis run is
//! reproducible from two plain-text inputs.
//!
//! ```text
//! # case-B-like op amp
//! dc_gain_db        = 75
//! unity_gain_mhz    = 0.5
//! phase_margin_deg  = 45
//! load_pf           = 5
//! slew_rate_v_per_us = 2       # optional from here down
//! output_swing_v    = 4.0
//! max_offset_mv     = 1.0
//! max_power_mw      = 5.0
//! min_cmrr_db       = 60
//! max_noise_nv_rthz = 200
//! ```

use crate::spec::{OpAmpSpec, SpecError};
use std::error::Error;
use std::fmt;

/// Error returned by [`parse`].
#[derive(Debug)]
pub enum ParseSpecError {
    /// A malformed line (1-based line number and detail).
    Line {
        /// Line number.
        line: usize,
        /// What was wrong.
        detail: String,
    },
    /// The assembled specification failed validation.
    Invalid(SpecError),
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSpecError::Line { line, detail } => {
                write!(f, "invalid specification file at line {line}: {detail}")
            }
            ParseSpecError::Invalid(e) => write!(f, "invalid specification file: {e}"),
        }
    }
}

impl Error for ParseSpecError {}

/// Every key a specification file may set, in canonical order: the
/// order [`fields`] yields them in and a dataset renders them in.
pub const KEYS: [&str; 10] = [
    "dc_gain_db",
    "unity_gain_mhz",
    "phase_margin_deg",
    "load_pf",
    "slew_rate_v_per_us",
    "output_swing_v",
    "max_offset_mv",
    "max_power_mw",
    "min_cmrr_db",
    "max_noise_nv_rthz",
];

/// Parses the `key = value` lines of a specification file into its
/// fields, in [`KEYS`] order. `#` starts a comment and keys are
/// case-insensitive. Validates the grammar only; [`parse`] also
/// validates the values as a whole.
///
/// # Errors
///
/// [`ParseSpecError::Line`] for a line that is not `key = value`, a
/// value that is not a finite number, an unknown key, or a key set
/// twice.
pub fn fields(text: &str) -> Result<Vec<(&'static str, f64)>, ParseSpecError> {
    let mut values: [Option<(usize, f64)>; KEYS.len()] = [None; KEYS.len()];
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let bad = |detail| ParseSpecError::Line {
            line: lineno,
            detail,
        };
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| bad(format!("expected `key = value`, got `{line}`")))?;
        let key = key.trim().to_lowercase();
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| bad(format!("value for `{key}` is not a number")))?;
        // `f64::from_str` accepts "inf"/"NaN" and overflows to ±inf;
        // none of those are meaningful specification values.
        if !value.is_finite() {
            return Err(bad(format!("value for `{key}` is not finite")));
        }
        let slot = KEYS
            .iter()
            .position(|k| *k == key)
            .ok_or_else(|| bad(format!("unknown key `{key}`")))?;
        if let Some((first, _)) = values[slot] {
            return Err(bad(format!("`{key}` is already set at line {first}")));
        }
        values[slot] = Some((lineno, value));
    }
    Ok(KEYS
        .into_iter()
        .zip(values)
        .filter_map(|(key, value)| Some((key, value?.1)))
        .collect())
}

/// Parses the `key = value` specification format into an [`OpAmpSpec`].
///
/// # Errors
///
/// Returns [`ParseSpecError`] for a line [`fields`] rejects, or a set
/// of values the [`OpAmpSpec`] builder rejects.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = oasys::specfile::parse(
///     "dc_gain_db = 60\nunity_gain_mhz = 1\nphase_margin_deg = 55\nload_pf = 5\n",
/// )?;
/// assert!((spec.dc_gain().db() - 60.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn parse(text: &str) -> Result<OpAmpSpec, ParseSpecError> {
    let mut builder = OpAmpSpec::builder();
    for (key, value) in fields(text)? {
        builder = match key {
            "dc_gain_db" => builder.dc_gain_db(value),
            "unity_gain_mhz" => builder.unity_gain_mhz(value),
            "phase_margin_deg" => builder.phase_margin_deg(value),
            "load_pf" => builder.load_pf(value),
            "slew_rate_v_per_us" => builder.slew_rate_v_per_us(value),
            "output_swing_v" => builder.output_swing_v(value),
            "max_offset_mv" => builder.max_offset_mv(value),
            "max_power_mw" => builder.max_power_mw(value),
            "min_cmrr_db" => builder.min_cmrr_db(value),
            "max_noise_nv_rthz" => builder.max_noise_nv_rthz(value),
            // `fields` yields nothing but `KEYS`.
            _ => builder,
        };
    }
    builder.build().map_err(ParseSpecError::Invalid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_spec_parses() {
        let text = "\
# everything specified
dc_gain_db         = 75
unity_gain_mhz     = 0.5
phase_margin_deg   = 45
load_pf            = 5
slew_rate_v_per_us = 2
output_swing_v     = 4.0
max_offset_mv      = 1.0
max_power_mw       = 5.0
min_cmrr_db        = 60
max_noise_nv_rthz  = 200
";
        let spec = parse(text).unwrap();
        assert!((spec.dc_gain().db() - 75.0).abs() < 1e-12);
        assert!(spec.has_slew());
        assert!(spec.has_swing());
        assert!(spec.has_offset());
        assert!(spec.has_power());
        assert!(spec.has_cmrr());
        assert!(spec.has_noise());
    }

    #[test]
    fn minimal_spec_parses() {
        let spec =
            parse("dc_gain_db=60\nunity_gain_mhz=1\nphase_margin_deg=55\nload_pf=5").unwrap();
        assert!(!spec.has_swing());
    }

    #[test]
    fn unknown_key_reports_line() {
        let err = parse("dc_gain_db = 60\nbogus = 1\n").unwrap_err();
        assert!(err.to_string().contains("line 2"));
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn non_numeric_value_rejected() {
        let err = parse("dc_gain_db = sixty\n").unwrap_err();
        assert!(err.to_string().contains("not a number"));
    }

    #[test]
    fn repeated_key_reports_both_lines() {
        let err = parse("dc_gain_db = 60\nload_pf = 5\nDC_GAIN_DB = 70\n").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("line 3"), "{text}");
        assert!(
            text.contains("`dc_gain_db` is already set at line 1"),
            "{text}"
        );
    }

    #[test]
    fn fields_come_in_key_order() {
        let fields = fields("load_pf = 5\n# note\ndc_gain_db = 60 # trailing\n").unwrap();
        assert_eq!(fields, [("dc_gain_db", 60.0), ("load_pf", 5.0)]);
    }

    #[test]
    fn missing_required_entries_rejected() {
        let err = parse("dc_gain_db = 60\n").unwrap_err();
        assert!(matches!(err, ParseSpecError::Invalid(_)));
    }
}
