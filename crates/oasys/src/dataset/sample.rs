//! Seeded specification sampling.
//!
//! A dataset manifest's `sample.*` directives describe a distribution
//! over op-amp specifications: each draw starts from one of the
//! manifest's literal `spec` entries (round-robin) and overrides every
//! ranged field with a uniform draw. Draws are keyed *per (seed, draw
//! index, field)* through a SplitMix64 finalizer, so any single draw
//! can be reproduced without replaying the stream, and the sampled spec
//! space is identical however the job space is later sharded.

use crate::batch::Sampling;
use crate::dataset::DatasetError;
use crate::integrity::{fnv1a64, mix64};
use crate::specfile::{self, KEYS};

/// One accepted specification draw: a canonical rendering plus the
/// parsed field values (for dataset records).
#[derive(Clone, Debug)]
pub struct SpecSample {
    /// Record label: the base label for literal specs, `sample-NNNNNN`
    /// for draws.
    pub label: String,
    /// Canonical spec-file text (fields in [`specfile::KEYS`] order).
    pub text: String,
    /// The field values, in canonical order.
    pub fields: Vec<(String, f64)>,
}

/// A uniform draw in `[0, 1)` keyed on `(seed, draw index, field)` —
/// pure, order-independent.
fn unit_draw(seed: u64, index: usize, field: &str) -> f64 {
    let key = mix64(mix64(seed ^ mix64(index as u64)) ^ fnv1a64(field.as_bytes()));
    ((key >> 11) as f64) / (1u64 << 53) as f64
}

/// The per-point seed (Monte-Carlo mismatch + fingerprint salt) of a
/// dataset point, keyed on the manifest seed and the point's global id.
#[must_use]
pub fn point_seed(manifest_seed: u64, point_id: usize) -> u64 {
    // Never zero: zero is `Job::with_salt`'s "no salt" sentinel.
    mix64(manifest_seed ^ mix64(point_id as u64)) | 1
}

/// Renders fields back to canonical spec-file text.
#[must_use]
pub fn render_spec(label: &str, fields: &[(String, f64)]) -> String {
    let mut out = format!("# {label}\n");
    for (key, value) in fields {
        out.push_str(&format!("{key} = {value}\n"));
    }
    out
}

/// Expands the manifest's spec inputs into the sampled specification
/// list. Without `sample.count` the literal specs pass through
/// unchanged (re-rendered canonically); with it, `count` seeded draws
/// are attempted and draws whose override combination fails spec
/// validation are rejected (counted, not fatal — the caller reports the
/// rejected fraction).
///
/// # Errors
///
/// [`DatasetError::Spec`] when a *base* spec is malformed — a manifest
/// typo fails fast, before any work starts.
pub fn sample_specs(
    bases: &[(String, String)],
    sampling: &Sampling,
) -> Result<(Vec<SpecSample>, usize), DatasetError> {
    let mut parsed_bases = Vec::with_capacity(bases.len());
    for (label, text) in bases {
        let spec_error = |e: specfile::ParseSpecError| DatasetError::Spec {
            label: label.clone(),
            detail: e.to_string(),
        };
        // Fail fast on base specs that do not even parse semantically.
        specfile::parse(text).map_err(spec_error)?;
        let fields = specfile::fields(text).map_err(spec_error)?;
        let fields = fields.into_iter().map(|(k, v)| (k.to_owned(), v));
        parsed_bases.push((label.clone(), fields.collect::<Vec<_>>()));
    }
    let Some(count) = sampling.count else {
        let samples = parsed_bases
            .into_iter()
            .map(|(label, fields)| {
                let text = render_spec(&label, &fields);
                SpecSample {
                    label,
                    text,
                    fields,
                }
            })
            .collect();
        return Ok((samples, 0));
    };
    let mut samples = Vec::with_capacity(count);
    let mut rejected = 0usize;
    for draw in 0..count {
        let (_, base_fields) = &parsed_bases[draw % parsed_bases.len()];
        let mut fields = base_fields.clone();
        for (ranged, lo, hi) in &sampling.ranges {
            let value = lo + (hi - lo) * unit_draw(sampling.seed, draw, ranged);
            match fields.iter_mut().find(|(k, _)| k == ranged) {
                Some((_, slot)) => *slot = value,
                None => fields.push((ranged.clone(), value)),
            }
        }
        // Ranged fields not in the base must still land in canonical
        // order for a deterministic rendering.
        fields.sort_by_key(|(k, _)| KEYS.iter().position(|c| c == k));
        let label = format!("sample-{draw:06}");
        let text = render_spec(&label, &fields);
        if specfile::parse(&text).is_err() {
            rejected += 1;
            continue;
        }
        samples.push(SpecSample {
            label,
            text,
            fields,
        });
    }
    Ok((samples, rejected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Manifest;

    const BASE: &str =
        "dc_gain_db = 60\nunity_gain_mhz = 0.5\nphase_margin_deg = 45\nload_pf = 5\n";

    fn sampling(text: &str) -> Sampling {
        Manifest::parse(text).unwrap().sampling().clone()
    }

    #[test]
    fn literal_specs_pass_through_canonically() {
        let bases = vec![("a.txt".to_owned(), BASE.to_owned())];
        let (samples, rejected) = sample_specs(&bases, &Sampling::default()).unwrap();
        assert_eq!(rejected, 0);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].label, "a.txt");
        assert!(samples[0].text.contains("dc_gain_db = 60"));
        crate::specfile::parse(&samples[0].text).unwrap();
    }

    #[test]
    fn draws_are_seeded_and_reproducible() {
        let bases = vec![("a".to_owned(), BASE.to_owned())];
        let s = sampling("sample.count = 20\nsample.seed = 9\nsample.dc_gain_db = 55..80\n");
        let (first, _) = sample_specs(&bases, &s).unwrap();
        let (second, _) = sample_specs(&bases, &s).unwrap();
        assert_eq!(first.len(), 20);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.text, b.text);
        }
        // A different seed draws a different spec space.
        let other = sampling("sample.count = 20\nsample.seed = 10\nsample.dc_gain_db = 55..80\n");
        let (third, _) = sample_specs(&bases, &other).unwrap();
        assert!(first.iter().zip(&third).any(|(a, b)| a.text != b.text));
    }

    #[test]
    fn draws_stay_inside_their_ranges() {
        let bases = vec![("a".to_owned(), BASE.to_owned())];
        let s = sampling("sample.count = 50\nsample.dc_gain_db = 55..80\nsample.load_pf = 2..20\n");
        let (samples, rejected) = sample_specs(&bases, &s).unwrap();
        assert_eq!(rejected, 0);
        for sample in &samples {
            let gain = sample
                .fields
                .iter()
                .find(|(k, _)| k == "dc_gain_db")
                .unwrap()
                .1;
            assert!((55.0..80.0).contains(&gain), "{gain}");
            let load = sample
                .fields
                .iter()
                .find(|(k, _)| k == "load_pf")
                .unwrap()
                .1;
            assert!((2.0..20.0).contains(&load), "{load}");
        }
    }

    #[test]
    fn invalid_draws_are_rejected_not_fatal() {
        let bases = vec![("a".to_owned(), BASE.to_owned())];
        // Phase margin must stay below 90°; a range straddling it
        // rejects some draws.
        let s = sampling("sample.count = 40\nsample.phase_margin_deg = 80..100\n");
        let (samples, rejected) = sample_specs(&bases, &s).unwrap();
        assert!(rejected > 0, "expected some rejected draws");
        assert_eq!(samples.len() + rejected, 40);
    }

    #[test]
    fn malformed_base_specs_fail_fast() {
        let bases = vec![("bad".to_owned(), "dc_gain_db = 60\n".to_owned())];
        let err = sample_specs(&bases, &Sampling::default()).unwrap_err();
        assert!(err.to_string().contains("bad"), "{err}");
    }

    /// Dataset records and plan fingerprints store these values, so
    /// they must never change.
    #[test]
    fn seed_and_draw_known_answers() {
        let hex = |x: u64| format!("{x:016x}");
        assert_eq!(hex(point_seed(7, 0)), "64bf61b512ffabe7");
        assert_eq!(hex(point_seed(7, 1079)), "5ce0c2b2d978006b");
        assert_eq!(hex(point_seed(0, 0)), "a706dd2f4d197e6f");
        let bases = vec![("a".to_owned(), BASE.to_owned())];
        let s = sampling(
            "sample.count = 2\nsample.seed = 7\nsample.dc_gain_db = 55..68\nsample.load_pf = 2..10\n",
        );
        let (samples, _) = sample_specs(&bases, &s).unwrap();
        assert_eq!(
            samples[1].text,
            "# sample-000001\ndc_gain_db = 63.00536413720599\nunity_gain_mhz = 0.5\n\
             phase_margin_deg = 45\nload_pf = 7.559867606039647\n"
        );
    }

    #[test]
    fn point_seed_is_stable_and_never_zero() {
        assert_eq!(point_seed(1, 0), point_seed(1, 0));
        assert_ne!(point_seed(1, 0), point_seed(1, 1));
        assert_ne!(point_seed(1, 0), point_seed(2, 0));
        for id in 0..100 {
            assert_ne!(point_seed(0, id), 0);
        }
    }
}
