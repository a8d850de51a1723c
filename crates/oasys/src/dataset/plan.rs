//! Dataset plan expansion: manifest → the deterministic global point
//! list.
//!
//! The sampled job space is the nested product, in fixed order:
//!
//! ```text
//! for spec sample s:                  (sample.count draws, or literal specs)
//!   for tech t:                       (manifest order)
//!     for speed c, temp T, supply V:  (corners, corner.temps_c, corner.supplies)
//!       for mc m:                     (mc.samples; m = 0 is the nominal instance)
//!         point                       (global id = running position)
//! ```
//!
//! Everything downstream — shard partitioning (`id % shards`), record
//! ordering, Monte-Carlo seeds, fingerprints — derives from this single
//! enumeration, which depends only on the manifest text and input
//! files. That is the root of the merge determinism guarantee: any
//! shard count partitions the *same* point list.

use super::sample::{point_seed, sample_specs};
use super::DatasetError;
use crate::batch::{self, salted, Job, Manifest};
use oasys_process::{corners, techfile, Corner};
use std::path::PathBuf;

/// One dataset point: the full provenance of one record.
#[derive(Clone, Debug)]
pub struct PointMeta {
    /// Global point id (position in the plan enumeration).
    pub id: usize,
    /// Spec label (`sample-NNNNNN` or the literal spec path).
    pub spec_label: String,
    /// Canonical spec text.
    pub spec_text: String,
    /// Spec field values, canonical order.
    pub spec_fields: Vec<(String, f64)>,
    /// Base technology name (from the tech file, not the path).
    pub tech_base: String,
    /// The corner this point runs at.
    pub corner: Corner,
    /// Derived process name (`<base> @ <corner label>`, or the base
    /// name at the nominal corner).
    pub tech_label: String,
    /// Corner-derived technology text (the tech file's own text at the
    /// nominal corner).
    pub tech_text: String,
    /// Monte-Carlo instance index (0 = nominal, no mismatch draws).
    pub mc_index: usize,
    /// Per-point seed: mismatch draws for instances ≥ 1, and the
    /// fingerprint salt for every instance.
    pub mc_seed: u64,
    /// Salted job fingerprint (checkpoint/record identity).
    pub fingerprint: u64,
}

impl PointMeta {
    /// The batch job for this point, under a shard-local id (the batch
    /// indexes records `0..jobs.len()`; the dataset record keeps the
    /// global [`PointMeta::id`]).
    #[must_use]
    pub fn job(&self, local_id: usize) -> Job {
        Job::from_texts(
            local_id,
            self.spec_label.clone(),
            self.spec_text.clone(),
            self.tech_label.clone(),
            self.tech_text.clone(),
        )
        .with_salt(self.mc_seed)
    }
}

/// The expanded, deterministic dataset plan.
#[derive(Clone, Debug)]
pub struct DatasetPlan {
    /// Every point, ordered by global id.
    pub points: Vec<PointMeta>,
    /// Spec draws rejected during sampling.
    pub samples_rejected: usize,
    /// Spec draws attempted (accepted + rejected; 0 rejected without
    /// `sample.count`).
    pub samples_drawn: usize,
    /// Pelgrom `A_vt`, mV·µm (0 disables threshold mismatch).
    pub avt_mv_um: f64,
    /// Pelgrom `A_kp`, %·µm (0 disables transconductance mismatch).
    pub akp_pct_um: f64,
    /// Fingerprint of the whole plan (folds every point fingerprint),
    /// stamped into shard summaries so a merge cannot mix shards of
    /// different plans.
    pub fingerprint: u64,
}

impl DatasetPlan {
    /// Expands a manifest into the global point list. Reads the spec
    /// and tech files, draws the sampled specs, and derives every
    /// requested corner of every technology.
    ///
    /// # Errors
    ///
    /// [`DatasetError`] when an input file is unreadable or malformed,
    /// or a corner derivation leaves the valid parameter range.
    pub fn expand(manifest: &Manifest) -> Result<Self, DatasetError> {
        if manifest.specs().is_empty() || manifest.techs().is_empty() {
            return Err(DatasetError::Empty);
        }
        let sampling = manifest.sampling();
        let read = |path: &PathBuf| {
            std::fs::read_to_string(path).map_err(|error| DatasetError::Io {
                path: path.clone(),
                error,
            })
        };
        let bases: Vec<(String, String)> = manifest
            .specs()
            .iter()
            .map(|p| Ok((p.display().to_string(), read(p)?)))
            .collect::<Result<_, DatasetError>>()?;
        let (samples, samples_rejected) = sample_specs(&bases, sampling)?;
        let samples_drawn = sampling.count.unwrap_or(0).max(samples.len());

        // One corner derivation per (tech, corner) pair, shared across
        // all spec samples: (corner, derived label, derived tech text).
        type CornerVariant = (Corner, String, String);
        let mut tech_variants: Vec<(String, Vec<CornerVariant>)> = Vec::new();
        for path in manifest.techs() {
            let text = read(path)?;
            let base = techfile::parse(&text).map_err(|e| DatasetError::Tech {
                label: path.display().to_string(),
                detail: e.to_string(),
            })?;
            let mut variants = Vec::new();
            for &speed in &sampling.corners {
                for &temp_c in &sampling.temps_c {
                    for &supply_scale in &sampling.supplies {
                        let corner = Corner {
                            speed,
                            temp_c,
                            supply_scale,
                        };
                        let derived =
                            corners::derive(&base, &corner).map_err(|e| DatasetError::Tech {
                                label: path.display().to_string(),
                                detail: format!("corner {corner}: {e}"),
                            })?;
                        // The nominal corner runs on the file's own
                        // text: `techfile::write` does not round-trip
                        // every parameter's last digits.
                        let derived_text = if corner.is_nominal() {
                            text.clone()
                        } else {
                            techfile::write(&derived)
                        };
                        variants.push((corner, derived.name().to_owned(), derived_text));
                    }
                }
            }
            tech_variants.push((base.name().to_owned(), variants));
        }

        let mut points = Vec::new();
        let mut fingerprint: u64 = 0xcbf2_9ce4_8422_2325;
        for sample in &samples {
            for (tech_base, variants) in &tech_variants {
                for (corner, tech_label, tech_text) in variants {
                    let texts_fp = batch::fingerprint(&sample.text, tech_text);
                    for mc_index in 0..sampling.mc_samples {
                        let id = points.len();
                        let mc_seed = point_seed(sampling.seed, id);
                        let job_fp = salted(texts_fp, mc_seed);
                        fingerprint ^= job_fp.rotate_left((id % 63) as u32);
                        fingerprint = fingerprint.wrapping_mul(0x0000_0100_0000_01b3);
                        points.push(PointMeta {
                            id,
                            spec_label: sample.label.clone(),
                            spec_text: sample.text.clone(),
                            spec_fields: sample.fields.clone(),
                            tech_base: tech_base.clone(),
                            corner: *corner,
                            tech_label: tech_label.clone(),
                            tech_text: tech_text.clone(),
                            mc_index,
                            mc_seed,
                            fingerprint: job_fp,
                        });
                    }
                }
            }
        }
        if points.is_empty() {
            return Err(DatasetError::Empty);
        }
        let fingerprint = fingerprint ^ points.len() as u64;
        Ok(Self {
            points,
            samples_rejected,
            samples_drawn,
            avt_mv_um: sampling.mc_avt_mv_um,
            akp_pct_um: sampling.mc_akp_pct_um,
            fingerprint,
        })
    }

    /// The points of one shard: global ids congruent to `shard_index`
    /// modulo `shards`. Every shard count partitions the same plan, so
    /// the union over shards is always the full point list.
    #[must_use]
    pub fn shard_points(&self, shard_index: usize, shards: usize) -> Vec<&PointMeta> {
        self.points
            .iter()
            .filter(|p| p.id % shards.max(1) == shard_index)
            .collect()
    }

    /// The Pelgrom mismatch sample for one point (`None` for nominal
    /// instances or when both coefficients are zero).
    #[must_use]
    pub fn mismatch_for(&self, point: &PointMeta) -> Option<oasys_sim::mismatch::Mismatch> {
        if point.mc_index == 0 || (self.avt_mv_um == 0.0 && self.akp_pct_um == 0.0) {
            return None;
        }
        Some(oasys_sim::mismatch::Mismatch {
            avt_v_um: self.avt_mv_um * 1e-3,
            akp_frac_um: self.akp_pct_um * 1e-2,
            seed: point.mc_seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_process::CornerSpeed;

    fn write_inputs(dir: &std::path::Path) -> (PathBuf, PathBuf) {
        let spec = dir.join("s.txt");
        std::fs::write(
            &spec,
            "dc_gain_db = 60\nunity_gain_mhz = 0.5\nphase_margin_deg = 45\nload_pf = 5\n",
        )
        .unwrap();
        let tech = dir.join("t.tech");
        std::fs::write(
            &tech,
            oasys_process::techfile::write(&oasys_process::builtin::cmos_5um()),
        )
        .unwrap();
        (spec, tech)
    }

    fn manifest(dir: &std::path::Path, directives: &str) -> Manifest {
        let (spec, tech) = write_inputs(dir);
        Manifest::parse(&format!(
            "spec = {}\ntech = {}\n{directives}",
            spec.display(),
            tech.display()
        ))
        .unwrap()
    }

    #[test]
    fn expansion_is_deterministic() {
        let dir = crate::dataset::test_dir("plan_deterministic");
        let m = manifest(
            &dir,
            "sample.count = 4\nsample.dc_gain_db = 55..70\ncorners = slow,fast\nmc.samples = 2\nmc.avt_mv_um = 10\n",
        );
        let a = DatasetPlan::expand(&m).unwrap();
        let b = DatasetPlan::expand(&m).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.points.len(), 4 * 2 * 2);
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.fingerprint, y.fingerprint);
            assert_eq!(x.spec_text, y.spec_text);
            assert_eq!(x.tech_text, y.tech_text);
        }
    }

    #[test]
    fn shards_partition_the_plan() {
        let dir = crate::dataset::test_dir("plan_partition");
        let m = manifest(&dir, "sample.count = 5\nmc.samples = 2\n");
        let plan = DatasetPlan::expand(&m).unwrap();
        for shards in 1..=4 {
            let mut seen = vec![false; plan.points.len()];
            for index in 0..shards {
                for p in plan.shard_points(index, shards) {
                    assert!(!seen[p.id], "point {} in two shards", p.id);
                    seen[p.id] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "shards={shards} missed a point");
        }
    }

    #[test]
    fn corner_points_carry_derived_tech() {
        let dir = crate::dataset::test_dir("plan_corners");
        let m = manifest(&dir, "corners = slow\ncorner.temps_c = 85\n");
        let plan = DatasetPlan::expand(&m).unwrap();
        assert_eq!(plan.points.len(), 1);
        let p = &plan.points[0];
        assert_eq!(p.corner.speed, CornerSpeed::Slow);
        assert!(p.tech_label.contains("slow_85c_100pct"), "{}", p.tech_label);
        assert!(p.tech_text.contains("slow_85c_100pct"));
        oasys_process::techfile::parse(&p.tech_text).unwrap();
    }

    #[test]
    fn mc_siblings_differ_only_in_seed_and_fingerprint() {
        let dir = crate::dataset::test_dir("plan_mc");
        let m = manifest(&dir, "mc.samples = 3\nmc.avt_mv_um = 15\n");
        let plan = DatasetPlan::expand(&m).unwrap();
        assert_eq!(plan.points.len(), 3);
        let (a, b) = (&plan.points[0], &plan.points[1]);
        assert_eq!(a.spec_text, b.spec_text);
        assert_eq!(a.tech_text, b.tech_text);
        assert_ne!(a.fingerprint, b.fingerprint);
        assert!(plan.mismatch_for(a).is_none(), "index 0 is nominal");
        let mm = plan.mismatch_for(b).unwrap();
        assert_eq!(mm.seed, b.mc_seed);
        assert!((mm.avt_v_um - 15e-3).abs() < 1e-12);
    }
}
