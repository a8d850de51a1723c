//! Batch manifests: the text file that names which specifications to
//! synthesize on which processes, plus optional execution settings.
//!
//! A manifest is the same `key = value` dialect as the specification and
//! technology files. `spec` and `tech` may repeat; the job list is their
//! cross product, in manifest order (specs outer, techs inner):
//!
//! ```text
//! # the paper's Table 2 sweep
//! spec = spec-a.txt
//! spec = spec-b.txt
//! spec = spec-c.txt
//! tech = generic-5um.tech
//! tech = generic-3um.tech
//! tech = generic-1.2um.tech
//! workers    = 3        # optional, defaults to the host parallelism
//! timeout_ms = 30000    # optional per-job wall-clock budget
//! retries    = 2        # optional retry cap for transient failures
//! verify     = false    # optional, default true
//! ```
//!
//! Relative `spec`/`tech` paths resolve against the manifest file's own
//! directory, so a manifest can ship next to its inputs.
//!
//! # Dataset directives
//!
//! `oasys dataset` reads the same manifests plus *sampling directives*
//! (ignored by plain `oasys batch` expansion; see
//! [`crate::dataset`] for how they expand):
//!
//! ```text
//! sample.count      = 200        # random spec draws (seeded, reproducible)
//! sample.seed       = 42         # RNG seed, default 1
//! sample.dc_gain_db = 55..80     # uniform range for a spec field
//! sample.load_pf    = 2..20
//! corners           = slow,typ,fast
//! corner.temps_c    = -40,27,85
//! corner.supplies   = 0.9,1.0,1.1
//! mc.samples        = 3          # Monte-Carlo instances per design point
//! mc.avt_mv_um      = 15         # Pelgrom A_vt, mV·µm
//! mc.akp_pct_um     = 2          # Pelgrom A_kp, %·µm
//! ```

use crate::integrity::{fnv1a64, fnv1a64_extend, mix64};
use crate::specfile;
use oasys_process::CornerSpeed;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One unit of batch work: a specification/technology pairing with the
/// file contents already read, identified by a content fingerprint.
///
/// Holding the *texts* (not just paths) makes jobs self-contained: any
/// worker thread can run one, the fingerprint cannot drift if a file
/// changes mid-run, and library callers can synthesize specs that never
/// touch a filesystem ([`Job::from_texts`]).
#[derive(Clone, Debug)]
pub struct Job {
    id: usize,
    spec_label: String,
    tech_label: String,
    spec_text: String,
    tech_text: String,
    fingerprint: u64,
}

impl Job {
    /// A job over in-memory spec/tech texts. The labels are what result
    /// records and checkpoints display (for file-based jobs, the paths).
    #[must_use]
    pub fn from_texts(
        id: usize,
        spec_label: impl Into<String>,
        spec_text: impl Into<String>,
        tech_label: impl Into<String>,
        tech_text: impl Into<String>,
    ) -> Self {
        let spec_text = spec_text.into();
        let tech_text = tech_text.into();
        let fingerprint = fingerprint(&spec_text, &tech_text);
        Self {
            id,
            spec_label: spec_label.into(),
            tech_label: tech_label.into(),
            spec_text,
            tech_text,
            fingerprint,
        }
    }

    /// Position of this job in the batch (stable across resumes, since
    /// the job list is a deterministic expansion of the manifest).
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Display name of the specification input.
    #[must_use]
    pub fn spec_label(&self) -> &str {
        &self.spec_label
    }

    /// Display name of the technology input.
    #[must_use]
    pub fn tech_label(&self) -> &str {
        &self.tech_label
    }

    /// The specification file contents.
    #[must_use]
    pub fn spec_text(&self) -> &str {
        &self.spec_text
    }

    /// The technology file contents.
    #[must_use]
    pub fn tech_text(&self) -> &str {
        &self.tech_text
    }

    /// Content fingerprint of the (spec, tech) pairing — the identity
    /// checkpoints record. Two jobs whose input *contents* are identical
    /// share a fingerprint even if the files were renamed.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Returns the job with `salt` folded into its fingerprint (via a
    /// SplitMix64 finalizer, so nearby salts land far apart). Dataset
    /// generation uses this to keep Monte-Carlo siblings — identical
    /// spec/tech texts run under different mismatch seeds — from
    /// colliding in checkpoints. A salt of zero leaves the fingerprint
    /// untouched.
    #[must_use]
    pub fn with_salt(mut self, salt: u64) -> Self {
        if salt != 0 {
            self.fingerprint ^= mix64(salt);
        }
        self
    }
}

/// FNV-1a over both inputs with a separator, so (`"ab"`, `"c"`) and
/// (`"a"`, `"bc"`) cannot collide trivially.
#[must_use]
pub fn fingerprint(spec_text: &str, tech_text: &str) -> u64 {
    let spec = fnv1a64_extend(fnv1a64(spec_text.as_bytes()), &[0x1f]);
    fnv1a64_extend(spec, tech_text.as_bytes())
}

/// Execution settings a manifest may carry (all optional — the CLI and
/// [`super::BatchOptions`] defaults fill the gaps).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ManifestSettings {
    /// Number of worker threads.
    pub workers: Option<usize>,
    /// Per-job wall-clock budget.
    pub timeout: Option<Duration>,
    /// Retry cap for transient job failures.
    pub retries: Option<u32>,
    /// Whether each feasible design is re-measured on the simulator.
    pub verify: Option<bool>,
}

/// Dataset-generation directives a manifest may carry (`sample.*`,
/// `corners`/`corner.*`, `mc.*`). Plain batch expansion ignores them;
/// [`crate::dataset`] expands them into the sampled job space.
#[derive(Clone, Debug, PartialEq)]
pub struct Sampling {
    /// Number of random spec draws (`sample.count`); `None` means the
    /// manifest's literal `spec` entries are used as-is.
    pub count: Option<usize>,
    /// RNG seed for the draws (`sample.seed`).
    pub seed: u64,
    /// Per-field uniform ranges, in manifest order: `(field, lo, hi)`.
    pub ranges: Vec<(String, f64, f64)>,
    /// Wafer speed corners to sweep (`corners`).
    pub corners: Vec<CornerSpeed>,
    /// Junction temperatures to sweep, °C (`corner.temps_c`).
    pub temps_c: Vec<f64>,
    /// Supply scale factors to sweep (`corner.supplies`).
    pub supplies: Vec<f64>,
    /// Monte-Carlo instances per design point (`mc.samples`).
    pub mc_samples: usize,
    /// Pelgrom threshold coefficient `A_vt`, mV·µm (`mc.avt_mv_um`).
    pub mc_avt_mv_um: f64,
    /// Pelgrom transconductance coefficient `A_kp`, %·µm
    /// (`mc.akp_pct_um`).
    pub mc_akp_pct_um: f64,
}

impl Default for Sampling {
    fn default() -> Self {
        Self {
            count: None,
            seed: 1,
            ranges: Vec::new(),
            corners: vec![CornerSpeed::Typ],
            temps_c: vec![oasys_process::corners::NOMINAL_TEMP_C],
            supplies: vec![1.0],
            mc_samples: 1,
            mc_avt_mv_um: 0.0,
            mc_akp_pct_um: 0.0,
        }
    }
}

impl Sampling {
    /// Dataset jobs per accepted specification: corners × Monte-Carlo
    /// instances (the tech multiplier comes from the manifest's `tech`
    /// entries).
    #[must_use]
    pub fn points_per_spec(&self) -> usize {
        self.corners.len() * self.temps_c.len() * self.supplies.len() * self.mc_samples
    }
}

/// A parsed batch manifest: the spec and tech inputs plus settings.
#[derive(Clone, Debug, Default)]
pub struct Manifest {
    specs: Vec<PathBuf>,
    techs: Vec<PathBuf>,
    settings: ManifestSettings,
    sampling: Sampling,
}

/// Error raised while reading or expanding a manifest.
#[derive(Debug)]
pub enum ManifestError {
    /// A malformed manifest line (1-based line number and detail).
    Line {
        /// Line number.
        line: usize,
        /// What was wrong.
        detail: String,
    },
    /// The manifest names no specs or no techs, so the job list is empty.
    Empty,
    /// An input file could not be read.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Line { line, detail } => {
                write!(f, "invalid manifest at line {line}: {detail}")
            }
            ManifestError::Empty => {
                write!(f, "manifest needs at least one `spec` and one `tech` entry")
            }
            ManifestError::Io { path, error } => write!(f, "{}: {error}", path.display()),
        }
    }
}

impl std::error::Error for ManifestError {}

impl Manifest {
    /// Parses manifest text. Paths are kept as written; [`Manifest::load`]
    /// additionally resolves them against the manifest's directory.
    ///
    /// # Errors
    ///
    /// [`ManifestError::Line`] for unknown keys or unparsable values.
    pub fn parse(text: &str) -> Result<Self, ManifestError> {
        let mut manifest = Manifest::default();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| ManifestError::Line {
                line: lineno,
                detail: format!("expected `key = value`, got `{line}`"),
            })?;
            let key = key.trim().to_lowercase();
            let value = value.trim();
            let bad = |detail: String| ManifestError::Line {
                line: lineno,
                detail,
            };
            match key.as_str() {
                "spec" => manifest.specs.push(PathBuf::from(value)),
                "tech" => manifest.techs.push(PathBuf::from(value)),
                "workers" => {
                    let n: usize = value.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        bad(format!(
                            "`workers` must be a positive integer, got `{value}`"
                        ))
                    })?;
                    manifest.settings.workers = Some(n);
                }
                "timeout_ms" => {
                    let ms: u64 = value.parse().map_err(|_| {
                        bad(format!("`timeout_ms` must be an integer, got `{value}`"))
                    })?;
                    manifest.settings.timeout = Some(Duration::from_millis(ms));
                }
                "retries" => {
                    let n: u32 = value
                        .parse()
                        .map_err(|_| bad(format!("`retries` must be an integer, got `{value}`")))?;
                    manifest.settings.retries = Some(n);
                }
                "verify" => {
                    manifest.settings.verify = Some(match value {
                        "true" => true,
                        "false" => false,
                        other => {
                            return Err(bad(format!(
                                "`verify` must be `true` or `false`, got `{other}`"
                            )))
                        }
                    });
                }
                "sample.count" => {
                    let n: usize = value.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        bad(format!(
                            "`sample.count` must be a positive integer, got `{value}`"
                        ))
                    })?;
                    manifest.sampling.count = Some(n);
                }
                "sample.seed" => {
                    let seed: u64 = value.parse().map_err(|_| {
                        bad(format!("`sample.seed` must be an integer, got `{value}`"))
                    })?;
                    manifest.sampling.seed = seed;
                }
                "corners" => {
                    let mut corners = Vec::new();
                    for token in value.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                        let speed = CornerSpeed::from_name(token).ok_or_else(|| {
                            bad(format!(
                                "`corners` entries must be slow/typ/fast, got `{token}`"
                            ))
                        })?;
                        if !corners.contains(&speed) {
                            corners.push(speed);
                        }
                    }
                    if corners.is_empty() {
                        return Err(bad("`corners` needs at least one entry".to_owned()));
                    }
                    manifest.sampling.corners = corners;
                }
                "corner.temps_c" => {
                    manifest.sampling.temps_c =
                        parse_number_list(value, "corner.temps_c", f64::is_finite).map_err(bad)?;
                }
                "corner.supplies" => {
                    manifest.sampling.supplies =
                        parse_number_list(value, "corner.supplies", |v| v.is_finite() && v > 0.0)
                            .map_err(bad)?;
                }
                "mc.samples" => {
                    let n: usize = value.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        bad(format!(
                            "`mc.samples` must be a positive integer, got `{value}`"
                        ))
                    })?;
                    manifest.sampling.mc_samples = n;
                }
                "mc.avt_mv_um" => {
                    manifest.sampling.mc_avt_mv_um =
                        parse_non_negative(value, "mc.avt_mv_um").map_err(bad)?;
                }
                "mc.akp_pct_um" => {
                    manifest.sampling.mc_akp_pct_um =
                        parse_non_negative(value, "mc.akp_pct_um").map_err(bad)?;
                }
                other => {
                    if let Some(field) = other.strip_prefix("sample.") {
                        if !specfile::KEYS.contains(&field) {
                            return Err(bad(format!(
                                "`sample.{field}` is not a spec field (expected one of {})",
                                specfile::KEYS.join(", ")
                            )));
                        }
                        let (lo, hi) = parse_range(value, other).map_err(bad)?;
                        manifest.sampling.ranges.push((field.to_owned(), lo, hi));
                        continue;
                    }
                    return Err(bad(format!("unknown key `{other}`")));
                }
            }
        }
        if !manifest.sampling.ranges.is_empty() && manifest.sampling.count.is_none() {
            return Err(ManifestError::Line {
                line: text.lines().count(),
                detail: "`sample.<field>` ranges require `sample.count`".to_owned(),
            });
        }
        Ok(manifest)
    }

    /// Reads and parses a manifest file, resolving relative `spec`/`tech`
    /// paths against the manifest's own directory.
    ///
    /// # Errors
    ///
    /// [`ManifestError::Io`] when the file cannot be read, otherwise the
    /// same failures as [`Manifest::parse`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ManifestError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|error| ManifestError::Io {
            path: path.to_path_buf(),
            error,
        })?;
        let mut manifest = Self::parse(&text)?;
        if let Some(dir) = path.parent() {
            let resolve = |p: &PathBuf| {
                if p.is_relative() {
                    dir.join(p)
                } else {
                    p.clone()
                }
            };
            manifest.specs = manifest.specs.iter().map(resolve).collect();
            manifest.techs = manifest.techs.iter().map(resolve).collect();
        }
        Ok(manifest)
    }

    /// The spec paths, in manifest order.
    #[must_use]
    pub fn specs(&self) -> &[PathBuf] {
        &self.specs
    }

    /// The tech paths, in manifest order.
    #[must_use]
    pub fn techs(&self) -> &[PathBuf] {
        &self.techs
    }

    /// The optional execution settings.
    #[must_use]
    pub fn settings(&self) -> ManifestSettings {
        self.settings
    }

    /// The dataset-generation directives (defaults when the manifest
    /// carries none).
    #[must_use]
    pub fn sampling(&self) -> &Sampling {
        &self.sampling
    }

    /// Expands the manifest into its job list: the specs × techs cross
    /// product in manifest order (specs outer, techs inner), each file
    /// read exactly once.
    ///
    /// Unreadable input files fail the expansion — a manifest typo should
    /// surface before any work starts, unlike a *diverging* job, which
    /// fails alone at run time.
    ///
    /// # Errors
    ///
    /// [`ManifestError::Empty`] when the cross product is empty,
    /// [`ManifestError::Io`] when an input file cannot be read.
    pub fn expand(&self) -> Result<Vec<Job>, ManifestError> {
        if self.specs.is_empty() || self.techs.is_empty() {
            return Err(ManifestError::Empty);
        }
        let read = |path: &PathBuf| {
            std::fs::read_to_string(path).map_err(|error| ManifestError::Io {
                path: path.clone(),
                error,
            })
        };
        let spec_texts: Vec<String> = self.specs.iter().map(read).collect::<Result<_, _>>()?;
        let tech_texts: Vec<String> = self.techs.iter().map(read).collect::<Result<_, _>>()?;
        let mut jobs = Vec::with_capacity(self.specs.len() * self.techs.len());
        for (spec_path, spec_text) in self.specs.iter().zip(&spec_texts) {
            for (tech_path, tech_text) in self.techs.iter().zip(&tech_texts) {
                jobs.push(Job::from_texts(
                    jobs.len(),
                    spec_path.display().to_string(),
                    spec_text.clone(),
                    tech_path.display().to_string(),
                    tech_text.clone(),
                ));
            }
        }
        Ok(jobs)
    }
}

/// Parses a `lo..hi` inclusive range of finite numbers with `lo <= hi`.
fn parse_range(value: &str, key: &str) -> Result<(f64, f64), String> {
    let parsed = value.split_once("..").and_then(|(lo, hi)| {
        let lo: f64 = lo.trim().parse().ok()?;
        let hi: f64 = hi.trim().parse().ok()?;
        (lo.is_finite() && hi.is_finite() && lo <= hi).then_some((lo, hi))
    });
    parsed.ok_or_else(|| format!("`{key}` must be a `lo..hi` range with lo <= hi, got `{value}`"))
}

/// Parses a non-empty comma-separated list of numbers, each accepted by
/// `valid`.
fn parse_number_list(
    value: &str,
    key: &str,
    valid: impl Fn(f64) -> bool,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for token in value.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let v: f64 = token
            .parse()
            .ok()
            .filter(|&v| valid(v))
            .ok_or_else(|| format!("`{key}` has an invalid entry `{token}`"))?;
        out.push(v);
    }
    if out.is_empty() {
        return Err(format!("`{key}` needs at least one entry"));
    }
    Ok(out)
}

/// Parses a finite, non-negative number.
fn parse_non_negative(value: &str, key: &str) -> Result<f64, String> {
    value
        .parse()
        .ok()
        .filter(|&v: &f64| v.is_finite() && v >= 0.0)
        .ok_or_else(|| format!("`{key}` must be a non-negative number, got `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_inputs_and_settings() {
        let m = Manifest::parse(
            "# sweep\nspec = a.txt\nspec = b.txt\ntech = p.tech\nworkers = 3\n\
             timeout_ms = 250\nretries = 2\nverify = false\n",
        )
        .unwrap();
        assert_eq!(m.specs().len(), 2);
        assert_eq!(m.techs().len(), 1);
        assert_eq!(m.settings().workers, Some(3));
        assert_eq!(m.settings().timeout, Some(Duration::from_millis(250)));
        assert_eq!(m.settings().retries, Some(2));
        assert_eq!(m.settings().verify, Some(false));
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        let err = Manifest::parse("bogus = 1\n").unwrap_err();
        assert!(err.to_string().contains("unknown key `bogus`"), "{err}");
        let err = Manifest::parse("spec = a\nworkers = 0\n").unwrap_err();
        assert!(err.to_string().contains("workers"), "{err}");
        let err = Manifest::parse("verify = maybe\n").unwrap_err();
        assert!(err.to_string().contains("verify"), "{err}");
        let err = Manifest::parse("just a line\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn empty_cross_product_is_an_error() {
        let m = Manifest::parse("spec = a.txt\n").unwrap();
        assert!(matches!(m.expand(), Err(ManifestError::Empty)));
    }

    #[test]
    fn parses_sampling_directives() {
        let m = Manifest::parse(
            "spec = a.txt\ntech = p.tech\nsample.count = 100\nsample.seed = 7\n\
             sample.dc_gain_db = 55..80\nsample.load_pf = 2..20\n\
             corners = slow, typ, fast\ncorner.temps_c = -40, 27, 85\n\
             corner.supplies = 0.9,1.0,1.1\nmc.samples = 3\nmc.avt_mv_um = 15\n\
             mc.akp_pct_um = 2\n",
        )
        .unwrap();
        let s = m.sampling();
        assert_eq!(s.count, Some(100));
        assert_eq!(s.seed, 7);
        assert_eq!(
            s.ranges,
            vec![
                ("dc_gain_db".to_owned(), 55.0, 80.0),
                ("load_pf".to_owned(), 2.0, 20.0)
            ]
        );
        assert_eq!(
            s.corners,
            vec![CornerSpeed::Slow, CornerSpeed::Typ, CornerSpeed::Fast]
        );
        assert_eq!(s.temps_c, vec![-40.0, 27.0, 85.0]);
        assert_eq!(s.supplies, vec![0.9, 1.0, 1.1]);
        assert_eq!(s.mc_samples, 3);
        assert_eq!(s.points_per_spec(), 3 * 3 * 3 * 3);
    }

    #[test]
    fn sampling_defaults_cover_the_nominal_point() {
        let m = Manifest::parse("spec = a.txt\ntech = p.tech\n").unwrap();
        let s = m.sampling();
        assert_eq!(s.count, None);
        assert_eq!(s.corners, vec![CornerSpeed::Typ]);
        assert_eq!(s.points_per_spec(), 1);
    }

    #[test]
    fn rejects_bad_sampling_directives() {
        let err = Manifest::parse("sample.count = 0\n").unwrap_err();
        assert!(err.to_string().contains("sample.count"), "{err}");
        let err = Manifest::parse("sample.bogus_field = 1..2\n").unwrap_err();
        assert!(err.to_string().contains("not a spec field"), "{err}");
        let err = Manifest::parse("sample.load_pf = 20..2\n").unwrap_err();
        assert!(err.to_string().contains("lo <= hi"), "{err}");
        let err = Manifest::parse("corners = medium\n").unwrap_err();
        assert!(err.to_string().contains("slow/typ/fast"), "{err}");
        let err = Manifest::parse("corner.supplies = -1\n").unwrap_err();
        assert!(err.to_string().contains("corner.supplies"), "{err}");
        // A range without a count can never be drawn from.
        let err = Manifest::parse("sample.load_pf = 2..20\n").unwrap_err();
        assert!(err.to_string().contains("require `sample.count`"), "{err}");
    }

    #[test]
    fn salt_perturbs_fingerprints_deterministically() {
        let base = Job::from_texts(0, "x", "gain = 1", "p", "vdd = 5");
        let a = base.clone().with_salt(1);
        let b = base.clone().with_salt(1);
        let c = base.clone().with_salt(2);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), base.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(base.clone().with_salt(0).fingerprint(), base.fingerprint());
    }

    /// Checkpoints and dataset records store these values, so they must
    /// never change.
    #[test]
    fn fingerprint_and_salt_known_answers() {
        let hex = |x: u64| format!("{x:016x}");
        assert_eq!(hex(fingerprint("", "")), "af63d24c8601db8e");
        assert_eq!(hex(fingerprint("gain = 1", "vdd = 5")), "74fc08e4ede4057b");
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data");
        let read = |name: &str| std::fs::read_to_string(root.join(name)).unwrap();
        let (spec, tech) = (read("spec-a.txt"), read("generic-5um.tech"));
        assert_eq!(hex(fingerprint(&spec, &tech)), "c3bd74d698680595");
        let job = Job::from_texts(0, "x", "gain = 1", "p", "vdd = 5");
        assert_eq!(
            hex(job.clone().with_salt(1).fingerprint()),
            "e5f6250864e659ba"
        );
        assert_eq!(
            hex(job.with_salt(0xdead_beef).fingerprint()),
            "3e23b1eb852deee0"
        );
    }

    #[test]
    fn fingerprints_depend_on_content_not_labels() {
        let a = Job::from_texts(0, "x.txt", "gain = 1", "p.tech", "vdd = 5");
        let b = Job::from_texts(7, "renamed.txt", "gain = 1", "moved.tech", "vdd = 5");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = Job::from_texts(0, "x.txt", "gain = 2", "p.tech", "vdd = 5");
        assert_ne!(a.fingerprint(), c.fingerprint());
        // The separator keeps boundary shifts from colliding.
        let d = Job::from_texts(0, "x", "gain = 1v", "p", "dd = 5");
        assert_ne!(a.fingerprint(), d.fingerprint());
    }
}
