//! Seeded input generation: every text the program sees is made here
//! from the benchmark seed.

use oasys_process::{builtin, techfile};
use std::path::{Path, PathBuf};

/// SplitMix64: a tiny, seedable generator (the same family the dataset
/// sampler uses), so a seed names one input sequence on every host.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` salted by `stream`, so independent input
    /// streams of one run never share draws.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xd605_bbb5_8c8a_bcf5));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// A seeded two-dimensional low-discrepancy sequence (the R2 sequence
/// from a random origin). Any run of consecutive points covers the unit
/// square evenly, so the share of inputs falling into an expensive
/// region (a folded-cascode answer verifies ~6× slower than the others)
/// varies far less between seeds than it would with independent draws.
#[derive(Clone, Debug)]
pub struct Spread {
    origin: (f64, f64),
}

impl Spread {
    /// The sequence for `seed`, salted by `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng::new(seed, stream);
        Self {
            origin: (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)),
        }
    }

    /// Point `k`, in `[0, 1)²`.
    #[must_use]
    pub fn point(&self, k: u64) -> (f64, f64) {
        const A1: f64 = 0.754_877_666_246_692_7;
        const A2: f64 = 0.569_840_290_998_053_3;
        let k = k as f64;
        (
            (self.origin.0 + k * A1).fract(),
            (self.origin.1 + k * A2).fract(),
        )
    }
}

/// A per-slice seed for dataset manifests (`sample.seed`): slice `k` of
/// run seed `seed`.
#[must_use]
pub fn slice_seed(seed: u64, k: u64) -> u64 {
    Rng::new(seed, 0x5eed_0000 + k).next_u64() >> 1
}

/// The paper's case A (Table 1), with its DC gain and load replaced —
/// the base every sampled specification varies.
#[must_use]
pub fn spec_a_text(dc_gain_db: f64, load_pf: f64) -> String {
    format!(
        "dc_gain_db = {dc_gain_db}\nunity_gain_mhz = 0.5\nphase_margin_deg = 45\n\
         load_pf = {load_pf}\nslew_rate_v_per_us = 2\noutput_swing_v = 1.2\n"
    )
}

/// The paper's three Table 1 cases with the style EXPERIMENTS.md Table 2
/// says each selects on the 5 µm kit.
#[must_use]
pub fn paper_cases() -> [(&'static str, String, &'static str); 3] {
    let tail = "unity_gain_mhz = 0.5\nphase_margin_deg = 45\nload_pf = 5\nslew_rate_v_per_us = 2\n";
    [
        ("case-a", spec_a_text(60.0, 5.0), "one-stage OTA"),
        (
            "case-b",
            format!("dc_gain_db = 75\n{tail}output_swing_v = 4.0\nmax_offset_mv = 1.0\n"),
            "two-stage",
        ),
        (
            "case-c",
            format!("dc_gain_db = 100\n{tail}output_swing_v = 2.5\nmax_offset_mv = 1.0\n"),
            "two-stage",
        ),
    ]
}

/// The bundled process kits as technology-file text: `(file stem, text)`.
#[must_use]
pub fn kits() -> [(&'static str, String); 3] {
    [
        ("kit-5um", techfile::write(&builtin::cmos_5um())),
        ("kit-3um", techfile::write(&builtin::cmos_3um())),
        ("kit-1p2um", techfile::write(&builtin::cmos_1p2um())),
    ]
}

/// A scratch directory for one run, inside the working directory (the
/// benchmark reads and writes nothing outside its checkout). Removed on
/// drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<name>-<pid>` afresh. The path stays
    /// relative: a Unix socket path must fit in 108 bytes wherever the
    /// checkout lives.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn create(name: &str) -> std::io::Result<Self> {
        let path = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Writes `text` to `name` inside the directory and returns its path
    /// as manifest text.
    ///
    /// # Errors
    ///
    /// When the file cannot be written.
    pub fn write(&self, name: &str, text: &str) -> Result<String, String> {
        let path = self.0.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path.display().to_string())
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_repeat_per_seed_and_differ_across_seeds() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_eq!(slice_seed(3, 5), slice_seed(3, 5));
        assert_eq!(Spread::new(3, 1).point(9), Spread::new(3, 1).point(9));
        let mut rng = Rng::new(1, 0);
        for _ in 0..1000 {
            let x = rng.uniform(55.0, 68.0);
            assert!((55.0..68.0).contains(&x));
        }
    }

    #[test]
    fn spread_points_cover_the_square_evenly() {
        let spread = Spread::new(11, 2);
        let mut cells = [0usize; 16];
        for k in 0..160 {
            let (x, y) = spread.point(k);
            assert!((0.0..1.0).contains(&x) && (0.0..1.0).contains(&y));
            cells[(x * 4.0) as usize * 4 + (y * 4.0) as usize] += 1;
        }
        // 10 points per cell on average; independent draws would stray
        // much further.
        assert!(cells.iter().all(|&c| (6..=14).contains(&c)), "{cells:?}");
    }

    #[test]
    fn generated_specs_parse() {
        oasys::specfile::parse(&spec_a_text(61.25, 3.5)).unwrap();
        for (_, text, _) in paper_cases() {
            oasys::specfile::parse(&text).unwrap();
        }
        for (_, text) in kits() {
            techfile::parse(&text).unwrap();
        }
    }
}
