//! Resumable batch checkpoints.
//!
//! The checkpoint file is a [`SealedLog`]: a header line, then one
//! sealed, tab-separated record per finished job, appended and flushed
//! the moment the job finishes. On resume, jobs whose fingerprints
//! appear with a *completed* outcome (`ok` or `infeasible`) are skipped;
//! `failed` entries are kept for diagnosis but re-run, since a panic or
//! timeout may have been environmental.
//!
//! ```text
//! oasys-batch-checkpoint v2
//! 8f3a…\tok\ttwo-stage\t<area f64 bits, hex>\tspec-b.txt\tgeneric-5um.tech\t<fnv1a64, hex>
//! 77c1…\tinfeasible\t-\t-\tspec-c.txt\tgeneric-1.2um.tech\t<fnv1a64, hex>
//! ```
//!
//! The completed record carries the *outcome* (style and bit-exact
//! area), not just the fingerprint — that is what lets a resumed run
//! reconstruct the same aggregate report as an uninterrupted one
//! without redoing the work. A damaged line of any kind (including the
//! unsealed `v1` format) is dropped on open and its job re-runs.

use crate::integrity::{LogFormat, Salvage, SealedLog};
use std::fmt;
use std::path::{Path, PathBuf};

/// First line of every checkpoint file; the version suffix gates
/// format evolution.
pub const CHECKPOINT_HEADER: &str = "oasys-batch-checkpoint v2";

static CHECKPOINT_LOG: LogFormat = LogFormat {
    header: Some(CHECKPOINT_HEADER),
    torn_site: "batch.checkpoint.record",
    flip_site: None,
};

/// How a checkpointed job ended.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointOutcome {
    /// A style was selected; the record stores which and its area.
    Ok {
        /// Winning style name.
        style: String,
        /// Estimated area, µm², preserved bit-exactly.
        area_um2: f64,
    },
    /// Every style was rejected — a definitive answer, so the job is
    /// complete and is skipped on resume.
    Infeasible,
    /// The job failed (panic, timeout, or a hard error). Recorded for
    /// diagnosis; *not* treated as complete, so resume re-runs it.
    Failed,
}

impl CheckpointOutcome {
    /// `true` when the job produced a definitive synthesis answer and
    /// must not be re-run on resume.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        !matches!(self, CheckpointOutcome::Failed)
    }
}

/// Why a checkpoint could not be used.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read, repaired, or written.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, error } => write!(f, "{}: {error}", path.display()),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The job outcomes loaded from (and appended to) a checkpoint file;
/// the last record per fingerprint wins. The spec and tech labels on
/// disk are for people reading the file.
#[derive(Debug)]
pub struct Checkpoint {
    log: SealedLog<u64, CheckpointOutcome>,
}

impl Checkpoint {
    /// Opens (or creates, on the first record) the checkpoint at `path`
    /// and loads its records, repairing any damage (see
    /// [`Checkpoint::salvage`]).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem errors.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let path = path.as_ref();
        let log = SealedLog::open(path, &CHECKPOINT_LOG, parse_entry).map_err(|error| {
            CheckpointError::Io {
                path: path.to_path_buf(),
                error,
            }
        })?;
        Ok(Self { log })
    }

    /// What [`Checkpoint::open`] dropped: a torn final line and the
    /// number of untrusted lines. Their jobs simply re-run.
    #[must_use]
    pub fn salvage(&self) -> Salvage {
        self.log.salvage()
    }

    /// The completed (skippable) outcome for `fingerprint`, if any.
    #[must_use]
    pub fn completed(&self, fingerprint: u64) -> Option<&CheckpointOutcome> {
        self.log
            .get(&fingerprint)
            .filter(|outcome| outcome.is_complete())
    }

    /// Appends one finished job and flushes, creating the file (with its
    /// header) on first write.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the record cannot be written.
    pub fn record(
        &mut self,
        fingerprint: u64,
        outcome: &CheckpointOutcome,
        spec_label: &str,
        tech_label: &str,
    ) -> Result<(), CheckpointError> {
        let (word, style, area) = match outcome {
            CheckpointOutcome::Ok { style, area_um2 } => {
                ("ok", style.as_str(), format!("{:016x}", area_um2.to_bits()))
            }
            CheckpointOutcome::Infeasible => ("infeasible", "-", "-".to_owned()),
            CheckpointOutcome::Failed => ("failed", "-", "-".to_owned()),
        };
        let payload =
            format!("{fingerprint:016x}\t{word}\t{style}\t{area}\t{spec_label}\t{tech_label}");
        self.log
            .append(fingerprint, outcome.clone(), &payload)
            .map_err(|error| CheckpointError::Io {
                path: self.log.path().to_path_buf(),
                error,
            })
    }
}

/// Parses one record payload: six tab-separated fields, with the
/// fingerprint (and an `ok` record's area bits) as 16 hex digits.
fn parse_entry(payload: &str) -> Option<(u64, CheckpointOutcome)> {
    let fields: Vec<&str> = payload.split('\t').collect();
    let [fp, word, style, area, _spec_label, _tech_label] = fields.as_slice() else {
        return None;
    };
    let hex = |s: &str| (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok())?;
    let outcome = match *word {
        "ok" => CheckpointOutcome::Ok {
            style: (*style).to_owned(),
            area_um2: f64::from_bits(hex(area)?),
        },
        "infeasible" => CheckpointOutcome::Infeasible,
        "failed" => CheckpointOutcome::Failed,
        _ => return None,
    };
    Some((hex(fp)?, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::seal_line;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("oasys-batch-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let path = tmp("roundtrip");
        {
            let mut cp = Checkpoint::open(&path).unwrap();
            cp.record(
                0xdead_beef,
                &CheckpointOutcome::Ok {
                    style: "two-stage".into(),
                    area_um2: 1234.5678,
                },
                "b.txt",
                "p.tech",
            )
            .unwrap();
            cp.record(7, &CheckpointOutcome::Infeasible, "c.txt", "q.tech")
                .unwrap();
            cp.record(9, &CheckpointOutcome::Failed, "d.txt", "q.tech")
                .unwrap();
        }
        let cp = Checkpoint::open(&path).unwrap();
        assert!(cp.salvage().is_clean());
        assert!(cp.completed(7).is_some());
        match cp.completed(0xdead_beef).unwrap() {
            CheckpointOutcome::Ok { style, area_um2 } => {
                assert_eq!(style, "two-stage");
                assert_eq!(area_um2.to_bits(), 1234.5678_f64.to_bits());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(cp.completed(9).is_none(), "failed jobs re-run on resume");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn new_checkpoints_write_sealed_v2_lines() {
        let path = tmp("sealed");
        let mut cp = Checkpoint::open(&path).unwrap();
        assert!(!path.exists(), "the file appears with the first record");
        cp.record(1, &CheckpointOutcome::Infeasible, "a", "b")
            .unwrap();
        drop(cp);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!(
                "{CHECKPOINT_HEADER}\n{}\n",
                seal_line("0000000000000001\tinfeasible\t-\t-\ta\tb")
            )
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sealed_lines_that_are_not_records_are_untrusted() {
        let path = tmp("malformed");
        let good = seal_line("0000000000000007\tinfeasible\t-\t-\ta\tb");
        let text = format!(
            "{CHECKPOINT_HEADER}\n{}\n{good}\n",
            seal_line("not-a-record")
        );
        std::fs::write(&path, text).unwrap();
        let cp = Checkpoint::open(&path).unwrap();
        assert_eq!(cp.salvage().quarantined, 1, "written wrong, never trusted");
        assert!(cp.completed(7).is_some(), "its neighbour survives");
        std::fs::remove_file(&path).unwrap();
    }
}
