//! The streaming shard record sink.
//!
//! A shard streams every finished record to an append-only *partial*
//! file (`shard-<i>-of-<N>.jsonl.partial`): a [`SealedLog`] keyed by
//! global point id (`oasys-dataset/2` lines, `<record json>\t<fnv1a64
//! hex>\n`) and the shard's *only* checkpoint. On restart the log drops
//! any damaged line and only unrecorded points re-run.
//!
//! When every point has a line, [`ShardSink::finalize`] publishes the
//! shard atomically: records stream from the partial *by offset* in
//! global-id order into `shard-<i>-of-<N>.jsonl`, alongside
//! `shard-<i>-of-<N>.summary.json`. A crash before the rename leaves the
//! partial to resume from; after it, [`heal_published`] re-checks the
//! published shard on later runs and demotes a damaged or incomplete one
//! back to a partial of its healthy lines.
//!
//! Fault sites: `dataset.sink.record` tears a record write in half
//! (bytes land, no newline, error reported); `sink.record.corrupt`
//! flips one byte mid-line and *reports success* — silent bit rot,
//! detectable only by the checksum.

use crate::integrity::{self, LogFormat, Salvage, SealedLog};
use oasys_telemetry::json;
use std::path::{Path, PathBuf};

static SHARD_LOG: LogFormat = LogFormat {
    header: None,
    torn_site: "dataset.sink.record",
    flip_site: Some("sink.record.corrupt"),
};

/// File-name stem for one shard of `shards`.
#[must_use]
pub fn shard_stem(shard_index: usize, shards: usize) -> String {
    format!("shard-{shard_index}-of-{shards}")
}

/// Path of a shard's published record file.
#[must_use]
pub fn shard_records_path(dir: &Path, shard_index: usize, shards: usize) -> PathBuf {
    dir.join(format!("{}.jsonl", shard_stem(shard_index, shards)))
}

/// Path of a shard's published summary file.
#[must_use]
pub fn shard_summary_path(dir: &Path, shard_index: usize, shards: usize) -> PathBuf {
    dir.join(format!("{}.summary.json", shard_stem(shard_index, shards)))
}

/// Path of a shard's in-progress partial file.
#[must_use]
pub fn shard_partial_path(dir: &Path, shard_index: usize, shards: usize) -> PathBuf {
    dir.join(format!("{}.jsonl.partial", shard_stem(shard_index, shards)))
}

/// The streaming record sink for one shard: record id → whether the
/// record met every verified spec.
pub struct ShardSink {
    log: SealedLog<usize, bool>,
    records_path: PathBuf,
    summary_path: PathBuf,
}

impl ShardSink {
    /// `true` when this shard has already been published (records +
    /// summary exist) — a re-run may skip it entirely *after*
    /// [`heal_published`] re-verifies the lines.
    #[must_use]
    pub fn is_complete(dir: &Path, shard_index: usize, shards: usize) -> bool {
        shard_records_path(dir, shard_index, shards).is_file()
            && shard_summary_path(dir, shard_index, shards).is_file()
    }

    /// Opens (or resumes) the shard's partial file, repairing any damage
    /// ([`ShardSink::salvage`]); the dropped points re-run.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating, reading, or repairing the
    /// partial file.
    pub fn open(dir: &Path, shard_index: usize, shards: usize) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let log = SealedLog::open(
            shard_partial_path(dir, shard_index, shards),
            &SHARD_LOG,
            parse_record,
        )?;
        Ok(Self {
            log,
            records_path: shard_records_path(dir, shard_index, shards),
            summary_path: shard_summary_path(dir, shard_index, shards),
        })
    }

    /// Global ids recorded (salvaged or written this run), ascending.
    pub fn recorded_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.log.keys().copied()
    }

    /// Recorded points whose design met every verified spec.
    #[must_use]
    pub fn passed_count(&self) -> usize {
        self.log.values().filter(|&&passed| passed).count()
    }

    /// What opening the partial repaired.
    #[must_use]
    pub fn salvage(&self) -> Salvage {
        self.log.salvage()
    }

    /// Appends one record line (`line` carries no seal and no trailing
    /// newline) and flushes it to the OS — a crash after `record`
    /// returns cannot lose this record. The line is indexed by the
    /// same parser that reads it back on open.
    ///
    /// # Errors
    ///
    /// `InvalidData` when `line` is not a record; write failures
    /// otherwise (see [`SealedLog::append`] for the fault sites).
    pub fn record(&mut self, line: &str) -> std::io::Result<()> {
        let (id, passed) = parse_record(line).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "not a dataset record")
        })?;
        self.log.append(id, passed, line)
    }

    /// Publishes the shard: records stream from the partial file in
    /// global-id order into `<stem>.jsonl`, `summary_json` lands as
    /// `<stem>.summary.json`, both atomically, and the partial is
    /// removed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the partial file survives, so
    /// the shard resumes rather than restarts.
    pub fn finalize(self, summary_json: &str) -> std::io::Result<()> {
        self.log.publish(&self.records_path)?;
        integrity::write_atomic(&self.summary_path, |out| {
            out.write_all(summary_json.as_bytes())
        })?;
        match std::fs::remove_file(self.log.path()) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// Re-verifies a *published* shard against `ids`, the shard's point
/// ids. A shard whose lines all verify and cover every id stands
/// (clean [`Salvage`]). Otherwise it is demoted: its healthy lines
/// become a fresh partial, then the published summary and records are
/// removed, so the caller resumes the shard and re-runs exactly the
/// missing points — each counted as quarantined, whether its line was
/// damaged or lost outright (per-line seals cannot see a missing line).
///
/// Crash-safe at every step: the partial lands before the published
/// files go away, and the demotion is idempotent if interrupted.
///
/// # Errors
///
/// Propagates I/O failures reading or rewriting the shard files.
pub fn heal_published(
    dir: &Path,
    shard_index: usize,
    shards: usize,
    ids: impl IntoIterator<Item = usize>,
) -> std::io::Result<Salvage> {
    let published = SealedLog::open(
        shard_records_path(dir, shard_index, shards),
        &SHARD_LOG,
        parse_record,
    )?;
    let salvage = Salvage {
        torn_tail: published.salvage().torn_tail,
        quarantined: ids
            .into_iter()
            .filter(|id| published.get(id).is_none())
            .count(),
    };
    if !salvage.is_clean() {
        published.publish(&shard_partial_path(dir, shard_index, shards))?;
        std::fs::remove_file(shard_summary_path(dir, shard_index, shards))?;
        std::fs::remove_file(published.path())?;
    }
    Ok(salvage)
}

/// Parses a record payload into its id and whether it met every
/// verified spec (`"ok":{"meets_spec":true}`); `None` when the payload
/// is not a record.
pub(crate) fn parse_record(payload: &str) -> Option<(usize, bool)> {
    let value = json::parse(payload).ok()?;
    let id = value.get("id")?.as_num()?;
    if id.fract() != 0.0 || id < 0.0 {
        return None;
    }
    let passed = value
        .get("ok")
        .and_then(|ok| ok.get("meets_spec"))
        .and_then(json::Json::as_bool)
        .unwrap_or(false);
    Some((id as usize, passed))
}

/// Strips a line's checksum seal, returning the record payload ready
/// for `json::parse`; `None` when the seal does not verify.
#[must_use]
pub fn open_record_line(line: &str) -> Option<&str> {
    integrity::open_line(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(id: usize) -> String {
        format!("{{\"id\":{id},\"outcome\":\"ok\"}}")
    }

    fn sealed(id: usize) -> String {
        integrity::seal_line(&line(id))
    }

    #[test]
    fn finalize_publishes_sorted_records_atomically() {
        let dir = crate::dataset::test_dir("sink_finalize");
        let mut sink = ShardSink::open(&dir, 1, 2).unwrap();
        for id in [5, 1, 3] {
            sink.record(&line(id)).unwrap();
        }
        sink.finalize("{\"records\":3}").unwrap();
        let published = std::fs::read_to_string(shard_records_path(&dir, 1, 2)).unwrap();
        assert_eq!(
            published,
            format!("{}\n{}\n{}\n", sealed(1), sealed(3), sealed(5))
        );
        let summary = std::fs::read_to_string(shard_summary_path(&dir, 1, 2)).unwrap();
        assert_eq!(summary, "{\"records\":3}");
        assert!(ShardSink::is_complete(&dir, 1, 2));
        assert!(!shard_partial_path(&dir, 1, 2).exists());
    }

    #[test]
    fn passed_count_takes_each_records_latest_line() {
        let dir = crate::dataset::test_dir("sink_passed");
        let mut sink = ShardSink::open(&dir, 0, 1).unwrap();
        sink.record("{\"id\":0,\"ok\":{\"meets_spec\":true}}")
            .unwrap();
        sink.record("{\"id\":1,\"ok\":{\"meets_spec\":true}}")
            .unwrap();
        sink.record("{\"id\":1,\"ok\":{\"meets_spec\":false}}")
            .unwrap();
        assert_eq!(sink.passed_count(), 1);
        drop(sink);
        let mut sink = ShardSink::open(&dir, 0, 1).unwrap();
        assert_eq!(sink.passed_count(), 1, "reopen indexes the same way");
        assert!(sink.record("not json").is_err());
    }

    #[test]
    fn corrupt_fault_flips_a_line_that_reopen_quarantines() {
        let dir = crate::dataset::test_dir("sink_bitrot");
        {
            let mut sink = ShardSink::open(&dir, 0, 1).unwrap();
            sink.record(&line(0)).unwrap();
            oasys_faults::set("sink.record.corrupt", oasys_faults::FaultSpec::FailOnce);
            sink.record(&line(1)).unwrap(); // silently corrupted
            oasys_faults::remove("sink.record.corrupt");
            sink.record(&line(2)).unwrap();
        }
        let sink = ShardSink::open(&dir, 0, 1).unwrap();
        assert_eq!(sink.recorded_ids().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(sink.salvage().quarantined, 1);
    }

    #[test]
    fn heal_published_demotes_a_shard_that_lost_lines() {
        let dir = crate::dataset::test_dir("sink_heal");
        let mut sink = ShardSink::open(&dir, 0, 1).unwrap();
        for id in 0..3 {
            sink.record(&line(id)).unwrap();
        }
        sink.finalize("{\"records\":3}").unwrap();
        assert!(heal_published(&dir, 0, 1, 0..3).unwrap().is_clean());
        assert!(ShardSink::is_complete(&dir, 0, 1));

        // A shard cut to its first line still verifies line by line:
        // only the point ids show the loss. It is demoted, and only the
        // missing points re-run.
        std::fs::write(shard_records_path(&dir, 0, 1), format!("{}\n", sealed(0))).unwrap();
        assert_eq!(heal_published(&dir, 0, 1, 0..3).unwrap().quarantined, 2);
        assert!(!ShardSink::is_complete(&dir, 0, 1), "shard demoted");
        let sink = ShardSink::open(&dir, 0, 1).unwrap();
        assert_eq!(sink.recorded_ids().collect::<Vec<_>>(), vec![0]);
    }
}
