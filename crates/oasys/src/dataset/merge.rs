//! Shard merging: published shards → one `dataset.jsonl` +
//! `dataset-summary.json`, byte-identical for every shard count.
//!
//! Each published shard is already sorted by global id, and the modulo
//! partition makes shard id sets disjoint — so the merge is a streaming
//! k-way merge on the current head of each shard reader, holding one
//! line per shard in memory. The merged summary sums per-shard
//! aggregates and drops everything shard-shaped (`shard.index`,
//! `shard.of`), so its bytes are also independent of how the run was
//! partitioned. Plan fingerprints must agree across shards: merging
//! shards of two different plans is a hard error, not a garbage file.
//!
//! Integrity: every record line's checksum seal is verified as it
//! streams through. A line that fails is *quarantined* — counted per
//! shard, never copied into the merged output — and a merge that
//! quarantined anything, or that merged fewer lines than the plan has
//! points (per-line seals cannot see a line that is gone), aborts
//! before publishing ([`crate::dataset::generate`] heals a damaged or
//! short shard by re-running exactly its missing points).

use super::sink::{self, open_record_line, parse_record};
use super::DatasetError;
use crate::integrity;
use oasys_telemetry::json::{self, Json};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

/// The merged dataset's record file name.
pub const MERGED_RECORDS: &str = "dataset.jsonl";
/// The merged dataset's summary file name.
pub const MERGED_SUMMARY: &str = "dataset-summary.json";

/// The outcome of a merge.
#[derive(Clone, Debug)]
pub struct MergeReport {
    /// Shards merged.
    pub shards: usize,
    /// Records in the merged dataset.
    pub records: usize,
    /// Records whose design met every verified spec.
    pub passed: usize,
    /// The plan fingerprint shared by every shard.
    pub plan_fingerprint: String,
    /// Corrupt record lines quarantined while streaming. Always `0` on
    /// a published merge — a merge that quarantines anything aborts
    /// with an error instead, naming the shards to re-run.
    pub records_quarantined: usize,
    /// Path of the merged record file.
    pub records_path: PathBuf,
}

/// One shard reader: its next pending line, and the stream behind it.
struct ShardReader {
    next: Option<(usize, String)>,
    reader: BufReader<std::fs::File>,
    path: PathBuf,
    /// Corrupt or unparseable lines skipped (never merged) so far.
    quarantined: usize,
}

impl ShardReader {
    fn open(path: &Path) -> Result<Self, DatasetError> {
        let file = std::fs::File::open(path).map_err(|error| DatasetError::Sink {
            path: path.to_path_buf(),
            error,
        })?;
        let mut reader = Self {
            next: None,
            reader: BufReader::new(file),
            path: path.to_path_buf(),
            quarantined: 0,
        };
        reader.advance().map_err(|error| DatasetError::Sink {
            path: path.to_path_buf(),
            error,
        })?;
        Ok(reader)
    }

    fn advance(&mut self) -> std::io::Result<()> {
        // Lines are read as bytes: corruption can make a line invalid
        // UTF-8, which must quarantine that line, not abort the read.
        let mut buf = Vec::new();
        self.next = loop {
            buf.clear();
            if self.reader.read_until(b'\n', &mut buf)? == 0 {
                break None;
            }
            if buf.last() == Some(&b'\n') {
                buf.pop();
            }
            // A line whose encoding, seal, or JSON fails to verify is
            // quarantined: skipped here, surfaced as a hard error
            // before the merge publishes.
            match String::from_utf8(std::mem::take(&mut buf)) {
                Ok(line) => match open_record_line(&line).and_then(parse_record) {
                    Some((id, _)) => break Some((id, line)),
                    None => self.quarantined += 1,
                },
                Err(_) => self.quarantined += 1,
            }
        };
        Ok(())
    }
}

/// Merges every published shard in `dir`. The shard count is read from
/// the file names (`shard-<i>-of-<N>.jsonl`); all `N` shards must be
/// present, published, and stamped with the same plan fingerprint.
///
/// # Errors
///
/// [`DatasetError::Merge`] on missing shards, mixed plans, duplicate
/// ids, or malformed records; [`DatasetError::Sink`] on I/O failures.
pub fn merge(dir: &Path) -> Result<MergeReport, DatasetError> {
    let shards = discover_shard_count(dir)?;
    let mut fingerprint: Option<String> = None;
    let mut records_sum = 0usize;
    let mut passed_sum = 0usize;
    let mut total_points = 0usize;
    let mut samples_rejected = 0usize;
    let mut samples_drawn = 0usize;
    for index in 0..shards {
        let summary_path = sink::shard_summary_path(dir, index, shards);
        let text = std::fs::read_to_string(&summary_path).map_err(|error| DatasetError::Merge {
            detail: format!(
                "shard {index} of {shards} is not published ({}: {error})",
                summary_path.display()
            ),
        })?;
        let summary = json::parse(&text).map_err(|e| DatasetError::Merge {
            detail: format!("{}: {e}", summary_path.display()),
        })?;
        let fp = summary
            .get("plan_fingerprint")
            .and_then(Json::as_str)
            .ok_or_else(|| DatasetError::Merge {
                detail: format!("{}: missing plan_fingerprint", summary_path.display()),
            })?;
        match &fingerprint {
            None => fingerprint = Some(fp.to_owned()),
            Some(expect) if expect != fp => {
                return Err(DatasetError::Merge {
                    detail: format!(
                        "shard {index} was generated from a different plan \
                         ({fp} != {expect}); do not mix runs in one directory"
                    ),
                })
            }
            Some(_) => {}
        }
        let num = |key: &str| summary.get(key).and_then(Json::as_num).unwrap_or(0.0) as usize;
        records_sum += num("records");
        passed_sum += num("passed");
        total_points = total_points.max(num("total_points"));
        samples_rejected = samples_rejected.max(num("samples_rejected"));
        samples_drawn = samples_drawn.max(num("samples_drawn"));
    }
    let plan_fingerprint = fingerprint.ok_or(DatasetError::Empty)?;
    if records_sum != total_points {
        return Err(DatasetError::Merge {
            detail: format!(
                "shards hold {records_sum} records but the plan has {total_points} points"
            ),
        });
    }

    let mut readers = Vec::with_capacity(shards);
    for index in 0..shards {
        readers.push(ShardReader::open(&sink::shard_records_path(
            dir, index, shards,
        ))?);
    }

    // The k-way merge streams into the atomic writer; a refusal found
    // mid-stream fails the write, so nothing is published.
    let records_path = dir.join(MERGED_RECORDS);
    let mut refusal = None;
    let mut records = 0usize;
    let written = integrity::write_atomic(&records_path, |out| {
        let mut last_id: Option<usize> = None;
        while let Some((id, which)) = readers
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.next.as_ref().map(|(id, _)| (*id, i)))
            .min()
        {
            if last_id == Some(id) {
                refusal = Some(format!("record id {id} appears in two shards"));
                return Err(std::io::Error::other("merge refused"));
            }
            last_id = Some(id);
            if let Some((_, line)) = readers[which].next.take() {
                out.write_all(line.as_bytes())?;
                out.write_all(b"\n")?;
                records += 1;
            }
            readers[which].advance()?;
        }
        // Integrity gate: a merge that quarantined anything, or that
        // holds fewer lines than the plan has points (per-line seals
        // cannot see a line that is gone), must not publish. Name the
        // damaged shards so a re-run (`oasys dataset`) can heal them.
        let records_quarantined: usize = readers.iter().map(|r| r.quarantined).sum();
        if records_quarantined > 0 || records != total_points {
            let damaged: String = readers
                .iter()
                .filter(|r| r.quarantined > 0)
                .map(|r| {
                    format!(
                        ", {} line(s) corrupt in {}",
                        r.quarantined,
                        r.path.display()
                    )
                })
                .collect();
            refusal = Some(format!(
                "records_quarantined={records_quarantined}: merged {records} of \
                 {total_points} records{damaged}; re-run the shards to heal them, \
                 then merge again"
            ));
            return Err(std::io::Error::other("merge refused"));
        }
        Ok(())
    });
    if let Some(detail) = refusal {
        return Err(DatasetError::Merge { detail });
    }
    written.map_err(|error| DatasetError::Sink {
        path: records_path.clone(),
        error,
    })?;

    let summary = format!(
        concat!(
            "{{\"schema\":\"oasys-dataset-summary\",\"v\":1,",
            "\"plan_fingerprint\":\"{}\",\"total_points\":{},",
            "\"samples_rejected\":{},\"samples_drawn\":{},",
            "\"records\":{},\"passed\":{}}}"
        ),
        plan_fingerprint, total_points, samples_rejected, samples_drawn, records, passed_sum,
    );
    let summary_path = dir.join(MERGED_SUMMARY);
    integrity::write_atomic(&summary_path, |out| out.write_all(summary.as_bytes())).map_err(
        |error| DatasetError::Sink {
            path: summary_path,
            error,
        },
    )?;

    Ok(MergeReport {
        shards,
        records,
        passed: passed_sum,
        plan_fingerprint,
        records_quarantined: 0,
        records_path,
    })
}

/// Reads the shard count `N` from the published `shard-*-of-N.jsonl`
/// names in `dir`, requiring every file to agree.
fn discover_shard_count(dir: &Path) -> Result<usize, DatasetError> {
    let entries = std::fs::read_dir(dir).map_err(|error| DatasetError::Sink {
        path: dir.to_path_buf(),
        error,
    })?;
    let mut count: Option<usize> = None;
    for entry in entries {
        let entry = entry.map_err(|error| DatasetError::Sink {
            path: dir.to_path_buf(),
            error,
        })?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(of) = parse_shard_count(name) else {
            continue;
        };
        match count {
            None => count = Some(of),
            Some(expect) if expect != of => {
                return Err(DatasetError::Merge {
                    detail: format!(
                        "mixed shard counts in {} ({expect} and {of}); \
                         do not mix runs in one directory",
                        dir.display()
                    ),
                })
            }
            Some(_) => {}
        }
    }
    count.ok_or(DatasetError::Empty)
}

/// Parses `N` out of `shard-<i>-of-<N>.jsonl` (published records only —
/// partials and summaries are ignored).
fn parse_shard_count(name: &str) -> Option<usize> {
    let rest = name.strip_prefix("shard-")?;
    let rest = rest.strip_suffix(".jsonl")?;
    let (_, of) = rest.split_once("-of-")?;
    of.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::sink::ShardSink;

    fn line(id: usize) -> String {
        format!("{{\"id\":{id},\"outcome\":\"ok\"}}")
    }

    fn summary(fp: &str, records: usize, total: usize) -> String {
        format!(
            "{{\"schema\":\"oasys-dataset-summary\",\"v\":1,\"plan_fingerprint\":\"{fp}\",\
             \"total_points\":{total},\"samples_rejected\":0,\"samples_drawn\":0,\
             \"records\":{records},\"passed\":0,\"shard\":{{\"index\":0,\"of\":1}}}}"
        )
    }

    fn publish(dir: &Path, index: usize, shards: usize, ids: &[usize], fp: &str, total: usize) {
        let _faults = crate::dataset::no_faults_armed();
        let mut sink = ShardSink::open(dir, index, shards).unwrap();
        for &id in ids {
            sink.record(&line(id)).unwrap();
        }
        sink.finalize(&summary(fp, ids.len(), total)).unwrap();
    }

    #[test]
    fn merges_disjoint_shards_in_id_order() {
        let dir = crate::dataset::test_dir("merge_basic");
        publish(&dir, 0, 2, &[0, 2, 4], "ab", 6);
        publish(&dir, 1, 2, &[1, 3, 5], "ab", 6);
        let report = merge(&dir).unwrap();
        assert_eq!(report.records, 6);
        assert_eq!(report.records_quarantined, 0);
        let merged = std::fs::read_to_string(dir.join(MERGED_RECORDS)).unwrap();
        let expect: String = (0..6)
            .map(|id| format!("{}\n", crate::integrity::seal_line(&line(id))))
            .collect();
        assert_eq!(merged, expect, "merged lines keep their seals");
    }

    #[test]
    fn corrupt_shard_line_aborts_the_merge_with_quarantine_report() {
        let dir = crate::dataset::test_dir("merge_bitrot");
        publish(&dir, 0, 2, &[0, 2], "ab", 4);
        publish(&dir, 1, 2, &[1, 3], "ab", 4);
        // Flip one byte in shard 1's first record.
        let path = sink::shard_records_path(&dir, 1, 2);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[5] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let err = merge(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("records_quarantined=1"), "{msg}");
        assert!(msg.contains("shard-1-of-2"), "{msg}");
        assert!(
            !dir.join(MERGED_RECORDS).exists(),
            "a quarantining merge must not publish"
        );
    }

    #[test]
    fn shard_that_lost_whole_lines_aborts_the_merge() {
        let dir = crate::dataset::test_dir("merge_short");
        publish(&dir, 0, 1, &[0, 1, 2], "ab", 3);
        // Cut the shard to its first two lines: every surviving line
        // still verifies, so only the count can tell.
        let path = sink::shard_records_path(&dir, 0, 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let cut: String = text.split_inclusive('\n').take(2).collect();
        std::fs::write(&path, cut).unwrap();

        let err = merge(&dir).unwrap_err().to_string();
        assert!(err.contains("merged 2 of 3 records"), "{err}");
        assert!(
            !dir.join(MERGED_RECORDS).exists(),
            "a short merge must not publish"
        );
    }

    #[test]
    fn rejects_mixed_plans_and_missing_shards() {
        let dir = crate::dataset::test_dir("merge_mixed");
        publish(&dir, 0, 2, &[0], "aa", 2);
        publish(&dir, 1, 2, &[1], "bb", 2);
        let err = merge(&dir).unwrap_err();
        assert!(err.to_string().contains("different plan"), "{err}");

        let dir = crate::dataset::test_dir("merge_missing");
        publish(&dir, 0, 2, &[0], "aa", 2);
        let err = merge(&dir).unwrap_err();
        assert!(err.to_string().contains("not published"), "{err}");
    }

    #[test]
    fn rejects_duplicate_ids_across_shards() {
        let dir = crate::dataset::test_dir("merge_dupe");
        publish(&dir, 0, 2, &[0, 1], "aa", 4);
        publish(&dir, 1, 2, &[1, 2], "aa", 4);
        let err = merge(&dir).unwrap_err();
        assert!(err.to_string().contains("two shards"), "{err}");
    }

    #[test]
    fn merged_summary_has_no_shard_fields() {
        let dir = crate::dataset::test_dir("merge_summary");
        publish(&dir, 0, 1, &[0, 1], "cc", 2);
        merge(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join(MERGED_SUMMARY)).unwrap();
        assert!(!text.contains("\"shard\""), "{text}");
        assert!(text.contains("\"plan_fingerprint\":\"cc\""));
    }
}
