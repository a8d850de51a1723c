//! Property suite over the sealed record log (`oasys::integrity::SealedLog`),
//! the one crash-safe format behind batch checkpoints and dataset shards.
//!
//! Each case appends random payloads under repeated keys (the last line
//! per key wins), damages a copy of the file with random byte flips and
//! a truncation, and reopens it. A line counts as *untouched* when it
//! lies wholly inside the truncated file and neither its bytes, its
//! newline, nor the newline before it (which separates it from its
//! predecessor) were flipped. Then:
//!
//! - reopen trusts, per key, exactly the last untouched line — never a
//!   damaged payload, never a lost one;
//! - the repair rewrites the file as the header plus the untouched
//!   lines;
//! - after the keys whose last line was lost are appended again,
//!   `publish` is byte-identical to the undamaged log's, and a second
//!   reopen finds nothing to repair and publishes the same bytes.

use oasys::integrity::{seal_line, LogFormat, SealedLog};
use oasys_testutil::{run_cases, ProptestConfig, Rng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

static HEADERLESS: LogFormat = LogFormat {
    header: None,
    torn_site: "sealed_log.test.torn",
    flip_site: None,
};

static WITH_HEADER: LogFormat = LogFormat {
    header: Some("sealed-log-test v1"),
    torn_site: "sealed_log.test.torn",
    flip_site: None,
};

/// Payloads are `<key>\t<sequence>\t<body>`; the value kept is the
/// whole payload, so a reopened entry can be compared byte for byte.
fn parse(payload: &str) -> Option<(u32, String)> {
    let (key, _) = payload.split_once('\t')?;
    Some((key.parse().ok()?, payload.to_owned()))
}

fn open(path: &Path, format: &'static LogFormat) -> SealedLog<u32, String> {
    SealedLog::open(path, format, parse).unwrap()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oasys-sealed-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// A random body: tabs, spaces, ASCII and a two-byte character, so
/// flips also produce invalid UTF-8.
fn body(rng: &mut Rng) -> String {
    const CHARS: [&str; 8] = ["a", "Z", "7", "\t", " ", "µ", "{", "\""];
    (0..rng.range_u64(0, 24))
        .map(|_| CHARS[rng.range_u64(0, CHARS.len() as u64) as usize])
        .collect()
}

/// One appended line: its key, payload and byte range in the file.
struct Line {
    key: u32,
    payload: String,
    start: usize,
    end: usize,
}

#[test]
fn reopen_trusts_exactly_the_untouched_lines_and_heals_to_identity() {
    let log_path = tmp("log");
    let damaged_path = tmp("damaged");
    let clean_pub = tmp("clean.pub");
    let healed_pub = tmp("healed.pub");
    run_cases(
        "sealed_log_damage",
        ProptestConfig::with_cases(160),
        |rng| {
            let format = if rng.range_u64(0, 2) == 0 {
                &HEADERLESS
            } else {
                &WITH_HEADER
            };
            let header_len = format.header.map_or(0, |h| h.len() + 1);

            // Random appends with repeated keys.
            let _ = std::fs::remove_file(&log_path);
            let mut log = open(&log_path, format);
            let keys = rng.range_u64(1, 10) as u32;
            let mut lines = Vec::new();
            let mut end = header_len;
            for seq in 0..rng.range_u64(1, 30) {
                let key = rng.range_u64(0, u64::from(keys)) as u32;
                let payload = format!("{key}\t{seq}\t{}", body(rng));
                log.append(key, payload.clone(), &payload).unwrap();
                let start = end;
                end += seal_line(&payload).len() + 1;
                lines.push(Line {
                    key,
                    payload,
                    start,
                    end,
                });
            }
            log.publish(&clean_pub).unwrap();
            drop(log);
            let original = std::fs::read(&log_path).unwrap();
            if original.len() != end {
                return Err(format!("file is {} bytes, expected {end}", original.len()));
            }

            // Damage: a few flips, then (half the time) a truncation.
            let mut damaged = original.clone();
            let mut flipped = vec![false; original.len()];
            for _ in 0..rng.range_u64(0, 4) {
                let pos = rng.range_u64(0, original.len() as u64) as usize;
                damaged[pos] ^= rng.range_u64(1, 256) as u8;
                flipped[pos] = damaged[pos] != original[pos];
            }
            let cut = if rng.range_u64(0, 2) == 0 {
                original.len()
            } else {
                rng.range_u64(0, original.len() as u64 + 1) as usize
            };
            damaged.truncate(cut);
            std::fs::write(&damaged_path, &damaged).unwrap();
            let untouched = |line: &Line| {
                line.end <= cut && !flipped[line.start.saturating_sub(1)..line.end].contains(&true)
            };

            let mut reopened = open(&damaged_path, format);

            // Trust: per key, exactly the last untouched line.
            let mut expect: BTreeMap<u32, &str> = BTreeMap::new();
            for line in lines.iter().filter(|l| untouched(l)) {
                expect.insert(line.key, &line.payload);
            }
            let got: BTreeMap<u32, &str> = reopened
                .keys()
                .map(|k| (*k, reopened.get(k).unwrap().as_str()))
                .collect();
            if got != expect {
                return Err(format!("trusted {got:?}, expected {expect:?}"));
            }

            // Repair: reported exactly when damage is visible, and the
            // file becomes the header plus the untouched lines.
            let unchanged = !flipped[..cut].contains(&true);
            let at_boundary = cut == 0 || original[cut - 1] == b'\n';
            let salvage = reopened.salvage();
            if salvage.is_clean() != (unchanged && at_boundary) {
                return Err(format!(
                    "salvage {salvage:?} for cut {cut}, unchanged {unchanged}"
                ));
            }
            if salvage.torn_tail != damaged.last().is_some_and(|&b| b != b'\n') {
                return Err(format!("torn tail misreported: {salvage:?}"));
            }
            let repaired = std::fs::read(&damaged_path).unwrap();
            let expected_file = if salvage.is_clean() {
                damaged.clone()
            } else {
                let mut file = format
                    .header
                    .map_or_else(Vec::new, |h| format!("{h}\n").into_bytes());
                for line in lines.iter().filter(|l| untouched(l)) {
                    file.extend_from_slice(&original[line.start..line.end]);
                }
                file
            };
            if repaired != expected_file {
                return Err("repaired file is not the header plus the untouched lines".into());
            }

            // Heal: the log that did the repair takes the lost keys again.
            let mut last: BTreeMap<u32, &Line> = BTreeMap::new();
            for line in &lines {
                last.insert(line.key, line);
            }
            for line in last.values().filter(|l| !untouched(l)) {
                reopened
                    .append(line.key, line.payload.clone(), &line.payload)
                    .unwrap();
            }
            let clean = std::fs::read(&clean_pub).unwrap();
            reopened.publish(&healed_pub).unwrap();
            if std::fs::read(&healed_pub).unwrap() != clean {
                return Err("healed publish differs from the undamaged log's".into());
            }
            drop(reopened);
            // A second reopen finds nothing to repair, and the same log.
            let again = open(&damaged_path, format);
            again.publish(&healed_pub).unwrap();
            if !again.salvage().is_clean() || std::fs::read(&healed_pub).unwrap() != clean {
                return Err(format!("second reopen: {:?}", again.salvage()));
            }
            Ok(())
        },
    );
}
