//! The sealed record log: the one crash-safe file format behind batch
//! checkpoints and dataset shards.
//!
//! Every record line is *sealed* with the FNV-1a 64 checksum of its
//! payload: `<payload>\t<fnv1a64(payload) as %016x>\n`. [`SealedLog`]
//! appends such lines (flushed, no fsync) and, on open, classifies every
//! line once. A line is untrusted when it is a torn tail (no newline: a
//! kill mid-append), when its seal fails ([`open_line`]: bit rot, or a
//! legacy unsealed line), when the owner's parser rejects its payload,
//! or when it is a foreign header. Untrusted lines are repaired away by
//! one atomic rewrite of the trusted ones ([`write_atomic`]) and
//! reported as a [`Salvage`]; each key's last trusted line wins.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit hash — the one behind line seals, job fingerprints
/// and sampled draws, kept dependency-free and byte-stable forever
/// (sealed files must verify across releases).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64 hash over more bytes:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`.
#[must_use]
pub(crate) fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64 finalizer: mixes a word so nearby inputs (salts, seeds,
/// indices) land far apart.
#[must_use]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seals one payload line (no trailing newline) with its checksum
/// suffix: `"{payload}\t{fnv1a64:016x}"`.
#[must_use]
pub fn seal_line(payload: &str) -> String {
    format!("{payload}\t{:016x}", fnv1a64(payload.as_bytes()))
}

/// Opens one sealed line (a trailing newline is tolerated): the payload
/// when the text after the line's *last* tab is exactly the payload's
/// seal, `None` otherwise. Payloads may themselves contain tabs.
#[must_use]
pub fn open_line(line: &str) -> Option<&str> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let (payload, seal) = line.rsplit_once('\t')?;
    let expected = format!("{:016x}", fnv1a64(payload.as_bytes()));
    (seal == expected).then_some(payload)
}

/// Replaces `path` atomically: `fill` streams the new content into a
/// temp file beside it, which is fsynced and renamed over `path` only
/// when `fill` succeeds. A crash leaves the old file or the new one,
/// never a mix; a failed `fill` leaves `path` untouched. On Unix the
/// directory is fsynced after the rename, so a power loss cannot drop
/// the new directory entry either. A `path` that exists and is not a
/// regular file — a symlink, a directory, a socket, a device node — is
/// refused rather than replaced, and no error leaves the temp file
/// behind.
///
/// # Errors
///
/// A destination that is not a regular file; `fill`'s error; any
/// failure creating, syncing or renaming the temp file, or syncing its
/// directory.
pub fn write_atomic(
    path: &Path,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    match std::fs::symlink_metadata(path) {
        Ok(meta) if !meta.file_type().is_file() => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("refusing to replace {}: not a regular file", path.display()),
            ));
        }
        Err(error) if error.kind() != io::ErrorKind::NotFound => return Err(error),
        _ => {}
    }
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(name);
    let written = File::create(&tmp)
        .and_then(|file| {
            let mut out = BufWriter::new(file);
            fill(&mut out)?;
            out.into_inner()
                .map_err(io::IntoInnerError::into_error)?
                .sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(error) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(error);
    }
    sync_parent_dir(path)
}

/// Fsyncs the directory that holds `path`, making a rename into it
/// durable.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = path
        .parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
}

/// Only Unix can open a directory to fsync it.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> io::Result<()> {
    Ok(())
}

/// What [`SealedLog::open`] found wrong with a log, and repaired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Salvage {
    /// The final line had no newline — a kill mid-append — and was
    /// dropped.
    pub torn_tail: bool,
    /// Complete lines that were not trusted (seal failed, payload
    /// rejected, foreign header) and were dropped.
    pub quarantined: usize,
}

impl Salvage {
    /// `true` when the log was opened without any repair.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        !self.torn_tail && self.quarantined == 0
    }
}

/// The one wording both CLIs print for a repair, e.g. `torn tail
/// dropped, 2 lines quarantined`.
impl fmt::Display for Salvage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let plural = if self.quarantined == 1 { "" } else { "s" };
        match (self.torn_tail, self.quarantined) {
            (false, 0) => f.write_str("clean"),
            (true, 0) => f.write_str("torn tail dropped"),
            (torn, n) => {
                let torn = if torn { "torn tail dropped, " } else { "" };
                write!(f, "{torn}{n} line{plural} quarantined")
            }
        }
    }
}

/// What distinguishes one owner's log: its header and its fault sites.
#[derive(Debug)]
pub struct LogFormat {
    /// The unsealed first line of every non-empty file, naming the
    /// format (`None`: the file is record lines only).
    pub header: Option<&'static str>,
    /// Fault site that tears an append: half the line's bytes land, no
    /// newline, and the append fails — a kill mid-write.
    pub torn_site: &'static str,
    /// Fault site that flips one byte mid-line and reports success —
    /// silent bit rot, detectable only by the seal.
    pub flip_site: Option<&'static str>,
}

/// Where one line sits in a log file; `len` counts its newline.
#[derive(Clone, Copy, Debug)]
struct Span {
    offset: u64,
    len: u64,
}

/// An append-only file of sealed lines, indexed by key: each key maps
/// to its last trusted line and the value the owner parsed from it.
#[derive(Debug)]
pub struct SealedLog<K, V> {
    path: PathBuf,
    format: &'static LogFormat,
    index: BTreeMap<K, (Span, V)>,
    /// Opened on the first append, so an untouched log creates no file.
    writer: Option<File>,
    /// Bytes of trusted content on disk: where the next append lands.
    len: u64,
    salvage: Salvage,
}

impl<K: Ord, V> SealedLog<K, V> {
    /// Opens the log at `path` (a missing file is an empty log),
    /// classifying every line once: `parse` sees each sealed payload in
    /// file order and returns its key and value, or `None` to reject
    /// it. If any line is untrusted, the trusted lines are rewritten
    /// atomically and [`SealedLog::salvage`] reports what was dropped.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures reading or repairing the file.
    pub fn open(
        path: impl Into<PathBuf>,
        format: &'static LogFormat,
        mut parse: impl FnMut(&str) -> Option<(K, V)>,
    ) -> io::Result<Self> {
        let path = path.into();
        let mut log = Self {
            path,
            format,
            index: BTreeMap::new(),
            writer: None,
            len: 0,
            salvage: Salvage::default(),
        };
        let file = match File::open(&log.path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(log),
            Err(e) => return Err(e),
        };
        // Bytes, not a String: damage can produce invalid UTF-8, which
        // must distrust one line, not fail the open.
        let mut reader = BufReader::new(file);
        let mut trusted: Vec<Span> = Vec::new();
        let mut latest: BTreeMap<K, (usize, V)> = BTreeMap::new();
        let (mut buf, mut offset) = (Vec::new(), 0u64);
        loop {
            buf.clear();
            if reader.read_until(b'\n', &mut buf)? == 0 {
                break;
            }
            let span = Span {
                offset,
                len: buf.len() as u64,
            };
            offset += span.len;
            let Some(body) = buf.strip_suffix(b"\n") else {
                log.salvage.torn_tail = true;
                break;
            };
            let text = std::str::from_utf8(body).ok();
            let parsed = match format.header {
                Some(header) if span.offset == 0 && text == Some(header) => continue,
                Some(_) if span.offset == 0 => None,
                _ => text.and_then(open_line).and_then(&mut parse),
            };
            match parsed {
                Some((key, value)) => {
                    latest.insert(key, (trusted.len(), value));
                    trusted.push(span);
                }
                None => log.salvage.quarantined += 1,
            }
        }
        log.len = offset;
        if !log.salvage.is_clean() {
            // The one repair: the header plus the trusted lines, in file
            // order, rewritten atomically.
            log.copy_lines(&log.path, format.header, trusted.iter().copied())?;
            log.len = format.header.map_or(0, |h| h.len() as u64 + 1);
            for span in &mut trusted {
                span.offset = log.len;
                log.len += span.len;
            }
        }
        log.index = latest
            .into_iter()
            .map(|(key, (line, value))| (key, (trusted[line], value)))
            .collect();
        Ok(log)
    }

    /// Streams `header` and the lines at `spans` from the log file into
    /// `dest` through [`write_atomic`], one line in memory at a time.
    fn copy_lines(
        &self,
        dest: &Path,
        header: Option<&str>,
        spans: impl Iterator<Item = Span>,
    ) -> io::Result<()> {
        let mut source: Option<File> = None;
        write_atomic(dest, |out| {
            if let Some(header) = header {
                out.write_all(format!("{header}\n").as_bytes())?;
            }
            let mut line = Vec::new();
            for span in spans {
                let file = match &mut source {
                    Some(file) => file,
                    None => source.insert(File::open(&self.path)?),
                };
                file.seek(SeekFrom::Start(span.offset))?;
                line.resize(usize::try_from(span.len).map_err(io::Error::other)?, 0);
                file.read_exact(&mut line)?;
                out.write_all(&line)?;
            }
            Ok(())
        })
    }

    /// What the open dropped and repaired.
    #[must_use]
    pub fn salvage(&self) -> Salvage {
        self.salvage
    }

    /// The log file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Keys on record, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.index.keys()
    }

    /// Values on record (one per key), in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.index.values().map(|(_, value)| value)
    }

    /// The value on record for `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.index.get(key).map(|(_, value)| value)
    }

    /// Seals `payload`, appends it as one line and flushes it to the OS
    /// — no fsync: a kill mid-write leaves a torn tail, which the next
    /// open drops. The line becomes `key`'s entry, with `value`. The
    /// file (and its header) is created on the first append.
    ///
    /// # Errors
    ///
    /// Propagates write failures. The format's torn fault site lands
    /// half the line and then fails, exactly like a mid-write crash;
    /// its flip site corrupts one byte and succeeds.
    pub fn append(&mut self, key: K, value: V, payload: &str) -> io::Result<()> {
        let file = match &mut self.writer {
            Some(file) => file,
            None => {
                let mut file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)?;
                if let (0, Some(header)) = (self.len, self.format.header) {
                    file.write_all(format!("{header}\n").as_bytes())?;
                    self.len = header.len() as u64 + 1;
                }
                self.writer.insert(file)
            }
        };
        let mut line = seal_line(payload).into_bytes();
        line.push(b'\n');
        if oasys_faults::armed() && oasys_faults::fired(self.format.torn_site) {
            file.write_all(&line[..line.len() / 2])?;
            return Err(io::Error::other("fault injected: torn write"));
        }
        if let Some(site) = self.format.flip_site {
            if oasys_faults::armed() && oasys_faults::fired(site) {
                // XOR 0x01 never fabricates a newline from printable
                // text, so the damage stays inside this one line.
                let mid = line.len() / 2;
                line[mid] ^= 0x01;
            }
        }
        file.write_all(&line)?;
        let span = Span {
            offset: self.len,
            len: line.len() as u64,
        };
        self.len += span.len;
        self.index.insert(key, (span, value));
        Ok(())
    }

    /// Publishes the log to `dest` through [`write_atomic`]: each key's
    /// line, in key order, read back by offset.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; `dest` is then left as it was.
    pub fn publish(&self, dest: &Path) -> io::Result<()> {
        self.copy_lines(dest, None, self.index.values().map(|(span, _)| *span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn sealed_lines_round_trip() {
        for payload in ["{\"id\":7}", "", "tabs\tinside\tpayload", "unicode µ"] {
            let sealed = seal_line(payload);
            assert_eq!(open_line(&sealed), Some(payload), "{payload:?}");
            let with_newline = format!("{sealed}\n");
            assert_eq!(open_line(&with_newline), Some(payload));
        }
    }

    #[test]
    fn no_flipped_byte_yields_a_sealed_line() {
        let sealed = seal_line("{\"id\":42,\"outcome\":\"ok\"}");
        for i in 0..sealed.len() {
            for mask in [0x01, 0x20] {
                let mut bytes = sealed.clone().into_bytes();
                bytes[i] ^= mask;
                let Ok(line) = String::from_utf8(bytes) else {
                    continue;
                };
                // Damage anywhere — payload, separator tab, or a seal
                // digit's case — never opens.
                assert_eq!(open_line(&line), None, "byte {i} ^ {mask:#x}: {line:?}");
            }
        }
    }

    #[test]
    fn unsealed_and_mangled_lines_do_not_open() {
        for line in [
            "{\"id\":3}",
            "",
            "{\"id\":1}\tdeadbeef",
            "{\"id\":1}\tzzzzzzzzzzzzzzzz",
            "payload\t",
        ] {
            assert_eq!(open_line(line), None, "{line:?}");
        }
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("oasys-write-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        for content in ["first", "second"] {
            write_atomic(&path, |out| out.write_all(content.as_bytes())).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), content);
        }
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["out.json"]);
        // A bare file name is in the working directory, which syncs too.
        sync_parent_dir(Path::new("out.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Asserts `write_atomic` refuses `path`, naming it, and leaves no
    /// temp file in `dir`.
    fn assert_refused(dir: &Path, path: &Path) {
        let err = write_atomic(path, |out| out.write_all(b"new")).unwrap_err();
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "{err}"
        );
        let temps: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(temps.is_empty(), "temp files left: {temps:?}");
    }

    #[test]
    fn write_atomic_refuses_a_directory() {
        let dir = crate::dataset::test_dir("write-atomic-dir");
        let path = dir.join("out");
        std::fs::create_dir(&path).unwrap();
        assert_refused(&dir, &path);
        assert!(path.is_dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn write_atomic_refuses_a_symlink_and_keeps_its_target() {
        let dir = crate::dataset::test_dir("write-atomic-link");
        let target = dir.join("target.json");
        std::fs::write(&target, "old").unwrap();
        let link = dir.join("link.json");
        std::os::unix::fs::symlink(&target, &link).unwrap();
        assert_refused(&dir, &link);
        assert!(std::fs::symlink_metadata(&link)
            .unwrap()
            .file_type()
            .is_symlink());
        assert_eq!(std::fs::read_link(&link).unwrap(), target);
        assert_eq!(std::fs::read_to_string(&target).unwrap(), "old");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn write_atomic_refuses_a_socket() {
        use std::os::unix::fs::FileTypeExt as _;
        let dir = crate::dataset::test_dir("write-atomic-sock");
        let path = dir.join("s.sock");
        let _listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        assert_refused(&dir, &path);
        assert!(std::fs::symlink_metadata(&path)
            .unwrap()
            .file_type()
            .is_socket());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_wording_is_shared() {
        let clean = Salvage::default();
        assert!(clean.is_clean());
        assert_eq!(clean.to_string(), "clean");
        let torn = Salvage {
            torn_tail: true,
            quarantined: 0,
        };
        assert_eq!(torn.to_string(), "torn tail dropped");
        let both = Salvage {
            torn_tail: true,
            quarantined: 2,
        };
        assert_eq!(both.to_string(), "torn tail dropped, 2 lines quarantined");
        let one = Salvage {
            torn_tail: false,
            quarantined: 1,
        };
        assert_eq!(one.to_string(), "1 line quarantined");
    }
}
