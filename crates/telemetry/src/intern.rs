//! The global name-interning table.
//!
//! Every span, step, counter, event-kind, and attribute name used by the
//! pipeline resolves to a [`Sym`] — a `u32` index into one process-wide
//! table — exactly once, at registration. A fixed name registers where
//! it is recorded, through [`sym!`](crate::sym!), the first time that
//! call site runs. The hot recording path then carries plain integers
//! in fixed-size binary records (the recorder's ring); strings reappear
//! only at export time, via [`resolve`].
//!
//! The table only grows, so text that differs from job to job (a job
//! id, an area, a failure message) goes through
//! [`Telemetry::text`](crate::Telemetry::text) instead: a traced handle
//! interns it, a flight handle keeps it beside its own ring.
//!
//! Symbol *values* depend on registration order and are therefore not
//! deterministic across runs or thread schedules. That is fine by
//! design: every exporter resolves symbols back to strings and orders
//! its output by name (or by record position), so rendered reports stay
//! byte-identical however the `u32`s were handed out.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// An interned name: a cheap, `Copy`, process-wide handle to a string
/// in the global table. Obtain one with [`sym!`](crate::sym!) for a
/// fixed name, or [`sym`] / the two-part [`sym2`] for a built one, and
/// turn it back into text with [`resolve`]. The one
/// exception is a symbol a flight handle's
/// [`Telemetry::text`](crate::Telemetry::text) returns: it names text
/// that handle keeps to itself, and means nothing elsewhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub(crate) u32);

impl Sym {
    /// The raw table index. Stable for the life of the process, but not
    /// across processes — never persist it.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }

    /// The interned text (shared, no copy).
    #[must_use]
    pub fn resolve(self) -> Arc<str> {
        resolve(self)
    }
}

/// The table: names by index, plus a hash index keyed by an FNV-1a hash
/// of the name bytes (bucketed, so collisions only cost an extra string
/// compare — they never mis-resolve).
struct Interner {
    names: Vec<Arc<str>>,
    index: HashMap<u64, Vec<u32>>,
}

fn table() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(Interner {
            names: Vec::with_capacity(256),
            index: HashMap::with_capacity(256),
        })
    })
}

/// FNV-1a over one or two byte slices (the two-part form hashes the
/// concatenation without materialising it).
fn fnv1a(parts: [&[u8]; 2]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &byte in part {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Interns `name`, returning its symbol. The fast path (already
/// registered) is a read-lock, a hash, and one string compare.
#[must_use]
pub fn sym(name: &str) -> Sym {
    sym2(name, "")
}

/// Interns the concatenation `prefix + suffix` without allocating when
/// the name is already registered — the workhorse behind dynamic span
/// names like `style:<name>` and `step:<name>`.
#[must_use]
pub fn sym2(prefix: &str, suffix: &str) -> Sym {
    let hash = fnv1a([prefix.as_bytes(), suffix.as_bytes()]);
    let matches = |candidate: &str| {
        candidate.len() == prefix.len() + suffix.len()
            && candidate.as_bytes()[..prefix.len()] == *prefix.as_bytes()
            && candidate.as_bytes()[prefix.len()..] == *suffix.as_bytes()
    };
    {
        let table = table().read().unwrap_or_else(PoisonError::into_inner);
        if let Some(bucket) = table.index.get(&hash) {
            for &id in bucket {
                if matches(&table.names[id as usize]) {
                    return Sym(id);
                }
            }
        }
    }
    let mut table = table().write().unwrap_or_else(PoisonError::into_inner);
    // Re-check under the write lock: another thread may have won.
    if let Some(bucket) = table.index.get(&hash) {
        for &id in bucket {
            if matches(&table.names[id as usize]) {
                return Sym(id);
            }
        }
    }
    let id = u32::try_from(table.names.len()).unwrap_or(u32::MAX);
    let mut name = String::with_capacity(prefix.len() + suffix.len());
    name.push_str(prefix);
    name.push_str(suffix);
    table.names.push(Arc::from(name.as_str()));
    table.index.entry(hash).or_default().push(id);
    Sym(id)
}

/// Interns a fixed name once per call site and returns its [`Sym`]:
/// the first call through the site interns the literal, and a static
/// beside the site keeps the symbol, so every later call is one atomic
/// load. Write each span, event, field, annotation and counter name
/// this way where it is recorded. Names built from a plan go through
/// [`sym2`], and text that differs job by job through
/// [`Telemetry::text`](crate::Telemetry::text).
///
/// ```
/// use oasys_telemetry::{sym, Telemetry};
///
/// let tel = Telemetry::new();
/// tel.incr_sym(sym!("plan.restarts"));
/// assert_eq!(tel.counter("plan.restarts"), 1);
/// assert_eq!(sym!("plan.restarts"), sym("plan.restarts"));
/// ```
#[macro_export]
macro_rules! sym {
    ($name:literal) => {{
        static SYM: ::std::sync::OnceLock<$crate::Sym> = ::std::sync::OnceLock::new();
        *SYM.get_or_init(|| $crate::intern::sym($name))
    }};
}

/// Interns `prefix` + the `Display` rendering of `value`, formatting
/// into a stack buffer so the common (already-registered) case does not
/// touch the heap.
#[must_use]
pub(crate) fn sym_display(prefix: &str, value: &dyn std::fmt::Display) -> Sym {
    let mut buf = StackStr::default();
    if std::fmt::write(&mut buf, format_args!("{value}")).is_ok() {
        sym2(prefix, buf.as_str())
    } else {
        // Rendering overflowed the stack buffer: fall back to the heap.
        sym2(prefix, &value.to_string())
    }
}

/// Interns the decimal rendering of `value`, serving small values from
/// a pre-registered table — annotation values like Newton iteration
/// counts are almost always tiny, and this skips even the hash lookup
/// and formatting that interning the rendered number would do.
#[must_use]
pub fn sym_u64(value: u64) -> Sym {
    static SMALL: OnceLock<[Sym; 64]> = OnceLock::new();
    let small = SMALL.get_or_init(|| std::array::from_fn(|i| sym_display("", &i)));
    match small.get(usize::try_from(value).unwrap_or(usize::MAX)) {
        Some(&s) => s,
        None => sym_display("", &value),
    }
}

/// The interned text for `sym` (shared, no copy). Unknown symbols (a
/// `Sym` forged from a raw index) resolve to `"?"` rather than panic.
#[must_use]
pub fn resolve(sym: Sym) -> Arc<str> {
    let table = table().read().unwrap_or_else(PoisonError::into_inner);
    table
        .names
        .get(sym.0 as usize)
        .cloned()
        .unwrap_or_else(|| Arc::from("?"))
}

/// A bounded stack-allocated string for formatting short dynamic name
/// parts (style names, job ids, hierarchy levels) without allocating.
struct StackStr {
    buf: [u8; 64],
    len: usize,
}

impl Default for StackStr {
    fn default() -> Self {
        Self {
            buf: [0; 64],
            len: 0,
        }
    }
}

impl StackStr {
    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).unwrap_or("")
    }
}

impl std::fmt::Write for StackStr {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let bytes = s.as_bytes();
        if self.len + bytes.len() > self.buf.len() {
            return Err(std::fmt::Error);
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_resolves() {
        let a = sym("plan.step_executions");
        let b = sym("plan.step_executions");
        assert_eq!(a, b);
        assert_eq!(&*resolve(a), "plan.step_executions");
    }

    #[test]
    fn two_part_interning_matches_concatenation() {
        let joined = sym("style:two-stage-interntest");
        let parts = sym2("style:", "two-stage-interntest");
        assert_eq!(joined, parts);
        assert_eq!(&*parts.resolve(), "style:two-stage-interntest");
    }

    #[test]
    fn display_interning_formats_on_the_stack() {
        let a = sym_display("job:", &42);
        assert_eq!(&*resolve(a), "job:42");
        assert_eq!(a, sym("job:42"));
        // Overflowing the stack buffer falls back to the heap.
        let long = "x".repeat(200);
        let b = sym_display("k:", &long);
        assert_eq!(&*resolve(b), format!("k:{long}"));
    }

    #[test]
    fn unknown_symbols_resolve_to_placeholder() {
        assert_eq!(&*resolve(Sym(u32::MAX - 1)), "?");
    }

    #[test]
    fn concurrent_interning_agrees_on_one_symbol_per_name() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| sym("intern.race.name")))
            .collect();
        let syms: Vec<Sym> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
    }
}
