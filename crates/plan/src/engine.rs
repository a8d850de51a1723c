//! The generic block-designer engine.
//!
//! The paper's synthesis process is the same at every level of the
//! hierarchy: a block declares its *style* alternatives, designs each
//! candidate breadth-first, selects the feasible one with the smallest
//! estimated area, and — when every style fails — propagates a
//! structured, per-style failure report up to its parent so the parent's
//! patch rules can fire on the child's failure (Section 4.2's mirror is
//! the worked example: *"simple vs cascode, smaller area wins"*).
//!
//! [`BlockDesigner`] captures that contract once. Leaf blocks (mirror,
//! gain stage…) implement it over closed-form sizing; the op-amp level
//! implements it over stored translation plans. [`DesignContext`] threads
//! the cross-cutting machinery through recursive invocations: telemetry
//! spans (`block:<level>` children under the invoking `style:<name>`
//! span), and a per-(process, sub-spec) [`MemoCache`] so plan restarts
//! that re-derive an unchanged sub-block reuse the earlier design.
//!
//! [`design_candidates`] is the breadth-first search itself: a
//! sequential loop over the styles in declaration order. Ties in the
//! area comparison break by style name, and cache keys are scoped per
//! candidate style, so the winner, the rejection table, and a
//! manually-clocked telemetry report are byte-identical run over run.
//!
//! # Examples
//!
//! A two-style toy level driven through the full engine — breadth-first
//! sweep, smallest-area selection, and a per-style rejection table:
//!
//! ```
//! use oasys_plan::{design_candidates, BlockDesigner, DesignContext, MemoCache, SearchOptions};
//! use oasys_telemetry::Telemetry;
//!
//! /// Designs a "resistor" either as one wide device or two in series.
//! struct ResistorDesigner;
//!
//! impl BlockDesigner for ResistorDesigner {
//!     type Spec = f64;        // target ohms
//!     type Output = f64;      // area, µm²
//!     type Error = String;
//!
//!     fn level(&self) -> &'static str { "resistor" }
//!     fn styles(&self) -> &'static [&'static str] {
//!         &["single", "series"]
//!     }
//!     fn design_style(
//!         &self,
//!         spec: &f64,
//!         style: &str,
//!         _ctx: &DesignContext<'_>,
//!     ) -> Result<f64, String> {
//!         match style {
//!             "single" if *spec <= 1_000.0 => Ok(spec * 2.0),
//!             "single" => Err("too resistive for one device".into()),
//!             _ => Ok(spec * 3.0),
//!         }
//!     }
//!     fn area_um2(&self, output: &f64) -> f64 { *output }
//! }
//!
//! // Breadth-first selection through the provided `design` method:
//! let tel = Telemetry::new();
//! let ctx = DesignContext::new(&tel);
//! let selected = ResistorDesigner.design(&500.0, &ctx).unwrap();
//! assert_eq!(selected.style(), "single"); // 1000 µm² beats 1500 µm²
//!
//! // Or the raw candidate sweep (what the op-amp level uses), with a
//! // shared memo cache:
//! let cache = MemoCache::new();
//! let results = design_candidates(
//!     &ResistorDesigner,
//!     &2_000.0,
//!     &SearchOptions::new(),
//!     &tel,
//!     &cache,
//! );
//! assert_eq!(results.len(), 2);
//! assert!(results[0].1.is_err(), "single device cannot reach 2 kΩ");
//! assert_eq!(results[1].1.as_ref().unwrap(), &6_000.0);
//! ```

use oasys_faults::{fail_point, Deadline};
use oasys_telemetry::{sym, Sym, Telemetry};
use std::any::Any;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A block level that can design itself in one or more styles.
///
/// Implementations provide per-style design (`design_style`) and an area
/// estimate; the engine provides breadth-first selection ([`BlockDesigner::design`])
/// and the candidate sweep ([`design_candidates`]).
pub trait BlockDesigner {
    /// The incoming specification this level translates.
    type Spec;
    /// A completed, sized design.
    type Output;
    /// Why one style could not meet the spec.
    type Error: fmt::Display;

    /// The level name, e.g. `"mirror"` or `"op amp"` — used in failure
    /// reports, telemetry span names, and cache keys.
    fn level(&self) -> &'static str;

    /// Style alternatives in declaration (trial) order. The names are
    /// fixed by the designer, so a sweep copies none of them.
    fn styles(&self) -> &'static [&'static str];

    /// Whether a style may be attempted for this spec (e.g. the caller
    /// restricted the mirror to one style). Defaults to `true`.
    fn allowed(&self, _spec: &Self::Spec, _style: &str) -> bool {
        true
    }

    /// Static feasibility check, run *before* [`design_style`]. A style
    /// whose declared performance relations provably cannot intersect
    /// the spec returns `Err` with the rejection reason and is pruned
    /// from the sweep: its plan never executes, the engine records the
    /// error as the style's result (so rejection tables are complete),
    /// bumps the `engine.pruned` counter, and opens a `style:<name>`
    /// span annotated `outcome=pruned`.
    ///
    /// Must be *sound*: only reject when the relations — which
    /// over-approximate what the style can achieve — have provably empty
    /// intersection with the spec, so pruning never removes a style that
    /// would have succeeded. Defaults to never pruning.
    ///
    /// # Errors
    ///
    /// The rejection reason when the style is statically infeasible.
    ///
    /// [`design_style`]: BlockDesigner::design_style
    fn static_check(&self, _spec: &Self::Spec, _style: &str) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Designs one style. Only called with names from [`styles`]
    /// (filtered through [`allowed`]).
    ///
    /// # Errors
    ///
    /// The style's rejection reason; the engine aggregates these into a
    /// [`SelectionFailure`] when no style succeeds.
    ///
    /// [`styles`]: BlockDesigner::styles
    /// [`allowed`]: BlockDesigner::allowed
    fn design_style(
        &self,
        spec: &Self::Spec,
        style: &str,
        ctx: &DesignContext<'_>,
    ) -> Result<Self::Output, Self::Error>;

    /// Estimated layout area of a completed design, µm² — the paper's
    /// selection criterion.
    fn area_um2(&self, output: &Self::Output) -> f64;

    /// Breadth-first selection: designs every allowed style and keeps
    /// the smallest-area success, breaking exact area ties by style name
    /// so selection is deterministic under any execution order.
    ///
    /// # Errors
    ///
    /// [`SelectionFailure`] carrying every attempted style's rejection,
    /// in trial order, when no style succeeds.
    fn design(
        &self,
        spec: &Self::Spec,
        ctx: &DesignContext<'_>,
    ) -> Result<Selected<Self::Output>, SelectionFailure<Self::Error>> {
        let mut best: Option<Selected<Self::Output>> = None;
        let mut rejections = Vec::new();
        for &style in self.styles() {
            if !self.allowed(spec, style) {
                continue;
            }
            if let Err(error) = self.static_check(spec, style) {
                prune(ctx.telemetry(), style, &error);
                rejections.push(StyleRejection { style, error });
                continue;
            }
            match self.design_style(spec, style, ctx) {
                Ok(output) => {
                    let area_um2 = self.area_um2(&output);
                    let wins = best.as_ref().is_none_or(|b| {
                        area_um2 < b.area_um2 || (area_um2 == b.area_um2 && style < b.style)
                    });
                    if wins {
                        best = Some(Selected {
                            style,
                            area_um2,
                            output,
                        });
                    }
                }
                Err(error) => rejections.push(StyleRejection { style, error }),
            }
        }
        best.ok_or(SelectionFailure {
            level: self.level(),
            rejections,
        })
    }
}

/// A winning design plus how it won.
#[derive(Clone, Debug)]
pub struct Selected<T> {
    style: &'static str,
    area_um2: f64,
    output: T,
}

impl<T> Selected<T> {
    /// The winning style's name.
    #[must_use]
    pub fn style(&self) -> &'static str {
        self.style
    }

    /// The winning design's estimated area, µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        self.area_um2
    }

    /// The winning design.
    #[must_use]
    pub fn output(&self) -> &T {
        &self.output
    }

    /// Consumes the selection, returning the design.
    #[must_use]
    pub fn into_output(self) -> T {
        self.output
    }
}

/// One style's rejection inside a [`SelectionFailure`].
#[derive(Clone, Debug)]
pub struct StyleRejection<E> {
    style: &'static str,
    error: E,
}

impl<E> StyleRejection<E> {
    /// The rejected style's name.
    #[must_use]
    pub fn style(&self) -> &'static str {
        self.style
    }

    /// The style's own error.
    #[must_use]
    pub fn error(&self) -> &E {
        &self.error
    }

    /// Consumes the rejection, returning the style's own error.
    #[must_use]
    pub fn into_error(self) -> E {
        self.error
    }
}

/// The structured failure a block propagates to its parent when no style
/// fits: every attempted style's rejection, in trial order, so the
/// parent's patch rules (and the user's rejection table) see *why* each
/// alternative was ruled out rather than a flattened string.
#[derive(Clone, Debug)]
pub struct SelectionFailure<E> {
    level: &'static str,
    rejections: Vec<StyleRejection<E>>,
}

impl<E> SelectionFailure<E> {
    /// The failing block level.
    #[must_use]
    pub fn level(&self) -> &'static str {
        self.level
    }

    /// Per-style rejections in trial order (empty when every style was
    /// filtered out before being attempted).
    #[must_use]
    pub fn rejections(&self) -> &[StyleRejection<E>] {
        &self.rejections
    }

    /// Consumes the failure, returning the rejections.
    #[must_use]
    pub fn into_rejections(self) -> Vec<StyleRejection<E>> {
        self.rejections
    }

    /// The rejections as a `"style: reason; style: reason"` summary line.
    #[must_use]
    pub fn reasons(&self) -> String
    where
        E: fmt::Display,
    {
        self.rejections
            .iter()
            .map(|r| format!("{}: {}", r.style, r.error))
            .collect::<Vec<_>>()
            .join("; ")
    }
}

impl<E: fmt::Display> fmt::Display for SelectionFailure<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: no style fits: {}", self.level, self.reasons())
    }
}

impl<E: fmt::Display + fmt::Debug> Error for SelectionFailure<E> {}

/// Cross-cutting context threaded through recursive designer
/// invocations: the telemetry handle, the memo cache, and the scope
/// (owning style) that namespaces cache keys.
#[derive(Clone)]
pub struct DesignContext<'a> {
    tel: &'a Telemetry,
    cache: Option<&'a MemoCache>,
    /// Built once per attempt; every cached design of the attempt
    /// shares it.
    scope: Arc<str>,
    deadline: Deadline,
}

impl fmt::Debug for DesignContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DesignContext")
            .field("scope", &self.scope)
            .field("cached", &self.cache.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a> DesignContext<'a> {
    /// A context recording into `tel`, with no cache and no scope.
    #[must_use]
    pub fn new(tel: &'a Telemetry) -> Self {
        Self {
            tel,
            cache: None,
            scope: Arc::default(),
            deadline: Deadline::none(),
        }
    }

    /// Attaches a memo cache for [`DesignContext::design_child_sym`].
    #[must_use]
    pub fn with_cache(mut self, cache: &'a MemoCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the scope (normally the invoking style's name). Every cache
    /// entry carries it, so styles never share entries — hits only come
    /// from deterministic within-style rework (plan restarts re-deriving
    /// an unchanged sub-block).
    #[must_use]
    pub fn with_scope(mut self, scope: impl Into<Arc<str>>) -> Self {
        self.scope = scope.into();
        self
    }

    /// Attaches a cooperative deadline. The plan executor checks it
    /// before every step ([`crate::PlanExecutor::run_in`]) and designers
    /// pass it into simulator calls, so a diverging job aborts at the
    /// next checkpoint instead of running to completion.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// The telemetry handle (for plan executors and ad-hoc spans).
    #[must_use]
    pub fn telemetry(&self) -> &'a Telemetry {
        self.tel
    }

    /// The cooperative deadline (unlimited unless the caller set one).
    #[must_use]
    pub fn deadline(&self) -> &Deadline {
        &self.deadline
    }

    /// The cache-key scope.
    #[must_use]
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// Invokes a child designer: opens the `block:<level>` span
    /// `span_name` under the current one, consults the memo cache when
    /// `key` is given (serving a clone and counting `engine.cache_hits`
    /// on a hit), and caches successful results. Failures are never
    /// cached — a parent patch rule may change the sub-spec and retry.
    /// Callers write the span name where they call this, as
    /// `sym!("block:<level>")`; `level` is the bare level text behind
    /// it, which an entry matches beside the scope and the key.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns; the error passes through untouched.
    pub fn design_child_sym<T, E, F>(
        &self,
        span_name: Sym,
        level: &'static str,
        key: Option<CacheKey>,
        f: F,
    ) -> Result<T, E>
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce() -> Result<T, E>,
    {
        fail_point!("engine.cache");
        let span = self.tel.span_sym(span_name);
        let entry = self.cache.zip(key).map(|(cache, key)| {
            let scope = Arc::clone(&self.scope);
            (cache, EntryKey { scope, level, key })
        });
        if let Some((cache, key)) = &entry {
            if let Some(hit) = cache.get::<T>(key) {
                self.tel.incr_sym(sym!("engine.cache_hits"));
                span.annotate_sym(sym!("cache"), sym!("hit"));
                return Ok(hit);
            }
            self.tel.incr_sym(sym!("engine.cache_misses"));
        }
        let result = f();
        match &result {
            Ok(value) => {
                if let Some((cache, key)) = entry {
                    // Evictions begin only once the cache is full, late
                    // in a long batch. The `&str` form interns the name
                    // only on a handle that keeps counters, so an
                    // untraced job's flight handle never adds it to the
                    // table then.
                    let evicted = cache.put(key, value.clone());
                    if evicted > 0 {
                        self.tel.add("engine.cache_evictions", evicted as u64);
                    }
                }
                span.annotate_sym(sym!("outcome"), sym!("designed"));
            }
            Err(_) => span.annotate_sym(sym!("outcome"), sym!("failed")),
        }
        result
    }
}

/// A memoization cache for sub-block designs — shared across the styles
/// of one synthesis run, or (bounded) across many runs in a batch sweep
/// or a resident server.
///
/// An entry sits under its attempt's scope (the style, under the
/// sweep's namespace), its block level and its sub-spec [`CacheKey`],
/// and is served only for all three, and the stored value's type,
/// matching exactly. Values are type-erased. A lookup builds its entry
/// key from the context's shared scope and the key's fixed-size words,
/// so it allocates nothing, and storing a design allocates only its
/// `Arc`.
///
/// [`MemoCache::new`] is unbounded, for single-run caches whose size is
/// naturally limited by one synthesis. [`MemoCache::bounded`] caps the
/// entry count and evicts the least-recently-used entry on overflow, so
/// a long-lived process-wide cache (the batch runner, `oasys serve`)
/// cannot grow without limit. The LRU is exact: the victim is the entry
/// least recently stored or looked up (a hit or a type mismatch), and a
/// touch or an eviction costs the same at any capacity. Hit/miss/eviction
/// totals are kept as cheap relaxed counters; the engine mirrors them
/// into the telemetry metrics snapshot (`engine.cache_hits` /
/// `engine.cache_misses` / `engine.cache_evictions`).
///
/// Cache keys assume a fixed fabrication process. To share one cache
/// across technologies, give each process its own namespace — see
/// [`SearchOptions::with_cache_namespace`].
pub struct MemoCache {
    entries: Mutex<LruEntries>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    capacity: usize,
}

/// Where one design sits in a [`MemoCache`]: the attempt's scope, the
/// block level and the sub-spec key. Only the scope's text and the key's
/// words are hashed, in one pass each; the level and the key's layout
/// are compared but not hashed, since each belongs to one call site.
#[derive(Clone, Debug, PartialEq, Eq)]
struct EntryKey {
    scope: Arc<str>,
    level: &'static str,
    key: CacheKey,
}

impl Hash for EntryKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.scope.as_bytes());
        let mut bytes = [0u8; 8 * CacheKey::MAX_FIELDS];
        let words = &self.key.words[..self.key.len];
        for (chunk, word) in bytes.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        state.write(&bytes[..8 * self.key.len]);
    }
}

/// The LRU bookkeeping behind the lock: a key → slot index beside the
/// slots, which a doubly linked recency list threads by index from the
/// most to the least recently used. A touch relinks one slot, and an
/// eviction unlinks the tail and stores the new entry in its slot, so
/// neither scans and `slots` only grows, up to the capacity. The index
/// and the slot each hold the fixed-size key, sharing its scope.
///
/// No update runs code of the cached type (its `clone` or `drop`) until
/// the links and the index agree again, so a guard recovered from a
/// poisoned lock still holds a well-formed list.
struct LruEntries {
    index: HashMap<EntryKey, usize>,
    slots: Vec<Slot>,
    /// The most recently used slot, or [`NIL`] when empty.
    head: usize,
    /// The least recently used slot (the next victim), or [`NIL`].
    tail: usize,
}

/// The link past either end of the recency list.
const NIL: usize = usize::MAX;

struct Slot {
    key: EntryKey,
    value: Arc<dyn Any + Send + Sync>,
    /// The next more recently used slot, or [`NIL`] at the head.
    newer: usize,
    /// The next less recently used slot, or [`NIL`] at the tail.
    older: usize,
}

impl LruEntries {
    /// Takes slot `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let Slot { newer, older, .. } = self.slots[i];
        match newer {
            NIL => self.head = older,
            n => self.slots[n].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.slots[o].newer = newer,
        }
    }

    /// Links slot `i`, not in the list, in as the most recently used.
    fn push_front(&mut self, i: usize) {
        self.slots[i].newer = NIL;
        self.slots[i].older = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].newer = i,
        }
        self.head = i;
    }

    /// Marks slot `i` the most recently used.
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }
}

impl Default for MemoCache {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for MemoCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl MemoCache {
    /// An empty, unbounded cache (the right shape for one run).
    #[must_use]
    pub fn new() -> Self {
        Self::bounded(usize::MAX)
    }

    /// An empty cache holding at most `capacity` entries (at least one);
    /// inserting past the cap evicts the least-recently-used entry.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        Self {
            entries: Mutex::new(LruEntries {
                index: HashMap::new(),
                slots: Vec::new(),
                head: NIL,
                tail: NIL,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// The maximum entry count ([`usize::MAX`] when unbounded).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up a cached design, cloning it out (and marking the entry
    /// most-recently-used) on a hit.
    fn get<T: Clone + Send + Sync + 'static>(&self, key: &EntryKey) -> Option<T> {
        let mut entries = self.lock();
        let found = entries.index.get(key).copied().and_then(|i| {
            entries.touch(i);
            entries.slots[i].value.downcast_ref::<T>().cloned()
        });
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores a design under `key`, replacing any earlier entry, and
    /// returns how many entries were evicted to stay under capacity
    /// (0 or 1; replacement is not an eviction).
    fn put<T: Send + Sync + 'static>(&self, key: EntryKey, value: T) -> usize {
        let value: Arc<dyn Any + Send + Sync> = Arc::new(value);
        let mut entries = self.lock();
        if let Some(&i) = entries.index.get(&key) {
            entries.slots[i].value = value;
            entries.touch(i);
            return 0;
        }
        let slot = Slot {
            key: key.clone(),
            value,
            newer: NIL,
            older: NIL,
        };
        let (i, victim) = if entries.slots.len() < self.capacity {
            entries.slots.push(slot);
            (entries.slots.len() - 1, None)
        } else {
            let i = entries.tail;
            entries.unlink(i);
            let victim = std::mem::replace(&mut entries.slots[i], slot);
            entries.index.remove(&victim.key);
            (i, Some(victim))
        };
        entries.index.insert(key, i);
        entries.push_front(i);
        if victim.is_none() {
            return 0;
        }
        self.evictions.fetch_add(1, Ordering::Relaxed);
        1
    }

    /// The entries, recovered from a poisoned lock: every update leaves
    /// them well formed (see [`LruEntries`]).
    fn lock(&self) -> std::sync::MutexGuard<'_, LruEntries> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Lookups that found a matching entry.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing (or a type mismatch).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay under the capacity bound.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of cached designs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A sub-specification's cache key: its call site's layout and up to
/// [`CacheKey::MAX_FIELDS`] fields, one `u64` word each.
///
/// Floats are fingerprinted via [`f64::to_bits`], so two specs collide
/// only when every field is bit-identical — the cache can never serve a
/// design for a merely *similar* spec (`0.0` and `-0.0`, or two NaN
/// payloads, are different keys). The layout names the fields in the
/// order the call site pushes them, say `"pol gm ibias"`; keys of two
/// layouts never match, whatever their words. Building a key allocates
/// nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheKey {
    layout: &'static str,
    words: [u64; CacheKey::MAX_FIELDS],
    len: usize,
}

impl CacheKey {
    /// The most fields one key holds.
    pub const MAX_FIELDS: usize = 6;

    /// An empty key for the call site whose fields `layout` names.
    #[must_use]
    pub const fn new(layout: &'static str) -> Self {
        Self {
            layout,
            words: [0; Self::MAX_FIELDS],
            len: 0,
        }
    }

    /// Appends an `f64` field, fingerprinted bit-exactly.
    ///
    /// # Panics
    ///
    /// Past [`CacheKey::MAX_FIELDS`] fields: a call site that needs more
    /// must raise the bound.
    #[must_use]
    pub fn num(self, value: f64) -> Self {
        self.push(value.to_bits())
    }

    /// Appends a discrete field (a polarity, a style, a bitmask…) as a
    /// small integer.
    ///
    /// # Panics
    ///
    /// Past [`CacheKey::MAX_FIELDS`] fields, as for [`CacheKey::num`].
    #[must_use]
    pub fn tag(self, value: u64) -> Self {
        self.push(value)
    }

    /// Appends one field's word.
    fn push(mut self, word: u64) -> Self {
        assert!(
            self.len < Self::MAX_FIELDS,
            "cache key `{}` holds at most {} fields",
            self.layout,
            Self::MAX_FIELDS
        );
        self.words[self.len] = word;
        self.len += 1;
        self
    }
}

/// How [`design_candidates`] runs the candidate sweep.
#[derive(Clone, Debug, Default)]
pub struct SearchOptions {
    styles: Option<Vec<String>>,
    deadline: Deadline,
    skip_static_check: bool,
    cache_namespace: Option<Arc<str>>,
}

impl SearchOptions {
    /// Defaults: every declared style, static pruning on, no deadline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts the sweep to the named styles (names not declared by
    /// the designer are ignored; declaration order is preserved).
    #[must_use]
    pub fn with_styles<I, S>(mut self, styles: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.styles = Some(styles.into_iter().map(Into::into).collect());
        self
    }

    /// A no-op: the sweep always runs sequentially on the calling
    /// thread. Kept so callers written against the former worker-count
    /// option still compile; slated for removal.
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Attaches a cooperative deadline, propagated into every candidate's
    /// [`DesignContext`].
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Enables or disables static feasibility pruning (on by default).
    /// Disabling forces every allowed style's plan to execute even when
    /// [`BlockDesigner::static_check`] would prove it infeasible —
    /// useful for auditing the pruner's verdicts against real execution
    /// and for fault-injection suites that need the execution path.
    #[must_use]
    pub fn with_static_pruning(mut self, enabled: bool) -> Self {
        self.skip_static_check = !enabled;
        self
    }

    /// Whether static feasibility pruning is enabled (default `true`).
    #[must_use]
    pub fn static_pruning(&self) -> bool {
        !self.skip_static_check
    }

    /// The style filter, if any.
    #[must_use]
    pub fn styles(&self) -> Option<&[String]> {
        self.styles.as_deref()
    }

    /// The cooperative deadline (unlimited by default).
    #[must_use]
    pub fn deadline(&self) -> &Deadline {
        &self.deadline
    }

    /// Prefixes every cache scope of this sweep with `namespace`. Cache
    /// keys cover the sub-block specification but assume a fixed
    /// fabrication process; a sweep sharing one [`MemoCache`] across
    /// processes (the batch runner, a resident server) must give each
    /// process its own namespace, so entries can never leak between
    /// technologies. The batch runner numbers each distinct technology
    /// text it meets.
    #[must_use]
    pub fn with_cache_namespace(mut self, namespace: impl Into<Arc<str>>) -> Self {
        self.cache_namespace = Some(namespace.into());
        self
    }

    /// The cache-key namespace, if any.
    #[must_use]
    pub fn cache_namespace(&self) -> Option<&str> {
        self.cache_namespace.as_deref()
    }
}

/// Records a statically pruned style: a `style:<name>` span annotated
/// `outcome=pruned` with the reason, plus the `engine.pruned` counter.
fn prune<E: fmt::Display>(tel: &Telemetry, style: &str, error: &E) {
    let span = tel.span_display("style:", &style);
    span.annotate_sym(sym!("outcome"), sym!("pruned"));
    span.annotate("reason", || error.to_string());
    tel.incr_sym(sym!("engine.pruned"));
}

/// Designs one candidate style under its own `style:<name>` span,
/// annotated with the outcome the way the selector reports it.
fn attempt<D: BlockDesigner>(
    designer: &D,
    spec: &D::Spec,
    style: &str,
    tel: &Telemetry,
    cache: &MemoCache,
    opts: &SearchOptions,
) -> Result<D::Output, D::Error> {
    fail_point!("engine.style");
    let span = tel.span_display("style:", &style);
    // The cache scope is the style name, optionally under the sweep's
    // namespace (the technology's, when one bounded cache is shared
    // across processes), built once for every lookup of the attempt.
    let scope: Arc<str> = match opts.cache_namespace() {
        Some(ns) => format!("{ns}/{style}").into(),
        None => style.into(),
    };
    let ctx = DesignContext::new(tel)
        .with_cache(cache)
        .with_scope(scope)
        .with_deadline(opts.deadline().clone());
    let result = designer.design_style(spec, style, &ctx);
    match &result {
        Ok(output) => {
            span.annotate_sym(sym!("outcome"), sym!("feasible"));
            // The one-decimal area differs from job to job: a flight
            // handle keeps the text, a traced run interns it, and a
            // disabled handle formats nothing. Neither allocates a
            // `String` for it.
            if tel.is_enabled() {
                let area = designer.area_um2(output);
                span.annotate_sym(sym!("area_um2"), tel.text(&format_args!("{area:.1}")));
            }
        }
        Err(e) => {
            span.annotate_sym(sym!("outcome"), sym!("rejected"));
            span.annotate("reason", || e.to_string());
        }
    }
    result
}

/// Every attempted style's result, in declaration order — the return
/// shape of [`design_candidates`].
pub type CandidateResults<O, E> = Vec<(&'static str, Result<O, E>)>;

/// Runs the breadth-first candidate sweep for one block level,
/// returning every attempted style's result in declaration order.
///
/// The sweep is a plain loop on the calling thread, recording straight
/// into `tel`. Static feasibility verdicts come first, in declaration
/// order, so every pruned style's `style:<name>` span opens before any
/// executed style's.
///
/// The caller picks the winner (smallest area, ties by style name) from
/// the returned results; see [`BlockDesigner::design`] for the
/// convenience that does both at once.
pub fn design_candidates<D: BlockDesigner>(
    designer: &D,
    spec: &D::Spec,
    opts: &SearchOptions,
    tel: &Telemetry,
    cache: &MemoCache,
) -> CandidateResults<D::Output, D::Error> {
    let verdicts: Vec<(&'static str, Result<(), D::Error>)> = designer
        .styles()
        .iter()
        .copied()
        .filter(|&s| {
            opts.styles()
                .is_none_or(|wanted| wanted.iter().any(|w| w == s))
        })
        .filter(|s| designer.allowed(spec, s))
        .map(|style| {
            let verdict = if opts.static_pruning() {
                designer.static_check(spec, style)
            } else {
                Ok(())
            };
            if let Err(error) = &verdict {
                prune(tel, style, error);
            }
            (style, verdict)
        })
        .collect();
    verdicts
        .into_iter()
        .map(|(style, verdict)| {
            let result = match verdict {
                Ok(()) => attempt(designer, spec, style, tel, cache, opts),
                Err(error) => Err(error),
            };
            (style, result)
        })
        .collect()
}

/// What one registered designer offers: its level name and its style
/// alternatives. The registry is the link between the paper's Figure 1
/// hierarchy blocks and the designers that can realize them.
#[derive(Clone, Debug)]
pub struct DesignerDescriptor {
    level: &'static str,
    styles: Vec<&'static str>,
}

impl DesignerDescriptor {
    /// A descriptor for `level` with its style alternatives.
    #[must_use]
    pub fn new(level: &'static str, styles: impl IntoIterator<Item = &'static str>) -> Self {
        Self {
            level,
            styles: styles.into_iter().collect(),
        }
    }

    /// The block-level name.
    #[must_use]
    pub fn level(&self) -> &'static str {
        self.level
    }

    /// The style alternatives, in trial order.
    #[must_use]
    pub fn styles(&self) -> &[&'static str] {
        &self.styles
    }
}

/// The catalog of registered block designers, keyed by level name.
#[derive(Clone, Debug, Default)]
pub struct DesignerRegistry {
    descriptors: Vec<DesignerDescriptor>,
}

impl DesignerRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a descriptor (last registration wins on lookup only if
    /// levels are unique; duplicates are a caller bug and panic).
    ///
    /// # Panics
    ///
    /// When `descriptor.level()` is already registered.
    pub fn register(&mut self, descriptor: DesignerDescriptor) {
        assert!(
            self.get(descriptor.level()).is_none(),
            "designer level {:?} registered twice",
            descriptor.level()
        );
        self.descriptors.push(descriptor);
    }

    /// Looks a designer up by level name.
    #[must_use]
    pub fn get(&self, level: &str) -> Option<&DesignerDescriptor> {
        self.descriptors.iter().find(|d| d.level == level)
    }

    /// Every registered descriptor, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &DesignerDescriptor> {
        self.descriptors.iter()
    }

    /// Registered level names, in registration order.
    pub fn levels(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.descriptors.iter().map(|d| d.level)
    }

    /// Number of registered designers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// `true` when nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A toy two-style designer: "big" always fits at 100 µm²; "small"
    /// fits only when the spec allows it, at the spec's area.
    struct Toy {
        runs: AtomicUsize,
    }

    #[derive(Clone, Copy)]
    struct ToySpec {
        small_feasible: bool,
        small_area: f64,
    }

    impl Toy {
        fn new() -> Self {
            Self {
                runs: AtomicUsize::new(0),
            }
        }
    }

    impl BlockDesigner for Toy {
        type Spec = ToySpec;
        type Output = f64;
        type Error = String;

        fn level(&self) -> &'static str {
            "toy"
        }

        fn styles(&self) -> &'static [&'static str] {
            &["big", "small"]
        }

        fn design_style(
            &self,
            spec: &ToySpec,
            style: &str,
            _ctx: &DesignContext<'_>,
        ) -> Result<f64, String> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            match style {
                "big" => Ok(100.0),
                "small" if spec.small_feasible => Ok(spec.small_area),
                "small" => Err("toy: specification infeasible: too small".to_owned()),
                other => panic!("unknown style {other}"),
            }
        }

        fn area_um2(&self, output: &f64) -> f64 {
            *output
        }
    }

    fn ctx(tel: &Telemetry) -> DesignContext<'_> {
        DesignContext::new(tel)
    }

    #[test]
    fn selects_smallest_area() {
        let tel = Telemetry::disabled();
        let spec = ToySpec {
            small_feasible: true,
            small_area: 10.0,
        };
        let sel = Toy::new().design(&spec, &ctx(&tel)).unwrap();
        assert_eq!(sel.style(), "small");
        assert_eq!(sel.area_um2(), 10.0);
        assert_eq!(*sel.output(), 10.0);
    }

    #[test]
    fn area_ties_break_by_style_name() {
        let tel = Telemetry::disabled();
        let spec = ToySpec {
            small_feasible: true,
            small_area: 100.0, // exact tie with "big"
        };
        let sel = Toy::new().design(&spec, &ctx(&tel)).unwrap();
        assert_eq!(sel.style(), "big", "tie must break lexicographically");
    }

    #[test]
    fn failure_aggregates_per_style_reasons() {
        struct Hopeless;
        impl BlockDesigner for Hopeless {
            type Spec = ();
            type Output = f64;
            type Error = String;
            fn level(&self) -> &'static str {
                "mirror"
            }
            fn styles(&self) -> &'static [&'static str] {
                &["simple", "cascode"]
            }
            fn design_style(
                &self,
                _spec: &(),
                style: &str,
                _ctx: &DesignContext<'_>,
            ) -> Result<f64, String> {
                Err(format!("{style} broke"))
            }
            fn area_um2(&self, output: &f64) -> f64 {
                *output
            }
        }
        let tel = Telemetry::disabled();
        let err = Hopeless.design(&(), &ctx(&tel)).unwrap_err();
        assert_eq!(err.level(), "mirror");
        assert_eq!(err.rejections().len(), 2);
        assert_eq!(err.rejections()[0].style(), "simple");
        assert_eq!(
            err.reasons(),
            "simple: simple broke; cascode: cascode broke"
        );
        assert_eq!(
            err.to_string(),
            "mirror: no style fits: simple: simple broke; cascode: cascode broke"
        );
    }

    #[test]
    fn disallowed_styles_are_skipped_silently() {
        struct Picky;
        impl BlockDesigner for Picky {
            type Spec = ();
            type Output = f64;
            type Error = String;
            fn level(&self) -> &'static str {
                "picky"
            }
            fn styles(&self) -> &'static [&'static str] {
                &["a", "b"]
            }
            fn allowed(&self, _spec: &(), style: &str) -> bool {
                style == "b"
            }
            fn design_style(
                &self,
                _spec: &(),
                style: &str,
                _ctx: &DesignContext<'_>,
            ) -> Result<f64, String> {
                assert_eq!(style, "b", "style a was filtered out");
                Ok(1.0)
            }
            fn area_um2(&self, output: &f64) -> f64 {
                *output
            }
        }
        let tel = Telemetry::disabled();
        let sel = Picky.design(&(), &ctx(&tel)).unwrap();
        assert_eq!(sel.style(), "b");
    }

    #[test]
    fn design_child_caches_successes_per_scope() {
        let tel = Telemetry::new();
        let cache = MemoCache::new();
        let calls = AtomicUsize::new(0);
        let key = || Some(CacheKey::new("i pol").num(1e-6).tag(0));
        let run = |ctx: &DesignContext<'_>| {
            ctx.design_child_sym(sym!("block:mirror"), "mirror", key(), || {
                calls.fetch_add(1, Ordering::SeqCst);
                Ok::<f64, String>(42.0)
            })
        };

        let a = DesignContext::new(&tel)
            .with_cache(&cache)
            .with_scope("one-stage");
        assert_eq!(run(&a).unwrap(), 42.0);
        assert_eq!(run(&a).unwrap(), 42.0, "second call served from cache");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(tel.counter("engine.cache_hits"), 1);

        // A different scope must not share the entry.
        let b = DesignContext::new(&tel)
            .with_cache(&cache)
            .with_scope("two-stage");
        assert_eq!(run(&b).unwrap(), 42.0);
        assert_eq!(calls.load(Ordering::SeqCst), 2, "scopes are isolated");
        assert_eq!(cache.len(), 2);

        // Spans: one block:mirror per invocation.
        let report = tel.report();
        let blocks = report
            .spans()
            .iter()
            .filter(|s| s.name == "block:mirror")
            .count();
        assert_eq!(blocks, 3);
    }

    #[test]
    fn design_child_never_caches_failures() {
        let tel = Telemetry::disabled();
        let cache = MemoCache::new();
        let calls = AtomicUsize::new(0);
        let ctx = DesignContext::new(&tel).with_cache(&cache).with_scope("s");
        for _ in 0..2 {
            let r: Result<f64, String> = ctx.design_child_sym(
                sym!("block:bias"),
                "bias",
                Some(CacheKey::new("i").num(1.0)),
                || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Err("infeasible".to_owned())
                },
            );
            assert!(r.is_err());
        }
        assert_eq!(calls.load(Ordering::SeqCst), 2, "failures re-run");
        assert!(cache.is_empty());
    }

    /// The entry key of test entry `id`: one tag under a fixed scope
    /// and level.
    fn entry(id: u64) -> EntryKey {
        EntryKey {
            scope: "s".into(),
            level: "leaf",
            key: CacheKey::new("id").tag(id),
        }
    }

    /// Whether a value stored under (`scope`, `level`, `key`) is served
    /// to a lookup of (`scope2`, `level2`, `key2`).
    fn shares_entry(
        stored: (&str, &'static str, CacheKey),
        looked_up: (&str, &'static str, CacheKey),
    ) -> bool {
        let entry = |(scope, level, key): (&str, &'static str, CacheKey)| EntryKey {
            scope: scope.into(),
            level,
            key,
        };
        let cache = MemoCache::new();
        cache.put(entry(stored), 1u32);
        cache.get::<u32>(&entry(looked_up)).is_some()
    }

    #[test]
    fn cache_keys_match_bit_exactly() {
        let num = |v: f64| CacheKey::new("x").num(v);
        let quiet_nan = f64::from_bits(0x7ff8_0000_0000_0000);
        let other_nan = f64::from_bits(0x7ff8_0000_0000_0001);
        for (a, b, why) in [
            (0.0, -0.0, "signed zeros"),
            (quiet_nan, other_nan, "two NaN payloads"),
            (1.0, 1.0 + f64::EPSILON, "a one-ulp change"),
        ] {
            assert!(
                !shares_entry(("s", "leaf", num(a)), ("s", "leaf", num(b))),
                "{why} must miss"
            );
        }
        for v in [0.0, -0.0, quiet_nan, 1.0] {
            assert!(
                shares_entry(("s", "leaf", num(v)), ("s", "leaf", num(v))),
                "identical bits must hit: {v}"
            );
        }
        assert!(
            !shares_entry(("s", "leaf", num(1.0)), ("s", "other", num(1.0))),
            "levels are isolated"
        );
        assert!(
            !shares_entry(("s", "leaf", num(1.0)), ("t", "leaf", num(1.0))),
            "scopes are isolated"
        );
        assert!(
            !shares_entry(
                ("ns-a/style", "leaf", num(1.0)),
                ("ns-b/style", "leaf", num(1.0))
            ),
            "namespaces are isolated"
        );
        assert!(
            !shares_entry(("s", "leaf", num(1.0)), ("s", "leaf", num(1.0).num(0.0))),
            "a longer key is another key"
        );
    }

    #[test]
    fn the_two_gain_stage_layouts_never_match() {
        // The two call sites that key the `gain stage` level: the gain
        // stage's own selector and the two-stage plan's fixed driver.
        // Filled with the same words, they still must not share an entry.
        let selector = CacheKey::new("pol gm ibias min_gain load_gds l_um");
        let driver = CacheKey::new("style gm ibias l_um load_gds");
        for words in [[0u64; 6], [1, 2, 3, 4, 5, 6]] {
            let fill = |key: CacheKey, n: usize| words[..n].iter().fold(key, |key, &w| key.tag(w));
            for n in [5, 6] {
                assert!(
                    !shares_entry(
                        ("ns/two-stage", "gain stage", fill(selector, n)),
                        ("ns/two-stage", "gain stage", fill(driver, n))
                    ),
                    "{n} equal words"
                );
            }
        }
    }

    /// Three styles; "mid" is statically infeasible and must be pruned
    /// without its `design_style` ever running.
    struct PrunableToy {
        runs: AtomicUsize,
    }

    impl BlockDesigner for PrunableToy {
        type Spec = ();
        type Output = f64;
        type Error = String;

        fn level(&self) -> &'static str {
            "prunable"
        }

        fn styles(&self) -> &'static [&'static str] {
            &["cheap", "mid", "fancy"]
        }

        fn static_check(&self, _spec: &(), style: &str) -> Result<(), String> {
            if style == "mid" {
                Err("statically-infeasible: required gain exceeds style ceiling".to_owned())
            } else {
                Ok(())
            }
        }

        fn design_style(
            &self,
            _spec: &(),
            style: &str,
            _ctx: &DesignContext<'_>,
        ) -> Result<f64, String> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            assert_ne!(style, "mid", "pruned style must never run its plan");
            Ok(if style == "cheap" { 10.0 } else { 50.0 })
        }

        fn area_um2(&self, output: &f64) -> f64 {
            *output
        }
    }

    #[test]
    fn statically_infeasible_styles_are_pruned_not_run() {
        let tel = Telemetry::new();
        let cache = MemoCache::new();
        let toy = PrunableToy {
            runs: AtomicUsize::new(0),
        };
        let results = design_candidates(&toy, &(), &SearchOptions::new(), &tel, &cache);
        assert_eq!(toy.runs.load(Ordering::SeqCst), 2);
        assert_eq!(tel.counter("engine.pruned"), 1);
        let names: Vec<&str> = results.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            names,
            vec!["cheap", "mid", "fancy"],
            "declaration order kept"
        );
        assert!(results[0].1.is_ok());
        assert!(
            results[1]
                .1
                .as_ref()
                .is_err_and(|e| e.contains("statically-infeasible")),
            "pruned style's result is its static rejection"
        );
        assert!(results[2].1.is_ok());
        let spans: Vec<String> = tel
            .report()
            .spans()
            .iter()
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(
            spans,
            vec!["style:mid", "style:cheap", "style:fancy"],
            "pruned spans open before the sweep"
        );
    }

    #[test]
    fn static_pruning_opt_out_runs_every_style() {
        /// Like [`PrunableToy`] but tolerates "mid" executing, so the
        /// opt-out path can prove the plan really ran.
        struct Audit(AtomicUsize);

        impl BlockDesigner for Audit {
            type Spec = ();
            type Output = f64;
            type Error = String;

            fn level(&self) -> &'static str {
                "audit"
            }

            fn styles(&self) -> &'static [&'static str] {
                &["cheap", "mid", "fancy"]
            }

            fn static_check(&self, _spec: &(), style: &str) -> Result<(), String> {
                if style == "mid" {
                    Err("statically-infeasible: ceiling".to_owned())
                } else {
                    Ok(())
                }
            }

            fn design_style(
                &self,
                _spec: &(),
                style: &str,
                _ctx: &DesignContext<'_>,
            ) -> Result<f64, String> {
                self.0.fetch_add(1, Ordering::SeqCst);
                if style == "mid" {
                    Err("ran anyway and was rejected at runtime".to_owned())
                } else {
                    Ok(10.0)
                }
            }

            fn area_um2(&self, output: &f64) -> f64 {
                *output
            }
        }

        let tel = Telemetry::new();
        let cache = MemoCache::new();
        let toy = Audit(AtomicUsize::new(0));
        let opts = SearchOptions::new().with_static_pruning(false);
        assert!(!opts.static_pruning());
        let results = design_candidates(&toy, &(), &opts, &tel, &cache);
        assert_eq!(toy.0.load(Ordering::SeqCst), 3, "every style executed");
        assert_eq!(tel.counter("engine.pruned"), 0);
        assert!(
            results[1].1.as_ref().is_err_and(|e| e.contains("runtime")),
            "mid's result comes from execution, not the static check"
        );
    }

    #[test]
    fn design_method_prunes_and_records_rejection() {
        let tel = Telemetry::new();
        let toy = PrunableToy {
            runs: AtomicUsize::new(0),
        };
        let selected = toy.design(&(), &ctx(&tel)).expect("two styles remain");
        assert_eq!(selected.style(), "cheap");
        assert_eq!(toy.runs.load(Ordering::SeqCst), 2);
        assert_eq!(tel.counter("engine.pruned"), 1);
    }

    #[test]
    fn candidates_respect_the_style_filter() {
        let tel = Telemetry::disabled();
        let cache = MemoCache::new();
        let toy = Toy::new();
        let spec = ToySpec {
            small_feasible: true,
            small_area: 1.0,
        };
        let opts = SearchOptions::new().with_styles(["small", "nonexistent"]);
        let results = design_candidates(&toy, &spec, &opts, &tel, &cache);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, "small");
        assert_eq!(toy.runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn registry_links_levels_to_styles() {
        let mut reg = DesignerRegistry::new();
        reg.register(DesignerDescriptor::new(
            "mirror",
            ["simple", "cascode", "wide-swing"],
        ));
        reg.register(DesignerDescriptor::new("diff pair", ["nmos pair"]));
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
        let mirror = reg.get("mirror").unwrap();
        assert_eq!(mirror.styles(), ["simple", "cascode", "wide-swing"]);
        assert!(reg.get("op amp").is_none());
        let levels: Vec<_> = reg.levels().collect();
        assert_eq!(levels, ["mirror", "diff pair"]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn registry_rejects_duplicate_levels() {
        let mut reg = DesignerRegistry::new();
        reg.register(DesignerDescriptor::new("mirror", ["simple"]));
        reg.register(DesignerDescriptor::new("mirror", ["cascode"]));
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let (a, b, c) = (entry(1), entry(2), entry(3));
        let cache = MemoCache::bounded(2);
        assert_eq!(cache.capacity(), 2);
        assert_eq!(cache.put(a.clone(), 1u32), 0);
        assert_eq!(cache.put(b.clone(), 2u32), 0);
        // Touch `a`, making `b` the least recently used entry.
        assert_eq!(cache.get::<u32>(&a), Some(1));
        assert_eq!(cache.put(c.clone(), 3u32), 1);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get::<u32>(&b), None, "b was the LRU entry");
        assert_eq!(cache.get::<u32>(&a), Some(1));
        assert_eq!(cache.get::<u32>(&c), Some(3));
    }

    #[test]
    fn bounded_cache_eviction_order_follows_recency_chain() {
        let cache = MemoCache::bounded(3);
        for (k, v) in [(1, 1u32), (2, 2), (3, 3)] {
            cache.put(entry(k), v);
        }
        // Recency now 3 > 2 > 1; touch 1 and 2 so 3 becomes LRU.
        assert_eq!(cache.get::<u32>(&entry(1)), Some(1));
        assert_eq!(cache.get::<u32>(&entry(2)), Some(2));
        cache.put(entry(4), 4u32);
        assert_eq!(cache.get::<u32>(&entry(3)), None, "3 was the LRU entry");
        cache.put(entry(5), 5u32);
        assert_eq!(cache.get::<u32>(&entry(1)), None, "then 1");
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn replacing_an_entry_is_not_an_eviction() {
        let cache = MemoCache::bounded(1);
        cache.put(entry(1), 1u32);
        assert_eq!(cache.put(entry(1), 2u32), 0);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.get::<u32>(&entry(1)), Some(2));
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = MemoCache::new();
        for i in 0..1000 {
            cache.put(entry(i), i);
        }
        assert_eq!(cache.len(), 1000);
        assert_eq!(cache.evictions(), 0);
    }

    /// The scan-based LRU that [`MemoCache`] replaced, kept as the
    /// reference for its eviction order: every lookup and store bumps a
    /// logical clock and stamps the entry it finds or stores, and an
    /// overflow evicts the smallest stamp, found by scanning every entry.
    struct ScanCache {
        map: HashMap<u64, (Arc<dyn Any + Send + Sync>, u64)>,
        tick: u64,
        capacity: usize,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl ScanCache {
        fn bounded(capacity: usize) -> Self {
            Self {
                map: HashMap::new(),
                tick: 0,
                capacity: capacity.max(1),
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn get<T: Clone + 'static>(&mut self, key: u64) -> Option<T> {
            self.tick += 1;
            let found = self.map.get_mut(&key).and_then(|(value, last_used)| {
                *last_used = self.tick;
                value.downcast_ref::<T>().cloned()
            });
            match found {
                Some(_) => self.hits += 1,
                None => self.misses += 1,
            }
            found
        }

        fn put<T: Send + Sync + 'static>(&mut self, key: u64, value: T) -> usize {
            self.tick += 1;
            self.map.insert(key, (Arc::new(value), self.tick));
            let mut evicted = 0;
            while self.map.len() > self.capacity {
                let oldest = self
                    .map
                    .iter()
                    .min_by_key(|(_, (_, last_used))| *last_used)
                    .map(|(&k, _)| k);
                match oldest {
                    Some(k) => {
                        self.map.remove(&k);
                        evicted += 1;
                    }
                    None => break,
                }
            }
            self.evictions += evicted as u64;
            evicted
        }
    }

    #[test]
    fn cache_agrees_with_the_scan_reference_after_every_operation() {
        // get hit, get miss, get with the wrong type, put new, put replace
        let mut seen = [0u32; 5];
        for capacity in (1..=8).chain([usize::MAX]) {
            // Twice as many keys as entries: evictions, hits and misses
            // all stay common.
            let keys = 2 * capacity.min(8) as u64 + 2;
            for seed in 0..16 {
                let mut rng = oasys_testutil::Rng::seeded(seed);
                let cache = MemoCache::bounded(capacity);
                let mut reference = ScanCache::bounded(capacity);
                for step in 0..300u32 {
                    let id = rng.range_u64(0, keys);
                    let key = entry(id);
                    let present = reference.map.contains_key(&id);
                    let what = match rng.range_u64(0, 3) {
                        0 => {
                            let got = cache.get::<u32>(&key);
                            assert_eq!(got, reference.get::<u32>(id));
                            usize::from(got.is_none())
                        }
                        1 => {
                            // Only `u32`s are stored: a present key is a
                            // type mismatch.
                            assert_eq!(cache.get::<u64>(&key), None);
                            assert_eq!(reference.get::<u64>(id), None);
                            if present {
                                2
                            } else {
                                1
                            }
                        }
                        _ => {
                            assert_eq!(cache.put(key, step), reference.put(id, step));
                            if present {
                                4
                            } else {
                                3
                            }
                        }
                    };
                    seen[what] += 1;
                    assert_eq!(
                        (cache.len(), cache.hits(), cache.misses(), cache.evictions()),
                        (
                            reference.map.len(),
                            reference.hits,
                            reference.misses,
                            reference.evictions
                        ),
                        "capacity {capacity}, seed {seed}, step {step}"
                    );
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "an operation never ran: {seen:?}"
        );
    }

    /// The least time, over five batches, that 1 000 evicting puts take
    /// in a full cache of `capacity` entries.
    fn evicting_puts(capacity: usize) -> std::time::Duration {
        let cache = MemoCache::bounded(capacity);
        for i in 0..capacity {
            cache.put(entry(i as u64), i);
        }
        (0..5)
            .map(|batch| {
                // Past the fill's ids, so every put evicts.
                let first = (capacity + 1000 * batch) as u64;
                let keys: Vec<EntryKey> = (first..first + 1000).map(entry).collect();
                let start = std::time::Instant::now();
                for key in keys {
                    assert_eq!(cache.put(key, 0usize), 1);
                }
                start.elapsed()
            })
            .min()
            .unwrap_or_default()
    }

    #[test]
    fn eviction_cost_does_not_grow_with_capacity() {
        let small = evicting_puts(64);
        let large = evicting_puts(65_536);
        assert!(
            large < small * 10,
            "1 000 evicting puts took {large:?} in a full 65 536-entry cache \
             and {small:?} in a full 64-entry one"
        );
    }

    #[test]
    fn design_child_counts_evictions_on_a_metered_handle_only() {
        let run = |tel: &Telemetry| {
            let cache = MemoCache::bounded(1);
            let ctx = DesignContext::new(tel).with_cache(&cache);
            for i in 0..3 {
                let key = Some(CacheKey::new("i").num(f64::from(i)));
                let _: Result<u32, ()> =
                    ctx.design_child_sym(sym!("block:leaf"), "leaf", key, || Ok(i));
            }
            assert_eq!(cache.evictions(), 2);
        };
        let tel = Telemetry::new();
        run(&tel);
        assert_eq!(tel.counter("engine.cache_evictions"), 2);
        let flight = Telemetry::flight();
        run(&flight);
        assert_eq!(flight.counter("engine.cache_evictions"), 0);
    }

    #[test]
    fn cache_namespace_isolates_identical_specs() {
        let tel = Telemetry::disabled();
        let cache = MemoCache::new();
        let mut calls = 0;
        for ns in ["tech-a", "tech-b"] {
            let ctx = DesignContext::new(&tel)
                .with_cache(&cache)
                .with_scope(format!("{ns}/style"));
            let key = CacheKey::new("r").num(1.0);
            let _: Result<u32, ()> =
                ctx.design_child_sym(sym!("block:leaf"), "leaf", Some(key), || {
                    calls += 1;
                    Ok(7)
                });
        }
        assert_eq!(
            calls, 2,
            "the same sub-spec under different namespaces must not share an entry"
        );
        assert_eq!(cache.len(), 2);
    }
}
