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
//!     fn styles(&self) -> Vec<String> {
//!         vec!["single".into(), "series".into()]
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
use oasys_telemetry::{sym, sym2, sym_display, Sym, Telemetry};
use std::any::Any;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
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

    /// Style alternatives in declaration (trial) order.
    fn styles(&self) -> Vec<String>;

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
        for style in self.styles() {
            if !self.allowed(spec, &style) {
                continue;
            }
            if let Err(error) = self.static_check(spec, &style) {
                prune(ctx.telemetry(), &style, &error);
                rejections.push(StyleRejection { style, error });
                continue;
            }
            match self.design_style(spec, &style, ctx) {
                Ok(output) => {
                    let area_um2 = self.area_um2(&output);
                    let wins = best.as_ref().is_none_or(|b| {
                        area_um2 < b.area_um2
                            || (area_um2 == b.area_um2 && style.as_str() < b.style.as_str())
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
    style: String,
    area_um2: f64,
    output: T,
}

impl<T> Selected<T> {
    /// The winning style's name.
    #[must_use]
    pub fn style(&self) -> &str {
        &self.style
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
    style: String,
    error: E,
}

impl<E> StyleRejection<E> {
    /// The rejected style's name.
    #[must_use]
    pub fn style(&self) -> &str {
        &self.style
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
    scope: String,
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
            scope: String::new(),
            deadline: Deadline::none(),
        }
    }

    /// Attaches a memo cache for [`DesignContext::design_child`].
    #[must_use]
    pub fn with_cache(mut self, cache: &'a MemoCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the scope (normally the invoking style's name). Cache keys
    /// are prefixed with it, so styles never share entries — hits only
    /// come from deterministic within-style rework (plan restarts
    /// re-deriving an unchanged sub-block).
    #[must_use]
    pub fn with_scope(mut self, scope: impl Into<String>) -> Self {
        self.scope = scope.into();
        self
    }

    /// Attaches a cooperative deadline. Designers pass it into their plan
    /// executors and simulator calls so a diverging job aborts at the
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

    /// Invokes a child designer: opens a `block:<level>` span under the
    /// current one, consults the memo cache when `key` is given (serving
    /// a clone and counting `engine.cache_hits` on a hit), and caches
    /// successful results. Failures are never cached — a parent patch
    /// rule may change the sub-spec and retry.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns; the error passes through untouched.
    pub fn design_child<T, E, F>(&self, level: &str, key: Option<CacheKey>, f: F) -> Result<T, E>
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce() -> Result<T, E>,
    {
        self.design_child_sym(sym2("block:", level), level, key, f)
    }

    /// [`DesignContext::design_child`] with the `block:<level>` span
    /// name pre-interned by the caller (a `OnceLock<Sym>` at the call
    /// site), so repeated child designs skip the interning hash and
    /// table lock entirely. `level` must be the bare level text behind
    /// `span_name` — it still keys the memo cache.
    pub fn design_child_sym<T, E, F>(
        &self,
        span_name: Sym,
        level: &str,
        key: Option<CacheKey>,
        f: F,
    ) -> Result<T, E>
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce() -> Result<T, E>,
    {
        fail_point!("engine.cache");
        let syms = engine_syms();
        let span = self.tel.span_sym(span_name);
        let full_key = key.map(|k| {
            if self.scope.is_empty() {
                format!("{level}:{}", k.finish())
            } else {
                format!("{}/{level}:{}", self.scope, k.finish())
            }
        });
        if let (Some(cache), Some(full)) = (self.cache, full_key.as_deref()) {
            if let Some(hit) = cache.get::<T>(full) {
                self.tel.incr_sym(syms.cache_hits);
                span.annotate_sym(syms.cache, syms.hit);
                return Ok(hit);
            }
            self.tel.incr_sym(syms.cache_misses);
        }
        let result = f();
        match &result {
            Ok(value) => {
                if let (Some(cache), Some(full)) = (self.cache, full_key) {
                    let evicted = cache.put(full, value.clone());
                    for _ in 0..evicted {
                        self.tel.incr_sym(syms.cache_evictions);
                    }
                }
                span.annotate_sym(syms.outcome, syms.designed);
            }
            Err(_) => span.annotate_sym(syms.outcome, syms.failed),
        }
        result
    }
}

/// A memoization cache for sub-block designs — shared across the styles
/// of one synthesis run, or (bounded) across many runs in a batch sweep
/// or a resident server.
///
/// Entries are type-erased; [`MemoCache::get`] returns a clone only when
/// both the key and the concrete type match.
///
/// [`MemoCache::new`] is unbounded, for single-run caches whose size is
/// naturally limited by one synthesis. [`MemoCache::bounded`] caps the
/// entry count and evicts the least-recently-used entry on overflow, so
/// a long-lived process-wide cache (the batch runner, `oasys serve`)
/// cannot grow without limit. Hit/miss/eviction totals are kept as
/// cheap relaxed counters; the engine mirrors them into the telemetry
/// metrics snapshot (`engine.cache_hits` / `engine.cache_misses` /
/// `engine.cache_evictions`).
///
/// Cache keys assume a fixed fabrication process. To share one cache
/// across technologies, namespace the keys per process fingerprint —
/// see [`SearchOptions::with_cache_namespace`].
pub struct MemoCache {
    entries: Mutex<LruEntries>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    capacity: usize,
}

/// The LRU bookkeeping behind the lock: entries stamped with a logical
/// clock bumped on every touch. Eviction scans for the smallest stamp —
/// O(n), which is fine at the capacities in play (hundreds to a few
/// thousand entries) and keeps the hit path allocation-free.
#[derive(Default)]
struct LruEntries {
    map: HashMap<String, LruEntry>,
    tick: u64,
}

struct LruEntry {
    value: Arc<dyn Any + Send + Sync>,
    last_used: u64,
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
            entries: Mutex::new(LruEntries::default()),
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
    #[must_use]
    pub fn get<T: Clone + Send + Sync + 'static>(&self, key: &str) -> Option<T> {
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        entries.tick += 1;
        let tick = entries.tick;
        match entries.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                match entry.value.downcast_ref::<T>() {
                    Some(value) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        Some(value.clone())
                    }
                    None => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                }
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a design under `key`, replacing any earlier entry, and
    /// returns how many entries were evicted to stay under capacity
    /// (0 or 1; replacement is not an eviction).
    pub fn put<T: Send + Sync + 'static>(&self, key: String, value: T) -> usize {
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        entries.tick += 1;
        let tick = entries.tick;
        entries.map.insert(
            key,
            LruEntry {
                value: Arc::new(value),
                last_used: tick,
            },
        );
        let mut evicted = 0;
        while entries.map.len() > self.capacity {
            let oldest = entries
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match oldest {
                Some(k) => {
                    entries.map.remove(&k);
                    evicted += 1;
                }
                None => break,
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        evicted
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
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .map
            .len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Builds a cache key from a sub-specification, field by field.
///
/// Floats are fingerprinted via [`f64::to_bits`], so two specs collide
/// only when every field is bit-identical — the cache can never serve a
/// design for a merely *similar* spec.
#[derive(Clone, Debug, Default)]
pub struct CacheKey {
    parts: String,
}

impl CacheKey {
    /// An empty key.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a named `f64` field, fingerprinted bit-exactly.
    #[must_use]
    pub fn num(mut self, name: &str, value: f64) -> Self {
        let _ = write!(self.parts, "{name}={:016x};", value.to_bits());
        self
    }

    /// Appends a named discrete field (polarity, style, flag…).
    #[must_use]
    pub fn tag(mut self, name: &str, value: impl fmt::Display) -> Self {
        let _ = write!(self.parts, "{name}={value};");
        self
    }

    /// The finished key text.
    #[must_use]
    pub fn finish(self) -> String {
        self.parts
    }
}

/// How [`design_candidates`] runs the candidate sweep.
#[derive(Clone, Debug, Default)]
pub struct SearchOptions {
    styles: Option<Vec<String>>,
    deadline: Deadline,
    skip_static_check: bool,
    cache_namespace: Option<String>,
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

    /// Prefixes every cache key of this sweep with `namespace`. Cache
    /// keys cover the sub-block specification but assume a fixed
    /// fabrication process; a sweep sharing one [`MemoCache`] across
    /// processes (the batch runner, a resident server) must namespace
    /// each process's keys — conventionally with the technology text's
    /// fingerprint — so entries can never leak between technologies.
    #[must_use]
    pub fn with_cache_namespace(mut self, namespace: impl Into<String>) -> Self {
        self.cache_namespace = Some(namespace.into());
        self
    }

    /// The cache-key namespace, if any.
    #[must_use]
    pub fn cache_namespace(&self) -> Option<&str> {
        self.cache_namespace.as_deref()
    }
}

/// Pre-interned symbols for the engine's fixed annotation keys/values
/// and counters, resolved once per process so the per-candidate hot
/// path never hashes a name.
struct EngineSyms {
    outcome: Sym,
    cache: Sym,
    hit: Sym,
    designed: Sym,
    failed: Sym,
    feasible: Sym,
    rejected: Sym,
    pruned: Sym,
    cache_hits: Sym,
    cache_misses: Sym,
    cache_evictions: Sym,
    pruned_counter: Sym,
    area_um2: Sym,
}

fn engine_syms() -> &'static EngineSyms {
    static SYMS: std::sync::OnceLock<EngineSyms> = std::sync::OnceLock::new();
    SYMS.get_or_init(|| EngineSyms {
        outcome: sym("outcome"),
        cache: sym("cache"),
        hit: sym("hit"),
        designed: sym("designed"),
        failed: sym("failed"),
        feasible: sym("feasible"),
        rejected: sym("rejected"),
        pruned: sym("pruned"),
        cache_hits: sym("engine.cache_hits"),
        cache_misses: sym("engine.cache_misses"),
        cache_evictions: sym("engine.cache_evictions"),
        pruned_counter: sym("engine.pruned"),
        area_um2: sym("area_um2"),
    })
}

/// Records a statically pruned style: a `style:<name>` span annotated
/// `outcome=pruned` with the reason, plus the `engine.pruned` counter.
fn prune<E: fmt::Display>(tel: &Telemetry, style: &str, error: &E) {
    let syms = engine_syms();
    let span = tel.span_display("style:", &style);
    span.annotate_sym(syms.outcome, syms.pruned);
    span.annotate("reason", || error.to_string());
    tel.incr_sym(syms.pruned_counter);
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
    let syms = engine_syms();
    let span = tel.span_display("style:", &style);
    // The cache scope is the style name, optionally under the sweep's
    // namespace (a technology fingerprint when one bounded cache is
    // shared across processes).
    let scope = match opts.cache_namespace() {
        Some(ns) => format!("{ns}/{style}"),
        None => style.to_owned(),
    };
    let ctx = DesignContext::new(tel)
        .with_cache(cache)
        .with_scope(scope)
        .with_deadline(opts.deadline().clone());
    let result = designer.design_style(spec, style, &ctx);
    match &result {
        Ok(output) => {
            span.annotate_sym(syms.outcome, syms.feasible);
            // One-decimal area as an interned value: the same spec and
            // process yield the same text run over run, so after the
            // first run this is a stack-format plus a table lookup —
            // no `String` allocation on the hot path.
            struct Area(f64);
            impl fmt::Display for Area {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    write!(f, "{:.1}", self.0)
                }
            }
            span.annotate_sym(
                syms.area_um2,
                sym_display("", &Area(designer.area_um2(output))),
            );
        }
        Err(e) => {
            span.annotate_sym(syms.outcome, syms.rejected);
            span.annotate("reason", || e.to_string());
        }
    }
    result
}

/// Every attempted style's result, in declaration order — the return
/// shape of [`design_candidates`].
pub type CandidateResults<O, E> = Vec<(String, Result<O, E>)>;

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
    let verdicts: Vec<(String, Result<(), D::Error>)> = designer
        .styles()
        .into_iter()
        .filter(|s| {
            opts.styles()
                .is_none_or(|wanted| wanted.iter().any(|w| w == s))
        })
        .filter(|s| designer.allowed(spec, s))
        .map(|style| {
            let verdict = if opts.static_pruning() {
                designer.static_check(spec, &style)
            } else {
                Ok(())
            };
            if let Err(error) = &verdict {
                prune(tel, &style, error);
            }
            (style, verdict)
        })
        .collect();
    verdicts
        .into_iter()
        .map(|(style, verdict)| {
            let result = match verdict {
                Ok(()) => attempt(designer, spec, &style, tel, cache, opts),
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

        fn styles(&self) -> Vec<String> {
            vec!["big".into(), "small".into()]
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
            fn styles(&self) -> Vec<String> {
                vec!["simple".into(), "cascode".into()]
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
            fn styles(&self) -> Vec<String> {
                vec!["a".into(), "b".into()]
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
        let key = || Some(CacheKey::new().num("i", 1e-6).tag("pol", "nmos"));
        let run = |ctx: &DesignContext<'_>| {
            ctx.design_child("mirror", key(), || {
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
            let r: Result<f64, String> =
                ctx.design_child("bias", Some(CacheKey::new().num("i", 1.0)), || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Err("infeasible".to_owned())
                });
            assert!(r.is_err());
        }
        assert_eq!(calls.load(Ordering::SeqCst), 2, "failures re-run");
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_keys_fingerprint_floats_bit_exactly() {
        let a = CacheKey::new().num("i", 1.0).finish();
        let b = CacheKey::new().num("i", 1.0 + f64::EPSILON).finish();
        assert_ne!(a, b, "one-ulp changes must miss");
        assert_eq!(a, CacheKey::new().num("i", 1.0).finish());
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

        fn styles(&self) -> Vec<String> {
            vec!["cheap".into(), "mid".into(), "fancy".into()]
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
        let names: Vec<String> = results.iter().map(|(s, _)| s.clone()).collect();
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

            fn styles(&self) -> Vec<String> {
                vec!["cheap".into(), "mid".into(), "fancy".into()]
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
        let cache = MemoCache::bounded(2);
        assert_eq!(cache.capacity(), 2);
        assert_eq!(cache.put("a".to_owned(), 1u32), 0);
        assert_eq!(cache.put("b".to_owned(), 2u32), 0);
        // Touch `a`, making `b` the least recently used entry.
        assert_eq!(cache.get::<u32>("a"), Some(1));
        assert_eq!(cache.put("c".to_owned(), 3u32), 1);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get::<u32>("b"), None, "b was the LRU entry");
        assert_eq!(cache.get::<u32>("a"), Some(1));
        assert_eq!(cache.get::<u32>("c"), Some(3));
    }

    #[test]
    fn bounded_cache_eviction_order_follows_recency_chain() {
        let cache = MemoCache::bounded(3);
        for (k, v) in [("a", 1u32), ("b", 2), ("c", 3)] {
            cache.put(k.to_owned(), v);
        }
        // Recency now c > b > a; touch a and b so c becomes LRU.
        assert_eq!(cache.get::<u32>("a"), Some(1));
        assert_eq!(cache.get::<u32>("b"), Some(2));
        cache.put("d".to_owned(), 4u32);
        assert_eq!(cache.get::<u32>("c"), None, "c was the LRU entry");
        cache.put("e".to_owned(), 5u32);
        assert_eq!(cache.get::<u32>("a"), None, "then a");
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn replacing_an_entry_is_not_an_eviction() {
        let cache = MemoCache::bounded(1);
        cache.put("k".to_owned(), 1u32);
        assert_eq!(cache.put("k".to_owned(), 2u32), 0);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.get::<u32>("k"), Some(2));
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = MemoCache::new();
        for i in 0..1000 {
            cache.put(format!("k{i}"), i);
        }
        assert_eq!(cache.len(), 1000);
        assert_eq!(cache.evictions(), 0);
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
            let key = CacheKey::new().num("r", 1.0);
            let _: Result<u32, ()> = ctx.design_child("leaf", Some(key), || {
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
