//! `oasys serve`: synthesis-as-a-service over a Unix domain socket.
//!
//! A resident server turns the one-shot CLI into a long-lived synthesis
//! daemon: the process keeps its warm, bounded, fingerprint-namespaced
//! [`MemoCache`] across requests, so a client asking for a spec the
//! server has (partly) designed before gets sub-block hits immediately.
//!
//! # Wire protocol
//!
//! Transport framing is deliberately minimal: every message — request
//! or response — is one **frame**, a big-endian `u32` byte length
//! followed by that many bytes of UTF-8 JSON. Frames above
//! [`MAX_FRAME_BYTES`] are rejected at the transport layer, and request
//! frames above [`MAX_REQUEST_BYTES`] are rejected with a structured
//! error — the length prefix is attacker-controlled, so the reader
//! never allocates ahead of the bytes actually received. Each
//! connection carries exactly one request and one response; the server
//! closes the stream after answering.
//!
//! Requests are versioned JSON objects (schema `oasys-serve/1`):
//!
//! ```json
//! {"proto": "oasys-serve/1", "op": "synth",
//!  "spec": "<spec file text>", "tech": "<tech file text>",
//!  "timeout_ms": 2000}
//! ```
//!
//! Ops: `synth` (design the spec on the tech), `ping` (liveness probe),
//! `health` (overload/supervision stats), `shutdown` (request a
//! graceful drain). Unknown protos and ops are rejected with a
//! structured error so the schema can grow.
//!
//! Responses are JSON objects keyed by `status`:
//!
//! * `{"status":"ok", "style":…, "area_um2":…, "netlist":…,
//!   "meets_spec":…}` — a synthesized design with its SPICE deck;
//!   under brownout the response carries `"degraded":true` and no
//!   `meets_spec` (verification was skipped to shed load);
//! * `{"status":"busy", "shed":true, "reason":…}` — overload control
//!   turned the connection away (admission queue full, or the
//!   connection outwaited the I/O deadline in the queue); retry later;
//! * `{"status":"error", "kind":…, "message":…}` — the request failed
//!   **alone**; kinds: `protocol`, `spec`, `tech`, `infeasible`,
//!   `deadline`, `verify`, `panic`, `fault`.
//!
//! # Overload degradation
//!
//! Admitted connections carry socket read/write deadlines
//! ([`ServeOptions::with_io_timeout`]): a client that connects and then
//! stalls is **evicted** when the deadline fires, so a slow peer can
//! hold an in-flight slot for at most one I/O timeout, never forever.
//! Behind admission sits a bounded queue ([`ServeOptions::with_queue_depth`]);
//! connections are shed with a `busy` frame when the queue overflows or
//! when they have waited longer than the I/O deadline (their own socket
//! deadline would expire mid-service anyway). Sustained congestion —
//! the queue at or above half its depth, or any shed — trips
//! **brownout**: synthesis keeps answering but skips simulator
//! verification and marks responses `"degraded":true`. Brownout exits
//! after the queue drains and stays empty for the cooldown.
//!
//! # Concurrency and drain
//!
//! The server owns a **dedicated** [`oasys_pool::Pool`] with at least
//! one worker thread, so handlers run beside the accept loop (on the
//! calling thread) instead of starving it. The pool is supervised:
//! a panicking worker thread is replaced, and the `health` op reports
//! `workers_replaced`. Each admitted connection becomes one pool job.
//! The accept loop is non-blocking and polls a shutdown flag (set by
//! the `shutdown` op, [`Server::shutdown_flag`], or SIGTERM via
//! [`install_sigterm_drain`]); on shutdown it stops accepting, sheds
//! the queue, and the surrounding pool scope joins every in-flight
//! handler before [`Server::run`] returns — that join **is** the
//! graceful drain.
//!
//! Every handler runs under `catch_unwind`: a panicking request (or an
//! injected `serve.request.read` fault) is converted into a structured
//! error response on its own connection while the server keeps serving.

use crate::datasheet::Datasheet;
use crate::synth::synthesize_with_cache;
use crate::verify::verify_with;
use crate::SearchOptions;
use oasys_faults::{fail_point, Deadline};
use oasys_plan::MemoCache;
use oasys_telemetry::json::{self, Json};
use oasys_telemetry::Telemetry;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Protocol identifier every request must carry.
pub const PROTOCOL: &str = "oasys-serve/1";
/// Hard ceiling on a single frame's payload, requests and responses
/// alike (responses carry whole SPICE decks).
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;
/// Tighter ceiling on *request* frames: spec and tech files are a few
/// KiB, so 4 MiB is pure headroom — and the cap bounds what a lying
/// length prefix can make the server read.
pub const MAX_REQUEST_BYTES: u32 = 4 * 1024 * 1024;
/// Default handler-pool size.
pub const DEFAULT_WORKERS: usize = 2;
/// Default admission bound: connections served concurrently.
pub const DEFAULT_MAX_INFLIGHT: usize = 8;
/// Default bounded admission-queue depth (connections waiting for an
/// in-flight slot before new arrivals are shed).
pub const DEFAULT_QUEUE_DEPTH: usize = 16;
/// Default socket read/write deadline for admitted connections.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Default quiet period after congestion before brownout exits.
pub const DEFAULT_BROWNOUT_COOLDOWN: Duration = Duration::from_millis(500);
/// How often the accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Configuration for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    socket: PathBuf,
    workers: usize,
    max_inflight: usize,
    queue_depth: usize,
    cache_entries: usize,
    timeout: Option<Duration>,
    io_timeout: Duration,
    brownout_cooldown: Duration,
}

impl ServeOptions {
    /// Options serving on `socket` with default pool size, admission
    /// bound, queue depth, cache capacity, I/O deadline, and no default
    /// per-request deadline.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            workers: DEFAULT_WORKERS,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            cache_entries: crate::batch::DEFAULT_CACHE_ENTRIES,
            timeout: None,
            io_timeout: DEFAULT_IO_TIMEOUT,
            brownout_cooldown: DEFAULT_BROWNOUT_COOLDOWN,
        }
    }

    /// Sets the handler-pool size (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the admission bound (clamped to at least 1).
    #[must_use]
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight.max(1);
        self
    }

    /// Sets the admission-queue depth (clamped to at least 1).
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth.max(1);
        self
    }

    /// Sets the shared design-cache capacity (clamped to at least 1).
    #[must_use]
    pub fn with_cache_entries(mut self, entries: usize) -> Self {
        self.cache_entries = entries.max(1);
        self
    }

    /// Sets the default per-request deadline; `None` means requests
    /// without a `timeout_ms` field run unbounded.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the socket read/write deadline for admitted connections
    /// (clamped to at least 1 ms). A stalled peer is evicted when it
    /// fires; a queued connection older than it is shed.
    #[must_use]
    pub fn with_io_timeout(mut self, io_timeout: Duration) -> Self {
        self.io_timeout = io_timeout.max(Duration::from_millis(1));
        self
    }

    /// Sets the congestion-free period after which brownout exits.
    #[must_use]
    pub fn with_brownout_cooldown(mut self, cooldown: Duration) -> Self {
        self.brownout_cooldown = cooldown;
        self
    }

    /// The socket path served on.
    #[must_use]
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Handler-pool size.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Admission bound.
    #[must_use]
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Admission-queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Shared design-cache capacity.
    #[must_use]
    pub fn cache_entries(&self) -> usize {
        self.cache_entries
    }

    /// Default per-request deadline.
    #[must_use]
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// Socket read/write deadline for admitted connections.
    #[must_use]
    pub fn io_timeout(&self) -> Duration {
        self.io_timeout
    }

    /// Congestion-free period after which brownout exits.
    #[must_use]
    pub fn brownout_cooldown(&self) -> Duration {
        self.brownout_cooldown
    }
}

/// End-of-run accounting returned by [`Server::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeReport {
    /// Requests admitted and answered (ok or structured error).
    pub served: u64,
    /// Connections turned away with a `busy` frame (queue overflow or
    /// shed after outwaiting the I/O deadline in the queue).
    pub shed: u64,
    /// Admitted connections evicted by the socket I/O deadline (the
    /// peer stalled mid-request).
    pub evicted: u64,
    /// Synthesis responses served degraded (brownout skipped
    /// verification).
    pub degraded: u64,
    /// Times the server entered brownout.
    pub brownout_entries: u64,
    /// Handler-pool workers the supervisor replaced after a panic.
    pub workers_replaced: u64,
    /// Design-cache hits accumulated over the server's lifetime.
    pub cache_hits: u64,
    /// Design-cache misses accumulated over the server's lifetime.
    pub cache_misses: u64,
    /// Design-cache evictions accumulated over the server's lifetime.
    pub cache_evictions: u64,
}

/// Live counters shared between the accept loop and handlers. All
/// relaxed except the gauges the dispatcher decides admission on.
#[derive(Default)]
struct ServeStats {
    served: AtomicU64,
    shed: AtomicU64,
    evicted: AtomicU64,
    degraded: AtomicU64,
    brownout_entries: AtomicU64,
    brownout_exits: AtomicU64,
    inflight: AtomicUsize,
    queued: AtomicUsize,
    brownout: AtomicBool,
}

/// A bound, not-yet-running synthesis server.
pub struct Server {
    listener: UnixListener,
    options: ServeOptions,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the Unix socket (replacing a stale socket file from a
    /// previous run, if any) without accepting yet.
    pub fn bind(options: ServeOptions) -> io::Result<Self> {
        if options.socket.exists() {
            std::fs::remove_file(&options.socket)?;
        }
        let listener = UnixListener::bind(&options.socket)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            options,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// A flag that, once set, makes [`Server::run`] stop accepting and
    /// drain. Clone it before calling `run` to stop the server from
    /// another thread (tests, embedding).
    #[must_use]
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The options the server was bound with.
    #[must_use]
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Accepts and serves requests until the shutdown flag (or a
    /// SIGTERM routed through [`install_sigterm_drain`]) is raised,
    /// then sheds the queue, drains in-flight handlers, and removes the
    /// socket file.
    #[allow(clippy::too_many_lines)]
    pub fn run(self) -> io::Result<ServeReport> {
        let cache = MemoCache::bounded(self.options.cache_entries);
        let stats = ServeStats::default();
        let pool = oasys_pool::Pool::new(self.options.workers);
        let options = &self.options;
        let shutdown: &AtomicBool = &self.shutdown;
        // Brownout entry threshold: congestion is a queue at or above
        // half its depth (or any shed, which implies a full queue).
        let high_water = (options.queue_depth / 2).max(1);
        let ctx = RequestContext {
            cache: &cache,
            options,
            stats: &stats,
            shutdown,
            pool: &pool,
        };
        let ctx = &ctx;

        pool.scope(|scope| {
            let mut queue: VecDeque<(UnixStream, Instant)> = VecDeque::new();
            let mut last_congestion: Option<Instant> = None;
            loop {
                if shutdown.load(Ordering::SeqCst) || sigterm_pending() {
                    break;
                }
                let mut progressed = false;
                let mut congested = false;
                // Drain pending accepts into the bounded queue; overflow
                // is shed immediately with a retryable busy frame.
                loop {
                    match self.listener.accept() {
                        Ok((stream, _addr)) => {
                            progressed = true;
                            let _ = stream.set_read_timeout(Some(options.io_timeout));
                            let _ = stream.set_write_timeout(Some(options.io_timeout));
                            if queue.len() >= options.queue_depth {
                                congested = true;
                                stats.shed.fetch_add(1, Ordering::Relaxed);
                                let mut stream = stream;
                                let _ =
                                    write_frame(&mut stream, shed_response("admission queue full"));
                            } else {
                                queue.push_back((stream, Instant::now()));
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        // WouldBlock: no more pending connections. Other
                        // accept errors are connection-scoped (e.g. the
                        // peer hung up mid-handshake); keep serving.
                        Err(_) => break,
                    }
                }
                // Deadline-aware shedding: a connection that has already
                // outwaited the I/O deadline in the queue would see its
                // own socket deadline expire mid-service — turn it away
                // now instead of wasting an in-flight slot on it.
                while queue
                    .front()
                    .is_some_and(|(_, enqueued)| enqueued.elapsed() >= options.io_timeout)
                {
                    let (mut stream, _) = queue.pop_front().expect("front checked above");
                    congested = true;
                    stats.shed.fetch_add(1, Ordering::Relaxed);
                    let _ = write_frame(&mut stream, shed_response("queued past the I/O deadline"));
                }
                // Dispatch while in-flight slots are free.
                while !queue.is_empty()
                    && stats.inflight.load(Ordering::SeqCst) < options.max_inflight
                {
                    let (stream, _) = queue.pop_front().expect("queue is non-empty");
                    stats.inflight.fetch_add(1, Ordering::SeqCst);
                    progressed = true;
                    // The handle is dropped, not joined: the scope's exit
                    // barrier joins every handler, which is exactly the
                    // graceful drain. Handlers catch their own panics, so
                    // no payload can surface at scope exit.
                    drop(scope.spawn(move || handle_connection(stream, ctx)));
                }
                stats.queued.store(queue.len(), Ordering::Relaxed);
                // Brownout state machine: enter on congestion, exit only
                // after the queue drains and stays quiet for the cooldown.
                if congested || queue.len() >= high_water {
                    last_congestion = Some(Instant::now());
                    if !stats.brownout.swap(true, Ordering::SeqCst) {
                        stats.brownout_entries.fetch_add(1, Ordering::Relaxed);
                    }
                } else if stats.brownout.load(Ordering::SeqCst)
                    && queue.is_empty()
                    && last_congestion.is_none_or(|at| at.elapsed() >= options.brownout_cooldown)
                {
                    stats.brownout.store(false, Ordering::SeqCst);
                    stats.brownout_exits.fetch_add(1, Ordering::Relaxed);
                }
                if !progressed {
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
            // Shutdown: stop accepting and shed whatever is still
            // queued; the scope then joins every in-flight handler.
            for (mut stream, _) in queue.drain(..) {
                stats.shed.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(&mut stream, shed_response("server draining"));
            }
            stats.queued.store(0, Ordering::Relaxed);
        });

        let _ = std::fs::remove_file(&self.options.socket);
        Ok(ServeReport {
            served: stats.served.load(Ordering::SeqCst),
            shed: stats.shed.load(Ordering::SeqCst),
            evicted: stats.evicted.load(Ordering::SeqCst),
            degraded: stats.degraded.load(Ordering::SeqCst),
            brownout_entries: stats.brownout_entries.load(Ordering::SeqCst),
            workers_replaced: pool.workers_replaced(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_evictions: cache.evictions(),
        })
    }
}

/// Everything a handler job needs, borrowed from [`Server::run`]'s
/// stack frame (the pool scope's exit barrier keeps the borrows sound).
struct RequestContext<'a> {
    cache: &'a MemoCache,
    options: &'a ServeOptions,
    stats: &'a ServeStats,
    shutdown: &'a AtomicBool,
    pool: &'a oasys_pool::Pool,
}

/// Decrements the in-flight gauge when the handler exits, normally or
/// by panic.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(mut stream: UnixStream, ctx: &RequestContext) {
    let _guard = InflightGuard(&ctx.stats.inflight);
    let outcome = catch_unwind(AssertUnwindSafe(|| process_request(&mut stream, ctx)));
    let (response, served) = match outcome {
        Ok(pair) => pair,
        Err(payload) => (
            error_response("panic", &panic_message(payload.as_ref())),
            true,
        ),
    };
    if served {
        ctx.stats.served.fetch_add(1, Ordering::Relaxed);
    }
    let _ = write_frame(&mut stream, response);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// A request that could not be served, mapped to a structured error
/// response. `kind` is part of the wire contract (see module docs).
struct Rejection {
    kind: &'static str,
    message: String,
    /// `true` when the peer stalled past the socket I/O deadline: the
    /// connection is evicted (counted separately, not served).
    evicted: bool,
}

impl Rejection {
    fn new(kind: &'static str, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
            evicted: false,
        }
    }

    fn evicted(message: impl Into<String>) -> Self {
        Self {
            kind: "protocol",
            message: message.into(),
            evicted: true,
        }
    }
}

/// Returns the response payload and whether it counts as served
/// (evictions do not — the peer never delivered a request).
fn process_request(stream: &mut UnixStream, ctx: &RequestContext) -> (String, bool) {
    match serve_one(stream, ctx) {
        Ok(response) => (response, true),
        Err(rejection) => {
            if rejection.evicted {
                ctx.stats.evicted.fetch_add(1, Ordering::Relaxed);
            }
            (
                error_response(rejection.kind, &rejection.message),
                !rejection.evicted,
            )
        }
    }
}

fn serve_one(stream: &mut UnixStream, ctx: &RequestContext) -> Result<String, Rejection> {
    let payload = read_request(stream, ctx)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|_| Rejection::new("protocol", "request frame is not UTF-8"))?;
    let request =
        json::parse(text).map_err(|e| Rejection::new("protocol", format!("bad JSON: {e}")))?;
    match field(&request, "proto")? {
        PROTOCOL => {}
        other => {
            return Err(Rejection::new(
                "protocol",
                format!("unsupported proto {other:?} (expected {PROTOCOL:?})"),
            ))
        }
    }
    match field(&request, "op")? {
        "ping" => Ok(ok_ping_response()),
        "health" => Ok(health_response(ctx)),
        "shutdown" => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            Ok(ok_draining_response())
        }
        "synth" => synth(&request, ctx),
        other => Err(Rejection::new("protocol", format!("unknown op {other:?}"))),
    }
}

/// Reads the request frame under the [`MAX_REQUEST_BYTES`] cap. The
/// `serve.request.read` fail point sits here so the chaos suite can
/// panic, stall, or fail exactly one request's ingress without touching
/// the accept loop. A read that trips the socket I/O deadline evicts
/// the connection (a stalled peer must not hold its slot).
fn read_request(stream: &mut UnixStream, ctx: &RequestContext) -> Result<Vec<u8>, Rejection> {
    fail_point!("serve.request.read", |msg: String| Rejection::new(
        "fault", msg
    ));
    read_frame_limited(stream, MAX_REQUEST_BYTES).map_err(|e| {
        if matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            Rejection::evicted(format!(
                "request stalled past the {} ms I/O deadline",
                ctx.options.io_timeout.as_millis()
            ))
        } else {
            Rejection::new("protocol", format!("reading request: {e}"))
        }
    })
}

fn field<'a>(request: &'a Json, key: &str) -> Result<&'a str, Rejection> {
    request
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| Rejection::new("protocol", format!("missing string field {key:?}")))
}

fn synth(request: &Json, ctx: &RequestContext) -> Result<String, Rejection> {
    let spec_text = field(request, "spec")?;
    let tech_text = field(request, "tech")?;
    let spec =
        crate::specfile::parse(spec_text).map_err(|e| Rejection::new("spec", e.to_string()))?;
    let process = oasys_process::techfile::parse(tech_text)
        .map_err(|e| Rejection::new("tech", e.to_string()))?;

    let timeout = match request.get("timeout_ms").and_then(Json::as_num) {
        Some(ms) if ms >= 0.0 => Some(Duration::from_millis(ms as u64)),
        Some(_) => return Err(Rejection::new("protocol", "timeout_ms must be >= 0")),
        None => ctx.options.timeout(),
    };
    let deadline = match timeout {
        Some(budget) => Deadline::within(budget),
        None => Deadline::none(),
    };
    let search = SearchOptions::default()
        .with_deadline(deadline.clone())
        .with_cache_namespace(format!("{:016x}", crate::batch::fingerprint("", tech_text)));

    match synthesize_with_cache(&spec, &process, &search, &Telemetry::disabled(), ctx.cache) {
        Ok(synthesis) => {
            let design = synthesis.selected();
            let netlist = oasys_netlist::spice::to_spice(design.circuit(), &process);
            // Brownout: keep answering, but shed the simulator
            // cross-check and say so. Normal mode verifies the design
            // and reports the measured verdict.
            let degraded = ctx.stats.brownout.load(Ordering::SeqCst);
            let meets_spec = if degraded {
                ctx.stats.degraded.fetch_add(1, Ordering::Relaxed);
                None
            } else {
                let verification = verify_with(
                    design,
                    &process,
                    spec.load().farads(),
                    &Telemetry::disabled(),
                )
                .map_err(|e| Rejection::new("verify", format!("verification failed: {e}")))?;
                let sheet = Datasheet::new(
                    format!("{} op amp", design.style()),
                    &spec,
                    design.predicted(),
                    Some(&verification.measured),
                );
                Some(sheet.all_measured_pass())
            };
            Ok(ok_synth_response(
                &design.style().to_string(),
                design.area().total_um2(),
                &netlist,
                meets_spec,
                degraded,
            ))
        }
        Err(e) => {
            if deadline.check().is_err() {
                return Err(Rejection::new(
                    "deadline",
                    format!("synthesis aborted by deadline: {e}"),
                ));
            }
            Err(Rejection::new("infeasible", e.to_string()))
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn ok_synth_response(
    style: &str,
    area_um2: f64,
    netlist: &str,
    meets_spec: Option<bool>,
    degraded: bool,
) -> String {
    let mut out = format!(
        "{{\"status\":\"ok\",\"style\":{},\"area_um2\":{},\"netlist\":{}",
        json::string(style),
        json::number(area_um2),
        json::string(netlist)
    );
    if let Some(meets) = meets_spec {
        out.push_str(&format!(",\"meets_spec\":{meets}"));
    }
    if degraded {
        out.push_str(",\"degraded\":true");
    }
    out.push('}');
    out
}

fn ok_ping_response() -> String {
    format!("{{\"status\":\"ok\",\"proto\":{}}}", json::string(PROTOCOL))
}

fn health_response(ctx: &RequestContext) -> String {
    let stats = ctx.stats;
    format!(
        "{{\"status\":\"ok\",\"proto\":{},\"brownout\":{},\"inflight\":{},\"queued\":{},\
         \"served\":{},\"shed\":{},\"evicted\":{},\"degraded_served\":{},\
         \"brownout_entries\":{},\"brownout_exits\":{},\"workers\":{},\"workers_replaced\":{}}}",
        json::string(PROTOCOL),
        stats.brownout.load(Ordering::SeqCst),
        stats.inflight.load(Ordering::SeqCst),
        stats.queued.load(Ordering::Relaxed),
        stats.served.load(Ordering::Relaxed),
        stats.shed.load(Ordering::Relaxed),
        stats.evicted.load(Ordering::Relaxed),
        stats.degraded.load(Ordering::Relaxed),
        stats.brownout_entries.load(Ordering::Relaxed),
        stats.brownout_exits.load(Ordering::Relaxed),
        ctx.pool.workers(),
        ctx.pool.workers_replaced()
    )
}

fn ok_draining_response() -> String {
    "{\"status\":\"ok\",\"draining\":true}".to_owned()
}

fn shed_response(reason: &str) -> String {
    format!(
        "{{\"status\":\"busy\",\"shed\":true,\"reason\":{}}}",
        json::string(reason)
    )
}

fn error_response(kind: &str, message: &str) -> String {
    format!(
        "{{\"status\":\"error\",\"kind\":{},\"message\":{}}}",
        json::string(kind),
        json::string(message)
    )
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("request handler panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("request handler panicked: {s}")
    } else {
        "request handler panicked".to_owned()
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: impl AsRef<[u8]>) -> io::Result<()> {
    let payload = payload.as_ref();
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|len| *len <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                    payload.len()
                ),
            )
        })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame (response-sized cap).
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    read_frame_limited(r, MAX_FRAME_BYTES)
}

/// Reads one length-prefixed frame, rejecting payloads above `cap`.
/// The allocation follows the bytes actually received — a lying length
/// prefix cannot make the reader balloon memory ahead of the data.
pub fn read_frame_limited(r: &mut impl Read, cap: u32) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header);
    if len > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {cap}-byte cap"),
        ));
    }
    let mut payload = Vec::new();
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() != len as usize {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "frame truncated: header promised {len} bytes, got {}",
                payload.len()
            ),
        ));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Client helpers (used by `oasys client`, the smoke test, and tests)
// ---------------------------------------------------------------------------

/// Builds a versioned `synth` request body.
#[must_use]
pub fn synth_request(spec_text: &str, tech_text: &str, timeout_ms: Option<u64>) -> String {
    let timeout = match timeout_ms {
        // u64 -> f64 is fine here: millisecond budgets are small.
        Some(ms) => format!(",\"timeout_ms\":{}", json::number(ms as f64)),
        None => String::new(),
    };
    format!(
        "{{\"proto\":{},\"op\":\"synth\",\"spec\":{},\"tech\":{}{timeout}}}",
        json::string(PROTOCOL),
        json::string(spec_text),
        json::string(tech_text)
    )
}

/// Builds a versioned single-op request body (`ping`, `health`,
/// `shutdown`).
#[must_use]
pub fn op_request(op: &str) -> String {
    format!(
        "{{\"proto\":{},\"op\":{}}}",
        json::string(PROTOCOL),
        json::string(op)
    )
}

/// Connects to `socket`, sends one request frame, and returns the
/// response payload as text. The `serve.client.stall` fail point sits
/// between connect and write so the chaos suite can turn this client
/// into a slow-loris peer and prove the server's I/O deadline evicts
/// it.
pub fn request(socket: &Path, body: &str) -> io::Result<String> {
    let mut stream = UnixStream::connect(socket)?;
    fail_point!("serve.client.stall");
    write_frame(&mut stream, body)?;
    let response = read_frame(&mut stream)?;
    String::from_utf8(response)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response frame is not UTF-8"))
}

// ---------------------------------------------------------------------------
// SIGTERM → graceful drain
// ---------------------------------------------------------------------------

static SIGTERM_PENDING: AtomicBool = AtomicBool::new(false);

fn sigterm_pending() -> bool {
    SIGTERM_PENDING.load(Ordering::SeqCst)
}

#[cfg(unix)]
extern "C" fn on_sigterm(_signum: i32) {
    // Only an atomic store: async-signal-safe.
    SIGTERM_PENDING.store(true, Ordering::SeqCst);
}

/// Routes SIGTERM to a graceful drain of every [`Server::run`] loop in
/// this process. Called by the `oasys serve` CLI; embedders who manage
/// their own signals can skip it and use [`Server::shutdown_flag`].
#[cfg(unix)]
pub fn install_sigterm_drain() {
    // Hand-declared to stay dependency-free; `signal(2)` with a
    // function pointer is portable across the Unix targets we build.
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, "hello frames").unwrap();
        assert_eq!(&buffer[..4], &12u32.to_be_bytes());
        let mut cursor = io::Cursor::new(buffer);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello frames");
    }

    #[test]
    fn oversized_frames_are_rejected_on_read() {
        let mut buffer = Vec::from((MAX_FRAME_BYTES + 1).to_be_bytes());
        buffer.extend_from_slice(b"ignored");
        let mut cursor = io::Cursor::new(buffer);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn request_cap_rejects_without_allocating_the_lie() {
        // A header promising just over the request cap, with no data
        // behind it: the limited reader must reject on the prefix alone.
        let buffer = Vec::from((MAX_REQUEST_BYTES + 1).to_be_bytes());
        let mut cursor = io::Cursor::new(buffer);
        let err = read_frame_limited(&mut cursor, MAX_REQUEST_BYTES).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn truncated_frames_error_instead_of_hanging_on_the_header() {
        // Header promises 100 bytes; the stream ends after 3. The
        // reader must report the truncation, not return a short frame.
        let mut buffer = Vec::from(100u32.to_be_bytes());
        buffer.extend_from_slice(b"abc");
        let mut cursor = io::Cursor::new(buffer);
        let err = read_frame_limited(&mut cursor, MAX_REQUEST_BYTES).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("promised 100"), "{err}");
    }

    #[test]
    fn request_builders_emit_valid_versioned_json() {
        let body = synth_request("spec \"text\"", "tech\nlines", Some(250));
        let parsed = json::parse(&body).unwrap();
        assert_eq!(parsed.get("proto").and_then(Json::as_str), Some(PROTOCOL));
        assert_eq!(parsed.get("op").and_then(Json::as_str), Some("synth"));
        assert_eq!(
            parsed.get("spec").and_then(Json::as_str),
            Some("spec \"text\"")
        );
        assert_eq!(parsed.get("timeout_ms").and_then(Json::as_num), Some(250.0));

        let ping = json::parse(&op_request("ping")).unwrap();
        assert_eq!(ping.get("op").and_then(Json::as_str), Some("ping"));
    }

    #[test]
    fn responses_are_parseable_json() {
        let ok = json::parse(&ok_synth_response(
            "two_stage",
            1234.5,
            "* deck\n.END\n",
            Some(true),
            false,
        ))
        .unwrap();
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(ok.get("area_um2").and_then(Json::as_num), Some(1234.5));
        assert_eq!(ok.get("meets_spec").and_then(Json::as_bool), Some(true));
        assert_eq!(ok.get("degraded"), None);

        let degraded = json::parse(&ok_synth_response(
            "two_stage",
            1234.5,
            "* deck",
            None,
            true,
        ))
        .unwrap();
        assert_eq!(degraded.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(degraded.get("meets_spec"), None);

        let busy = json::parse(&shed_response("admission queue full")).unwrap();
        assert_eq!(busy.get("status").and_then(Json::as_str), Some("busy"));
        assert_eq!(busy.get("shed").and_then(Json::as_bool), Some(true));

        let error = json::parse(&error_response("deadline", "ran \"out\"\nof time")).unwrap();
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("deadline"));
        assert_eq!(
            error.get("message").and_then(Json::as_str),
            Some("ran \"out\"\nof time")
        );
    }

    #[test]
    fn server_answers_ping_synth_health_and_shutdown_and_drains() {
        let dir = std::env::temp_dir().join(format!("oasys-serve-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("unit.sock");
        let server = Server::bind(
            ServeOptions::new(&socket)
                .with_workers(1)
                .with_max_inflight(2)
                .with_cache_entries(64),
        )
        .unwrap();
        let runner = std::thread::spawn(move || server.run().unwrap());

        let pong = request(&socket, &op_request("ping")).unwrap();
        let pong = json::parse(&pong).unwrap();
        assert_eq!(pong.get("status").and_then(Json::as_str), Some("ok"));

        let spec_text = "dc_gain_db = 60\nunity_gain_mhz = 0.5\nphase_margin_deg = 45\n\
                         load_pf = 5\nslew_rate_v_per_us = 2\n";
        let tech_text = oasys_process::techfile::write(&oasys_process::builtin::cmos_5um());
        let answer = request(&socket, &synth_request(spec_text, &tech_text, None)).unwrap();
        let answer = json::parse(&answer).unwrap();
        assert_eq!(answer.get("status").and_then(Json::as_str), Some("ok"));
        let netlist = answer.get("netlist").and_then(Json::as_str).unwrap();
        assert!(netlist.contains(".END"), "netlist should be a SPICE deck");
        // An unloaded server answers in normal (verified) mode.
        assert!(
            answer.get("meets_spec").and_then(Json::as_bool).is_some(),
            "normal mode verifies: {answer:?}"
        );
        assert_eq!(answer.get("degraded"), None);

        let health = request(&socket, &op_request("health")).unwrap();
        let health = json::parse(&health).unwrap();
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(health.get("brownout").and_then(Json::as_bool), Some(false));
        assert_eq!(health.get("workers").and_then(Json::as_num), Some(1.0));
        assert_eq!(
            health.get("workers_replaced").and_then(Json::as_num),
            Some(0.0)
        );
        assert!(health.get("served").and_then(Json::as_num).unwrap() >= 2.0);

        let bad = request(&socket, "{\"proto\":\"oasys-serve/1\",\"op\":\"launch\"}").unwrap();
        let bad = json::parse(&bad).unwrap();
        assert_eq!(bad.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(bad.get("kind").and_then(Json::as_str), Some("protocol"));

        let drain = request(&socket, &op_request("shutdown")).unwrap();
        let drain = json::parse(&drain).unwrap();
        assert_eq!(drain.get("draining").and_then(Json::as_bool), Some(true));

        let report = runner.join().unwrap();
        assert!(report.served >= 5);
        assert_eq!(report.evicted, 0);
        assert_eq!(report.workers_replaced, 0);
        assert!(!socket.exists(), "drain must remove the socket file");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
