//! `oasys serve`: synthesis-as-a-service over a Unix domain socket.
//!
//! A resident server turns the one-shot CLI into a long-lived synthesis
//! daemon. It answers `synth` requests with the [`SynthRunner`] answer
//! a batch job gets, and keeps that runner's warm, bounded,
//! technology-namespaced design cache across requests: a client asking
//! for a spec the server has (partly) designed before gets sub-block
//! hits immediately.
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
//! `health` (overload/supervision stats so far, with the design
//! cache's `cache_hits`, `cache_misses` and `cache_evictions`, the
//! [`ServeReport`] counters; its `evicted` counts stalled connections,
//! not designs), `shutdown` (request a graceful drain). Unknown protos
//! and ops are rejected with a structured error so the schema can
//! grow. A `synth` request's optional `timeout_ms` is its deadline in
//! milliseconds, and `0` means no deadline; without the field the
//! server's default ([`ServeOptions::with_timeout`]) applies.
//!
//! Responses are JSON objects keyed by `status`:
//!
//! * `{"status":"ok", "style":…, "area_um2":…, "netlist":…,
//!   "meets_spec":…}` — a synthesized design with its SPICE deck;
//!   under brownout the response carries `"degraded":true` and no
//!   `meets_spec` (verification was skipped to shed load);
//! * `{"status":"busy", "shed":true, "reason":…}` — overload control
//!   turned the connection away (admission queue full, or the
//!   connection outwaited the I/O deadline in the queue); retry later.
//!   The server sheds without reading the request, so a `busy` frame may
//!   arrive before the request is written: a client whose write fails
//!   because the server already closed should still read the response,
//!   as [`request`] does;
//! * `{"status":"error", "kind":…, "message":…}` — the request failed
//!   **alone**; kinds: `protocol`, `spec`, `tech`, `infeasible`,
//!   `deadline`, `verify`, `panic`, `fault`. `spec`, `tech`, `deadline`
//!   and `verify` name the stage that stopped the answer.
//!
//! # Overload degradation
//!
//! Admitted connections carry socket read/write deadlines
//! ([`ServeOptions::with_io_timeout`]): a client that connects and then
//! stalls is **evicted** when the deadline fires, so a slow peer can
//! hold a handler for at most one I/O timeout, never forever.
//! Connections wait for a free handler in one bounded queue
//! ([`ServeOptions::with_queue_depth`]). They are shed with a `busy`
//! frame when the queue overflows or when they have waited longer than
//! the I/O deadline (their own socket deadline would expire mid-service
//! anyway). Sustained congestion — the queue at or above half its
//! depth, or any shed — trips **brownout**: synthesis keeps answering
//! but skips simulator verification and marks responses
//! `"degraded":true`. A request reads the brownout state when it
//! starts. Brownout exits after the queue drains and stays empty for
//! the cooldown.
//!
//! # Concurrency and drain
//!
//! An **acceptor** thread blocks in `accept`, arms each connection's
//! I/O deadlines, and sends it over a channel. The **dispatcher** (the
//! thread that called [`Server::run`]) owns the admission queue and
//! waits on that channel. It wakes when a connection arrives and when a
//! handler frees its in-flight slot, so neither waits on a timer. A
//! handler frees its slot and wakes the dispatcher once its answer is
//! ready, before writing it: a client's next request must never find
//! its previous one still holding the slot. So besides the `workers`
//! connections being answered, at most one answer per handler is being
//! written. What no event announces is re-checked whenever the channel
//! stays quiet for 10 ms: the shutdown flag (set by
//! [`Server::shutdown_flag`] or by SIGTERM via
//! [`install_sigterm_drain`]), queued connections past the I/O
//! deadline, and the brownout cooldown. The `shutdown` op needs no
//! timer: its handler's freed slot wakes the dispatcher.
//!
//! Requests are answered on `workers` **handler threads** of their own
//! (at least one), so they never starve the dispatcher. `run` spawns
//! them in a [`std::thread::scope`], and the dispatcher hands a
//! connection to them over a second channel, whose receiver they share,
//! only while fewer than `workers` are being answered. The handler
//! count is thus the in-flight bound: a connection that waits, waits in
//! the admission queue, where shedding, brownout and the `health` op's
//! `queued` see it. A panic that escapes a handler's loop restarts the
//! loop on the same thread after a capped backoff, and the `health` op
//! counts it in `workers_replaced`.
//!
//! On shutdown the dispatcher raises a stop flag and connects once to
//! its own socket, which wakes the acceptor and makes it exit. If the
//! socket file is no longer this server's, it skips that connect and
//! leaves the acceptor parked in `accept` rather than wait for it. It
//! then sheds every queued connection and drops the sender of the
//! handlers' channel, so each handler answers the connections it was
//! already given and exits. The scope joins every handler, answer
//! written, before [`Server::run`] returns — that join **is** the
//! graceful drain.
//!
//! Every connection is handled under `catch_unwind`: a panicking
//! request (or an injected `serve.request.read` fault) is converted
//! into a structured error response on its own connection while the
//! server keeps serving.

use crate::batch::{panic_text, AnswerFailure, Detail, Job, SynthRunner};
use crate::synth::no_style_fits;
use oasys_faults::{fail_point, Deadline};
use oasys_netlist::spice::to_spice;
use oasys_sim::mismatch::Mismatch;
use oasys_telemetry::json::{self, Json};
use oasys_telemetry::Telemetry;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::fs::{FileTypeExt, MetadataExt};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
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
/// Default number of handler threads, which is also the admission
/// bound: connections answered concurrently.
pub const DEFAULT_WORKERS: usize = 2;
/// Default bounded admission-queue depth (connections waiting for a
/// free handler before new arrivals are shed).
pub const DEFAULT_QUEUE_DEPTH: usize = 16;
/// Default socket read/write deadline for admitted connections.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Default quiet period after congestion before brownout exits.
pub const DEFAULT_BROWNOUT_COOLDOWN: Duration = Duration::from_millis(500);
/// How long the dispatcher waits for an event before it re-checks what
/// no event announces: the shutdown flag, SIGTERM, queued connections
/// past the I/O deadline, and the brownout cooldown.
const DISPATCH_TICK: Duration = Duration::from_millis(10);
/// How long the acceptor pauses after a failed `accept`, so that a
/// persistent error such as EMFILE cannot spin it.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(10);
/// First delay before a handler's loop restarts after a panic; it
/// doubles with each restart of the same thread, up to
/// [`RESTART_BACKOFF_CAP`].
const RESTART_BACKOFF_BASE: Duration = Duration::from_millis(5);
/// Ceiling on the restart delay, so a crash loop costs a handler about
/// four restarts per second instead of a hot loop.
const RESTART_BACKOFF_CAP: Duration = Duration::from_millis(250);

/// Configuration for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    socket: PathBuf,
    workers: usize,
    queue_depth: usize,
    cache_entries: usize,
    timeout: Option<Duration>,
    io_timeout: Duration,
    brownout_cooldown: Duration,
}

impl ServeOptions {
    /// Options serving on `socket` with the default number of handler
    /// threads, queue depth, cache capacity and I/O deadline, and no
    /// default per-request deadline.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            workers: DEFAULT_WORKERS,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            cache_entries: crate::batch::DEFAULT_CACHE_ENTRIES,
            timeout: None,
            io_timeout: DEFAULT_IO_TIMEOUT,
            brownout_cooldown: DEFAULT_BROWNOUT_COOLDOWN,
        }
    }

    /// Sets the number of handler threads (clamped to at least 1), and
    /// with it the number of connections answered at once.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
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

    /// Number of handler threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
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
    /// Handler loops restarted after a panic escaped them.
    pub workers_replaced: u64,
    /// Design-cache hits accumulated over the server's lifetime.
    pub cache_hits: u64,
    /// Design-cache misses accumulated over the server's lifetime.
    pub cache_misses: u64,
    /// Designs evicted from the cache to stay under its capacity, over
    /// the server's lifetime (stalled connections are [`Self::evicted`]).
    pub cache_evictions: u64,
}

/// Live counters shared between the dispatcher and handlers. All
/// relaxed except the gauges the dispatcher decides admission on.
#[derive(Default)]
struct ServeStats {
    served: AtomicU64,
    shed: AtomicU64,
    evicted: AtomicU64,
    degraded: AtomicU64,
    brownout_entries: AtomicU64,
    brownout_exits: AtomicU64,
    workers_replaced: AtomicU64,
    inflight: AtomicUsize,
    queued: AtomicUsize,
    brownout: AtomicBool,
}

/// A bound, not-yet-running synthesis server.
pub struct Server {
    listener: UnixListener,
    options: ServeOptions,
    shutdown: Arc<AtomicBool>,
    /// The bound socket file's identity: the drain connects to and
    /// removes this server's socket only, never a later server's.
    identity: FileIdentity,
}

impl Server {
    /// Binds the Unix socket without accepting yet. A socket file left
    /// by a run that died without draining is replaced. A socket that a
    /// live server answers on fails with [`io::ErrorKind::AddrInUse`],
    /// and a path that is not a socket fails with an error naming it;
    /// neither is touched.
    pub fn bind(options: ServeOptions) -> io::Result<Self> {
        clear_stale_socket(&options.socket)?;
        let listener = UnixListener::bind(&options.socket)?;
        let identity = FileIdentity::of(&options.socket)?;
        Ok(Self {
            listener,
            options,
            shutdown: Arc::new(AtomicBool::new(false)),
            identity,
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
    /// then sheds the queue, lets the handlers answer what they were
    /// already given, joins them, and removes the socket file.
    ///
    /// # Errors
    ///
    /// When a handler thread or the acceptor thread cannot be spawned.
    #[allow(clippy::too_many_lines)]
    pub fn run(self) -> io::Result<ServeReport> {
        let Self {
            listener,
            options,
            shutdown,
            identity,
        } = self;
        let (wake, events) = mpsc::channel();
        let (handoff, connections) = mpsc::channel();
        let connections = Mutex::new(connections);
        let stop = Arc::new(AtomicBool::new(false));
        let runner = SynthRunner::new().with_cache_entries(options.cache_entries);
        let stats = ServeStats::default();
        let options = &options;
        let shutdown: &AtomicBool = &shutdown;
        // Brownout entry threshold: congestion is a queue at or above
        // half its depth (or any shed, which implies a full queue).
        let high_water = (options.queue_depth / 2).max(1);
        let ctx = RequestContext {
            runner: &runner,
            options,
            stats: &stats,
            shutdown,
            wake: wake.clone(),
        };
        let (ctx, connections) = (&ctx, &connections);

        std::thread::scope(|scope| -> io::Result<()> {
            for _ in 0..options.workers {
                std::thread::Builder::new()
                    .name("oasys-serve-worker".to_owned())
                    .spawn_scoped(scope, || run_handler(connections, ctx))?;
            }
            let acceptor = {
                let stop = Arc::clone(&stop);
                let io_timeout = options.io_timeout;
                std::thread::Builder::new()
                    .name("oasys-serve-accept".to_owned())
                    .spawn(move || accept_loop(&listener, &wake, &stop, io_timeout))?
            };
            let mut queue: VecDeque<(UnixStream, Instant)> = VecDeque::new();
            let mut last_congestion: Option<Instant> = None;
            loop {
                if shutdown.load(Ordering::SeqCst) || sigterm_pending() {
                    break;
                }
                let mut congested = false;
                // Wait for an arrival or a freed slot. A quiet tick falls
                // through to the timed checks below. Overflow is shed
                // at once with a retryable busy frame.
                if let Ok(Event::Accepted(stream, accepted)) = events.recv_timeout(DISPATCH_TICK) {
                    if queue.len() >= options.queue_depth {
                        congested = true;
                        shed(stream, "admission queue full", &stats);
                    } else {
                        queue.push_back((stream, accepted));
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
                    let (stream, _) = queue.pop_front().expect("front checked above");
                    congested = true;
                    shed(stream, "queued past the I/O deadline", &stats);
                }
                // Hand over only while a handler is free, so every
                // waiting connection waits here, in the one bounded
                // queue. The send cannot fail: the receiver outlives
                // the scope.
                while !queue.is_empty() && stats.inflight.load(Ordering::SeqCst) < options.workers {
                    let (stream, _) = queue.pop_front().expect("queue is non-empty");
                    stats.inflight.fetch_add(1, Ordering::SeqCst);
                    let _ = handoff.send(stream);
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
            }
            // Shutdown. The flag is raised for SIGTERM too: handlers skip
            // the supervision fault once it is up, so the drain ends even
            // when every handler loop panics. One connect wakes the
            // acceptor from `accept` so it can be joined. Connect only
            // while the path still names this server's socket: a connect
            // that reached another server would leave this acceptor
            // blocked and the join hung. Then shed what the acceptor
            // already handed over along with the queue.
            shutdown.store(true, Ordering::SeqCst);
            stop.store(true, Ordering::SeqCst);
            if identity.matches(&options.socket) && UnixStream::connect(&options.socket).is_ok() {
                let _ = acceptor.join();
            }
            let handed_over = events.try_iter().filter_map(|event| match event {
                Event::Accepted(stream, _) => Some(stream),
                Event::SlotFreed => None,
            });
            for stream in queue.drain(..).map(|(stream, _)| stream).chain(handed_over) {
                shed(stream, "server draining", &stats);
            }
            stats.queued.store(0, Ordering::Relaxed);
            // Each handler answers what it was already given, then finds
            // the channel closed and returns; the scope joins them all.
            drop(handoff);
            Ok(())
        })?;

        if identity.matches(&options.socket) {
            let _ = std::fs::remove_file(&options.socket);
        }
        Ok(ServeReport {
            served: stats.served.load(Ordering::SeqCst),
            shed: stats.shed.load(Ordering::SeqCst),
            evicted: stats.evicted.load(Ordering::SeqCst),
            degraded: stats.degraded.load(Ordering::SeqCst),
            brownout_entries: stats.brownout_entries.load(Ordering::SeqCst),
            workers_replaced: stats.workers_replaced.load(Ordering::SeqCst),
            cache_hits: runner.cache().hits(),
            cache_misses: runner.cache().misses(),
            cache_evictions: runner.cache().evictions(),
        })
    }
}

/// What wakes the dispatcher.
enum Event {
    /// The acceptor took this connection off the listener at this
    /// instant.
    Accepted(UnixStream, Instant),
    /// A handler has its answer ready and freed its in-flight slot.
    SlotFreed,
}

/// The acceptor thread: blocks in `accept`, arms each connection's I/O
/// deadlines and hands it to the dispatcher. It returns at the first
/// `accept` that completes after `stop` is raised (the drain's
/// self-connect guarantees one), dropping that connection, or once the
/// dispatcher is gone.
fn accept_loop(
    listener: &UnixListener,
    wake: &mpsc::Sender<Event>,
    stop: &AtomicBool,
    io_timeout: Duration,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _addr)) => {
                let _ = stream.set_read_timeout(Some(io_timeout));
                let _ = stream.set_write_timeout(Some(io_timeout));
                if wake.send(Event::Accepted(stream, Instant::now())).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Other accept errors are connection-scoped (the peer hung
            // up mid-handshake) or transient (EMFILE): keep serving.
            Err(_) => std::thread::sleep(ACCEPT_ERROR_PAUSE),
        }
    }
}

/// Turns a connection away, unread, with a retryable `busy` frame.
fn shed(mut stream: UnixStream, reason: &str, stats: &ServeStats) {
    stats.shed.fetch_add(1, Ordering::Relaxed);
    let _ = write_frame(&mut stream, shed_response(reason));
}

/// Makes way for binding `path`. Only a stale socket, one that refuses
/// connections because the server that bound it is gone, is removed.
fn clear_stale_socket(path: &Path) -> io::Result<()> {
    let meta = match std::fs::symlink_metadata(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        meta => meta?,
    };
    if !meta.file_type().is_socket() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!(
                "{} exists and is not a socket; refusing to replace it",
                path.display()
            ),
        ));
    }
    match UnixStream::connect(path) {
        Ok(_) => Err(io::Error::new(
            io::ErrorKind::AddrInUse,
            format!("a server is already listening on {}", path.display()),
        )),
        Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => std::fs::remove_file(path),
        Err(e) => Err(e),
    }
}

/// A file's device and inode numbers, which tell this server's socket
/// file apart from another one later bound at the same path.
#[derive(Clone, Copy, PartialEq, Eq)]
struct FileIdentity(u64, u64);

impl FileIdentity {
    fn of(path: &Path) -> io::Result<Self> {
        let meta = std::fs::symlink_metadata(path)?;
        Ok(Self(meta.dev(), meta.ino()))
    }

    /// Whether `path` still names this file.
    fn matches(self, path: &Path) -> bool {
        Self::of(path).is_ok_and(|now| now == self)
    }
}

/// Everything a handler needs, borrowed from [`Server::run`]'s stack
/// frame.
struct RequestContext<'a> {
    runner: &'a SynthRunner,
    options: &'a ServeOptions,
    stats: &'a ServeStats,
    shutdown: &'a AtomicBool,
    /// Wakes the dispatcher when a handler frees its slot.
    wake: mpsc::Sender<Event>,
}

/// A handler thread's body. Each connection is answered under
/// `catch_unwind` (see [`handle_connection`]), so a panic that escapes
/// [`handler_loop`] is in practice the `serve.worker.panic` fault. It
/// counts as a replaced worker, and the loop restarts on this thread
/// after a backoff that doubles with each restart.
fn run_handler(connections: &Mutex<mpsc::Receiver<UnixStream>>, ctx: &RequestContext) {
    let mut restarts = 0u32;
    while catch_unwind(AssertUnwindSafe(|| handler_loop(connections, ctx))).is_err() {
        ctx.stats.workers_replaced.fetch_add(1, Ordering::Relaxed);
        let backoff = RESTART_BACKOFF_BASE.saturating_mul(1 << restarts);
        std::thread::sleep(backoff.min(RESTART_BACKOFF_CAP));
        restarts = (restarts + 1).min(6);
    }
}

/// Answers connections until the dispatcher drops the sender and none
/// is left.
fn handler_loop(connections: &Mutex<mpsc::Receiver<UnixStream>>, ctx: &RequestContext) {
    loop {
        // Supervision fail point: checked between connections, never
        // while one is held, so an injected death loses no request, and
        // not once the server drains, so the drain always ends.
        if oasys_faults::armed() && !ctx.shutdown.load(Ordering::SeqCst) {
            if let Some(msg) = oasys_faults::eval_err("serve.worker.panic") {
                panic!("injected worker death: {msg}");
            }
        }
        let next = connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv();
        let Ok(stream) = next else {
            return;
        };
        handle_connection(stream, ctx);
    }
}

/// Frees the handler's in-flight slot, and wakes the dispatcher to fill
/// it, once the answer is ready or the handler unwinds.
struct InflightGuard<'a>(&'a RequestContext<'a>);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.stats.inflight.fetch_sub(1, Ordering::SeqCst);
        let _ = self.0.wake.send(Event::SlotFreed);
    }
}

fn handle_connection(mut stream: UnixStream, ctx: &RequestContext) {
    let guard = InflightGuard(ctx);
    let outcome = catch_unwind(AssertUnwindSafe(|| process_request(&mut stream, ctx)));
    let (response, served) = match outcome {
        Ok(pair) => pair,
        Err(payload) => {
            let message = match panic_text(payload.as_ref()) {
                Some(text) => format!("request handler panicked: {text}"),
                None => "request handler panicked".to_owned(),
            };
            (error_response("panic", &message), true)
        }
    };
    if served {
        ctx.stats.served.fetch_add(1, Ordering::Relaxed);
    }
    // Free the slot before the client can read its answer: a client's
    // next request must never find its previous one still holding it.
    drop(guard);
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
/// the dispatcher. A read that trips the socket I/O deadline evicts
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
    let message = match request.get(key).map(Json::as_str) {
        Some(Some(text)) => return Ok(text),
        Some(None) => format!("field {key:?} must be a string"),
        None => format!("missing string field {key:?}"),
    };
    Err(Rejection::new("protocol", message))
}

fn synth(request: &Json, ctx: &RequestContext) -> Result<String, Rejection> {
    let job = Job::from_texts(0, "", field(request, "spec")?, "", field(request, "tech")?);
    // `timeout_ms: 0` means no deadline, as `--timeout-ms 0` does.
    let timeout = match request.get("timeout_ms").map(Json::as_num) {
        Some(Some(ms)) if ms >= 0.0 => (ms > 0.0).then(|| Duration::from_millis(ms as u64)),
        Some(Some(_)) => return Err(Rejection::new("protocol", "timeout_ms must be >= 0")),
        Some(None) => return Err(Rejection::new("protocol", "timeout_ms must be a number")),
        None => ctx.options.timeout(),
    };
    let deadline = timeout.map_or_else(Deadline::none, Deadline::within);
    // Brownout: keep answering, but shed the simulator cross-check and
    // say so. Normal mode verifies the design and reports the verdict.
    let degraded = ctx.stats.brownout.load(Ordering::SeqCst);
    let verify = (!degraded).then(Mismatch::disabled);
    let deck: Option<Detail> = Some(|design, process, _| to_spice(design.circuit(), process));
    let tel = Telemetry::disabled();
    let answer = ctx.runner.answer(&job, &tel, &deadline, verify, deck)?;
    let Some((style, area)) = answer.selected() else {
        let reasons = answer
            .styles
            .iter()
            .map(|e| (&e.style, e.reason.as_deref().unwrap_or("")));
        return Err(Rejection::new("infeasible", no_style_fits(reasons)));
    };
    if degraded {
        ctx.stats.degraded.fetch_add(1, Ordering::Relaxed);
    }
    let netlist = answer.detail.as_deref().unwrap_or_default();
    Ok(ok_synth_response(style, area, netlist, answer.meets_spec))
}

/// Words each stage's failure as its wire error kind.
impl From<AnswerFailure> for Rejection {
    fn from(failure: AnswerFailure) -> Self {
        match failure {
            AnswerFailure::Spec(e) => Self::new("spec", e.to_string()),
            AnswerFailure::Tech(e) => Self::new("tech", e.to_string()),
            AnswerFailure::Deadline(_, e) => {
                Self::new("deadline", format!("synthesis aborted by deadline: {e}"))
            }
            AnswerFailure::Verify(e) => Self::new("verify", format!("verification failed: {e}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A design answer. Without `meets_spec` it was not verified, which
/// only brownout skips, so it says `"degraded":true` instead.
fn ok_synth_response(
    style: &str,
    area_um2: f64,
    netlist: &str,
    meets_spec: Option<bool>,
) -> String {
    let mut out = format!(
        "{{\"status\":\"ok\",\"style\":{},\"area_um2\":{},\"netlist\":{}",
        json::string(style),
        json::number(area_um2),
        json::string(netlist)
    );
    match meets_spec {
        Some(meets) => out.push_str(&format!(",\"meets_spec\":{meets}")),
        None => out.push_str(",\"degraded\":true"),
    }
    out.push('}');
    out
}

fn ok_ping_response() -> String {
    format!("{{\"status\":\"ok\",\"proto\":{}}}", json::string(PROTOCOL))
}

/// The live counters. The design cache's are its atomics, the ones
/// [`ServeReport`] gives at drain; its `len` would take the lock that
/// every synth request's lookups contend for.
fn health_response(ctx: &RequestContext) -> String {
    let (stats, cache) = (ctx.stats, ctx.runner.cache());
    format!(
        "{{\"status\":\"ok\",\"proto\":{},\"brownout\":{},\"inflight\":{},\"queued\":{},\
         \"served\":{},\"shed\":{},\"evicted\":{},\"degraded_served\":{},\
         \"brownout_entries\":{},\"brownout_exits\":{},\"workers\":{},\"workers_replaced\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{}}}",
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
        ctx.options.workers,
        stats.workers_replaced.load(Ordering::Relaxed),
        cache.hits(),
        cache.misses(),
        cache.evictions()
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
///
/// A server that sheds or evicts the connection answers and closes it
/// without reading the request. When that close lands before the write,
/// the write fails but the answer is still in the receive buffer, so
/// this reads it; the write error is returned only if no frame is there.
pub fn request(socket: &Path, body: &str) -> io::Result<String> {
    let mut stream = UnixStream::connect(socket)?;
    fail_point!("serve.client.stall");
    let response = match write_frame(&mut stream, body) {
        Ok(()) => read_frame(&mut stream)?,
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset
            ) =>
        {
            read_frame(&mut stream).map_err(|_| e)?
        }
        Err(e) => return Err(e),
    };
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
        ))
        .unwrap();
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(ok.get("area_um2").and_then(Json::as_num), Some(1234.5));
        assert_eq!(ok.get("meets_spec").and_then(Json::as_bool), Some(true));
        assert_eq!(ok.get("degraded"), None);

        let degraded =
            json::parse(&ok_synth_response("two_stage", 1234.5, "* deck", None)).unwrap();
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

    /// A fresh directory for one test's socket path.
    fn socket_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("oasys-serve-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Runs `server` on its own thread; the receiver yields `run`'s result.
    fn spawn_run(server: Server) -> mpsc::Receiver<io::Result<ServeReport>> {
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || done.send(server.run()));
        finished
    }

    fn pings_ok(socket: &Path) -> bool {
        request(socket, &op_request("ping")).is_ok_and(|pong| pong.contains("\"ok\""))
    }

    #[test]
    fn bind_replaces_a_stale_socket() {
        let dir = socket_dir("stale");
        let socket = dir.join("stale.sock");
        // A listener dropped without unlinking leaves a socket file that
        // refuses connections: what a run that died undrained leaves.
        drop(UnixListener::bind(&socket).unwrap());
        let refused = UnixStream::connect(&socket).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused);

        let server = Server::bind(ServeOptions::new(&socket).with_workers(1)).unwrap();
        let flag = server.shutdown_flag();
        let finished = spawn_run(server);
        assert!(pings_ok(&socket));
        flag.store(true, Ordering::SeqCst);
        finished.recv().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bind_refuses_a_live_servers_socket_and_leaves_it_reachable() {
        let dir = socket_dir("live");
        let socket = dir.join("live.sock");
        let live = Server::bind(ServeOptions::new(&socket).with_workers(1)).unwrap();
        let flag = live.shutdown_flag();
        let finished = spawn_run(live);

        let Err(err) = Server::bind(ServeOptions::new(&socket)) else {
            panic!("a second server must not bind a live server's socket");
        };
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse, "{err}");
        assert!(pings_ok(&socket), "the live server lost its socket");

        flag.store(true, Ordering::SeqCst);
        finished.recv().unwrap().unwrap();
        assert!(!socket.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bind_refuses_a_path_that_is_not_a_socket() {
        let dir = socket_dir("not-a-socket");
        let path = dir.join("notes.txt");
        std::fs::write(&path, "keep me").unwrap();
        let Err(err) = Server::bind(ServeOptions::new(&path)) else {
            panic!("bind must not replace a regular file");
        };
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "the error must name the path: {err}"
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "keep me");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_flag_stops_an_idle_server_and_removes_its_socket() {
        let dir = socket_dir("flag");
        let socket = dir.join("flag.sock");
        let server = Server::bind(ServeOptions::new(&socket).with_workers(1)).unwrap();
        let flag = server.shutdown_flag();
        let finished = spawn_run(server);
        assert!(pings_ok(&socket));

        flag.store(true, Ordering::SeqCst);
        let report = finished
            .recv_timeout(Duration::from_secs(1))
            .expect("run returns within 1 s of the flag")
            .unwrap();
        assert_eq!(report.served, 1);
        assert_eq!(report.shed, 0, "the drain's self-connect is not a shed");
        assert!(!socket.exists(), "drain must remove the socket file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_returns_when_the_socket_file_was_unlinked() {
        let dir = socket_dir("unlinked");
        let socket = dir.join("unlinked.sock");
        let server = Server::bind(ServeOptions::new(&socket).with_workers(1)).unwrap();
        let flag = server.shutdown_flag();
        let finished = spawn_run(server);
        assert!(pings_ok(&socket));

        // Nothing can connect to the acceptor any more, so the drain
        // leaves it parked in `accept` instead of joining it.
        std::fs::remove_file(&socket).unwrap();
        flag.store(true, Ordering::SeqCst);
        finished
            .recv_timeout(Duration::from_secs(1))
            .expect("run returns within 1 s of the flag")
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_leaves_a_later_servers_socket_alone() {
        let dir = socket_dir("successor");
        let socket = dir.join("successor.sock");
        let first = Server::bind(ServeOptions::new(&socket).with_workers(1)).unwrap();
        let first_flag = first.shutdown_flag();
        let first_finished = spawn_run(first);
        assert!(pings_ok(&socket));

        // The first server's socket file is unlinked and a second server
        // binds the same path. The first one's drain must neither
        // connect to the second (its own acceptor would never wake)
        // nor remove the second's socket.
        std::fs::remove_file(&socket).unwrap();
        let second = Server::bind(ServeOptions::new(&socket).with_workers(1)).unwrap();
        let second_flag = second.shutdown_flag();
        let second_finished = spawn_run(second);
        first_flag.store(true, Ordering::SeqCst);
        first_finished
            .recv_timeout(Duration::from_secs(1))
            .expect("run returns within 1 s of the flag")
            .unwrap();
        assert!(pings_ok(&socket), "the second server lost its socket");

        second_flag.store(true, Ordering::SeqCst);
        second_finished.recv().unwrap().unwrap();
        assert!(!socket.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
