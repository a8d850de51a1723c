//! Chaos suite for `oasys serve`: injected faults at the
//! `serve.request.read`, `serve.client.stall`, and `serve.worker.panic`
//! sites must fail **one request alone** — a structured error response
//! on that connection — while the server keeps serving; stalled peers
//! must be evicted by the socket I/O deadline; sustained overload must
//! trip brownout (degraded, unverified synthesis) and recover; a
//! connection that finds every handler busy must wait in the bounded
//! admission queue, where overload sheds it; a panicking handler worker
//! must be replaced; `health` must report the design cache's counters
//! while the server runs; a `busy` answer written before the request must
//! still reach the client; an idle server must answer without waiting
//! on a timer; and a drained server must answer every connection its
//! handlers were given, leave no thread behind, and finish even when
//! every handler loop panics.
//!
//! The fault registry is process-global, so every test holds
//! `FAULT_LOCK` and clears the registry on exit via [`FaultGuard`].

use oasys::serve::{
    op_request, read_frame, request, synth_request, write_frame, ServeOptions, Server,
    MAX_REQUEST_BYTES,
};
use oasys_faults::FaultSpec;
use oasys_telemetry::json::{self, Json};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes fault-plane tests and guarantees a clean registry on exit.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultGuard {
    fn acquire() -> Self {
        let guard = FAULT_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        oasys_faults::clear();
        Self(guard)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        oasys_faults::clear();
    }
}

fn socket_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("oasys-serve-chaos-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}.sock", std::process::id()))
}

/// Starts a one-worker server; the returned thread joins on `shutdown`.
fn start_server(socket: &Path) -> JoinHandle<oasys::serve::ServeReport> {
    start_server_with(
        ServeOptions::new(socket)
            .with_workers(1)
            .with_cache_entries(64),
    )
}

fn start_server_with(options: ServeOptions) -> JoinHandle<oasys::serve::ServeReport> {
    let server = Server::bind(options).unwrap();
    std::thread::spawn(move || server.run().unwrap())
}

fn ask(socket: &Path, body: &str) -> Json {
    let response = request(socket, body).unwrap();
    json::parse(&response).unwrap()
}

fn status(response: &Json) -> (&str, Option<&str>) {
    (
        response.get("status").and_then(Json::as_str).unwrap(),
        response.get("kind").and_then(Json::as_str),
    )
}

fn spec_text() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../data/spec-a.txt"
    ))
    .unwrap()
}

fn tech_text() -> String {
    oasys_process::techfile::write(&oasys_process::builtin::cmos_5um())
}

#[test]
fn panicking_request_fails_alone_and_the_server_keeps_serving() {
    let _faults = FaultGuard::acquire();
    let socket = socket_path("panic");
    let server = start_server(&socket);

    // First request panics inside the handler's read path…
    oasys_faults::set("serve.request.read", FaultSpec::Panic);
    let hit = ask(&socket, &op_request("ping"));
    assert_eq!(
        error_of(&hit),
        (
            "error",
            "panic",
            "request handler panicked: injected panic at serve.request.read"
        )
    );

    // …and the dispatcher never noticed: the next requests — a ping
    // and a full synthesis — are served normally.
    oasys_faults::remove("serve.request.read");
    let pong = ask(&socket, &op_request("ping"));
    assert_eq!(status(&pong).0, "ok");
    let answer = ask(&socket, &synth_request(&spec_text(), &tech_text(), None));
    assert_eq!(
        status(&answer).0,
        "ok",
        "synthesis after a panic: {answer:?}"
    );

    let drain = ask(&socket, &op_request("shutdown"));
    assert_eq!(status(&drain).0, "ok");
    let report = server.join().unwrap();
    assert!(report.served >= 4);
}

#[test]
fn injected_read_fault_yields_a_structured_fault_response_once() {
    let _faults = FaultGuard::acquire();
    let socket = socket_path("failonce");
    let server = start_server(&socket);

    // FailOnce: exactly one request's ingress errors; later hits pass.
    oasys_faults::set("serve.request.read", FaultSpec::FailOnce);
    let hit = ask(&socket, &op_request("ping"));
    assert_eq!(status(&hit), ("error", Some("fault")));
    let pong = ask(&socket, &op_request("ping"));
    assert_eq!(status(&pong).0, "ok");

    let drain = ask(&socket, &op_request("shutdown"));
    assert_eq!(status(&drain).0, "ok");
    server.join().unwrap();
}

#[test]
fn deadline_exceeded_request_gets_a_structured_deadline_error() {
    let _faults = FaultGuard::acquire();
    let socket = socket_path("deadline");
    let server = start_server(&socket);

    // Every style attempt stalls long past the request's 1 ms budget,
    // so the cooperative deadline aborts the search mid-request.
    oasys_faults::set("engine.style", FaultSpec::Delay(150));
    let slow = ask(&socket, &synth_request(&spec_text(), &tech_text(), Some(1)));
    assert_eq!(status(&slow), ("error", Some("deadline")), "{slow:?}");

    // The worker survives the abort: with the stall removed the same
    // request synthesizes fine.
    oasys_faults::remove("engine.style");
    let answer = ask(&socket, &synth_request(&spec_text(), &tech_text(), None));
    assert_eq!(status(&answer).0, "ok", "{answer:?}");

    let drain = ask(&socket, &op_request("shutdown"));
    assert_eq!(status(&drain).0, "ok");
    server.join().unwrap();
}

fn data_file(name: &str) -> String {
    std::fs::read_to_string(format!("{}/../../data/{name}", env!("CARGO_MANIFEST_DIR"))).unwrap()
}

/// `(status, kind, message)` of an answer.
fn error_of(response: &Json) -> (&str, &str, &str) {
    let text = |key| response.get(key).and_then(Json::as_str).unwrap_or("");
    (text("status"), text("kind"), text("message"))
}

/// Each synthesis stage that can stop a request answers with its own
/// error kind and message. These are wire contracts: the expected
/// strings are what the server has always sent.
#[test]
fn every_synth_error_kind_keeps_its_message() {
    let _faults = FaultGuard::acquire();
    let socket = socket_path("error-kinds");
    let server = start_server(&socket);
    let tech = data_file("generic-5um.tech");
    let no_tox: String = tech
        .lines()
        .filter(|line| !line.starts_with("tox_angstrom"))
        .map(|line| format!("{line}\n"))
        .collect();
    let unreachable = "dc_gain_db = 120\nunity_gain_mhz = 500\nphase_margin_deg = 45\n\
                       load_pf = 5\nslew_rate_v_per_us = 2\n";
    let cases = [
        (
            synth_request("garbage =\n", &tech, None),
            "spec",
            "invalid specification file at line 1: value for `garbage` is not a number",
        ),
        (
            synth_request(&spec_text(), &no_tox, None),
            "tech",
            "invalid technology file: invalid process parameter `tox`: missing",
        ),
        (
            synth_request(unreachable, &tech, None),
            "infeasible",
            "no design style meets the specification: \
             [one-stage OTA: statically-infeasible: dc-gain: spec requires [120, 120] dB \
             but this style achieves [0, 76.47817481888637] dB] \
             [two-stage: plan `two-stage` aborted by rule `give-up-gain`: \
             gain infeasible for the two-stage style even with cascoding] \
             [folded cascode: plan `folded cascode` aborted by rule `give-up`: \
             folded-cascode style infeasible]",
        ),
    ];
    for (body, kind, message) in &cases {
        let answer = ask(&socket, body);
        assert_eq!(error_of(&answer), ("error", *kind, *message));
    }

    // A field of the wrong type is a protocol error, never a default.
    let synth = synth_request(&spec_text(), &tech, None);
    for timeout in ["\"5\"", "true", "null", "[]"] {
        let body = format!("{},\"timeout_ms\":{timeout}}}", &synth[..synth.len() - 1]);
        let answer = ask(&socket, &body);
        let expected = ("error", "protocol", "timeout_ms must be a number");
        assert_eq!(error_of(&answer), expected, "timeout_ms {timeout}");
    }
    let mistyped = [
        ("proto", r#"{"proto":1,"op":"ping"}"#),
        ("op", r#"{"proto":"oasys-serve/1","op":["ping"]}"#),
        (
            "spec",
            r#"{"proto":"oasys-serve/1","op":"synth","spec":null,"tech":""}"#,
        ),
        (
            "tech",
            r#"{"proto":"oasys-serve/1","op":"synth","spec":"","tech":5}"#,
        ),
    ];
    for (key, body) in mistyped {
        let message = format!("field {key:?} must be a string");
        assert_eq!(
            error_of(&ask(&socket, body)),
            ("error", "protocol", &*message)
        );
    }

    oasys_faults::configure("sim.dc.solve=err").unwrap();
    let answer = ask(&socket, &synth_request(&spec_text(), &tech, None));
    assert_eq!(
        error_of(&answer),
        (
            "error",
            "verify",
            "verification failed: verification dc analysis failed: \
             invalid circuit: injected fault at sim.dc.solve"
        )
    );
    oasys_faults::clear();

    // The rejections a deadline leaves depend on timing: pin the prefix.
    oasys_faults::set("engine.style", FaultSpec::Delay(150));
    let answer = ask(&socket, &synth_request(&spec_text(), &tech, Some(1)));
    assert_eq!(status(&answer), ("error", Some("deadline")), "{answer:?}");
    assert!(
        error_of(&answer)
            .2
            .starts_with("synthesis aborted by deadline: "),
        "{answer:?}"
    );
    oasys_faults::clear();

    let drain = ask(&socket, &op_request("shutdown"));
    assert_eq!(status(&drain).0, "ok");
    server.join().unwrap();
}

/// Polls the `health` op until `pass` holds, or panics after 10 s.
fn poll_health(socket: &Path, what: &str, pass: impl Fn(&Json) -> bool) -> Json {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = ask(socket, &op_request("health"));
        if pass(&health) {
            break health;
        }
        assert!(
            Instant::now() < deadline,
            "health never showed {what}: {health:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn num(response: &Json, key: &str) -> f64 {
    response.get(key).and_then(Json::as_num).unwrap()
}

#[test]
fn stalled_client_is_evicted_by_the_io_deadline_and_the_slot_is_reclaimed() {
    let _faults = FaultGuard::acquire();
    let socket = socket_path("stall");
    let server = start_server_with(
        ServeOptions::new(&socket)
            .with_workers(1)
            .with_cache_entries(64)
            .with_io_timeout(Duration::from_millis(150)),
    );

    // A slow-loris client: connects, then sleeps far past the server's
    // I/O deadline before sending its request. The server must evict
    // it rather than let it hold the only handler forever. The
    // eviction's error frame lands before the stalled write, and the
    // client still reads it.
    oasys_faults::set("serve.client.stall", FaultSpec::Delay(600));
    let outcome = request(&socket, &op_request("ping"));
    oasys_faults::remove("serve.client.stall");
    let response = json::parse(&outcome.unwrap()).unwrap();
    assert_eq!(status(&response).0, "error", "{response:?}");

    // The slot was reclaimed: a prompt client is served immediately,
    // and health records the eviction (not counted as served traffic).
    let pong = ask(&socket, &op_request("ping"));
    assert_eq!(status(&pong).0, "ok");
    let health = ask(&socket, &op_request("health"));
    assert!(num(&health, "evicted") >= 1.0, "{health:?}");
    assert_eq!(num(&health, "inflight"), 1.0, "only the health request");

    let drain = ask(&socket, &op_request("shutdown"));
    assert_eq!(status(&drain).0, "ok");
    let report = server.join().unwrap();
    assert!(report.evicted >= 1, "{report:?}");
}

#[test]
fn health_reports_the_design_cache_counters_live() {
    let _faults = FaultGuard::acquire();
    let socket = socket_path("cache");
    let server = start_server(&socket);
    let synth = synth_request(&spec_text(), &tech_text(), None);

    assert_eq!(status(&ask(&socket, &synth)).0, "ok");
    let before = ask(&socket, &op_request("health"));
    assert!(num(&before, "cache_misses") > 0.0, "{before:?}");
    assert_eq!(status(&ask(&socket, &synth)).0, "ok");
    let after = ask(&socket, &op_request("health"));
    assert!(
        num(&after, "cache_hits") > num(&before, "cache_hits"),
        "the repeated request must hit the cache: {before:?} then {after:?}"
    );
    assert_eq!(num(&after, "evicted"), 0.0, "no connection stalled");

    let drain = ask(&socket, &op_request("shutdown"));
    assert_eq!(status(&drain).0, "ok");
    let report = server.join().unwrap();
    assert_eq!(
        [
            report.cache_hits,
            report.cache_misses,
            report.cache_evictions
        ]
        .map(|n| n as f64),
        ["cache_hits", "cache_misses", "cache_evictions"].map(|key| num(&after, key)),
        "the drained report must read as the last probe did"
    );
}

#[test]
fn panicked_handler_worker_is_replaced_and_health_reports_it() {
    let _faults = FaultGuard::acquire();
    // Arm before the server spawns its handler: it dies at the top of
    // its first loop, exactly once, and must be restarted before any
    // request can be served. Every earlier test's handlers were joined
    // when its server drained, so no other thread can take the fault.
    oasys_faults::set("serve.worker.panic", FaultSpec::FailOnce);
    let socket = socket_path("worker-panic");
    let server = start_server(&socket);

    let health = poll_health(&socket, "a replaced worker", |h| {
        num(h, "workers_replaced") >= 1.0
    });
    assert_eq!(num(&health, "workers"), 1.0);

    // The restarted handler serves real traffic.
    let pong = ask(&socket, &op_request("ping"));
    assert_eq!(status(&pong).0, "ok");

    let drain = ask(&socket, &op_request("shutdown"));
    assert_eq!(status(&drain).0, "ok");
    let report = server.join().unwrap();
    assert_eq!(report.workers_replaced, 1, "{report:?}");
}

#[test]
fn sustained_overload_trips_brownout_and_synthesis_degrades() {
    let _faults = FaultGuard::acquire();
    let socket = socket_path("brownout");
    // One handler, a two-deep queue, and a cooldown far longer than the
    // test: once brownout is entered it stays observable.
    let server = start_server_with(
        ServeOptions::new(&socket)
            .with_workers(1)
            .with_queue_depth(2)
            .with_cache_entries(64)
            .with_brownout_cooldown(Duration::from_secs(60)),
    );
    // Let the server come up before applying load.
    let pong = ask(&socket, &op_request("ping"));
    assert_eq!(status(&pong).0, "ok");

    // Every request's ingress stalls 400 ms, so concurrent pings pile
    // up behind the single handler and congest the queue.
    oasys_faults::set("serve.request.read", FaultSpec::Delay(400));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || request(&socket, &op_request("ping")))
        })
        .collect();
    for client in clients {
        // Overloaded answers are `ok` (eventually served), `busy`
        // (shed), or a closed socket — all are acceptable under load;
        // what matters is the state the server ends up in.
        let _ = client.join().unwrap();
    }
    oasys_faults::remove("serve.request.read");

    let health = poll_health(&socket, "brownout", |h| {
        h.get("brownout").and_then(Json::as_bool) == Some(true)
    });
    assert!(num(&health, "brownout_entries") >= 1.0, "{health:?}");

    // Under brownout, synthesis still answers but sheds verification
    // and says so.
    let answer = ask(&socket, &synth_request(&spec_text(), &tech_text(), None));
    assert_eq!(status(&answer).0, "ok", "{answer:?}");
    assert_eq!(
        answer.get("degraded").and_then(Json::as_bool),
        Some(true),
        "{answer:?}"
    );
    assert_eq!(answer.get("meets_spec"), None, "{answer:?}");

    let drain = ask(&socket, &op_request("shutdown"));
    assert_eq!(status(&drain).0, "ok");
    let report = server.join().unwrap();
    assert!(report.brownout_entries >= 1, "{report:?}");
    assert!(report.degraded >= 1, "{report:?}");
}

/// A connection that finds the one handler busy waits in the bounded
/// admission queue, never in the handlers' channel, so overload sheds
/// it and trips brownout.
#[test]
fn connections_beyond_the_handlers_wait_in_the_admission_queue() {
    let _faults = FaultGuard::acquire();
    let socket = socket_path("one-queue");
    let server = start_server_with(
        ServeOptions::new(&socket)
            .with_workers(1)
            .with_queue_depth(2)
            .with_cache_entries(16)
            .with_brownout_cooldown(Duration::from_secs(60)),
    );
    let pong = ask(&socket, &op_request("ping"));
    assert_eq!(status(&pong).0, "ok");

    // The handler reads each ping 300 ms late: one ping is answered,
    // two fill the queue, and the fourth finds it full.
    oasys_faults::set("serve.request.read", FaultSpec::Delay(300));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || ask(&socket, &op_request("ping")))
        })
        .collect();
    let answers: Vec<String> = clients
        .into_iter()
        .map(|client| status(&client.join().unwrap()).0.to_owned())
        .collect();
    oasys_faults::remove("serve.request.read");
    let count = |want: &str| answers.iter().filter(|answer| *answer == want).count();
    assert!(count("busy") >= 1, "nothing was shed: {answers:?}");
    assert_eq!(count("busy") + count("ok"), 4, "{answers:?}");

    let drain = ask(&socket, &op_request("shutdown"));
    assert_eq!(status(&drain).0, "ok");
    let report = server.join().unwrap();
    assert!(report.brownout_entries >= 1, "{report:?}");
}

#[test]
fn brownout_exits_after_the_queue_drains_and_the_cooldown_elapses() {
    let _faults = FaultGuard::acquire();
    let socket = socket_path("brownout-exit");
    let server = start_server_with(
        ServeOptions::new(&socket)
            .with_workers(1)
            .with_queue_depth(2)
            .with_cache_entries(64)
            .with_brownout_cooldown(Duration::from_millis(100)),
    );
    let pong = ask(&socket, &op_request("ping"));
    assert_eq!(status(&pong).0, "ok");

    oasys_faults::set("serve.request.read", FaultSpec::Delay(300));
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || request(&socket, &op_request("ping")))
        })
        .collect();
    for client in clients {
        let _ = client.join().unwrap();
    }
    oasys_faults::remove("serve.request.read");

    // With the load gone and the queue drained, the cooldown expires
    // and the server recovers to normal (verified) service.
    let health = poll_health(&socket, "brownout exit", |h| {
        h.get("brownout").and_then(Json::as_bool) == Some(false) && num(h, "brownout_exits") >= 1.0
    });
    assert!(num(&health, "brownout_entries") >= 1.0, "{health:?}");

    let answer = ask(&socket, &synth_request(&spec_text(), &tech_text(), None));
    assert_eq!(status(&answer).0, "ok", "{answer:?}");
    assert_eq!(answer.get("degraded"), None, "{answer:?}");
    assert!(
        answer.get("meets_spec").and_then(Json::as_bool).is_some(),
        "verification resumes after brownout: {answer:?}"
    );

    let drain = ask(&socket, &op_request("shutdown"));
    assert_eq!(status(&drain).0, "ok");
    server.join().unwrap();
}

#[test]
fn busy_answer_that_arrives_before_the_request_still_reaches_the_client() {
    let _faults = FaultGuard::acquire();
    let socket = socket_path("busy-first");
    let server = Server::bind(
        ServeOptions::new(&socket)
            .with_workers(1)
            .with_queue_depth(1)
            .with_cache_entries(16)
            .with_io_timeout(Duration::from_secs(30)),
    )
    .unwrap();
    let shutdown = server.shutdown_flag();
    let runner = std::thread::spawn(move || server.run().unwrap());
    // Saturate as the shed-latency bench does: one silent connection
    // holds the only handler, a second fills the one-deep queue.
    let hold_inflight = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    let hold_queue = std::os::unix::net::UnixStream::connect(&socket).unwrap();

    // The client stalls between connect and write, so the server sheds
    // and closes the connection before the request is written.
    oasys_faults::set("serve.client.stall", FaultSpec::Delay(50));
    let outcome = request(&socket, &op_request("ping"));
    oasys_faults::remove("serve.client.stall");
    let response = outcome.expect("the busy frame is read after the failed write");
    let response = json::parse(&response).unwrap();
    assert_eq!(status(&response).0, "busy", "{response:?}");

    drop((hold_inflight, hold_queue));
    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    let report = runner.join().unwrap();
    assert!(report.shed >= 1, "{report:?}");
}

#[test]
fn idle_one_worker_server_answers_pings_without_waiting_on_a_timer() {
    let _faults = FaultGuard::acquire();
    let socket = socket_path("ping-latency");
    let server = start_server(&socket);

    let mut round_trips: Vec<Duration> = (0..21)
        .map(|_| {
            let sent = Instant::now();
            let pong = ask(&socket, &op_request("ping"));
            assert_eq!(status(&pong).0, "ok");
            sent.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median ping round trip {median:?}: {round_trips:?}"
    );

    let drain = ask(&socket, &op_request("shutdown"));
    assert_eq!(status(&drain).0, "ok");
    server.join().unwrap();
}

#[test]
fn oversized_and_malformed_frames_get_structured_errors() {
    let _faults = FaultGuard::acquire();
    let socket = socket_path("frames");
    let server = start_server(&socket);

    // A length prefix promising more than the request cap is rejected
    // on the prefix alone — the server never waits for (or allocates)
    // the claimed payload.
    {
        let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        use std::io::Write as _;
        stream
            .write_all(&(MAX_REQUEST_BYTES + 1).to_be_bytes())
            .unwrap();
        stream.flush().unwrap();
        let response = read_frame(&mut stream).unwrap();
        let response = json::parse(std::str::from_utf8(&response).unwrap()).unwrap();
        assert_eq!(
            status(&response),
            ("error", Some("protocol")),
            "{response:?}"
        );
        assert!(
            response
                .get("message")
                .and_then(Json::as_str)
                .unwrap()
                .contains("exceeds"),
            "{response:?}"
        );
    }

    // A truncated frame (header promises more bytes than ever arrive)
    // errors out instead of hanging or being served short.
    {
        let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        use std::io::Write as _;
        stream.write_all(&100u32.to_be_bytes()).unwrap();
        stream.write_all(b"abc").unwrap();
        stream.flush().unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let response = read_frame(&mut stream).unwrap();
        let response = json::parse(std::str::from_utf8(&response).unwrap()).unwrap();
        assert_eq!(
            status(&response),
            ("error", Some("protocol")),
            "{response:?}"
        );
    }

    // A well-framed payload that is not a JSON request is rejected
    // with a structured protocol error.
    {
        let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        write_frame(&mut stream, "definitely not json").unwrap();
        let response = read_frame(&mut stream).unwrap();
        let response = json::parse(std::str::from_utf8(&response).unwrap()).unwrap();
        assert_eq!(
            status(&response),
            ("error", Some("protocol")),
            "{response:?}"
        );
    }

    // None of that disturbed the server.
    let pong = ask(&socket, &op_request("ping"));
    assert_eq!(status(&pong).0, "ok");
    let drain = ask(&socket, &op_request("shutdown"));
    assert_eq!(status(&drain).0, "ok");
    server.join().unwrap();
}

#[test]
fn deeply_nested_request_is_a_protocol_error_and_the_server_keeps_serving() {
    let _faults = FaultGuard::acquire();
    let socket = socket_path("deep-json");
    let server = start_server(&socket);

    // Each `[` is one level of the parser's recursion: without a depth
    // cap this frame overflows the handler thread's stack and aborts
    // the whole process.
    let answer = ask(&socket, &"[".repeat(100_000));
    assert_eq!(status(&answer), ("error", Some("protocol")), "{answer:?}");

    let pong = ask(&socket, &op_request("ping"));
    assert_eq!(status(&pong).0, "ok");
    let drain = ask(&socket, &op_request("shutdown"));
    assert_eq!(status(&drain).0, "ok");
    server.join().unwrap();
}

/// The names of this process's threads, from `/proc/self/task/*/comm`.
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_owned())
        .collect()
}

#[cfg(target_os = "linux")]
#[test]
fn drained_server_leaves_no_serve_thread_behind() {
    let _faults = FaultGuard::acquire();
    let socket = socket_path("no-threads");
    let server = start_server_with(
        ServeOptions::new(&socket)
            .with_workers(2)
            .with_cache_entries(16),
    );
    let pong = ask(&socket, &op_request("ping"));
    assert_eq!(status(&pong).0, "ok");
    let drain = ask(&socket, &op_request("shutdown"));
    assert_eq!(status(&drain).0, "ok");
    server.join().unwrap();

    // `run` has returned, so its threads have finished; one may take a
    // moment to leave the task list.
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let left: Vec<String> = thread_names()
            .into_iter()
            .filter(|name| name.starts_with("oasys-serve") || name.starts_with("oasys-pool"))
            .collect();
        if left.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "threads outlived the drain: {left:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn drain_answers_every_connection_already_handed_to_a_handler() {
    let _faults = FaultGuard::acquire();
    let socket = socket_path("drain-handed");
    let server = Server::bind(
        ServeOptions::new(&socket)
            .with_workers(3)
            .with_cache_entries(16),
    )
    .unwrap();
    let shutdown = server.shutdown_flag();
    let runner = std::thread::spawn(move || server.run().unwrap());
    let pong = ask(&socket, &op_request("ping"));
    assert_eq!(status(&pong).0, "ok");

    // Every request's ingress stalls 200 ms, so each of the three
    // handlers is still reading its ping when the flag is raised.
    oasys_faults::set("serve.request.read", FaultSpec::Delay(200));
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || request(&socket, &op_request("ping")))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    for client in clients {
        let answer = json::parse(&client.join().unwrap().unwrap()).unwrap();
        assert_eq!(status(&answer).0, "ok", "{answer:?}");
    }
    let report = runner.join().unwrap();
    assert_eq!(report.served, 4, "{report:?}");
    assert_eq!(report.shed, 0, "{report:?}");
}

#[test]
fn drain_ends_even_when_every_handler_loop_panics() {
    let _faults = FaultGuard::acquire();
    // Every handler dies at the top of every loop, so none ever takes a
    // connection; once the drain starts they must skip the fault, find
    // the channel closed and let the scope join them.
    oasys_faults::set("serve.worker.panic", FaultSpec::Panic);
    let socket = socket_path("crash-loop");
    let server = Server::bind(ServeOptions::new(&socket).with_workers(2)).unwrap();
    let shutdown = server.shutdown_flag();
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.run().unwrap()));
    // Long enough for each handler to die and restart a few times.
    std::thread::sleep(Duration::from_millis(200));
    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    let report = finished
        .recv_timeout(Duration::from_secs(2))
        .expect("run returns within 2 s of the flag");
    assert!(report.workers_replaced >= 2, "{report:?}");
}
