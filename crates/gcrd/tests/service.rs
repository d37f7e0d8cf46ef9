//! Integration tests of the `gcrd` daemon over real TCP: concurrent
//! clients with bit-identity against single-shot CLI-equivalent runs,
//! malformed/oversized request survival, backpressure rejection, queue
//! deadlines, worker-panic isolation, graceful-shutdown draining, and
//! cache hits answered on the connection thread.
//!
//! Each test binds its own in-process service on an ephemeral port.
//! Designs stay small (r1 at short streams) — these run in debug mode
//! under `cargo test`; the full r1–r5 release-mode sweep is the
//! `gcrd-smoke` binary.

// Test code: unwrap/expect on infallible setup is idiomatic here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use gcr_trace::json::{self, Json};
use gcr_trace::{MemorySink, TraceEvent, Tracer};
use gcr_workloads::TsayBenchmark;
use gcrd::engine::single_shot_reference;
use gcrd::{DesignKey, Service, ServiceConfig};

const STREAM_LEN: usize = 400;

fn start(config: ServiceConfig) -> (String, JoinHandle<()>) {
    start_traced(config, Tracer::disabled())
}

fn start_traced(config: ServiceConfig, tracer: Tracer) -> (String, JoinHandle<()>) {
    let service = Service::bind("127.0.0.1:0", config, tracer).unwrap();
    let addr = service.local_addr().unwrap().to_string();
    let handle = thread::spawn(move || service.run());
    (addr, handle)
}

/// Sends `requests` on one connection, returns one parsed response per
/// request (completion order).
fn send_batch(addr: &str, requests: &[String]) -> Vec<Json> {
    let mut stream = TcpStream::connect(addr).unwrap();
    for r in requests {
        stream.write_all(format!("{r}\n").as_bytes()).unwrap();
    }
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    (0..requests.len())
        .map(|_| {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).unwrap() > 0,
                "connection closed early"
            );
            json::parse(line.trim()).unwrap()
        })
        .collect()
}

fn status(j: &Json) -> &str {
    j.get("status").and_then(Json::as_str).unwrap_or("")
}

fn str_field<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or("")
}

/// The `panics` counter of a `stats` response.
fn panics(stats: &Json) -> Option<f64> {
    stat(stats, "panics")
}

/// Field `key` of a `stats` response's `stats` object.
fn stat(stats: &Json, key: &str) -> Option<f64> {
    stats
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
}

/// Polls `stats` until `ready` holds for the reply, so a test waits for
/// a daemon state rather than for a guessed time.
fn wait_for_stats(addr: &str, ready: impl Fn(&Json) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = send_batch(addr, &[r#"{"id":"st","cmd":"stats"}"#.to_owned()]);
        if ready(&stats[0]) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never reached the awaited state: {:?}",
            stats[0]
        );
        thread::sleep(Duration::from_millis(2));
    }
}

/// A `route` / `evaluate` / `verify` request for r1 at `STREAM_LEN`.
fn r1_request(id: &str, cmd: &str, seed: u64) -> String {
    format!(
        "{{\"id\":\"{id}\",\"cmd\":\"{cmd}\",\"benchmark\":\"r1\",\
         \"stream_len\":{STREAM_LEN},\"seed\":{seed}}}"
    )
}

/// Sends `line` on `stream` without reading the reply.
fn send_line(stream: &mut TcpStream, line: &str) {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    stream.flush().unwrap();
}

fn shutdown(addr: &str) {
    let resp = send_batch(addr, &[r#"{"id":"sd","cmd":"shutdown"}"#.to_owned()]);
    assert_eq!(status(&resp[0]), "ok");
}

fn r1_key(seed: u64) -> DesignKey {
    DesignKey {
        benchmark: TsayBenchmark::R1,
        stream_len: STREAM_LEN,
        seed,
    }
}

/// Eight concurrent clients route two distinct designs; every response
/// must be `ok` and every decision log bit-identical to the
/// single-shot, cold-scratch, single-threaded reference — cache hits
/// and misses alike.
#[test]
fn concurrent_clients_get_bit_identical_routings() {
    let seeds = [1_998_u64, 7_u64];
    let refs: Vec<_> = seeds
        .iter()
        .map(|&seed| single_shot_reference(r1_key(seed)).unwrap().1)
        .collect();
    let (addr, daemon) = start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let results: Vec<Vec<Json>> = thread::scope(|scope| {
        (0..8)
            .map(|idx| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let requests: Vec<String> = seeds
                        .iter()
                        .map(|&seed| {
                            format!(
                                "{{\"id\":\"c{idx}-s{seed}\",\"cmd\":\"route\",\
                                 \"benchmark\":\"r1\",\"stream_len\":{STREAM_LEN},\
                                 \"seed\":{seed},\"log\":true}}"
                            )
                        })
                        .collect();
                    send_batch(&addr, &requests)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for responses in &results {
        for resp in responses {
            assert_eq!(status(resp), "ok", "error: {}", str_field(resp, "error"));
            let id = str_field(resp, "id");
            let seed: u64 = id.rsplit("-s").next().unwrap().parse().unwrap();
            let reference = &refs[seeds.iter().position(|&s| s == seed).unwrap()];
            assert_eq!(
                str_field(resp, "decision_log"),
                &*reference.log,
                "{id}: decision log differs from single-shot reference"
            );
            assert_eq!(
                str_field(resp, "log_hash"),
                format!("{:016x}", reference.log_hash)
            );
            // Shortest-roundtrip floats make this a bit-exact check.
            assert_eq!(
                resp.get("total_switched_cap").and_then(Json::as_f64),
                Some(reference.report.total_switched_cap)
            );
        }
    }
    // 16 route requests over 2 designs: the cache must have served the
    // overwhelming majority as pure replays.
    let stats = send_batch(&addr, &[r#"{"id":"st","cmd":"stats"}"#.to_owned()]);
    let hits = stats[0]
        .get("stats")
        .and_then(|s| s.get("hits"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(hits >= 8.0, "expected ≥8 cache hits, saw {hits}");
    shutdown(&addr);
    daemon.join().unwrap();
}

/// Malformed JSON, oversized lines, unknown commands/benchmarks,
/// invalid ECO batches and `add_sink` loads that are negative or
/// overflow to infinity all get `error` responses, from checks and not
/// from caught panics — and the daemon keeps serving the same
/// connection afterwards.
#[test]
fn malformed_requests_get_errors_and_daemon_survives() {
    let (addr, daemon) = start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let oversized = format!(
        "{{\"id\":\"big\",\"cmd\":\"ping\",\"pad\":\"{}\"}}",
        "x".repeat(gcrd::MAX_LINE_BYTES)
    );
    let add_sink = |load: &str| {
        format!(
            "{{\"id\":\"k5\",\"cmd\":\"eco\",\"benchmark\":\"r1\",\"edits\":[{{\"op\":\"add_sink\",\
             \"x\":1,\"y\":1,\"load\":{load},\"module\":0}}]}}"
        )
    };
    let requests = vec![
        "this is not json".to_owned(),
        oversized,
        r#"{"id":"k1","cmd":"levitate"}"#.to_owned(),
        r#"{"id":"k2","cmd":"route"}"#.to_owned(),
        r#"{"id":"k3","cmd":"route","benchmark":"r99"}"#.to_owned(),
        format!(
            "{{\"id\":\"k4\",\"cmd\":\"eco\",\"benchmark\":\"r1\",\"stream_len\":{STREAM_LEN},\
             \"edits\":[{{\"op\":\"remove_sink\",\"index\":99999}}]}}"
        ),
        add_sink("-1"),
        add_sink("1e400"),
        r#"{"id":"alive","cmd":"ping"}"#.to_owned(),
        r#"{"id":"st","cmd":"stats"}"#.to_owned(),
    ];
    let responses = send_batch(&addr, &requests);
    // Eight failures; the ping and the stats must still be answered `ok`
    // on the same connection.
    let mut load_errors = 0;
    for resp in &responses {
        match str_field(resp, "id") {
            "alive" | "st" => assert_eq!(status(resp), "ok"),
            _ => {
                assert_eq!(status(resp), "error", "line: {resp:?}");
                let error = str_field(resp, "error");
                assert!(!error.is_empty());
                load_errors += usize::from(error.contains("\"load\""));
            }
        }
    }
    assert_eq!(load_errors, 2, "both bad loads must name the field");
    let stats = responses.iter().find(|r| str_field(r, "id") == "st");
    assert_eq!(panics(stats.expect("stats answered")), Some(0.0));
    shutdown(&addr);
    daemon.join().unwrap();
}

/// A request line nested far deeper than any real request (10 000 `[`)
/// gets a structured `error` reply instead of overflowing the
/// connection thread's stack and aborting the daemon; the same
/// connection then still answers a `ping`, and nothing panicked.
#[test]
fn deeply_nested_request_gets_an_error_and_daemon_survives() {
    let (addr, daemon) = start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let responses = send_batch(
        &addr,
        &[
            "[".repeat(10_000),
            r#"{"id":"alive","cmd":"ping"}"#.to_owned(),
            r#"{"id":"st","cmd":"stats"}"#.to_owned(),
        ],
    );
    assert_eq!(status(&responses[0]), "error", "{:?}", responses[0]);
    assert!(
        str_field(&responses[0], "error").contains("nesting too deep"),
        "{:?}",
        responses[0]
    );
    assert_eq!(str_field(&responses[1], "id"), "alive");
    assert_eq!(status(&responses[1]), "ok");
    assert_eq!(str_field(&responses[1], "cmd"), "ping");
    assert_eq!(panics(&responses[2]), Some(0.0));
    shutdown(&addr);
    daemon.join().unwrap();
}

/// A `stream_len` outside `2..=MAX_STREAM_LEN` gets an `error` response
/// naming the field, from a check and not from a caught panic; the
/// daemon keeps serving afterwards.
#[test]
fn out_of_range_stream_len_is_rejected_without_a_panic() {
    let (addr, daemon) = start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let too_long = gcrd::MAX_STREAM_LEN + 1;
    let requests: Vec<String> = [
        "0".to_owned(),
        "1".to_owned(),
        too_long.to_string(),
        "1e30".to_owned(),
    ]
    .iter()
    .enumerate()
    .map(|(i, len)| {
        format!(r#"{{"id":"len{i}","cmd":"route","benchmark":"r1","stream_len":{len}}}"#)
    })
    .chain([r#"{"id":"alive","cmd":"ping"}"#.to_owned()])
    .collect();
    let responses = send_batch(&addr, &requests);
    for resp in &responses {
        if str_field(resp, "id") == "alive" {
            assert_eq!(status(resp), "ok");
            continue;
        }
        assert_eq!(status(resp), "error", "line: {resp:?}");
        assert!(
            str_field(resp, "error").contains("stream_len"),
            "error must name the field: {resp:?}"
        );
    }
    let stats = send_batch(&addr, &[r#"{"id":"st","cmd":"stats"}"#.to_owned()]);
    assert_eq!(panics(&stats[0]), Some(0.0));
    shutdown(&addr);
    daemon.join().unwrap();
}

/// A one-slot queue behind one busy worker rejects overflow immediately
/// with `status: "rejected"` and a `retry_after_ms` hint.
#[test]
fn backpressure_rejects_with_retry_hint() {
    let (addr, daemon) = start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 150,
        debug_commands: true,
        ..ServiceConfig::default()
    });
    let requests: Vec<String> = (0..5)
        .map(|i| format!("{{\"id\":\"bp{i}\",\"cmd\":\"sleep\",\"sleep_ms\":200}}"))
        .collect();
    let responses = send_batch(&addr, &requests);
    let rejected: Vec<_> = responses
        .iter()
        .filter(|r| status(r) == "rejected")
        .collect();
    assert!(
        !rejected.is_empty(),
        "no rejection at workers=1, queue=1 under 5 instant requests"
    );
    for r in &rejected {
        assert_eq!(
            r.get("retry_after_ms").and_then(Json::as_f64),
            Some(150.0),
            "rejection must carry the configured retry hint"
        );
    }
    assert!(responses.iter().any(|r| status(r) == "ok"));
    shutdown(&addr);
    daemon.join().unwrap();
}

/// A request whose `deadline_ms` elapses while queued is answered with
/// a deadline error instead of being served stale.
#[test]
fn queue_deadline_expires_into_error() {
    let (addr, daemon) = start(ServiceConfig {
        workers: 1,
        debug_commands: true,
        ..ServiceConfig::default()
    });
    let requests = vec![
        r#"{"id":"busy","cmd":"sleep","sleep_ms":250}"#.to_owned(),
        r#"{"id":"late","cmd":"sleep","sleep_ms":0,"deadline_ms":50}"#.to_owned(),
    ];
    let responses = send_batch(&addr, &requests);
    let late = responses
        .iter()
        .find(|r| str_field(r, "id") == "late")
        .unwrap();
    assert_eq!(status(late), "error");
    assert!(str_field(late, "error").contains("deadline"));
    shutdown(&addr);
    daemon.join().unwrap();
}

/// A panicking request is answered with an error, counted, and the
/// worker keeps serving with fresh scratch — one poisoned request never
/// wedges the daemon.
#[test]
fn worker_panic_is_isolated() {
    let (addr, daemon) = start(ServiceConfig {
        workers: 1,
        debug_commands: true,
        ..ServiceConfig::default()
    });
    let responses = send_batch(
        &addr,
        &[
            r#"{"id":"boom","cmd":"panic"}"#.to_owned(),
            r#"{"id":"after","cmd":"sleep","sleep_ms":0}"#.to_owned(),
        ],
    );
    let boom = responses
        .iter()
        .find(|r| str_field(r, "id") == "boom")
        .unwrap();
    assert_eq!(status(boom), "error");
    assert!(str_field(boom, "error").contains("panicked"));
    let after = responses
        .iter()
        .find(|r| str_field(r, "id") == "after")
        .unwrap();
    assert_eq!(status(after), "ok", "worker must survive the panic");
    // Both work responses are in hand, so the counter is settled.
    let stats = send_batch(&addr, &[r#"{"id":"st","cmd":"stats"}"#.to_owned()]);
    assert_eq!(panics(&stats[0]), Some(1.0));
    shutdown(&addr);
    daemon.join().unwrap();
}

/// `shutdown` drains: queued and in-flight work is answered `ok` before
/// the daemon stops, new work is rejected as draining, and `run()`
/// returns.
#[test]
fn graceful_shutdown_drains_inflight_work() {
    let (addr, daemon) = start(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        debug_commands: true,
        ..ServiceConfig::default()
    });
    let mut busy = TcpStream::connect(&addr).unwrap();
    busy.write_all(
        b"{\"id\":\"d0\",\"cmd\":\"sleep\",\"sleep_ms\":200}\n\
          {\"id\":\"d1\",\"cmd\":\"sleep\",\"sleep_ms\":200}\n",
    )
    .unwrap();
    busy.flush().unwrap();
    thread::sleep(Duration::from_millis(50));
    let resp = send_batch(&addr, &[r#"{"id":"sd","cmd":"shutdown"}"#.to_owned()]);
    assert_eq!(status(&resp[0]), "ok");
    assert!(resp[0].get("drained").and_then(Json::as_f64).is_some());
    // Both in-flight sleeps were answered before shutdown returned.
    let mut reader = BufReader::new(busy);
    for _ in 0..2 {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        let parsed = json::parse(line.trim()).unwrap();
        assert_eq!(status(&parsed), "ok");
    }
    daemon.join().unwrap();
}

/// With the one worker asleep and the one queue slot taken, a second
/// connection's `route` and `verify` of an already-routed design are
/// still answered `ok` as hits while both sleeps are outstanding: a hit
/// is served on the connection thread and takes no queue slot.
#[test]
fn cache_hits_bypass_a_full_queue() {
    let (addr, daemon) = start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        debug_commands: true,
        ..ServiceConfig::default()
    });
    let warm = send_batch(&addr, &[r1_request("warm", "route", 1_998)]);
    assert_eq!(status(&warm[0]), "ok");
    let mut busy = TcpStream::connect(&addr).unwrap();
    send_line(&mut busy, r#"{"id":"z0","cmd":"sleep","sleep_ms":300}"#);
    wait_for_stats(&addr, |s| {
        stat(s, "inflight") == Some(1.0) && stat(s, "queue_depth") == Some(0.0)
    });
    send_line(&mut busy, r#"{"id":"z1","cmd":"sleep","sleep_ms":0}"#);
    wait_for_stats(&addr, |s| stat(s, "queue_depth") == Some(1.0));
    let hits = send_batch(
        &addr,
        &[
            r1_request("h1", "route", 1_998),
            r1_request("h2", "verify", 1_998),
        ],
    );
    let stats = send_batch(&addr, &[r#"{"id":"st","cmd":"stats"}"#.to_owned()]);
    for resp in &hits {
        assert_eq!(status(resp), "ok", "{resp:?}");
        assert_eq!(str_field(resp, "cache"), "hit", "{resp:?}");
    }
    let verify = hits.iter().find(|r| str_field(r, "id") == "h2").unwrap();
    assert_eq!(
        verify.get("verify_errors").and_then(Json::as_f64),
        Some(0.0)
    );
    assert_eq!(
        stat(&stats[0], "inflight"),
        Some(2.0),
        "both sleeps must still be outstanding when the hits are answered"
    );
    let mut reader = BufReader::new(busy);
    for _ in 0..2 {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        assert_eq!(status(&json::parse(line.trim()).unwrap()), "ok");
    }
    shutdown(&addr);
    daemon.join().unwrap();
}

/// Once `shutdown` is draining, a request that would be a cache hit is
/// rejected as `"draining"` like any other work.
#[test]
fn draining_rejects_cache_hits() {
    let (addr, daemon) = start(ServiceConfig {
        workers: 1,
        debug_commands: true,
        ..ServiceConfig::default()
    });
    let warm = send_batch(&addr, &[r1_request("warm", "route", 1_998)]);
    assert_eq!(status(&warm[0]), "ok");
    let mut busy = TcpStream::connect(&addr).unwrap();
    send_line(&mut busy, r#"{"id":"z0","cmd":"sleep","sleep_ms":300}"#);
    wait_for_stats(&addr, |s| stat(s, "inflight") == Some(1.0));
    // The probe connection is open before draining starts; it answers
    // hits until `shutdown` flips the service, and its first non-`ok`
    // reply must be the draining rejection.
    let mut probe = TcpStream::connect(&addr).unwrap();
    let mut replies = BufReader::new(probe.try_clone().unwrap());
    let closer = thread::spawn({
        let addr = addr.clone();
        move || shutdown(&addr)
    });
    let late = loop {
        send_line(&mut probe, &r1_request("late", "route", 1_998));
        let mut line = String::new();
        assert!(replies.read_line(&mut line).unwrap() > 0);
        let reply = json::parse(line.trim()).unwrap();
        if status(&reply) != "ok" {
            break reply;
        }
        assert_eq!(str_field(&reply, "cache"), "hit");
        thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(status(&late), "rejected", "{late:?}");
    assert_eq!(str_field(&late, "error"), "draining");
    closer.join().unwrap();
    daemon.join().unwrap();
}

/// Inline hits are counted in `hits` and `completed` like worker
/// replies: with the worker still asleep, four hits after one miss read
/// back as 4 hits, 1 miss and 5 completed, the sleep still in flight.
#[test]
fn inline_hits_are_counted() {
    let (addr, daemon) = start(ServiceConfig {
        workers: 1,
        debug_commands: true,
        ..ServiceConfig::default()
    });
    let warm = send_batch(&addr, &[r1_request("warm", "route", 1_998)]);
    assert_eq!(str_field(&warm[0], "cache"), "miss");
    let mut busy = TcpStream::connect(&addr).unwrap();
    send_line(&mut busy, r#"{"id":"z0","cmd":"sleep","sleep_ms":300}"#);
    wait_for_stats(&addr, |s| stat(s, "inflight") == Some(1.0));
    let hits = send_batch(
        &addr,
        &[
            r1_request("h1", "route", 1_998),
            r1_request("h2", "route", 1_998),
            r1_request("h3", "evaluate", 1_998),
            r1_request("h4", "verify", 1_998),
        ],
    );
    assert!(hits.iter().all(|r| str_field(r, "cache") == "hit"));
    let stats = send_batch(&addr, &[r#"{"id":"st","cmd":"stats"}"#.to_owned()]);
    assert_eq!(stat(&stats[0], "hits"), Some(4.0));
    assert_eq!(stat(&stats[0], "misses"), Some(1.0));
    assert_eq!(stat(&stats[0], "completed"), Some(5.0));
    assert_eq!(stat(&stats[0], "inflight"), Some(1.0));
    let mut line = String::new();
    assert!(BufReader::new(busy).read_line(&mut line).unwrap() > 0);
    shutdown(&addr);
    daemon.join().unwrap();
}

/// Concurrent requests for one key route it once: with three workers,
/// a pipelined `route`, `route` and `verify` of one uncached design get
/// exactly one `"cache":"miss"`, and the other two wait for that fill
/// and are hits.
#[test]
fn concurrent_misses_on_one_key_route_it_once() {
    let (addr, daemon) = start(ServiceConfig {
        workers: 3,
        ..ServiceConfig::default()
    });
    let replies = send_batch(
        &addr,
        &[
            r1_request("a", "route", 1_998),
            r1_request("b", "route", 1_998),
            r1_request("c", "verify", 1_998),
        ],
    );
    assert!(replies.iter().all(|r| status(r) == "ok"), "{replies:?}");
    let misses = replies
        .iter()
        .filter(|r| str_field(r, "cache") == "miss")
        .count();
    assert_eq!(misses, 1, "{replies:?}");
    let stats = send_batch(&addr, &[r#"{"id":"st","cmd":"stats"}"#.to_owned()]);
    assert_eq!(stat(&stats[0], "misses"), Some(1.0));
    assert_eq!(stat(&stats[0], "hits"), Some(2.0));
    shutdown(&addr);
    daemon.join().unwrap();
}

/// A design and its routing are evicted together: with one cache entry,
/// routing a second key evicts the first, so a `verify` of the first is
/// a miss that routes it again, and verifies clean.
#[test]
fn evicted_key_is_routed_again() {
    let (addr, daemon) = start(ServiceConfig {
        workers: 1,
        cache: 1,
        ..ServiceConfig::default()
    });
    let routed = send_batch(&addr, &[r1_request("a", "route", 1_998)]);
    assert_eq!(str_field(&routed[0], "cache"), "miss");
    let routed = send_batch(&addr, &[r1_request("b", "route", 7)]);
    assert_eq!(str_field(&routed[0], "cache"), "miss");
    let verify = send_batch(&addr, &[r1_request("v", "verify", 1_998)]);
    assert_eq!(status(&verify[0]), "ok", "{:?}", verify[0]);
    assert_eq!(str_field(&verify[0], "cache"), "miss");
    assert_eq!(
        verify[0].get("verify_errors").and_then(Json::as_f64),
        Some(0.0)
    );
    let stats = send_batch(&addr, &[r#"{"id":"st","cmd":"stats"}"#.to_owned()]);
    assert_eq!(stat(&stats[0], "hits"), Some(0.0));
    assert_eq!(stat(&stats[0], "misses"), Some(3.0));
    shutdown(&addr);
    daemon.join().unwrap();
}

/// Requests whose key is rejected take no cache capacity: with one
/// cache entry, `stream_len` 0 and 1 and an unknown benchmark between
/// two requests for a cached key leave the second request a hit.
#[test]
fn rejected_keys_take_no_cache_capacity() {
    let (addr, daemon) = start(ServiceConfig {
        workers: 1,
        cache: 1,
        ..ServiceConfig::default()
    });
    let first = send_batch(&addr, &[r1_request("a", "route", 1_998)]);
    assert_eq!(str_field(&first[0], "cache"), "miss");
    for bad in [
        r#"{"id":"len0","cmd":"route","benchmark":"r1","stream_len":0}"#,
        r#"{"id":"len1","cmd":"route","benchmark":"r1","stream_len":1}"#,
        r#"{"id":"r99","cmd":"route","benchmark":"r99"}"#,
    ] {
        let reply = send_batch(&addr, &[bad.to_owned()]);
        assert_eq!(status(&reply[0]), "error", "{:?}", reply[0]);
    }
    let again = send_batch(&addr, &[r1_request("b", "route", 1_998)]);
    assert_eq!(status(&again[0]), "ok", "{:?}", again[0]);
    assert_eq!(str_field(&again[0], "cache"), "hit");
    shutdown(&addr);
    daemon.join().unwrap();
}

/// An inline `verify` hit traces like a worker reply: a `gcrd.request`
/// span whose interval holds its `gcrd.cache` and `gcrd.respond` spans
/// and the verifier's `verify.run`.
#[test]
fn inline_verify_hit_is_traced() {
    let sink = Arc::new(MemorySink::new());
    let (addr, daemon) = start_traced(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        Tracer::new(sink.clone()),
    );
    let warm = send_batch(&addr, &[r1_request("warm", "route", 1_998)]);
    assert_eq!(str_field(&warm[0], "cache"), "miss");
    let hit = send_batch(&addr, &[r1_request("v", "verify", 1_998)]);
    assert_eq!(str_field(&hit[0], "cache"), "hit");
    shutdown(&addr);
    daemon.join().unwrap();
    // `shutdown` records no `gcrd.request`, so the last one is the
    // verify's.
    let events = sink.events();
    let (start, end) = events
        .iter()
        .rev()
        .find_map(|e| match e {
            TraceEvent::Complete {
                name: "gcrd.request",
                start_ns,
                dur_ns,
                ..
            } => Some((*start_ns, start_ns + dur_ns)),
            _ => None,
        })
        .expect("gcrd.request span");
    let inside = |name: &str| {
        events.iter().any(|e| match e {
            TraceEvent::Complete {
                name: n, start_ns, ..
            } => *n == name && (start..=end).contains(start_ns),
            TraceEvent::Begin { name: n, ts_ns } => *n == name && (start..=end).contains(ts_ns),
            _ => false,
        })
    };
    for name in ["gcrd.cache", "gcrd.respond", "verify.run"] {
        assert!(inside(name), "no {name} inside the verify's gcrd.request");
    }
}
