//! `gcrd-smoke` — the service acceptance gate CI runs in release mode.
//!
//! 1. Computes a single-shot, cold-scratch, single-threaded reference
//!    routing for every published benchmark (r1–r5) — the CLI-
//!    equivalent flow.
//! 2. Starts an in-process daemon on an ephemeral port and fires a
//!    mixed batch (`route` with decision logs, `evaluate`, `eco`,
//!    `verify`) from 10 concurrent client connections.
//! 3. Asserts every response is `ok`, every decision log and
//!    Equation-3 total is **bit-identical** to the reference, every
//!    ECO replay is pure, the cache actually served hits, and each
//!    design was routed exactly once.
//! 4. Runs a second tiny daemon (one worker, queue of one) and asserts
//!    backpressure rejects with a `retry_after_ms` hint, then that
//!    `shutdown` drains in-flight work before answering.
//!
//! Exits nonzero on any mismatch — wire this binary directly into CI.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::thread;
use std::time::Duration;

use gcr_trace::json::{self, Json};
use gcr_trace::Tracer;
use gcr_workloads::TsayBenchmark;
use gcrd::engine::{single_shot_reference, RoutingEntry};
use gcrd::{DesignKey, Service, ServiceConfig};

const STREAM_LEN: usize = 2_000;
const SEED: u64 = 1_998;
const CLIENTS: usize = 10;

fn fail(msg: &str) -> ExitCode {
    eprintln!("gcrd-smoke: FAIL: {msg}");
    ExitCode::FAILURE
}

/// Sends `requests` on one connection and returns one parsed response
/// per request (completion order).
fn send_batch(addr: &str, requests: &[String]) -> Result<Vec<Json>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    for r in requests {
        stream
            .write_all(format!("{r}\n").as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
    }
    stream.flush().map_err(|e| format!("flush failed: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(requests.len());
    for _ in 0..requests.len() {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Err("connection closed early".to_owned()),
            Ok(_) => {}
            Err(e) => return Err(format!("read failed: {e}")),
        }
        responses.push(json::parse(line.trim()).map_err(|e| format!("bad response JSON: {e}"))?);
    }
    Ok(responses)
}

fn str_field(j: &Json, key: &str) -> String {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_owned()
}

fn check_client(
    addr: &str,
    idx: usize,
    refs: &[(TsayBenchmark, RoutingEntry)],
) -> Result<(), String> {
    let mut requests = Vec::new();
    for (bench, _) in refs {
        let name = bench.name();
        requests.push(format!(
            "{{\"id\":\"c{idx}-route-{name}\",\"cmd\":\"route\",\"benchmark\":\"{name}\",\
             \"stream_len\":{STREAM_LEN},\"seed\":{SEED},\"log\":true}}"
        ));
        requests.push(format!(
            "{{\"id\":\"c{idx}-eval-{name}\",\"cmd\":\"evaluate\",\"benchmark\":\"{name}\",\
             \"stream_len\":{STREAM_LEN},\"seed\":{SEED}}}"
        ));
        if idx == 0 {
            requests.push(format!(
                "{{\"id\":\"c{idx}-verify-{name}\",\"cmd\":\"verify\",\"benchmark\":\"{name}\",\
                 \"stream_len\":{STREAM_LEN},\"seed\":{SEED}}}"
            ));
        }
    }
    requests.push(format!(
        "{{\"id\":\"c{idx}-eco-r1\",\"cmd\":\"eco\",\"benchmark\":\"r1\",\
         \"stream_len\":{STREAM_LEN},\"seed\":{SEED},\
         \"edits\":[{{\"op\":\"swap_activity\",\"module\":0}}]}}"
    ));
    let responses = send_batch(addr, &requests)?;
    for resp in &responses {
        let id = str_field(resp, "id");
        let status = str_field(resp, "status");
        if status != "ok" {
            return Err(format!(
                "{id}: status {status:?} ({})",
                str_field(resp, "error")
            ));
        }
        if id.contains("-route-") || id.contains("-eval-") {
            let name = id.rsplit('-').next().unwrap_or_default();
            let Some((_, reference)) = refs.iter().find(|(b, _)| b.name() == name) else {
                return Err(format!("{id}: unknown benchmark in id"));
            };
            let expect_hash = format!("{:016x}", reference.log_hash);
            if str_field(resp, "log_hash") != expect_hash {
                return Err(format!("{id}: log_hash differs from single-shot reference"));
            }
            let total = resp.get("total_switched_cap").and_then(Json::as_f64);
            if total != Some(reference.report.total_switched_cap) {
                return Err(format!(
                    "{id}: total_switched_cap {total:?} != reference {} (bit-exact required)",
                    reference.report.total_switched_cap
                ));
            }
            if id.contains("-route-") && str_field(resp, "decision_log") != *reference.log {
                return Err(format!("{id}: decision log differs from reference"));
            }
        }
        if id.contains("-verify-") {
            let errors = resp.get("verify_errors").and_then(Json::as_f64);
            if errors != Some(0.0) {
                return Err(format!("{id}: verifier reported {errors:?} errors"));
            }
        }
        if id.contains("-eco-") && resp.get("pure_replay").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{id}: activity-swap ECO was not a pure replay"));
        }
    }
    Ok(())
}

fn backpressure_and_drain_check() -> Result<(), String> {
    let config = ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        debug_commands: true,
        ..ServiceConfig::default()
    };
    let service = Service::bind("127.0.0.1:0", config, Tracer::disabled())
        .map_err(|e| format!("bind failed: {e}"))?;
    let addr = service
        .local_addr()
        .map_err(|e| format!("local_addr failed: {e}"))?
        .to_string();
    let daemon = thread::spawn(move || service.run());

    // Six instant sleeps at a one-slot queue: some must be rejected
    // with the backpressure hint.
    let requests: Vec<String> = (0..6)
        .map(|i| format!("{{\"id\":\"bp{i}\",\"cmd\":\"sleep\",\"sleep_ms\":200}}"))
        .collect();
    let responses = send_batch(&addr, &requests)?;
    let rejected = responses
        .iter()
        .filter(|r| str_field(r, "status") == "rejected")
        .count();
    if rejected == 0 {
        return Err("no backpressure rejection at workers=1, queue=1".to_owned());
    }
    if !responses.iter().any(|r| {
        str_field(r, "status") == "rejected"
            && r.get("retry_after_ms").and_then(Json::as_f64).is_some()
    }) {
        return Err("rejected response missing retry_after_ms hint".to_owned());
    }
    let bp_shutdown = send_batch(&addr, &[r#"{"id":"sd0","cmd":"shutdown"}"#.to_owned()])?;
    if str_field(&bp_shutdown[0], "status") != "ok" {
        return Err("backpressure daemon shutdown not acknowledged".to_owned());
    }
    daemon
        .join()
        .map_err(|_| "backpressure daemon thread panicked".to_owned())?;

    // Drain, on a fresh daemon whose queue holds the burst: put one
    // sleep in flight and one in queue, then shut down from a second
    // connection. Both sleeps must be answered `ok` before the
    // shutdown response arrives.
    let config = ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        debug_commands: true,
        ..ServiceConfig::default()
    };
    let service = Service::bind("127.0.0.1:0", config, Tracer::disabled())
        .map_err(|e| format!("bind failed: {e}"))?;
    let addr = service
        .local_addr()
        .map_err(|e| format!("local_addr failed: {e}"))?
        .to_string();
    let daemon = thread::spawn(move || service.run());
    let mut busy = TcpStream::connect(&addr).map_err(|e| format!("connect failed: {e}"))?;
    busy.write_all(
        b"{\"id\":\"d0\",\"cmd\":\"sleep\",\"sleep_ms\":300}\n\
          {\"id\":\"d1\",\"cmd\":\"sleep\",\"sleep_ms\":300}\n",
    )
    .map_err(|e| format!("send failed: {e}"))?;
    busy.flush().map_err(|e| format!("flush failed: {e}"))?;
    thread::sleep(Duration::from_millis(50));
    let shutdown = send_batch(&addr, &[r#"{"id":"sd","cmd":"shutdown"}"#.to_owned()])?;
    if str_field(&shutdown[0], "status") != "ok" {
        return Err("shutdown not acknowledged".to_owned());
    }
    let mut reader = BufReader::new(busy);
    for _ in 0..2 {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read failed: {e}"))?;
        let resp = json::parse(line.trim()).map_err(|e| format!("bad JSON: {e}"))?;
        if str_field(&resp, "status") != "ok" {
            return Err(format!(
                "in-flight request {} not drained before shutdown",
                str_field(&resp, "id")
            ));
        }
    }
    daemon
        .join()
        .map_err(|_| "daemon thread panicked".to_owned())?;
    Ok(())
}

fn main() -> ExitCode {
    // Phase 1: single-shot references (the CLI-equivalent flow).
    let mut refs = Vec::new();
    for bench in TsayBenchmark::ALL {
        let key = DesignKey {
            benchmark: bench,
            stream_len: STREAM_LEN,
            seed: SEED,
        };
        match single_shot_reference(key) {
            Ok((_, routing)) => refs.push((bench, routing)),
            Err(e) => return fail(&format!("reference {} failed: {e}", bench.name())),
        }
    }
    println!("gcrd-smoke: {} single-shot references computed", refs.len());

    // Phase 2: concurrent mixed batch against a live daemon. The queue
    // must hold the whole burst (10 clients × ~11 requests) — the
    // backpressure path is phase 4's deliberately tiny daemon.
    let config = ServiceConfig {
        queue_capacity: 256,
        ..ServiceConfig::default()
    };
    let service = match Service::bind("127.0.0.1:0", config, Tracer::disabled()) {
        Ok(s) => s,
        Err(e) => return fail(&format!("bind failed: {e}")),
    };
    let addr = match service.local_addr() {
        Ok(a) => a.to_string(),
        Err(e) => return fail(&format!("local_addr failed: {e}")),
    };
    let daemon = thread::spawn(move || service.run());
    let results: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|idx| {
                let addr = addr.clone();
                let refs = &refs;
                scope.spawn(move || check_client(&addr, idx, refs))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_owned()))
            })
            .collect()
    });
    for (idx, result) in results.iter().enumerate() {
        if let Err(e) = result {
            return fail(&format!("client {idx}: {e}"));
        }
    }

    // Phase 3: the cache must have served real hits and routed each
    // design once, then a clean shutdown must drain and stop the daemon.
    let control = send_batch(
        &addr,
        &[
            r#"{"id":"st","cmd":"stats"}"#.to_owned(),
            r#"{"id":"sd","cmd":"shutdown"}"#.to_owned(),
        ],
    );
    match control {
        Ok(responses) => {
            let stats = &responses[0];
            let hits = stats
                .get("stats")
                .and_then(|s| s.get("hits"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let misses = stats
                .get("stats")
                .and_then(|s| s.get("misses"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            if misses != 5.0 {
                return fail(&format!(
                    "expected 5 cache misses (one per design), saw {misses}"
                ));
            }
            if hits < 10.0 {
                return fail(&format!(
                    "expected ≥10 cache hits across clients, saw {hits}"
                ));
            }
            if str_field(&responses[1], "status") != "ok" {
                return fail("shutdown not acknowledged");
            }
            println!("gcrd-smoke: cache hits={hits} misses={misses}");
        }
        Err(e) => return fail(&format!("stats/shutdown failed: {e}")),
    }
    if daemon.join().is_err() {
        return fail("daemon thread panicked");
    }

    // Phase 4: backpressure + drain on a deliberately tiny daemon.
    if let Err(e) = backpressure_and_drain_check() {
        return fail(&e);
    }
    println!("gcrd-smoke: PASS (bit-identity, cache, backpressure, drain)");
    ExitCode::SUCCESS
}
