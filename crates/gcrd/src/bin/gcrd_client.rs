//! `gcrd-client` — batch driver and control client for a running
//! `gcrd` daemon.
//!
//! ```text
//! gcrd-client [--addr 127.0.0.1:4517] send requests.jsonl
//! gcrd-client [--addr ...] ping | stats | shutdown
//! ```
//!
//! `send` streams every non-empty line of the file to the daemon on one
//! connection, then reads exactly one response line per request and
//! prints them to stdout (completion order; correlate by `id`). The
//! exit code is nonzero if any response has `status` other than `ok` —
//! so a requests file doubles as a batch acceptance check.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;

use gcr_trace::json::{self, Json};

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:4517".to_owned();
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--addr" {
            match args.next() {
                Some(a) => addr = a,
                None => {
                    eprintln!("gcrd-client: --addr needs a value");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            rest.push(arg);
        }
    }
    match rest.first().map(String::as_str) {
        Some("send") => {
            let Some(path) = rest.get(1) else {
                eprintln!("gcrd-client: send needs a .jsonl file");
                return ExitCode::FAILURE;
            };
            send_file(&addr, path)
        }
        Some(cmd @ ("ping" | "stats" | "shutdown")) => {
            one_shot(&addr, &format!("{{\"id\":\"cli\",\"cmd\":\"{cmd}\"}}"))
        }
        _ => {
            eprintln!("usage: gcrd-client [--addr HOST:PORT] send FILE | ping | stats | shutdown");
            ExitCode::FAILURE
        }
    }
}

fn connect(addr: &str) -> Result<TcpStream, ExitCode> {
    TcpStream::connect(addr).map_err(|e| {
        eprintln!("gcrd-client: connect {addr} failed: {e}");
        ExitCode::FAILURE
    })
}

fn send_file(addr: &str, path: &str) -> ExitCode {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gcrd-client: reading {path:?} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let requests: Vec<&str> = content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut stream = match connect(addr) {
        Ok(s) => s,
        Err(code) => return code,
    };
    for line in &requests {
        if stream
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| stream.flush())
            .is_err()
        {
            eprintln!("gcrd-client: send failed");
            return ExitCode::FAILURE;
        }
    }
    let mut reader = BufReader::new(stream);
    let mut failures = 0_usize;
    for _ in 0..requests.len() {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {
                eprintln!("gcrd-client: connection closed before all responses arrived");
                return ExitCode::FAILURE;
            }
            Ok(_) => {}
        }
        let line = line.trim();
        println!("{line}");
        let ok = json::parse(line)
            .ok()
            .and_then(|j| j.get("status").and_then(Json::as_str).map(str::to_owned))
            .is_some_and(|s| s == "ok");
        if !ok {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("gcrd-client: {failures}/{} requests not ok", requests.len());
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn one_shot(addr: &str, request: &str) -> ExitCode {
    let mut stream = match connect(addr) {
        Ok(s) => s,
        Err(code) => return code,
    };
    if stream
        .write_all(format!("{request}\n").as_bytes())
        .and_then(|()| stream.flush())
        .is_err()
    {
        eprintln!("gcrd-client: send failed");
        return ExitCode::FAILURE;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => {
            println!("{}", line.trim());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("gcrd-client: no response");
            ExitCode::FAILURE
        }
    }
}
