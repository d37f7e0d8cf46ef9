//! The `gcrd` daemon binary.
//!
//! ```text
//! gcrd [--addr 127.0.0.1:4517] [--workers N] [--queue N]
//!      [--threads N] [--cache N] [--stream-len N] [--seed N]
//!      [--retry-after-ms N] [--trace PATH] [--debug-commands]
//! ```
//!
//! Binds the address, prints `listening on <addr>` to stdout (so a
//! supervisor or test harness can scrape the ephemeral port from
//! `--addr 127.0.0.1:0`), and serves until a `shutdown` request drains.
//! With `--trace PATH` a Chrome-trace timeline of every request span
//! and counter is written on exit; warnings (e.g. an unparsable
//! `GCR_THREADS` at startup) are echoed to stderr either way.
//!
//! The engine thread count is resolved once at startup — `--threads`
//! wins, then `GCR_THREADS`, then available parallelism — and pinned
//! for the daemon's lifetime.

use std::process::ExitCode;
use std::sync::Arc;

use gcr_trace::{ChromeTraceSink, EchoWarnSink, NullSink, Tracer};
use gcrd::{Service, ServiceConfig};

struct Cli {
    addr: String,
    config: ServiceConfig,
    trace_path: Option<String>,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        addr: "127.0.0.1:4517".to_owned(),
        config: ServiceConfig::default(),
        trace_path: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => cli.addr = value("--addr")?,
            "--workers" => cli.config.workers = parse_num(&value("--workers")?)?,
            "--queue" => cli.config.queue_capacity = parse_num(&value("--queue")?)?,
            "--threads" => cli.config.threads = Some(parse_num(&value("--threads")?)?),
            "--cache" => cli.config.cache = parse_num(&value("--cache")?)?,
            "--stream-len" => cli.config.default_stream_len = parse_num(&value("--stream-len")?)?,
            "--seed" => cli.config.default_seed = parse_num::<u64>(&value("--seed")?)?,
            "--retry-after-ms" => {
                cli.config.retry_after_ms = parse_num::<u64>(&value("--retry-after-ms")?)?;
            }
            "--trace" => cli.trace_path = Some(value("--trace")?),
            "--debug-commands" => cli.config.debug_commands = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("gcrd: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let chrome = cli
        .trace_path
        .as_ref()
        .map(|_| Arc::new(ChromeTraceSink::new()));
    let tracer = match &chrome {
        Some(sink) => Tracer::new(Arc::new(EchoWarnSink::new(Arc::clone(sink) as _))),
        None => Tracer::new(Arc::new(EchoWarnSink::new(Arc::new(NullSink)))),
    };
    let service = match Service::bind(cli.addr.as_str(), cli.config, tracer) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gcrd: bind {} failed: {e}", cli.addr);
            return ExitCode::FAILURE;
        }
    };
    match service.local_addr() {
        Ok(addr) => println!("listening on {addr}"),
        Err(e) => {
            eprintln!("gcrd: local_addr failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    service.run();
    if let (Some(path), Some(sink)) = (cli.trace_path, chrome) {
        if let Err(e) = sink.write_to(&path) {
            eprintln!("gcrd: writing trace {path:?} failed: {e}");
            return ExitCode::FAILURE;
        }
        println!("trace written to {path}");
    }
    ExitCode::SUCCESS
}
