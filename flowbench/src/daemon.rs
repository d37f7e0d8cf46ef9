//! The `gcrd` workloads: `gcrd-read` and `gcrd-write`.
//!
//! The benchmark spawns the release `gcrd` binary built next to it and
//! drives it over TCP as a closed loop: each connection sends its next
//! request only after the previous reply arrived. Requests carry their
//! design seeds on the wire. Replies are parsed with `gcr_bench::json`
//! and checked after the timed windows against an in-process reference
//! built from the same layer calls at one thread with a cold scratch.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gcr_bench::json::{self, Json};
use gcr_core::{evaluate, DeviceRole, GatedObjective, RouterConfig};
use gcr_cts::{
    canonical_decision_log, embed_sized, run_greedy_with_scratch, DeviceAssignment, EcoEdit,
    GreedyParams, GreedyScratch, SizingLimits,
};
use gcr_rctree::Technology;
use gcr_workloads::{
    generate_eco_stream, Benchmark, EcoStreamParams, TsayBenchmark, Workload, WorkloadParams,
};

use crate::cli::Workload as Kind;
use crate::harness::{cold_passes, median, peak_rss_mb, span_metrics, Outcome, PASSES};
use crate::rng::{SplitMix64, Zipf};
use crate::spans::{check_trace, Span, Track};

/// What one request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReqKind {
    /// `route`.
    Route,
    /// `route` with `"log": true`: the reply carries the decision log.
    RouteLog,
    /// `route` with `"force": true`: bypasses the routing-cache read.
    RouteForce,
    /// `evaluate`.
    Evaluate,
    /// `verify`: the full lint suite.
    Verify,
    /// `eco`: an incremental re-route under an edit batch.
    Eco,
}

/// One pool design: what the wire names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PoolDesign {
    /// Benchmark.
    benchmark: TsayBenchmark,
    /// Workload seed.
    seed: u64,
}

/// The traffic of one daemon workload.
#[derive(Debug)]
pub(crate) struct Mix {
    write: bool,
    stream_len: usize,
    pool: Vec<PoolDesign>,
    popularity: Zipf,
    odd_popularity: Zipf,
    /// ECO batches per odd design and batch size: `eco[k][size - 1]`
    /// holds batches against design `2k + 1`.
    eco: Vec<Vec<Vec<Vec<EcoEdit>>>>,
}

/// ECO batches pre-generated per (design, batch size).
const ECO_BATCHES: usize = 16;

/// Largest ECO batch.
const ECO_MAX_EDITS: usize = 4;

/// `gcrd-write` polls `stats` on connection 0 once per this many requests.
const STATS_EVERY: usize = 100;

impl Mix {
    /// The traffic of `kind` seeded by `seed`.
    ///
    /// `gcrd-read`: 8 designs (r1–r4 × 2 seeds), uniform; 60 % `route`
    /// (1 in 10 with the log), 30 % `evaluate`, 10 % `verify`.
    ///
    /// `gcrd-write`: 48 designs (r1–r3 × 16 seeds), Zipf(1) by index —
    /// more than the daemon's 32 routing and 16 design cache entries;
    /// 35 % `route`, 15 % forced `route`, 30 % `eco`, 10 % `evaluate`,
    /// 10 % `verify`. ECO batches of 1–4 moves and activity swaps target
    /// the odd-indexed half of the pool only.
    #[must_use]
    pub(crate) fn new(kind: Kind, seed: u64, smoke: bool) -> Self {
        let write = kind == Kind::GcrdWrite;
        let (benchmarks, per_benchmark): (&[TsayBenchmark], usize) = match (write, smoke) {
            (_, true) => (&[TsayBenchmark::R1], 4),
            (false, false) => (
                &[
                    TsayBenchmark::R1,
                    TsayBenchmark::R2,
                    TsayBenchmark::R3,
                    TsayBenchmark::R4,
                ],
                2,
            ),
            (true, false) => (
                &[TsayBenchmark::R1, TsayBenchmark::R2, TsayBenchmark::R3],
                16,
            ),
        };
        let pool: Vec<PoolDesign> = (0..benchmarks.len() * per_benchmark)
            .map(|d| PoolDesign {
                benchmark: benchmarks[d % benchmarks.len()],
                seed: seed.wrapping_add(d as u64),
            })
            .collect();
        let stream_len = if smoke {
            2_000
        } else {
            WorkloadParams::default().stream_len
        };
        let groups = WorkloadParams::default().groups;
        let eco = if write {
            pool.iter()
                .skip(1)
                .step_by(2)
                .map(|d| {
                    let bench = Benchmark::tsay_clustered(d.benchmark, d.seed, groups);
                    let modules = Workload::num_modules_for(bench.sinks.len());
                    (1..=ECO_MAX_EDITS)
                        .map(|size| {
                            let params = EcoStreamParams {
                                batches: ECO_BATCHES,
                                batch_size: size,
                                move_weight: 6,
                                add_weight: 0,
                                remove_weight: 0,
                                swap_weight: 4,
                                seed: d.seed,
                            };
                            generate_eco_stream(&bench.sinks, bench.die, modules, &params)
                        })
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            write,
            stream_len,
            popularity: Zipf::new(pool.len()),
            odd_popularity: Zipf::new((pool.len() / 2).max(1)),
            pool,
            eco,
        }
    }

    /// Whether replies about design `d` can be checked against the
    /// reference: designs ECO requests never touch.
    #[must_use]
    pub(crate) fn checkable(&self, d: usize) -> bool {
        !self.write || d.is_multiple_of(2)
    }

    /// Draws the next request: `(kind, design, edits)`.
    pub(crate) fn next(&self, rng: &mut SplitMix64) -> (ReqKind, usize, &[EcoEdit]) {
        let roll = rng.below(100);
        if !self.write {
            let design = rng.below(self.pool.len());
            let kind = match roll {
                0..=59 if rng.below(10) == 0 => ReqKind::RouteLog,
                0..=59 => ReqKind::Route,
                60..=89 => ReqKind::Evaluate,
                _ => ReqKind::Verify,
            };
            return (kind, design, &[]);
        }
        let kind = match roll {
            0..=34 => ReqKind::Route,
            35..=49 => ReqKind::RouteForce,
            50..=79 => ReqKind::Eco,
            80..=89 => ReqKind::Evaluate,
            _ => ReqKind::Verify,
        };
        if kind == ReqKind::Eco && !self.eco.is_empty() {
            let k = self.odd_popularity.sample(rng).min(self.eco.len() - 1);
            let size = rng.below(ECO_MAX_EDITS);
            let batches = &self.eco[k][size];
            let batch = &batches[rng.below(batches.len())];
            return (kind, 2 * k + 1, batch);
        }
        (kind, self.popularity.sample(rng), &[])
    }

    /// The request line for `kind` on design `d`.
    #[must_use]
    pub(crate) fn request_line(
        &self,
        id: &str,
        kind: ReqKind,
        d: usize,
        edits: &[EcoEdit],
    ) -> String {
        let design = self.pool[d];
        let cmd = match kind {
            ReqKind::Route | ReqKind::RouteLog | ReqKind::RouteForce => "route",
            ReqKind::Evaluate => "evaluate",
            ReqKind::Verify => "verify",
            ReqKind::Eco => "eco",
        };
        let mut line = format!(
            "{{\"id\":\"{id}\",\"cmd\":\"{cmd}\",\"benchmark\":\"{}\",\"stream_len\":{},\"seed\":{}",
            design.benchmark.name(),
            self.stream_len,
            design.seed
        );
        match kind {
            ReqKind::RouteLog => line.push_str(",\"log\":true"),
            ReqKind::RouteForce => line.push_str(",\"force\":true"),
            ReqKind::Eco => {
                let edits: Vec<String> = edits.iter().map(edit_json).collect();
                line.push_str(&format!(",\"edits\":[{}]", edits.join(",")));
            }
            _ => {}
        }
        line.push('}');
        line
    }
}

fn edit_json(edit: &EcoEdit) -> String {
    match edit {
        EcoEdit::MoveSink { index, to } => format!(
            "{{\"op\":\"move_sink\",\"index\":{index},\"x\":{:?},\"y\":{:?}}}",
            to.x, to.y
        ),
        EcoEdit::SwapActivity { module } => {
            format!("{{\"op\":\"swap_activity\",\"module\":{module}}}")
        }
        EcoEdit::AddSink { sink, module } => format!(
            "{{\"op\":\"add_sink\",\"x\":{:?},\"y\":{:?},\"load\":{:?},\"module\":{module}}}",
            sink.location().x,
            sink.location().y,
            sink.cap()
        ),
        EcoEdit::RemoveSink { index } => {
            format!("{{\"op\":\"remove_sink\",\"index\":{index}}}")
        }
    }
}

/// The fields of a reply the benchmark checks and measures.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Reply {
    /// `ok`, `error` or `rejected`.
    status: String,
    /// `hit` / `miss`, on routing replies.
    cache: Option<String>,
    /// Decision-log digest.
    log_hash: Option<u64>,
    /// Whether the returned decision log hashes to `log_hash`, when the
    /// reply carried a log.
    log_matches: Option<bool>,
    /// Equation-3 `W`.
    w: Option<f64>,
    /// Verifier errors.
    verify_errors: Option<u64>,
    /// ECO pure-replay flag.
    pure_replay: Option<bool>,
    /// Error message, on `error` / `rejected` replies.
    error: Option<String>,
}

/// Parses one reply line.
///
/// # Errors
///
/// Returns a message for malformed JSON or a malformed `log_hash`.
pub(crate) fn parse_reply(line: &str) -> Result<Reply, String> {
    let (rest, log_digest) = take_decision_log(line)?;
    let v = json::parse(&rest).map_err(|e| format!("malformed reply: {e}"))?;
    let text = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_owned);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let count = |k: &str| v.get(k).and_then(Json::as_f64).map(|f| f as u64);
    let log_hash = text("log_hash")
        .map(|h| u64::from_str_radix(&h, 16).map_err(|_| format!("malformed log_hash {h:?}")))
        .transpose()?;
    let log_matches = log_digest.map(|digest| Some(digest) == log_hash);
    Ok(Reply {
        status: text("status").unwrap_or_default(),
        cache: text("cache"),
        log_hash,
        log_matches,
        w: v.get("total_switched_cap").and_then(Json::as_f64),
        verify_errors: count("verify_errors"),
        pure_replay: v.get("pure_replay").and_then(Json::as_bool),
        error: text("error"),
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_step(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV-1a, the digest the daemon publishes as `log_hash`.
#[must_use]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv1a_step(h, b))
}

/// Cuts the `decision_log` string out of a reply line and digests its
/// unescaped text in one pass. `gcr_bench::json` rescans the remaining
/// input for every character of a string, which makes a log of O(sinks)
/// lines cost tens of milliseconds of client time; the rest of the reply
/// is small.
fn take_decision_log(line: &str) -> Result<(String, Option<u64>), String> {
    const KEY: &str = ",\"decision_log\":\"";
    let Some(at) = line.find(KEY) else {
        return Ok((line.to_owned(), None));
    };
    let bytes = line.as_bytes();
    let mut i = at + KEY.len();
    let mut h = FNV_OFFSET;
    loop {
        match *bytes.get(i).ok_or("unterminated decision_log")? {
            b'"' => break,
            b'\\' => {
                let unescaped = match *bytes.get(i + 1).ok_or("unterminated escape")? {
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'u' => {
                        let hex = line.get(i + 2..i + 6).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        i += 4;
                        char::from_u32(code).unwrap_or('\u{fffd}')
                    }
                    other => char::from(other),
                };
                let mut buf = [0u8; 4];
                for &b in unescaped.encode_utf8(&mut buf).as_bytes() {
                    h = fnv1a_step(h, b);
                }
                i += 2;
            }
            b => {
                h = fnv1a_step(h, b);
                i += 1;
            }
        }
    }
    Ok((format!("{}{}", &line[..at], &line[i + 1..]), Some(h)))
}

/// Reference outcome of one pool design.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Expect {
    /// FNV-1a of the canonical decision log.
    log_hash: u64,
    /// Equation-3 `W` of the fully gated tree.
    w: f64,
    /// `Σ C_sink · P(EN_sink)`.
    ideal: f64,
}

/// Checks one reply. `expect` is the reference for routing replies on a
/// design that was never edited.
///
/// # Errors
///
/// Names the mismatch: a status other than `ok`, a digest or `W` that
/// differs from the reference, a log that does not hash to its digest,
/// verifier errors, or a missing field.
pub(crate) fn check_reply(
    kind: ReqKind,
    reply: &Reply,
    expect: Option<&Expect>,
) -> Result<(), String> {
    if reply.status != "ok" {
        return Err(format!(
            "status {:?}: {}",
            reply.status,
            reply.error.as_deref().unwrap_or("")
        ));
    }
    let w = reply.w.ok_or("reply has no total_switched_cap")?;
    if !w.is_finite() {
        return Err(format!("W {w} is not finite"));
    }
    if kind == ReqKind::Eco {
        return Ok(());
    }
    let hash = reply.log_hash.ok_or("reply has no log_hash")?;
    if let Some(e) = expect {
        if hash != e.log_hash {
            return Err(format!(
                "log_hash {hash:016x} differs from the reference {:016x}",
                e.log_hash
            ));
        }
        if w.to_bits() != e.w.to_bits() {
            return Err(format!("W {w} differs from the reference {}", e.w));
        }
    }
    if kind == ReqKind::RouteLog && reply.log_matches != Some(true) {
        return Err("decision log missing or not matching its log_hash".to_owned());
    }
    if kind == ReqKind::Verify && reply.verify_errors != Some(0) {
        return Err(format!("verify reported {:?} errors", reply.verify_errors));
    }
    Ok(())
}

/// The reference for one pool design: the daemon's flow rebuilt from
/// layer calls at one thread with a cold scratch.
///
/// # Errors
///
/// Returns a message when generation or routing fails.
pub(crate) fn reference(design: PoolDesign, stream_len: usize) -> Result<Expect, String> {
    let params = WorkloadParams::smoke()
        .with_stream_len(stream_len)
        .with_seed(design.seed);
    let workload = Workload::generate(design.benchmark, &params)
        .map_err(|e| format!("reference generation failed: {e}"))?;
    let sinks = &workload.benchmark.sinks;
    let module_of = workload.module_of();
    let config = RouterConfig::new(Technology::default(), workload.benchmark.die);
    let tech = config.tech();
    let mut objective = GatedObjective::new(
        tech,
        config.controller(),
        &workload.tables,
        sinks,
        &module_of,
    );
    let mut scratch = GreedyScratch::new();
    let params = GreedyParams {
        threads: Some(1),
        log_decisions: true,
    };
    let (topology, _, _) =
        run_greedy_with_scratch(sinks.len(), &mut objective, &params, &mut scratch)
            .map_err(|e| format!("reference route failed: {e}"))?;
    let log = canonical_decision_log(scratch.decisions());
    let assignment = DeviceAssignment::everywhere(&topology, tech.and_gate());
    let tree = embed_sized(
        &topology,
        sinks,
        tech,
        &assignment,
        config.source(),
        SizingLimits::default(),
    )
    .map_err(|e| format!("reference embedding failed: {e}"))?;
    let node_stats = objective.node_stats();
    let w = evaluate(
        &tree,
        &node_stats,
        config.controller(),
        tech,
        DeviceRole::Gate,
    )
    .total_switched_cap;
    let ideal = sinks
        .iter()
        .zip(&node_stats)
        .map(|(s, st)| s.cap() * st.signal)
        .sum();
    Ok(Expect {
        log_hash: fnv1a(log.as_bytes()),
        w,
        ideal,
    })
}

/// One client connection: newline-delimited JSON, one reply per request.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(60))))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".to_owned()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn stats(&mut self) -> Result<Stats, String> {
        let reply = self.call("{\"id\":\"stats\",\"cmd\":\"stats\"}")?;
        let v = json::parse(&reply).map_err(|e| format!("malformed stats reply: {e}"))?;
        let s = v.get("stats").ok_or("stats reply without stats")?;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let field = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        Ok(Stats {
            hits: field("hits"),
            misses: field("misses"),
            rejected: field("rejected"),
            panics: field("panics"),
            queue_depth: field("queue_depth"),
        })
    }
}

/// The `stats` counters the benchmark reads.
#[derive(Clone, Copy, Debug, Default)]
struct Stats {
    hits: u64,
    misses: u64,
    rejected: u64,
    panics: u64,
    queue_depth: u64,
}

/// A spawned daemon, stopped and waited for on drop.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(exe: &Path, stream_len: usize) -> Result<Self, String> {
        let mut child = Command::new(exe)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--threads", "1"])
            .args(["--stream-len", &stream_len.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Some(Ok(_)), Some(addr)) => Ok(Self { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("gcrd did not report its address (got {line:?})"))
            }
        }
    }

    /// Asks for a graceful shutdown, then kills the daemon if it has not
    /// exited within ten seconds, and reaps it.
    fn stop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            if let Ok(mut conn) = Conn::connect(self.addr) {
                let _ = conn.call("{\"id\":\"bye\",\"cmd\":\"shutdown\"}");
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while let Ok(None) = self.child.try_wait() {
                if Instant::now() > deadline {
                    let _ = self.child.kill();
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One timed request.
struct Sample {
    kind: ReqKind,
    design: usize,
    ms: f64,
    reply: Result<Reply, String>,
}

/// What one connection saw in a pass.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    queue_depth_max: u64,
    error: Option<String>,
}

/// When a connection's pass ends.
#[derive(Clone, Copy, Debug)]
enum Limit {
    /// At this instant (the first pass).
    Until(Instant),
    /// After this many requests (replays of the first pass).
    Count(usize),
}

/// Closed-loop client on connection `id`. Its request sequence depends
/// only on `seed` and `id`, so every pass replays the same traffic.
fn client(
    id: u32,
    conn: &mut Conn,
    mix: &Mix,
    seed: u64,
    limit: Limit,
    track: &mut Track,
) -> ClientLog {
    let mut rng = SplitMix64::new(seed ^ (u64::from(id) + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut log = ClientLog::default();
    let mut n = 0u64;
    loop {
        let done = match limit {
            Limit::Until(deadline) => Instant::now() >= deadline,
            Limit::Count(count) => log.samples.len() >= count,
        };
        if done {
            break;
        }
        n += 1;
        let (kind, design, edits) = mix.next(&mut rng);
        let result = track.op(n, |t| {
            let line = mix.request_line(&format!("c{id}-{n}"), kind, design, edits);
            let start = Instant::now();
            let raw = t.span("gcrd.request", |_| conn.call(&line));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            raw.map(|raw| (ms, parse_reply(&raw)))
        });
        match result {
            Ok((ms, reply)) => log.samples.push(Sample {
                kind,
                design,
                ms,
                reply,
            }),
            Err(e) => {
                log.error = Some(e);
                break;
            }
        }
        // The poll is not a timed request.
        if id == 0 && mix.write && log.samples.len() % STATS_EVERY == 0 {
            match conn.stats() {
                Ok(s) => log.queue_depth_max = log.queue_depth_max.max(s.queue_depth),
                Err(e) => {
                    log.error = Some(e);
                    break;
                }
            }
        }
    }
    log
}

/// One closed-loop pass over all connections, connection `c` stopping at
/// `limits[c]`. Returns the logs and the pass's wall time in seconds.
fn pass(
    conns: &mut [Conn],
    mix: &Mix,
    seed: u64,
    limits: &[Limit],
    tracks: &mut [Track],
) -> (Vec<ClientLog>, f64) {
    let start = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(tracks.iter_mut())
            .zip(limits)
            .zip(0u32..)
            .map(|(((conn, track), &limit), id)| {
                scope.spawn(move || client(id, conn, mix, seed, limit, track))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientLog {
                    error: Some("client thread panicked".to_owned()),
                    ..ClientLog::default()
                })
            })
            .collect()
    });
    (logs, start.elapsed().as_secs_f64())
}

/// Mean request latency over `logs`, in ms.
fn mean_ms(logs: &[ClientLog]) -> f64 {
    let (sum, n) = logs
        .iter()
        .flat_map(|l| &l.samples)
        .fold((0.0, 0usize), |(s, n), x| (s + x.ms, n + 1));
    sum / n.max(1) as f64
}

/// Routes every pool design once, split over the connections; returns
/// each design's reply.
fn warm_up(conns: &mut [Conn], mix: &Mix) -> Result<Vec<Reply>, String> {
    let per_conn: Vec<Vec<(usize, Result<Reply, String>)>> = std::thread::scope(|scope| {
        let stride = conns.len();
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    (c..mix.pool.len())
                        .step_by(stride)
                        .map(|d| {
                            let line =
                                mix.request_line(&format!("warm-{d}"), ReqKind::Route, d, &[]);
                            (d, conn.call(&line).and_then(|r| parse_reply(&r)))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut replies = vec![None; mix.pool.len()];
    for (d, reply) in per_conn.into_iter().flatten() {
        replies[d] = Some(reply?);
    }
    replies
        .into_iter()
        .enumerate()
        .map(|(d, r)| r.ok_or_else(|| format!("warm-up never routed design {d}")))
        .collect()
}

/// Runs one daemon workload against the `gcrd` binary `exe`.
///
/// # Errors
///
/// Returns a message when the daemon cannot be started or reached.
pub fn run(
    kind: Kind,
    exe: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    smoke: bool,
) -> Result<(Outcome, Vec<Span>), String> {
    let mix = Mix::new(kind, seed, smoke);
    let connections = threads.clamp(1, 2);
    let mut outcome = Outcome::default();
    let epoch = Instant::now();

    // One cold set-up: spawn a daemon and warm its caches with every pool
    // design.
    let set_up = || -> Result<(Daemon, Vec<Conn>, Vec<Reply>), String> {
        let daemon = Daemon::spawn(exe, mix.stream_len)?;
        let mut conns = (0..connections)
            .map(|_| Conn::connect(daemon.addr))
            .collect::<Result<Vec<_>, _>>()?;
        let warm = warm_up(&mut conns, &mix)?;
        Ok((daemon, conns, warm))
    };

    // Each untraced pass runs against its own freshly set-up daemon, so
    // every pass starts from the same cache state. The first pass runs
    // for its share of the window; the others replay exactly its
    // requests. The fastest pass counts.
    let mut untraced: Vec<Track> = (0..connections)
        .map(|c| Track::new(c as u32, epoch, false))
        .collect();
    let mut warm_replies: Vec<Reply> = Vec::new();
    let mut daemon_stats: Vec<Stats> = Vec::new();
    let mut passes: Vec<(Vec<ClientLog>, f64)> = Vec::new();
    let mut replay: Vec<Limit> = Vec::new();
    let (setup_s, last) = cold_passes(&set_up, |p, (daemon, conns, warm)| {
        outcome.attempted += warm.len() as u64;
        warm_replies.append(warm);
        let limits = if p == 0 {
            let deadline = Instant::now() + Duration::from_secs_f64(seconds / PASSES as f64);
            vec![Limit::Until(deadline); connections]
        } else {
            replay.clone()
        };
        let (logs, wall) = pass(conns, &mix, seed, &limits, &mut untraced);
        if p == 0 {
            replay = logs.iter().map(|l| Limit::Count(l.samples.len())).collect();
        }
        let rss = peak_rss_mb(Some(daemon.child.id())).unwrap_or(0.0);
        outcome.peak_rss_mb = outcome.peak_rss_mb.max(rss);
        daemon_stats.push(conns[0].stats()?);
        passes.push((logs, wall));
        Ok(())
    })?;
    drop(last);
    outcome.setup_s = setup_s;
    let first_mean_ms = mean_ms(&passes[0].0);
    let fastest = passes
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
        .map_or(0, |(i, _)| i);
    let (best_logs, best_wall) = &passes[fastest];
    let requests: usize = best_logs.iter().map(|l| l.samples.len()).sum();
    outcome.ops_per_s = requests as f64 / best_wall.max(f64::MIN_POSITIVE);
    outcome.op_ms = best_logs
        .iter()
        .flat_map(|l| l.samples.iter().map(|s| s.ms))
        .collect();
    let logs: Vec<ClientLog> = passes.into_iter().flat_map(|(l, _)| l).collect();

    // Traced pass: the same requests once more, on a fresh daemon.
    let mut traced_logs = Vec::new();
    let mut spans = Vec::new();
    let mut window_stats = (Stats::default(), Stats::default());
    if trace {
        let (daemon, mut conns, mut warm) = set_up()?;
        outcome.attempted += warm.len() as u64;
        warm_replies.append(&mut warm);
        let mut tracks: Vec<Track> = (0..connections)
            .map(|c| Track::new(c as u32, epoch, true))
            .collect();
        let before = conns[0].stats()?;
        let (traced, _) = pass(&mut conns, &mix, seed, &replay, &mut tracks);
        let after = conns[0].stats()?;
        window_stats = (before, after);
        daemon_stats.push(after);
        drop(conns);
        drop(daemon);
        traced_logs = traced;
        let ops: Vec<_> = tracks
            .iter()
            .flat_map(|t| t.ops().iter().cloned())
            .collect();
        outcome.layers = span_metrics(&ops);
        spans = tracks
            .iter()
            .flat_map(|t| t.spans().iter().cloned())
            .collect();
        // Same requests as the first untraced pass, timed the same way.
        outcome.layers.insert(
            "bench.trace_overhead_frac",
            mean_ms(&traced_logs) / first_mean_ms.max(f64::MIN_POSITIVE) - 1.0,
        );
        outcome.check(check_trace(&spans, &["gcrd.request"]));
    }
    let rejected: u64 = daemon_stats.iter().map(|s| s.rejected).sum();
    let panics: u64 = daemon_stats.iter().map(|s| s.panics).sum();

    // Checks, outside every timed window.
    let expects = mix
        .pool
        .iter()
        .map(|&d| reference(d, mix.stream_len))
        .collect::<Result<Vec<_>, _>>()?;
    let pool = mix.pool.len();
    for (i, reply) in warm_replies.iter().enumerate() {
        outcome.check(check_reply(ReqKind::Route, reply, Some(&expects[i % pool])));
    }
    let ratios: Vec<f64> = warm_replies[..pool]
        .iter()
        .zip(&expects)
        .map(|(reply, e)| reply.w.unwrap_or(f64::NAN) / e.ideal)
        .collect();
    outcome.switched_cap_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    if !outcome.switched_cap_ratio.is_finite() {
        outcome.fail("switched-capacitance ratio is not finite");
    }
    for log in logs.iter().chain(&traced_logs) {
        if let Some(e) = &log.error {
            outcome.fail(format!("connection failed: {e}"));
        }
        for s in &log.samples {
            outcome.attempted += 1;
            let expect = mix.checkable(s.design).then(|| &expects[s.design]);
            let result = s
                .reply
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|r| check_reply(s.kind, r, expect));
            outcome.check(result.map_err(|e| format!("{:?} on design {}: {e}", s.kind, s.design)));
        }
    }
    if rejected > 0 || panics > 0 {
        outcome.fail(format!(
            "daemons reported {rejected} rejections and {panics} panics"
        ));
    }
    if trace {
        layer_counters(&mut outcome, &traced_logs, window_stats);
        outcome.layers.insert("gcrd.rejected", rejected as f64);
        outcome.layers.insert("gcrd.panics", panics as f64);
    }
    Ok((outcome, spans))
}

/// Per-command latencies and daemon counters of the traced pass.
fn layer_counters(outcome: &mut Outcome, logs: &[ClientLog], (before, after): (Stats, Stats)) {
    let samples: Vec<&Sample> = logs.iter().flat_map(|l| &l.samples).collect();
    let p50 = |pred: &dyn Fn(&Sample, &Reply) -> bool| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.reply.as_ref().is_ok_and(|r| pred(s, r)))
            .map(|s| s.ms)
            .collect();
        median(&v)
    };
    let is_route = |s: &Sample| matches!(s.kind, ReqKind::Route | ReqKind::RouteLog);
    let hit = |r: &Reply| r.cache.as_deref() == Some("hit");
    let metrics = [
        ("gcrd.route_hit_ms_p50", p50(&|s, r| is_route(s) && hit(r))),
        (
            "gcrd.route_miss_ms_p50",
            p50(&|s, r| is_route(s) && !hit(r)),
        ),
        (
            "gcrd.route_force_ms_p50",
            p50(&|s, _| s.kind == ReqKind::RouteForce),
        ),
        (
            "gcrd.evaluate_ms_p50",
            p50(&|s, _| s.kind == ReqKind::Evaluate),
        ),
        ("gcrd.verify_ms_p50", p50(&|s, _| s.kind == ReqKind::Verify)),
        ("gcrd.eco_ms_p50", p50(&|s, _| s.kind == ReqKind::Eco)),
    ];
    for (name, value) in metrics {
        outcome.layers.insert(name, value);
    }
    let ecos: Vec<bool> = samples
        .iter()
        .filter(|s| s.kind == ReqKind::Eco)
        .filter_map(|s| s.reply.as_ref().ok().and_then(|r| r.pure_replay))
        .collect();
    if !ecos.is_empty() {
        let pure = ecos.iter().filter(|&&p| p).count();
        outcome
            .layers
            .insert("gcrd.eco_pure_replay_frac", pure as f64 / ecos.len() as f64);
    }
    let hits = after.hits.saturating_sub(before.hits);
    let misses = after.misses.saturating_sub(before.misses);
    if hits + misses > 0 {
        outcome
            .layers
            .insert("gcrd.hit_ratio", hits as f64 / (hits + misses) as f64);
    }
    let depth = logs.iter().map(|l| l.queue_depth_max).max().unwrap_or(0);
    outcome.layers.insert("gcrd.queue_depth_max", depth as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_reply(hash: u64, w: f64) -> Reply {
        Reply {
            status: "ok".to_owned(),
            cache: Some("hit".to_owned()),
            log_hash: Some(hash),
            w: Some(w),
            verify_errors: Some(0),
            ..Reply::default()
        }
    }

    #[test]
    fn reply_checker_counts_mismatches_as_failed() {
        let expect = Expect {
            log_hash: 0xdead_beef,
            w: 12.5,
            ideal: 1.0,
        };
        let good = ok_reply(0xdead_beef, 12.5);
        for kind in [ReqKind::Route, ReqKind::Evaluate, ReqKind::Verify] {
            check_reply(kind, &good, Some(&expect)).unwrap();
        }
        // A flipped digest bit.
        let flipped = ok_reply(0xdead_beef ^ 1, 12.5);
        assert!(check_reply(ReqKind::Route, &flipped, Some(&expect))
            .unwrap_err()
            .contains("log_hash"));
        // A W one ulp off.
        let off = ok_reply(0xdead_beef, f64::from_bits(12.5f64.to_bits() + 1));
        assert!(check_reply(ReqKind::Evaluate, &off, Some(&expect)).is_err());
        // Status other than ok, including backpressure.
        for status in ["error", "rejected"] {
            let r = Reply {
                status: status.to_owned(),
                ..good.clone()
            };
            assert!(check_reply(ReqKind::Route, &r, Some(&expect)).is_err());
            assert!(check_reply(ReqKind::Eco, &r, None).is_err());
        }
        // Verifier errors.
        let bad = Reply {
            verify_errors: Some(2),
            ..good.clone()
        };
        assert!(check_reply(ReqKind::Verify, &bad, Some(&expect)).is_err());
        // A logged route whose log does not hash to its digest.
        let log = Reply {
            log_matches: Some(false),
            ..good.clone()
        };
        assert!(check_reply(ReqKind::RouteLog, &log, Some(&expect)).is_err());
    }

    #[test]
    fn replies_parse_from_the_daemon_format() {
        let log = "merge v3 <- (v0, v1) key=0x0000000000000001\n";
        let line = format!(
            "{{\"id\":\"c0-1\",\"status\":\"ok\",\"cmd\":\"route\",\"cache\":\"miss\",\
             \"log_hash\":\"{:016x}\",\"decision_log\":\"{}\",\"total_switched_cap\":123.456}}",
            fnv1a(log.as_bytes()),
            log.replace('\n', "\\n")
        );
        let r = parse_reply(&line).unwrap();
        assert_eq!(r.status, "ok");
        assert_eq!(r.cache.as_deref(), Some("miss"));
        assert_eq!(r.w, Some(123.456));
        assert_eq!(r.log_matches, Some(true));
        check_reply(ReqKind::RouteLog, &r, None).unwrap();
        assert!(parse_reply("{\"log_hash\":\"zz\"}").is_err());
        assert!(parse_reply("not json").is_err());
    }

    #[test]
    fn mixes_repeat_for_a_seed() {
        for kind in [Kind::GcrdRead, Kind::GcrdWrite] {
            let mix = Mix::new(kind, 1998, true);
            let draw = |seed| {
                let mut rng = SplitMix64::new(seed);
                (0..300)
                    .map(|i| {
                        let (k, d, e) = mix.next(&mut rng);
                        mix.request_line(&i.to_string(), k, d, e)
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(draw(5), draw(5));
            assert_ne!(draw(5), draw(6));
        }
        assert_eq!(
            Mix::new(Kind::GcrdWrite, 3, true).pool,
            Mix::new(Kind::GcrdWrite, 3, true).pool
        );
    }

    #[test]
    fn write_mix_edits_only_odd_designs() {
        let mix = Mix::new(Kind::GcrdWrite, 1998, false);
        assert_eq!(mix.pool.len(), 48);
        let mut rng = SplitMix64::new(1);
        let mut kinds = std::collections::BTreeMap::new();
        for _ in 0..20_000 {
            let (kind, design, edits) = mix.next(&mut rng);
            *kinds.entry(format!("{kind:?}")).or_insert(0usize) += 1;
            if kind == ReqKind::Eco {
                assert_eq!(design % 2, 1);
                assert!((1..=ECO_MAX_EDITS).contains(&edits.len()));
                assert!(edits
                    .iter()
                    .all(|e| matches!(e, EcoEdit::MoveSink { .. } | EcoEdit::SwapActivity { .. })));
                assert!(!mix.checkable(design));
            }
        }
        let share = |k: &str| kinds[k] as f64 / 20_000.0;
        assert!((share("Eco") - 0.30).abs() < 0.02);
        assert!((share("RouteForce") - 0.15).abs() < 0.02);
        let read = Mix::new(Kind::GcrdRead, 1998, false);
        assert_eq!(read.pool.len(), 8);
        assert!((0..8).all(|d| read.checkable(d)));
    }

    #[test]
    fn eco_requests_render_valid_json() {
        let mix = Mix::new(Kind::GcrdWrite, 1998, true);
        let mut rng = SplitMix64::new(9);
        let mut seen = false;
        for i in 0..200 {
            let (kind, d, edits) = mix.next(&mut rng);
            let line = mix.request_line(&format!("x{i}"), kind, d, edits);
            let v = json::parse(&line).unwrap();
            if kind == ReqKind::Eco {
                seen = true;
                let parsed = v.get("edits").and_then(Json::as_array).unwrap();
                assert_eq!(parsed.len(), edits.len());
            }
        }
        assert!(seen);
    }

    #[test]
    fn fnv1a_matches_the_published_digest() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
