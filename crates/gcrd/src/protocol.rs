//! The daemon's newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in order per
//! connection. Requests parse with the workspace's dependency-free JSON
//! parser ([`gcr_bench::json`]); responses are rendered by hand so the
//! daemon controls exactly what a byte-for-byte replay of a cached
//! routing looks like. Floats render with Rust's shortest-roundtrip
//! `Display`, so a client parsing with the same `json` module recovers
//! the exact `f64`.
//!
//! ## Requests
//!
//! ```json
//! {"id": "r1-cold", "cmd": "route", "benchmark": "r1",
//!  "stream_len": 2000, "seed": 1998, "log": true}
//! {"id": "e1", "cmd": "eco", "benchmark": "r1",
//!  "edits": [{"op": "move_sink", "index": 7, "x": 1200.0, "y": 800.0}]}
//! {"id": "s", "cmd": "shutdown"}
//! ```
//!
//! `cmd` is one of `route`, `evaluate`, `verify`, `eco`, `ping`,
//! `stats`, `shutdown` (plus `sleep`/`panic` when the service runs with
//! debug commands enabled — test hooks, never on by default).
//!
//! ## Responses
//!
//! Every response carries the request's `id` and a `status` of `ok`,
//! `error`, or `rejected`; `rejected` responses add `retry_after_ms`
//! (the backpressure hint). Routing responses add `cache` (`hit` /
//! `miss`), `merges`, `loop_allocs`, the Equation-3 capacitance split,
//! and a stable `log_hash` digest of the canonical decision log
//! (`decision_log` itself only when the request asked with
//! `"log": true` — it is O(sinks) text).

use gcr_bench::json::{self, Json};
use gcr_cts::EcoEdit;
use gcr_cts::Sink;
use gcr_geometry::Point;

/// Hard cap on one request line. Longer lines are answered with an
/// `error` response and skipped; the connection stays up.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What a request asks the daemon to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Route the design (cache-aware) and report the routing summary.
    Route,
    /// Route (cache-aware) and report the Equation-3 power evaluation.
    Evaluate,
    /// Route (cache-aware) and run the full verifier lint suite.
    Verify,
    /// Incrementally re-route a cached design under an edit batch.
    Eco,
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Counter snapshot; answered inline, never queued.
    Stats,
    /// Drain in-flight work, answer, then stop the daemon.
    Shutdown,
    /// Debug-only: hold a worker for `sleep_ms` (backpressure tests).
    Sleep,
    /// Debug-only: panic inside the worker (isolation tests).
    Panic,
}

impl Command {
    /// The wire name (`"route"`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Command::Route => "route",
            Command::Evaluate => "evaluate",
            Command::Verify => "verify",
            Command::Eco => "eco",
            Command::Ping => "ping",
            Command::Stats => "stats",
            Command::Shutdown => "shutdown",
            Command::Sleep => "sleep",
            Command::Panic => "panic",
        }
    }

    /// Whether this command runs on the worker pool (and is therefore
    /// subject to queueing, backpressure, and deadlines) as opposed to
    /// being answered inline on the connection thread.
    #[must_use]
    pub fn is_work(self) -> bool {
        !matches!(self, Command::Ping | Command::Stats | Command::Shutdown)
    }
}

/// A parsed request line.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// What to do.
    pub cmd: Command,
    /// Benchmark name (`"r1"` … `"r8"`); required for work commands.
    pub benchmark: Option<String>,
    /// Activity-stream length override (`None` = service default).
    pub stream_len: Option<usize>,
    /// Workload seed override (`None` = service default).
    pub seed: Option<u64>,
    /// Bypass the routing-cache *read* (still populates it): forces a
    /// recompute, which is how the warm-scratch zero-allocation path is
    /// exercised.
    pub force: bool,
    /// Include the canonical decision log text in the response.
    pub want_log: bool,
    /// Per-request deadline in milliseconds, measured from enqueue; an
    /// expired request is answered with an error, not silently dropped.
    pub deadline_ms: Option<u64>,
    /// Debug `sleep` duration.
    pub sleep_ms: u64,
    /// ECO edit batch (only meaningful for `cmd: "eco"`).
    pub edits: Vec<EcoEdit>,
}

fn field_str(obj: &Json, key: &str) -> Option<String> {
    obj.get(key).and_then(Json::as_str).map(str::to_owned)
}

fn field_u64(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => {
            let f = v
                .as_f64()
                .ok_or_else(|| format!("{key} must be a number"))?;
            if f < 0.0 || f.fract() != 0.0 {
                return Err(format!("{key} must be a non-negative integer"));
            }
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "checked non-negative integral above"
            )]
            Ok(Some(f as u64))
        }
    }
}

fn field_f64(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

fn field_bool(obj: &Json, key: &str) -> bool {
    obj.get(key).and_then(Json::as_bool).unwrap_or(false)
}

fn parse_edit(e: &Json) -> Result<EcoEdit, String> {
    let op = field_str(e, "op").ok_or("edit missing \"op\"")?;
    match op.as_str() {
        "add_sink" => {
            let x = field_f64(e, "x")?;
            let y = field_f64(e, "y")?;
            let load = field_f64(e, "load")?;
            let module = field_u64(e, "module")?.ok_or("add_sink missing \"module\"")?;
            #[expect(clippy::cast_possible_truncation, reason = "module counts fit usize")]
            Ok(EcoEdit::AddSink {
                sink: Sink::new(Point::new(x, y), load),
                module: module as usize,
            })
        }
        "move_sink" => {
            let index = field_u64(e, "index")?.ok_or("move_sink missing \"index\"")?;
            let x = field_f64(e, "x")?;
            let y = field_f64(e, "y")?;
            #[expect(clippy::cast_possible_truncation, reason = "sink counts fit usize")]
            Ok(EcoEdit::MoveSink {
                index: index as usize,
                to: Point::new(x, y),
            })
        }
        "remove_sink" => {
            let index = field_u64(e, "index")?.ok_or("remove_sink missing \"index\"")?;
            #[expect(clippy::cast_possible_truncation, reason = "sink counts fit usize")]
            Ok(EcoEdit::RemoveSink {
                index: index as usize,
            })
        }
        "swap_activity" => {
            let module = field_u64(e, "module")?.ok_or("swap_activity missing \"module\"")?;
            #[expect(clippy::cast_possible_truncation, reason = "module counts fit usize")]
            Ok(EcoEdit::SwapActivity {
                module: module as usize,
            })
        }
        other => Err(format!("unknown edit op {other:?}")),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, a missing or
/// unknown `cmd`, or ill-typed fields. The caller wraps the message in
/// an `error` response; a parse failure never tears down the
/// connection.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let obj = json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let id = field_str(&obj, "id").unwrap_or_default();
    let cmd_name = field_str(&obj, "cmd").ok_or("missing \"cmd\"")?;
    let cmd = match cmd_name.as_str() {
        "route" => Command::Route,
        "evaluate" => Command::Evaluate,
        "verify" => Command::Verify,
        "eco" => Command::Eco,
        "ping" => Command::Ping,
        "stats" => Command::Stats,
        "shutdown" => Command::Shutdown,
        "sleep" => Command::Sleep,
        "panic" => Command::Panic,
        other => return Err(format!("unknown cmd {other:?}")),
    };
    let mut edits = Vec::new();
    if let Some(arr) = obj.get("edits").and_then(Json::as_array) {
        for e in arr {
            edits.push(parse_edit(e)?);
        }
    }
    #[expect(clippy::cast_possible_truncation, reason = "stream lengths fit usize")]
    Ok(Request {
        id,
        cmd,
        benchmark: field_str(&obj, "benchmark"),
        stream_len: field_u64(&obj, "stream_len")?.map(|v| v as usize),
        seed: field_u64(&obj, "seed")?,
        force: field_bool(&obj, "force"),
        want_log: field_bool(&obj, "log"),
        deadline_ms: field_u64(&obj, "deadline_ms")?,
        sleep_ms: field_u64(&obj, "sleep_ms")?.unwrap_or(0),
        edits,
    })
}

/// Escapes `s` for embedding in a JSON string literal.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A snapshot of the service counters for a `stats` response.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsSnapshot {
    /// Routing-cache hits served.
    pub hits: u64,
    /// Routing-cache misses (full routes computed).
    pub misses: u64,
    /// Requests rejected by backpressure or drain.
    pub rejected: u64,
    /// Work requests fully processed (including error answers).
    pub completed: u64,
    /// Work requests accepted but not yet answered.
    pub inflight: u64,
    /// Worker panics caught and converted to error responses.
    pub panics: u64,
    /// Current queue depth.
    pub queue_depth: u64,
}

/// One response line under construction. `None` fields are omitted from
/// the rendered JSON.
#[derive(Clone, Debug, Default)]
pub struct Response {
    /// Echo of the request id.
    pub id: String,
    /// `"ok"`, `"error"`, or `"rejected"`.
    pub status: &'static str,
    /// Echo of the command name.
    pub cmd: Option<&'static str>,
    /// Error message (status `error`).
    pub error: Option<String>,
    /// Backpressure hint (status `rejected`).
    pub retry_after_ms: Option<u64>,
    /// `"hit"` or `"miss"` for cache-aware commands.
    pub cache: Option<&'static str>,
    /// Benchmark the response describes.
    pub benchmark: Option<String>,
    /// Sinks in the routed design.
    pub sinks: Option<u64>,
    /// Committed merges.
    pub merges: Option<u64>,
    /// Merge-loop allocations of the run that produced the routing.
    pub loop_allocs: Option<u64>,
    /// FNV-1a digest of the canonical decision log, rendered in hex.
    pub log_hash: Option<u64>,
    /// Canonical decision log text (on request only).
    pub decision_log: Option<String>,
    /// Equation-3 `W = W(T) + W(S)`.
    pub total_switched_cap: Option<f64>,
    /// Equation-3 `W(T)`.
    pub clock_switched_cap: Option<f64>,
    /// Equation-3 `W(S)`.
    pub control_switched_cap: Option<f64>,
    /// Total area (verify/evaluate).
    pub total_area: Option<f64>,
    /// Device count.
    pub num_devices: Option<u64>,
    /// Verifier error-severity diagnostics.
    pub verify_errors: Option<u64>,
    /// Verifier warn-severity diagnostics.
    pub verify_warnings: Option<u64>,
    /// ECO: whether the batch was a pure replay.
    pub pure_replay: Option<bool>,
    /// ECO: merges replayed without search.
    pub replayed: Option<u64>,
    /// ECO: merges the splice search performed.
    pub spliced: Option<u64>,
    /// ECO: dirty-node count handed to the scoped verifier.
    pub dirty_nodes: Option<u64>,
    /// Stats snapshot (`stats` responses).
    pub stats: Option<StatsSnapshot>,
    /// Work requests completed over the daemon lifetime (`shutdown`).
    pub drained: Option<u64>,
}

impl Response {
    /// An `ok` response for `id`.
    #[must_use]
    pub fn ok(id: &str) -> Self {
        Response {
            id: id.to_owned(),
            status: "ok",
            ..Response::default()
        }
    }

    /// An `error` response for `id`.
    #[must_use]
    pub fn error(id: &str, message: impl Into<String>) -> Self {
        Response {
            id: id.to_owned(),
            status: "error",
            error: Some(message.into()),
            ..Response::default()
        }
    }

    /// A backpressure `rejected` response with a retry hint.
    #[must_use]
    pub fn rejected(id: &str, reason: impl Into<String>, retry_after_ms: u64) -> Self {
        Response {
            id: id.to_owned(),
            status: "rejected",
            error: Some(reason.into()),
            retry_after_ms: Some(retry_after_ms),
            ..Response::default()
        }
    }

    /// Renders the response as one JSON line (no trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push('{');
        push_str_field(&mut out, "id", &self.id);
        out.push_str(&format!(",\"status\":\"{}\"", self.status));
        if let Some(c) = self.cmd {
            out.push(',');
            push_str_field(&mut out, "cmd", c);
        }
        if let Some(e) = &self.error {
            out.push(',');
            push_str_field(&mut out, "error", e);
        }
        push_u64(&mut out, "retry_after_ms", self.retry_after_ms);
        if let Some(c) = self.cache {
            out.push(',');
            push_str_field(&mut out, "cache", c);
        }
        if let Some(b) = &self.benchmark {
            out.push(',');
            push_str_field(&mut out, "benchmark", b);
        }
        push_u64(&mut out, "sinks", self.sinks);
        push_u64(&mut out, "merges", self.merges);
        push_u64(&mut out, "loop_allocs", self.loop_allocs);
        if let Some(h) = self.log_hash {
            out.push(',');
            push_str_field(&mut out, "log_hash", &format!("{h:016x}"));
        }
        if let Some(l) = &self.decision_log {
            out.push(',');
            push_str_field(&mut out, "decision_log", l);
        }
        push_f64(&mut out, "total_switched_cap", self.total_switched_cap);
        push_f64(&mut out, "clock_switched_cap", self.clock_switched_cap);
        push_f64(&mut out, "control_switched_cap", self.control_switched_cap);
        push_f64(&mut out, "total_area", self.total_area);
        push_u64(&mut out, "num_devices", self.num_devices);
        push_u64(&mut out, "verify_errors", self.verify_errors);
        push_u64(&mut out, "verify_warnings", self.verify_warnings);
        if let Some(p) = self.pure_replay {
            out.push_str(&format!(",\"pure_replay\":{p}"));
        }
        push_u64(&mut out, "replayed", self.replayed);
        push_u64(&mut out, "spliced", self.spliced);
        push_u64(&mut out, "dirty_nodes", self.dirty_nodes);
        if let Some(s) = self.stats {
            out.push_str(&format!(
                ",\"stats\":{{\"hits\":{},\"misses\":{},\"rejected\":{},\
                 \"completed\":{},\"inflight\":{},\"panics\":{},\"queue_depth\":{}}}",
                s.hits, s.misses, s.rejected, s.completed, s.inflight, s.panics, s.queue_depth
            ));
        }
        push_u64(&mut out, "drained", self.drained);
        out.push('}');
        out
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(&format!("\"{key}\":\"{}\"", escape_json(value)));
}

fn push_u64(out: &mut String, key: &str, value: Option<u64>) {
    if let Some(v) = value {
        out.push_str(&format!(",\"{key}\":{v}"));
    }
}

fn push_f64(out: &mut String, key: &str, value: Option<f64>) {
    if let Some(v) = value {
        if v.is_finite() {
            // Rust's shortest-roundtrip Display: parses back bit-exact.
            out.push_str(&format!(",\"{key}\":{v}"));
        } else {
            out.push_str(&format!(",\"{key}\":null"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_route_request() {
        let r = parse_request(
            r#"{"id":"a1","cmd":"route","benchmark":"r1","stream_len":500,"seed":7,"log":true}"#,
        )
        .unwrap();
        assert_eq!(r.id, "a1");
        assert_eq!(r.cmd, Command::Route);
        assert_eq!(r.benchmark.as_deref(), Some("r1"));
        assert_eq!(r.stream_len, Some(500));
        assert_eq!(r.seed, Some(7));
        assert!(r.want_log);
        assert!(!r.force);
        assert!(r.cmd.is_work());
    }

    #[test]
    fn parses_eco_edits() {
        let r = parse_request(
            r#"{"id":"e","cmd":"eco","benchmark":"r1","edits":[
                {"op":"move_sink","index":3,"x":10.5,"y":20.0},
                {"op":"remove_sink","index":1},
                {"op":"add_sink","x":1.0,"y":2.0,"load":0.05,"module":4},
                {"op":"swap_activity","module":2}]}"#,
        )
        .unwrap();
        assert_eq!(r.edits.len(), 4);
        assert!(matches!(r.edits[0], EcoEdit::MoveSink { index: 3, .. }));
        assert!(matches!(r.edits[1], EcoEdit::RemoveSink { index: 1 }));
        assert!(matches!(r.edits[2], EcoEdit::AddSink { module: 4, .. }));
        assert!(matches!(r.edits[3], EcoEdit::SwapActivity { module: 2 }));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"id":"x"}"#).is_err());
        assert!(parse_request(r#"{"id":"x","cmd":"fly"}"#).is_err());
        assert!(parse_request(r#"{"id":"x","cmd":"route","stream_len":-5}"#).is_err());
        assert!(parse_request(r#"{"id":"x","cmd":"eco","edits":[{"op":"warp"}]}"#).is_err());
    }

    #[test]
    fn near_limit_line_with_a_huge_string_gets_a_structured_error() {
        let prefix = r#"{"id":"big","cmd":"route","benchmark":""#;
        let name = "r1π".repeat((MAX_LINE_BYTES - prefix.len() - 2) / 4);
        let line = format!("{prefix}{name}\"}}");
        assert!(line.len() <= MAX_LINE_BYTES && line.len() > MAX_LINE_BYTES - 8);
        // Well-formed: the name survives decoding, and the service's
        // benchmark lookup turns it into an error response.
        let r = parse_request(&line).unwrap();
        assert_eq!(r.benchmark.as_deref(), Some(name.as_str()));
        assert_eq!(crate::engine::benchmark_by_name(&name), None);
        // Unterminated: a malformed-JSON error located at the end of the
        // line.
        let cut = &line[..line.len() - 2];
        let err = parse_request(cut).unwrap_err();
        assert_eq!(
            err,
            format!(
                "malformed JSON: JSON error at byte {}: unterminated string",
                cut.len()
            )
        );
    }

    #[test]
    fn response_renders_and_parses_back() {
        let mut resp = Response::ok("a1");
        resp.cmd = Some("route");
        resp.cache = Some("hit");
        resp.merges = Some(266);
        resp.loop_allocs = Some(0);
        resp.log_hash = Some(0xdead_beef);
        resp.decision_log = Some("0 1 -> 267\n2 3 -> 268".to_owned());
        resp.total_switched_cap = Some(123.456_789_012_345_67);
        let line = resp.render();
        let parsed = gcr_bench::json::parse(&line).unwrap();
        assert_eq!(parsed.get("id").and_then(Json::as_str), Some("a1"));
        assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(parsed.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(parsed.get("merges").and_then(Json::as_f64), Some(266.0));
        assert_eq!(
            parsed.get("decision_log").and_then(Json::as_str),
            Some("0 1 -> 267\n2 3 -> 268")
        );
        // Shortest-roundtrip float survives the wire bit-exactly.
        assert_eq!(
            parsed.get("total_switched_cap").and_then(Json::as_f64),
            Some(123.456_789_012_345_67)
        );
        assert_eq!(
            parsed.get("log_hash").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
    }

    #[test]
    fn rejected_response_carries_retry_hint() {
        let line = Response::rejected("b", "queue full", 150).render();
        let parsed = gcr_bench::json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("status").and_then(Json::as_str),
            Some("rejected")
        );
        assert_eq!(
            parsed.get("retry_after_ms").and_then(Json::as_f64),
            Some(150.0)
        );
    }
}
