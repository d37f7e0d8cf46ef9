//! Structured tracing and metrics for the gated clock routing flow.
//!
//! Every stage of the flow — activity-table construction, the greedy
//! switched-capacitance merge, top-down embedding, Equation-3 evaluation,
//! and the `gcr-verify` passes — reports *phase spans* (wall-time
//! intervals on a monotonic clock), *counters* (named totals such as
//! exact-cost evaluations), and *warnings* through a [`Tracer`] handle.
//! Where the events go is decided by the caller via a [`TraceSink`]:
//!
//! * [`NullSink`] — discards everything (and a *disabled* tracer skips
//!   even the clock reads);
//! * [`MemorySink`] — buffers events for test assertions;
//! * [`ChromeTraceSink`] — accumulates events and renders them as a
//!   Chrome-trace JSON file (`chrome://tracing`, Perfetto, Speedscope).
//!
//! The [`json`] module is the workspace's one JSON reader and string
//! escaper, shared by the trace export, `gcrd`'s wire protocol, the
//! verifier's reports and the bench tools.
//!
//! # Reaching the engines
//!
//! Engines take no tracer argument. A caller that wants a trace
//! [`enter`](Tracer::enter)s a tracer; until the returned guard drops,
//! that tracer is the calling thread's [`current`](Tracer::current)
//! one. Each engine entry point reads [`Tracer::current`] once, on the
//! calling thread and before any measured allocation window, and hands
//! the handle down explicitly from there. Spawned threads start with no
//! tracer entered, so worker threads trace only through a handle passed
//! to them.
//!
//! # Cost model
//!
//! A disabled tracer ([`Tracer::disabled`]) is a `None` behind one
//! branch: no sink call, no timestamp, no formatting. Library code
//! formats warning text only after checking [`Tracer::enabled`], so the
//! disabled path never allocates — the warm greedy merge loop keeps its
//! zero-allocation invariant with tracing compiled in (and the engine
//! keeps it even under an *active* sink by emitting only aggregated
//! events outside the measured loop window; see
//! `docs/observability.md`).
//!
//! # Example
//!
//! ```
//! use gcr_trace::{MemorySink, Tracer};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let tracer = Tracer::new(sink.clone());
//! {
//!     let _phase = tracer.span("outer");
//!     let _inner = tracer.span("inner");
//!     tracer.counter("widgets", 3.0);
//! }
//! assert_eq!(sink.counter("widgets"), Some(3.0));
//! assert_eq!(sink.nesting().unwrap(), vec![("outer", 0), ("inner", 1)]);
//!
//! // What an engine sees: the entered tracer, then the disabled default.
//! {
//!     let _entered = tracer.enter();
//!     Tracer::current().counter("entered", 1.0);
//! }
//! assert!(!Tracer::current().enabled());
//! assert_eq!(sink.counter("entered"), Some(1.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

pub mod json;
pub mod threads;

/// One structured trace event. Timestamps are nanoseconds on the owning
/// [`Tracer`]'s monotonic clock, measured from its creation ([`Tracer`]
/// clones share the epoch, so events from every layer of one run merge
/// onto a single timeline).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A phase span opened (emitted by [`Tracer::span`]).
    Begin {
        /// Span name (see the taxonomy in `docs/observability.md`).
        name: &'static str,
        /// Nanoseconds since the tracer epoch.
        ts_ns: u64,
    },
    /// The most recent unclosed span with this name closed.
    End {
        /// Span name matching the corresponding [`TraceEvent::Begin`].
        name: &'static str,
        /// Nanoseconds since the tracer epoch.
        ts_ns: u64,
    },
    /// A self-contained span reported after the fact — used for
    /// aggregated sub-phase totals (e.g. the greedy engine's per-kind
    /// loop time), where begin/end pairs would have to be emitted from
    /// inside an allocation-free hot loop.
    Complete {
        /// Span name.
        name: &'static str,
        /// Start of the interval, nanoseconds since the tracer epoch.
        start_ns: u64,
        /// Interval length in nanoseconds.
        dur_ns: u64,
    },
    /// A named numeric total or level (monotone counters and gauges share
    /// this event; the distinction is in the name's documentation).
    Counter {
        /// Counter name.
        name: &'static str,
        /// Reported value.
        value: f64,
        /// Nanoseconds since the tracer epoch.
        ts_ns: u64,
    },
    /// A warning from library code (which never writes to stderr
    /// itself); binaries may echo these wherever they see fit.
    Warn {
        /// Warning category (stable, machine-matchable).
        name: &'static str,
        /// Human-readable message.
        message: String,
        /// Nanoseconds since the tracer epoch.
        ts_ns: u64,
    },
}

impl TraceEvent {
    /// The event's name field, whatever its variant.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Begin { name, .. }
            | TraceEvent::End { name, .. }
            | TraceEvent::Complete { name, .. }
            | TraceEvent::Counter { name, .. }
            | TraceEvent::Warn { name, .. } => name,
        }
    }
}

/// A destination for [`TraceEvent`]s.
///
/// Sinks must be `Send + Sync`: one sink is typically shared (via
/// [`Arc`]) by tracer clones living in different layers of the flow, and
/// benchmarks record from timing threads. `record` should be cheap —
/// the built-in sinks push into a mutex-guarded vector and defer all
/// formatting to the final export.
pub trait TraceSink: Send + Sync {
    /// Accepts one event. Ordering within a thread follows call order.
    fn record(&self, event: TraceEvent);
}

/// A sink that discards every event. [`Tracer::new`] with a `NullSink`
/// exercises the full enabled code path (timestamps, event construction)
/// without retaining anything — useful for parity tests; for production
/// "tracing off" prefer [`Tracer::disabled`], which skips the clock
/// reads too.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: TraceEvent) {}
}

/// A sink buffering every event in memory, with query helpers for test
/// assertions.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every recorded event, in record order.
    ///
    /// A poisoned buffer (a recording thread panicked mid-push) is read
    /// through rather than propagated: the events are plain data and a
    /// long-lived service must keep tracing after one worker dies.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The last value recorded for counter `name`, if any.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.events().iter().rev().find_map(|e| match e {
            TraceEvent::Counter { name: n, value, .. } if *n == name => Some(*value),
            _ => None,
        })
    }

    /// Every warning message recorded under category `name`.
    #[must_use]
    pub fn warnings(&self, name: &str) -> Vec<String> {
        self.events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Warn {
                    name: n, message, ..
                } if *n == name => Some(message.clone()),
                _ => None,
            })
            .collect()
    }

    /// Replays the begin/end stream and returns each completed span as
    /// `(name, depth)` in *begin* order, depth 0 for top-level spans.
    /// [`TraceEvent::Complete`] spans are reported at the depth of the
    /// stack position they were recorded at.
    ///
    /// # Errors
    ///
    /// Returns a description of the first imbalance: an `End` that
    /// matches no open span, or spans left open at the end of the
    /// stream.
    pub fn nesting(&self) -> Result<Vec<(&'static str, usize)>, String> {
        let mut stack: Vec<&'static str> = Vec::new();
        let mut out = Vec::new();
        for event in self.events() {
            match event {
                TraceEvent::Begin { name, .. } => {
                    out.push((name, stack.len()));
                    stack.push(name);
                }
                TraceEvent::End { name, .. } => match stack.pop() {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(format!("span end `{name}` closes open span `{open}`"))
                    }
                    None => return Err(format!("span end `{name}` with no open span")),
                },
                TraceEvent::Complete { name, .. } => out.push((name, stack.len())),
                TraceEvent::Counter { .. } | TraceEvent::Warn { .. } => {}
            }
        }
        if stack.is_empty() {
            Ok(out)
        } else {
            Err(format!("spans left open: {stack:?}"))
        }
    }
}

impl TraceSink for MemorySink {
    // Poison-tolerant: a worker panicking mid-record must not wedge every
    // later tracing call in a long-lived process (the buffer holds plain
    // data, so reading through the poison is safe).
    fn record(&self, event: TraceEvent) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }
}

/// A sink accumulating events for export in the Chrome trace-event JSON
/// format (the `chrome://tracing` / Perfetto / Speedscope interchange
/// format): spans become `B`/`E`/`X` events, counters become `C` events
/// with a `value` arg, warnings become global instant (`i`) events.
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl ChromeTraceSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders the Chrome-trace JSON document for everything recorded so
    /// far.
    ///
    /// A poisoned buffer (a recording thread panicked mid-push) is read
    /// through rather than propagated, so a daemon can still export its
    /// trace after a worker died.
    #[must_use]
    pub fn to_json(&self) -> String {
        let events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::with_capacity(64 + 96 * events.len());
        out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
        let us = |ns: u64| ns as f64 / 1e3;
        for (i, event) in events.iter().enumerate() {
            out.push_str("    {\"name\": \"");
            json::escape_into(&mut out, event.name());
            out.push_str("\", \"ph\": \"");
            let _ = match event {
                TraceEvent::Begin { ts_ns, .. } => write!(
                    out,
                    "B\", \"pid\": 0, \"tid\": 0, \"ts\": {:.3}}}",
                    us(*ts_ns)
                ),
                TraceEvent::End { ts_ns, .. } => write!(
                    out,
                    "E\", \"pid\": 0, \"tid\": 0, \"ts\": {:.3}}}",
                    us(*ts_ns)
                ),
                TraceEvent::Complete {
                    start_ns, dur_ns, ..
                } => write!(
                    out,
                    "X\", \"pid\": 0, \"tid\": 0, \"ts\": {:.3}, \"dur\": {:.3}}}",
                    us(*start_ns),
                    us(*dur_ns)
                ),
                TraceEvent::Counter { value, ts_ns, .. } => write!(
                    out,
                    "C\", \"pid\": 0, \"tid\": 0, \"ts\": {:.3}, \
                     \"args\": {{\"value\": {}}}}}",
                    us(*ts_ns),
                    json_number(*value)
                ),
                TraceEvent::Warn { message, ts_ns, .. } => {
                    let _ = write!(
                        out,
                        "i\", \"s\": \"g\", \"pid\": 0, \"tid\": 0, \"ts\": {:.3}, \
                         \"args\": {{\"message\": \"",
                        us(*ts_ns)
                    );
                    json::escape_into(&mut out, message);
                    out.push_str("\"}}");
                    Ok(())
                }
            };
            out.push_str(if i + 1 == events.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the rendered JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error of the write.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

impl TraceSink for ChromeTraceSink {
    // Poison-tolerant for the same reason as `MemorySink::record`.
    fn record(&self, event: TraceEvent) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }
}

/// A sink decorator for CLI binaries: forwards every event to `inner`
/// unchanged, and additionally echoes [`TraceEvent::Warn`] events to
/// stderr so library warnings stay visible on a terminal even when the
/// trace itself goes to a file. Library code should never print; this
/// decorator is how a binary opts back into on-terminal warnings.
pub struct EchoWarnSink {
    inner: Arc<dyn TraceSink>,
}

impl EchoWarnSink {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Arc<dyn TraceSink>) -> Self {
        Self { inner }
    }
}

impl TraceSink for EchoWarnSink {
    fn record(&self, event: TraceEvent) {
        if let TraceEvent::Warn { name, message, .. } = &event {
            eprintln!("warning [{name}]: {message}");
        }
        self.inner.record(event);
    }
}

/// Formats a counter value as a valid JSON number (JSON has no
/// NaN/Infinity; they are clamped to null-adjacent sentinels).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        // Integral values print without a fraction so counters stay
        // exact; everything else keeps full precision.
        if x.fract() == 0.0 && x.abs() < 9e15 {
            format!("{x:.0}")
        } else {
            format!("{x}")
        }
    } else {
        "null".to_owned()
    }
}

/// Shared state behind an enabled tracer: the sink and the monotonic
/// epoch all timestamps are measured from.
#[derive(Clone)]
struct Enabled {
    epoch: Instant,
    sink: Arc<dyn TraceSink>,
}

/// A cheap, cloneable handle through which library code reports trace
/// events. Clones share the sink *and* the epoch, so a tracer passed
/// down the flow produces one coherent timeline.
///
/// The disabled tracer ([`Tracer::disabled`]) is the default and costs
/// one branch per call site.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Enabled>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer feeding `sink`, with its epoch set to "now".
    #[must_use]
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Self {
            inner: Some(Enabled {
                epoch: Instant::now(),
                sink,
            }),
        }
    }

    /// The no-op tracer: every call is a single branch, no clock reads,
    /// no sink, no formatting.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Makes this tracer the calling thread's [current](Tracer::current)
    /// one until the returned guard drops. Guards nest: dropping one
    /// restores the tracer that was current when it was entered, also
    /// when a panic unwinds through it. Other threads, including ones
    /// spawned while the guard is live, are unaffected.
    #[must_use = "the tracer stops being current when the guard drops — bind it with `let`"]
    pub fn enter(&self) -> EnterGuard {
        let previous = CURRENT.with(|c| c.replace(Some(self.clone())));
        EnterGuard {
            previous,
            _not_send: PhantomData,
        }
    }

    /// The tracer most recently [entered](Tracer::enter) on the calling
    /// thread and still live, or [`Tracer::disabled`] if there is none.
    /// Engines call this once per entry point; it clones one [`Arc`] and
    /// never allocates.
    #[must_use]
    pub fn current() -> Self {
        CURRENT.with(|c| c.borrow().clone().unwrap_or_default())
    }

    /// Whether events are being recorded. Check this before doing any
    /// work (formatting, counting) that only feeds the tracer.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the tracer epoch (0 when disabled). Pair with
    /// [`Tracer::complete_span`] to report aggregated intervals.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |t| saturating_ns(t.epoch.elapsed().as_nanos()))
    }

    /// Opens a phase span; the returned guard closes it on drop. Spans
    /// opened while another guard is live are nested inside it (sinks
    /// reconstruct the hierarchy from begin/end order).
    #[must_use = "the span closes when the guard drops — bind it with `let`"]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if let Some(t) = &self.inner {
            t.sink.record(TraceEvent::Begin {
                name,
                ts_ns: saturating_ns(t.epoch.elapsed().as_nanos()),
            });
        }
        SpanGuard { tracer: self, name }
    }

    /// Reports a self-contained `[start_ns, start_ns + dur_ns]` interval
    /// measured by the caller — the hook for hot loops that accumulate
    /// per-phase time in plain integers and emit one aggregate event
    /// after the measured window.
    pub fn complete_span(&self, name: &'static str, start_ns: u64, dur_ns: u64) {
        if let Some(t) = &self.inner {
            t.sink.record(TraceEvent::Complete {
                name,
                start_ns,
                dur_ns,
            });
        }
    }

    /// Reports a named numeric value (counter or gauge).
    pub fn counter(&self, name: &'static str, value: f64) {
        if let Some(t) = &self.inner {
            t.sink.record(TraceEvent::Counter {
                name,
                value,
                ts_ns: saturating_ns(t.epoch.elapsed().as_nanos()),
            });
        }
    }

    /// Reports a warning. Callers format `message` only after checking
    /// [`Tracer::enabled`] so the disabled path stays allocation-free:
    ///
    /// ```
    /// # let tracer = gcr_trace::Tracer::disabled();
    /// # let detail = 7;
    /// if tracer.enabled() {
    ///     tracer.warn("demo.category", &format!("detail: {detail}"));
    /// }
    /// ```
    pub fn warn(&self, name: &'static str, message: &str) {
        if let Some(t) = &self.inner {
            t.sink.record(TraceEvent::Warn {
                name,
                message: message.to_owned(),
                ts_ns: saturating_ns(t.epoch.elapsed().as_nanos()),
            });
        }
    }
}

thread_local! {
    /// The calling thread's entered tracer; `None` reads as disabled.
    static CURRENT: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Guard of an [entered](Tracer::enter) tracer; restores the previously
/// current tracer on drop. Tied to the thread that entered it.
pub struct EnterGuard {
    previous: Option<Tracer>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        // The replaced tracer drops after the cell's borrow has ended.
        drop(CURRENT.with(|c| c.replace(previous)));
    }
}

/// Clamps a 128-bit nanosecond count into the event timestamp width
/// (u64 nanoseconds cover ~584 years of process uptime).
fn saturating_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// Guard of an open span; closes it on drop. Returned by
/// [`Tracer::span`].
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = &self.tracer.inner {
            t.sink.record(TraceEvent::End {
                name: self.name,
                ts_ns: saturating_ns(t.epoch.elapsed().as_nanos()),
            });
        }
    }
}

/// Process-wide allocation-count probe read by the engines' profiles
/// (`GreedyProfile`, `ScanProfile`, `EcoProfile`).
///
/// Library crates forbid `unsafe`, so none can host a counting
/// `#[global_allocator]` itself; binaries that have one (the bench
/// harness, the zero-alloc tests) register a reader here.
static ALLOC_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Installs the allocation-count reader behind [`alloc_count`]. The probe
/// must be monotone (a running total of allocations in the process).
/// First installation wins; later calls are ignored.
pub fn set_alloc_probe(probe: fn() -> u64) {
    let _ = ALLOC_PROBE.set(probe);
}

/// Current allocation count, or 0 when no probe is installed.
#[must_use]
pub fn alloc_count() -> u64 {
    ALLOC_PROBE.get().map_or(0, |probe| probe())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn disabled_tracer_records_nothing_and_reads_no_clock() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        assert_eq!(tracer.now_ns(), 0);
        let _span = tracer.span("anything");
        tracer.counter("c", 1.0);
        tracer.warn("w", "msg");
        // Nothing to assert against — the point is that no sink exists
        // and none of the calls panic.
    }

    #[test]
    fn memory_sink_reconstructs_nesting_and_counters() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        {
            let _outer = tracer.span("outer");
            tracer.counter("evals", 10.0);
            {
                let _inner = tracer.span("inner");
                tracer.counter("evals", 25.0);
            }
            tracer.complete_span("aggregate", 0, 500);
        }
        assert_eq!(
            sink.nesting().unwrap(),
            vec![("outer", 0), ("inner", 1), ("aggregate", 1)]
        );
        assert_eq!(sink.counter("evals"), Some(25.0));
        assert_eq!(sink.counter("missing"), None);
    }

    #[test]
    fn nesting_reports_imbalance() {
        let sink = MemorySink::new();
        sink.record(TraceEvent::Begin {
            name: "open",
            ts_ns: 0,
        });
        assert!(sink.nesting().unwrap_err().contains("left open"));
        sink.record(TraceEvent::End {
            name: "other",
            ts_ns: 1,
        });
        assert!(sink.nesting().unwrap_err().contains("closes open span"));
    }

    #[test]
    fn warnings_are_captured_by_category() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        if tracer.enabled() {
            tracer.warn("greedy.threads", "bad value");
        }
        assert_eq!(sink.warnings("greedy.threads"), vec!["bad value"]);
        assert!(sink.warnings("other").is_empty());
    }

    #[test]
    fn timestamps_are_monotone() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        {
            let _a = tracer.span("a");
        }
        {
            let _b = tracer.span("b");
        }
        let ts: Vec<u64> = sink
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Begin { ts_ns, .. } | TraceEvent::End { ts_ns, .. } => *ts_ns,
                _ => unreachable!(),
            })
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn chrome_export_contains_every_phase_type() {
        let sink = Arc::new(ChromeTraceSink::new());
        let tracer = Tracer::new(sink.clone());
        {
            let _span = tracer.span("phase \"quoted\"");
            tracer.counter("count", 42.0);
            tracer.counter("ratio", 0.125);
            tracer.counter("bad", f64::NAN);
            if tracer.enabled() {
                tracer.warn("warnings", "line1\n\"line2\"");
            }
        }
        tracer.complete_span("agg", 1_000, 2_000);
        let text = sink.to_json();
        // Number formatting does not survive parsing: integral counters
        // print without a fraction, times in µs with three decimals.
        assert!(text.contains("\"dur\": 2.000"));
        assert!(text.contains("\"value\": 42"));

        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let column = |key: &str| -> Vec<&str> {
            events
                .iter()
                .map(|e| e.get(key).and_then(Json::as_str).unwrap())
                .collect()
        };
        assert_eq!(column("ph"), ["B", "C", "C", "C", "i", "E", "X"]);
        let quoted = "phase \"quoted\"";
        assert_eq!(
            column("name"),
            [quoted, "count", "ratio", "bad", "warnings", quoted, "agg"]
        );
        let arg = |i: usize, key: &str| events[i].get("args").and_then(|a| a.get(key));
        assert_eq!(arg(1, "value"), Some(&Json::Number(42.0)));
        assert_eq!(arg(2, "value"), Some(&Json::Number(0.125)));
        assert_eq!(arg(3, "value"), Some(&Json::Null));
        assert_eq!(
            arg(4, "message").and_then(Json::as_str),
            Some("line1\n\"line2\"")
        );
        assert_eq!(events[6].get("ts"), Some(&Json::Number(1.0)));
        assert_eq!(events[6].get("dur"), Some(&Json::Number(2.0)));
    }

    #[test]
    fn nothing_entered_reads_as_disabled() {
        assert!(!Tracer::current().enabled());
    }

    #[test]
    fn nested_enter_restores_the_outer_tracer() {
        let outer_sink = Arc::new(MemorySink::new());
        let inner_sink = Arc::new(MemorySink::new());
        let outer = Tracer::new(outer_sink.clone());
        let inner = Tracer::new(inner_sink.clone());
        {
            let _outer = outer.enter();
            Tracer::current().counter("seen", 1.0);
            {
                let _inner = inner.enter();
                Tracer::current().counter("seen", 2.0);
            }
            Tracer::current().counter("seen", 3.0);
        }
        assert!(!Tracer::current().enabled());
        assert_eq!(outer_sink.counter("seen"), Some(3.0));
        assert_eq!(inner_sink.counter("seen"), Some(2.0));
        assert_eq!(outer_sink.events().len(), 2);
    }

    #[test]
    fn a_panic_unwinding_through_the_guard_restores_the_outer_tracer() {
        let outer_sink = Arc::new(MemorySink::new());
        let outer = Tracer::new(outer_sink.clone());
        let _outer = outer.enter();
        let inner = Tracer::new(Arc::new(MemorySink::new()));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _inner = inner.enter();
            panic!("engine failure");
        }));
        assert!(unwound.is_err());
        Tracer::current().counter("after", 1.0);
        assert_eq!(outer_sink.counter("after"), Some(1.0));
    }

    #[test]
    fn spawned_threads_do_not_inherit_the_tracer() {
        let tracer = Tracer::new(Arc::new(MemorySink::new()));
        let _entered = tracer.enter();
        assert!(Tracer::current().enabled());
        let inherited = std::thread::spawn(|| Tracer::current().enabled())
            .join()
            .unwrap();
        assert!(!inherited);
    }

    #[test]
    fn clones_share_sink_and_epoch() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        let clone = tracer.clone();
        {
            let _a = tracer.span("from-original");
            let _b = clone.span("from-clone");
        }
        assert_eq!(
            sink.nesting().unwrap(),
            vec![("from-original", 0), ("from-clone", 1)]
        );
    }
}
