//! Bench-side spans around the calls into each layer.
//!
//! Every generator thread owns one [`Track`]. An operation (one design
//! or one request) is a root span, `bench.op`, carrying the op id; the
//! layer calls inside it are child spans named after the layer metric
//! they feed (`cts.greedy`, `core.simulate`, `gcrd.request`, ...).
//! Spans stay in memory and are written once, at exit, as Chrome-trace
//! JSON with one track per thread. A disabled track records nothing, so
//! end-to-end numbers always come from untraced passes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the per-operation root span.
pub(crate) const ROOT: &str = "bench.op";

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span name (`bench.op` or a layer call).
    pub name: &'static str,
    /// Track (generator thread) the span ran on.
    pub track: u32,
    /// Op id, on root spans.
    pub op: Option<u64>,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// Self time per span name for one operation.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct OpProfile {
    /// Root span duration in ns.
    pub(crate) total_ns: u64,
    /// Self time (duration minus child spans) per span name, root
    /// included under [`ROOT`].
    pub(crate) self_ns: BTreeMap<&'static str, u64>,
}

/// The spans of one generator thread.
#[derive(Debug)]
pub(crate) struct Track {
    id: u32,
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Child time accumulated by each open span.
    open: Vec<u64>,
    /// Self times of the op in progress.
    current: BTreeMap<&'static str, u64>,
    ops: Vec<OpProfile>,
}

impl Track {
    /// A track with id `id`, timed from `epoch`; a disabled track records
    /// nothing and adds no clock reads.
    #[must_use]
    pub(crate) fn new(id: u32, epoch: Instant, enabled: bool) -> Self {
        Self {
            id,
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            current: BTreeMap::new(),
            ops: Vec::new(),
        }
    }

    /// Runs `f` as the root span of op `op`.
    pub(crate) fn op<R>(&mut self, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        self.current.clear();
        let (r, dur) = self.timed(ROOT, Some(op), f);
        let self_ns = std::mem::take(&mut self.current);
        self.ops.push(OpProfile {
            total_ns: dur,
            self_ns,
        });
        r
    }

    /// Runs `f` as a span named `name` inside the current op.
    pub(crate) fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        self.timed(name, None, f).0
    }

    fn timed<R>(
        &mut self,
        name: &'static str,
        op: Option<u64>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        let start = self.now_ns();
        self.open.push(0);
        let r = f(self);
        let end = self.now_ns();
        let children = self.open.pop().unwrap_or(0);
        let dur = end.saturating_sub(start);
        if let Some(parent) = self.open.last_mut() {
            *parent += dur;
        }
        *self.current.entry(name).or_insert(0) += dur.saturating_sub(children);
        self.spans.push(Span {
            name,
            track: self.id,
            op,
            start_ns: start,
            dur_ns: dur,
        });
        (r, dur)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Finished spans, in end order.
    #[must_use]
    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One profile per finished op, in order.
    #[must_use]
    pub(crate) fn ops(&self) -> &[OpProfile] {
        &self.ops
    }
}

/// Checks that spans nest properly on each track — no two spans of one
/// track partially overlap — and that every name in `required` occurs.
///
/// # Errors
///
/// Names the first violation found.
pub(crate) fn check_trace(spans: &[Span], required: &[&str]) -> Result<(), String> {
    let mut by_track: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_track.entry(s.track).or_default().push(s);
    }
    for (track, mut list) in by_track {
        // Outer spans first among equal starts, so a parent precedes the
        // child that starts with it.
        list.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        let mut stack: Vec<&Span> = Vec::new();
        for s in list {
            while stack
                .last()
                .is_some_and(|top| top.start_ns + top.dur_ns <= s.start_ns)
            {
                stack.pop();
            }
            if let Some(top) = stack.last() {
                if s.start_ns + s.dur_ns > top.start_ns + top.dur_ns {
                    return Err(format!(
                        "track {track}: span {} at {} ns overlaps the end of {} at {} ns",
                        s.name, s.start_ns, top.name, top.start_ns
                    ));
                }
            }
            stack.push(s);
        }
    }
    for name in required {
        if !spans.iter().any(|s| s.name == *name) {
            return Err(format!("required span {name} is missing"));
        }
    }
    Ok(())
}

/// Renders spans as Chrome-trace JSON: one complete (`X`) event per span
/// with `tid` = track, a thread-name record per track, and `meta` as
/// process-level arguments.
#[must_use]
pub fn chrome_json(spans: &[Span], meta: &[(&str, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let args: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", v.replace(['"', '\\'], "")))
        .collect();
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"flow_bench\",{}}}}}",
        args.join(",")
    );
    let mut tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for t in tracks {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\
             \"args\":{{\"name\":\"generator-{t}\"}}}}"
        );
    }
    for s in spans {
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}",
            s.name,
            s.track,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3
        );
        if let Some(op) = s.op {
            let _ = write!(out, ",\"args\":{{\"op\":{op}}}");
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, track: u32, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name,
            track,
            op: None,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn nested_and_sequential_spans_pass() {
        let spans = [
            span("bench.op", 0, 0, 100),
            span("cts.greedy", 0, 10, 50),
            span("cts.embed", 0, 60, 40),
            span("bench.op", 0, 100, 10),
            // Another track may overlap freely.
            span("bench.op", 1, 5, 200),
        ];
        check_trace(&spans, &["cts.greedy", "cts.embed"]).unwrap();
    }

    #[test]
    fn interleaved_spans_on_one_track_are_rejected() {
        let spans = [span("bench.op", 0, 0, 100), span("cts.greedy", 0, 50, 80)];
        let err = check_trace(&spans, &[]).unwrap_err();
        assert!(err.contains("overlaps"), "{err}");
        // The same pair on two tracks is fine.
        let spans = [span("bench.op", 0, 0, 100), span("cts.greedy", 1, 50, 80)];
        check_trace(&spans, &[]).unwrap();
    }

    #[test]
    fn missing_required_span_is_rejected() {
        let spans = [span("bench.op", 0, 0, 100)];
        let err = check_trace(&spans, &["core.simulate"]).unwrap_err();
        assert!(err.contains("core.simulate"), "{err}");
    }

    #[test]
    fn track_records_self_time_per_op() {
        let mut t = Track::new(3, Instant::now(), true);
        let v = t.op(7, |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |_| 5)
        });
        assert_eq!(v, 5);
        assert_eq!(t.ops().len(), 1);
        let op = &t.ops()[0];
        let sum: u64 = op.self_ns.values().sum();
        assert_eq!(sum, op.total_ns, "self times partition the op");
        assert!(op.self_ns["a"] >= 2_000_000);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[2].op, Some(7));
        check_trace(t.spans(), &["a", "b"]).unwrap();
        let json = chrome_json(t.spans(), &[("seed", "1".to_owned())]);
        assert!(json.contains("\"tid\":3") && json.contains("\"op\":7"));
        gcr_bench::json::parse(&json).unwrap();
    }

    #[test]
    fn disabled_track_records_nothing() {
        let mut t = Track::new(0, Instant::now(), false);
        assert_eq!(t.op(1, |t| t.span("a", |_| 3)), 3);
        assert!(t.spans().is_empty() && t.ops().is_empty());
    }
}
