//! What every workload shares: the percentile rule, the cold set-up
//! before each pass, the metric catalogue, the result line and the
//! provenance stamp.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::spans::{OpProfile, ROOT};

/// Untraced passes over the same work; each op (batch) or the whole
/// pass (daemon) keeps its fastest time. Interference from other
/// processes on a shared machine only ever slows a pass down, so the
/// fastest of several passes spread over the window is the steadier
/// estimate.
pub(crate) const PASSES: usize = 3;

/// End-to-end metrics (untraced passes), with units. `BENCHMARK.json`
/// lists the same names.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("switched_cap_ratio", "ratio"),
];

/// Bench-side span names and the per-layer metrics their self time
/// feeds: the median self time per op, and the share of all op time.
const SPAN_METRICS: [(&str, &str, &str); 12] = [
    (ROOT, "bench.op_self_ms", "bench.op_self_share"),
    (
        "workloads.generate",
        "workloads.generate_ms",
        "workloads.generate_share",
    ),
    ("activity.scan", "activity.scan_ms", "activity.scan_share"),
    (
        "core.objective",
        "core.objective_ms",
        "core.objective_share",
    ),
    ("cts.greedy", "cts.greedy_ms", "cts.greedy_share"),
    ("cts.coarsen", "cts.coarsen_ms", "cts.coarsen_share"),
    ("cts.embed", "cts.embed_ms", "cts.embed_share"),
    (
        "core.node_stats",
        "core.node_stats_ms",
        "core.node_stats_share",
    ),
    ("core.evaluate", "core.evaluate_ms", "core.evaluate_share"),
    ("core.reduce", "core.reduce_ms", "core.reduce_share"),
    ("core.simulate", "core.simulate_ms", "core.simulate_share"),
    ("gcrd.request", "gcrd.request_ms", "gcrd.request_share"),
];

/// Per-layer metrics that are not span self times, with units.
const LAYER_COUNTERS: [(&str, &str); 29] = [
    ("workloads.trace_mcycles_per_s", "Mcycle/s"),
    ("activity.scan_mcycles_per_s", "Mcycle/s"),
    ("activity.scan_speedup_t2", "ratio"),
    ("activity.chunk_allocs", "count"),
    ("cts.greedy_seed_ms", "ms"),
    ("cts.greedy_loop_ms", "ms"),
    ("cts.exact_cost_evals", "count"),
    ("cts.bound_evals", "count"),
    ("cts.heap_pops", "count"),
    ("cts.bounds_filtered", "count"),
    ("cts.loop_allocs", "count"),
    ("cts.eq3_over_nn", "ratio"),
    ("core.gates_kept_frac", "ratio"),
    ("gcrd.route_hit_ms_p50", "ms"),
    ("gcrd.route_miss_ms_p50", "ms"),
    ("gcrd.route_force_ms_p50", "ms"),
    ("gcrd.evaluate_ms_p50", "ms"),
    ("gcrd.verify_ms_p50", "ms"),
    ("gcrd.eco_ms_p50", "ms"),
    ("gcrd.eco_pure_replay_frac", "ratio"),
    ("gcrd.hit_ratio", "ratio"),
    ("gcrd.queue_depth_max", "count"),
    ("gcrd.rejected", "count"),
    ("gcrd.panics", "count"),
    ("bench.op_ms_p50", "ms"),
    ("bench.op_ms_p90", "ms"),
    ("bench.op_ms_p99", "ms"),
    ("bench.peak_rss_mb", "MB"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Every per-layer metric name with its unit, in output order.
#[must_use]
fn per_layer_catalogue() -> Vec<(&'static str, &'static str)> {
    let mut out = Vec::new();
    for (_, ms, share) in SPAN_METRICS {
        out.push((ms, "ms"));
        out.push((share, "ratio"));
    }
    out.extend(LAYER_COUNTERS);
    out.push(("bench.ops", "count"));
    out
}

/// Median of `samples` (mean of the middle two for an even count); 0 for
/// an empty slice.
#[must_use]
pub(crate) fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 3] = [99.9, 99.0, 90.0];

/// Timing summary under the reporting rule: the median, plus the highest
/// percentile that has at least ten samples beyond it, plus the count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(percentile, value)` of the reportable tail, if any.
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank percentile `p` (in percent) of `sorted`.
fn nearest_rank(sorted: &[f64], p: f64) -> (usize, f64) {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    // The epsilon keeps 0.999 · 10 000 from rounding up to rank 9 991.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    (rank, sorted[rank - 1])
}

/// Summarizes `samples` under the reporting rule.
#[must_use]
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail = TAIL_PERCENTILES.iter().find_map(|&p| {
        if sorted.is_empty() {
            return None;
        }
        let (rank, value) = nearest_rank(&sorted, p);
        (sorted.len() - rank >= 10).then_some((p, value))
    });
    Summary {
        n: samples.len(),
        p50: median(samples),
        tail,
    }
}

/// The value at percentile `p` if the rule allows reporting it (at
/// least ten samples beyond it), else 0.
#[must_use]
fn tail_at(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let (rank, value) = nearest_rank(&sorted, p);
    if sorted.len() - rank >= 10 {
        value
    } else {
        0.0
    }
}

/// Cold set-ups before each pass continue, up to [`MAX_SETUPS_PER_PASS`],
/// until they have taken this long, so quick set-ups are sampled more.
const SETUP_BUDGET_S: f64 = 0.5;

/// Most cold set-ups before one pass.
const MAX_SETUPS_PER_PASS: usize = 5;

/// Runs [`PASSES`] untraced passes, each after cold set-ups (see
/// [`SETUP_BUDGET_S`]), and returns the median set-up time with the last
/// pass's state. Spreading the set-ups over the window samples them under
/// the same interference as the passes. Each state is dropped before the
/// next set-up, so two never coexist.
///
/// # Errors
///
/// Propagates the first set-up or pass failure.
pub(crate) fn cold_passes<S>(
    mut set_up: impl FnMut() -> Result<S, String>,
    mut pass: impl FnMut(usize, &mut S) -> Result<(), String>,
) -> Result<(f64, S), String> {
    let mut times = Vec::new();
    let mut last = None;
    for p in 0..PASSES {
        drop(last.take());
        let budget = Instant::now();
        let mut reps = 0;
        let mut state = loop {
            let t = Instant::now();
            let state = set_up()?;
            times.push(t.elapsed().as_secs_f64());
            reps += 1;
            if budget.elapsed().as_secs_f64() >= SETUP_BUDGET_S || reps >= MAX_SETUPS_PER_PASS {
                break state;
            }
            // Dropped here, before the next set-up.
        };
        pass(p, &mut state)?;
        last = Some(state);
    }
    let state = last.ok_or("no pass ran")?;
    Ok((median(&times), state))
}

/// Per-layer span metrics from the traced pass's op profiles.
#[must_use]
pub(crate) fn span_metrics(ops: &[OpProfile]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let total: u64 = ops.iter().map(|o| o.total_ns).sum();
    for (span, ms_name, share_name) in SPAN_METRICS {
        let per_op: Vec<f64> = ops
            .iter()
            .map(|o| o.self_ns.get(span).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        let sum: u64 = ops
            .iter()
            .map(|o| o.self_ns.get(span).copied().unwrap_or(0))
            .sum();
        out.insert(ms_name, median(&per_op));
        out.insert(
            share_name,
            if total > 0 {
                sum as f64 / total as f64
            } else {
                0.0
            },
        );
    }
    out
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed ops, warm-up and set-up included).
    pub attempted: u64,
    /// Errors, refusals and output mismatches.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Median set-up time (s).
    pub setup_s: f64,
    /// Per-op latency of the untraced passes (ms): each design's fastest
    /// pass (batch), or every request of the fastest pass (daemon).
    pub op_ms: Vec<f64>,
    /// Operations per second over the same ops.
    pub ops_per_s: f64,
    /// Mean switched-capacitance ratio over the run's fixed design set.
    pub switched_cap_ratio: f64,
    /// Peak resident set (MB) of the process doing the work.
    pub peak_rss_mb: f64,
    /// Per-layer metrics of the traced pass.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one failure.
    pub(crate) fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg.into());
        }
    }

    /// Records `ok` as a pass, or `Err` as a failure.
    pub(crate) fn check(&mut self, ok: Result<(), String>) {
        if let Err(msg) = ok {
            self.fail(msg);
        }
    }
}

/// One metric of the result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result line's metrics for `outcome`: the end-to-end set, or with
/// `trace` the per-layer set (metrics a workload does not exercise read 0).
#[must_use]
pub fn result_metrics(outcome: &Outcome, trace: bool) -> Vec<Metric> {
    if trace {
        let mut layers = outcome.layers.clone();
        layers.insert("bench.op_ms_p50", median(&outcome.op_ms));
        layers.insert("bench.op_ms_p90", tail_at(&outcome.op_ms, 90.0));
        layers.insert("bench.op_ms_p99", tail_at(&outcome.op_ms, 99.0));
        layers.insert("bench.peak_rss_mb", outcome.peak_rss_mb);
        layers.insert("bench.ops", outcome.op_ms.len() as f64);
        per_layer_catalogue()
            .into_iter()
            .map(|(name, unit)| Metric {
                name,
                unit,
                value: layers.get(name).copied().unwrap_or(0.0),
            })
            .collect()
    } else {
        let values = [
            outcome.setup_s,
            outcome.ops_per_s,
            outcome.switched_cap_ratio,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    }
}

/// Renders the final result line.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // JSON has no NaN or infinity; a non-finite value is a bug the
        // caller has already reported as a failure.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The run's provenance: enough to replay it.
#[must_use]
pub fn provenance(workload: &str, seed: u64, threads: usize) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    vec![
        ("workload", workload.to_owned()),
        ("seed", seed.to_string()),
        ("threads", threads.to_string()),
        ("nproc", nproc.to_string()),
        ("rev", git_revision()),
    ]
}

/// The commit checked out in the working directory, or `unknown` outside
/// a git checkout.
#[must_use]
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size (`VmHWM`) in MB of this process, or of `pid`.
#[must_use]
pub(crate) fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_owned(),
        |p| format!("/proc/{p}/status"),
    );
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Writes `contents` to `path`, reporting a failure on stderr. The caller
/// turns `false` into a nonzero exit status.
#[must_use]
pub fn write_or_report(path: &str, contents: &str) -> bool {
    match std::fs::write(path, contents) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert_eq!(tail_at(&v, 90.0), 90.0);
        assert_eq!(tail_at(&v, 99.0), 0.0);

        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, Some((99.9, 9990.0)));

        // 99 samples leave only 9 beyond p90: no tail may be reported.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, None);
        assert_eq!(tail_at(&v, 90.0), 0.0);
        assert_eq!(summarize(&[]).tail, None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn cold_passes_set_up_before_every_pass_and_keep_the_last() {
        let mut built = 0;
        let mut seen = Vec::new();
        let (secs, last) = cold_passes(
            || {
                built += 1;
                Ok(built)
            },
            |p, state| {
                seen.push((p, *state));
                Ok(())
            },
        )
        .unwrap();
        // Instant set-ups repeat up to the per-pass cap; each pass gets
        // the last one.
        let per_pass = MAX_SETUPS_PER_PASS;
        assert_eq!(last, PASSES * per_pass);
        let expected: Vec<_> = (0..PASSES).map(|p| (p, (p + 1) * per_pass)).collect();
        assert_eq!(seen, expected);
        assert!(secs >= 0.0);
        assert!(cold_passes::<()>(|| Err("boom".to_owned()), |_, _| Ok(())).is_err());
        assert!(cold_passes(|| Ok(()), |_, _| Err("bust".to_owned())).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            setup_s: 0.5,
            op_ms: vec![1.0, 2.0, 3.0],
            ops_per_s: 500.0,
            switched_cap_ratio: 9.25,
            peak_rss_mb: 12.0,
            ..Outcome::default()
        };
        let line = result_line(true, 3, 0, &result_metrics(&outcome, false));
        let json = gcr_bench::json::parse(&line).unwrap();
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(json.get("attempted").and_then(|v| v.as_f64()), Some(3.0));
        let metrics = json.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit));
        }
        assert_eq!(
            metrics
                .get("ops_per_s")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(500.0)
        );

        let traced = result_line(true, 3, 0, &result_metrics(&outcome, true));
        let json = gcr_bench::json::parse(&traced).unwrap();
        let metrics = json.get("metrics").unwrap();
        for (name, _) in per_layer_catalogue() {
            assert!(metrics.get(name).is_some(), "{name} missing");
        }
        assert!(metrics.get("ops_per_s").is_none());
        assert_eq!(
            metrics
                .get("bench.op_ms_p50")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(2.0)
        );
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = gcr_bench::json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |v: Vec<(&str, &str)>| -> Vec<(String, String)> {
            v.into_iter()
                .map(|(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END.to_vec()));
        assert_eq!(listed("per_layer"), own(per_layer_catalogue()));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_owned())
            .collect();
        let own_workloads: Vec<String> = crate::cli::Workload::ALL
            .iter()
            .map(|w| w.name().to_owned())
            .collect();
        assert_eq!(workloads, own_workloads);
    }

    #[test]
    fn span_metrics_split_op_time() {
        let mut a = OpProfile {
            total_ns: 10_000_000,
            ..OpProfile::default()
        };
        a.self_ns.insert("cts.greedy", 8_000_000);
        a.self_ns.insert(ROOT, 2_000_000);
        let m = span_metrics(&[a]);
        assert_eq!(m["cts.greedy_ms"], 8.0);
        assert_eq!(m["cts.greedy_share"], 0.8);
        assert_eq!(m["bench.op_self_share"], 0.2);
        assert_eq!(m["core.simulate_share"], 0.0);
    }

    #[test]
    fn write_failures_are_reported() {
        assert!(!write_or_report(
            "/nonexistent-flow-bench-dir/out.json",
            "{}"
        ));
    }
}
