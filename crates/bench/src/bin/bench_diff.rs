//! Perf-regression gate: compares two `BENCH_greedy.json` files.
//!
//! Usage: `bench_diff BASELINE.json NEW.json [--threshold PCT] [--strict]
//! [--trace PATH]`
//!
//! For every `(benchmark, objective)` run present in both files this
//! compares the **pruned engine's** wall time and reports the relative
//! change. The tool exits non-zero when
//!
//! * any run in the new file lost bit-identity with the exhaustive
//!   reference (`identical_topology: false`), or
//! * any common run's pruned wall time regressed by more than the
//!   threshold (default 25 %), or
//! * any common run's pruned `bound_evals` or `heap_pops` grew by more
//!   than the threshold. Wall time is noisy on shared CI hardware;
//!   these counters are deterministic, so a pruning-quality regression
//!   is caught even when the clock happens to look fine, or
//! * any new run's warm-ECO loop allocated (`eco_loop_allocs > 0` — a
//!   broken zero-allocation contract, gated without needing a
//!   baseline), or a common run's `eco_warm_ms` regressed, or its
//!   `eco_speedup_vs_scratch` fell, by more than the threshold, or
//! * any new run marked `"strict_zero_alloc": true` (the
//!   `activity_bench` streaming-scan rows) reported
//!   `pruned.loop_allocs > 0` — like the ECO contract, gated without
//!   needing a baseline.
//!
//! The ECO columns are optional on both sides (`greedy_bench --eco`
//! emits them); a file without them diffs exactly as before.
//!
//! Runs present in only one file are reported as informative skips and
//! never fail the gate by default, so the CI smoke job can measure a
//! benchmark subset against the full checked-in baseline. With
//! `--strict` — intended for full-suite baseline refreshes — a run
//! missing from either side is a failure, catching a benchmark that
//! silently fell out of the baseline. Speed-ups and small noise-level
//! regressions are informational.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

use gcr_trace::json::{parse, Json};
use gcr_trace::{ChromeTraceSink, Tracer};

/// The fields `bench_diff` needs from one `runs[]` entry.
struct Run {
    pruned_wall_ms: f64,
    exact_cost_evals: f64,
    bound_evals: f64,
    heap_pops: f64,
    identical_topology: bool,
    /// NaN when the file was produced without `greedy_bench --eco`.
    eco_warm_ms: f64,
    eco_speedup: f64,
    eco_loop_allocs: f64,
    /// When true, `pruned_loop_allocs > 0` fails without a baseline
    /// (`activity_bench` emits this on its streaming-scan rows).
    strict_zero_alloc: bool,
    pruned_loop_allocs: f64,
}

fn load_runs(path: &str) -> Result<BTreeMap<(String, String), Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: missing \"runs\" array"))?;
    let mut out = BTreeMap::new();
    for (i, run) in runs.iter().enumerate() {
        let field = |key: &str| {
            run.get(key)
                .ok_or_else(|| format!("{path}: runs[{i}] missing \"{key}\""))
        };
        let benchmark = field("benchmark")?
            .as_str()
            .ok_or_else(|| format!("{path}: runs[{i}].benchmark is not a string"))?
            .to_owned();
        let objective = field("objective")?
            .as_str()
            .ok_or_else(|| format!("{path}: runs[{i}].objective is not a string"))?
            .to_owned();
        let pruned = field("pruned")?;
        let pruned_wall_ms = pruned
            .get("wall_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: runs[{i}].pruned.wall_ms is not a number"))?;
        let exact_cost_evals = pruned
            .get("exact_cost_evals")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let bound_evals = pruned
            .get("bound_evals")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let heap_pops = pruned
            .get("heap_pops")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let identical_topology = field("identical_topology")?
            .as_bool()
            .ok_or_else(|| format!("{path}: runs[{i}].identical_topology is not a boolean"))?;
        let optional = |key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        out.insert(
            (benchmark, objective),
            Run {
                pruned_wall_ms,
                exact_cost_evals,
                bound_evals,
                heap_pops,
                identical_topology,
                eco_warm_ms: optional("eco_warm_ms"),
                eco_speedup: optional("eco_speedup_vs_scratch"),
                eco_loop_allocs: optional("eco_loop_allocs"),
                strict_zero_alloc: run
                    .get("strict_zero_alloc")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                pruned_loop_allocs: pruned
                    .get("loop_allocs")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
            },
        );
    }
    Ok(out)
}

/// Pure comparison over the two loaded run maps: the gate verdict plus
/// the report lines to print, in order. Separated from I/O so the gate
/// semantics (threshold, counters, strictness) are unit-testable.
fn diff(
    baseline: &BTreeMap<(String, String), Run>,
    fresh: &BTreeMap<(String, String), Run>,
    threshold_pct: f64,
    strict: bool,
) -> (bool, Vec<String>) {
    let mut ok = true;
    let mut lines = Vec::new();
    lines.push(format!(
        "{:<4} {:<18} {:>12} {:>12} {:>9}  verdict",
        "run", "objective", "base ms", "new ms", "delta"
    ));
    for ((benchmark, objective), new_run) in fresh {
        if !new_run.identical_topology {
            lines.push(format!(
                "{benchmark:<4} {objective:<18} {:>12} {:>12.3} {:>9}  FAIL (topology diverged)",
                "-", new_run.pruned_wall_ms, "-"
            ));
            ok = false;
            continue;
        }
        // The warm-ECO zero-allocation contract needs no baseline: any
        // measured run that allocated in its loop phase is a failure.
        if new_run.eco_loop_allocs > 0.0 {
            lines.push(format!(
                "{benchmark:<4} {objective:<18} FAIL (warm ECO loop allocated {} times)",
                new_run.eco_loop_allocs
            ));
            ok = false;
        }
        // Same baseline-free discipline for rows that opted into the
        // strict zero-allocation contract (streaming activity scans):
        // any warm-loop allocation is a failure on its own.
        if new_run.strict_zero_alloc && new_run.pruned_loop_allocs > 0.0 {
            lines.push(format!(
                "{benchmark:<4} {objective:<18} FAIL (strict warm loop allocated {} times)",
                new_run.pruned_loop_allocs
            ));
            ok = false;
        }
        match baseline.get(&(benchmark.clone(), objective.clone())) {
            Some(base) if base.pruned_wall_ms > 0.0 => {
                let delta_pct =
                    100.0 * (new_run.pruned_wall_ms - base.pruned_wall_ms) / base.pruned_wall_ms;
                let verdict = if delta_pct > threshold_pct {
                    ok = false;
                    "FAIL (regression)"
                } else if delta_pct < -threshold_pct {
                    "ok (speed-up)"
                } else {
                    "ok"
                };
                lines.push(format!(
                    "{benchmark:<4} {objective:<18} {:>12.3} {:>12.3} {:>+8.1}%  {verdict}",
                    base.pruned_wall_ms, new_run.pruned_wall_ms, delta_pct
                ));
                // Evaluation counts are deterministic; call out drift even
                // when wall time stays within the threshold.
                if new_run.exact_cost_evals.is_finite()
                    && base.exact_cost_evals.is_finite()
                    && new_run.exact_cost_evals > base.exact_cost_evals
                {
                    lines.push(format!(
                        "     note: exact cost evals grew {} -> {}",
                        base.exact_cost_evals, new_run.exact_cost_evals
                    ));
                }
                for (name, base_count, new_count) in [
                    ("bound_evals", base.bound_evals, new_run.bound_evals),
                    ("heap_pops", base.heap_pops, new_run.heap_pops),
                ] {
                    if base_count.is_finite() && new_count.is_finite() && base_count > 0.0 {
                        let count_delta_pct = 100.0 * (new_count - base_count) / base_count;
                        if count_delta_pct > threshold_pct {
                            ok = false;
                            lines.push(format!(
                                "     FAIL: {name} grew {base_count} -> {new_count} ({count_delta_pct:+.1}%)"
                            ));
                        }
                    }
                }
                // ECO columns, when both files carry them: warm
                // incremental wall time must not regress, and the
                // speedup over the from-scratch run must not collapse.
                if base.eco_warm_ms.is_finite()
                    && new_run.eco_warm_ms.is_finite()
                    && base.eco_warm_ms > 0.0
                {
                    let eco_delta_pct =
                        100.0 * (new_run.eco_warm_ms - base.eco_warm_ms) / base.eco_warm_ms;
                    if eco_delta_pct > threshold_pct {
                        ok = false;
                        lines.push(format!(
                            "     FAIL: eco_warm_ms regressed {:.4} -> {:.4} ({eco_delta_pct:+.1}%)",
                            base.eco_warm_ms, new_run.eco_warm_ms
                        ));
                    } else {
                        lines.push(format!(
                            "     eco: warm {:.4} -> {:.4} ms ({eco_delta_pct:+.1}%)",
                            base.eco_warm_ms, new_run.eco_warm_ms
                        ));
                    }
                }
                if base.eco_speedup.is_finite()
                    && new_run.eco_speedup.is_finite()
                    && base.eco_speedup > 0.0
                {
                    let drop_pct =
                        100.0 * (base.eco_speedup - new_run.eco_speedup) / base.eco_speedup;
                    if drop_pct > threshold_pct {
                        ok = false;
                        lines.push(format!(
                            "     FAIL: eco_speedup_vs_scratch fell {:.1}x -> {:.1}x ({drop_pct:+.1}%)",
                            base.eco_speedup, new_run.eco_speedup
                        ));
                    }
                }
            }
            Some(_) => {
                lines.push(format!(
                    "{benchmark:<4} {objective:<18} {:>12} {:>12.3} {:>9}  skipped (zero baseline)",
                    "0", new_run.pruned_wall_ms, "-"
                ));
            }
            None if strict => {
                lines.push(format!(
                    "{benchmark:<4} {objective:<18} {:>12} {:>12.3} {:>9}  FAIL (missing from baseline)",
                    "-", new_run.pruned_wall_ms, "-"
                ));
                ok = false;
            }
            None => {
                lines.push(format!(
                    "{benchmark:<4} {objective:<18} {:>12} {:>12.3} {:>9}  skipped (new, no baseline)",
                    "-", new_run.pruned_wall_ms, "-"
                ));
            }
        }
    }
    for key in baseline.keys() {
        if !fresh.contains_key(key) {
            if strict {
                lines.push(format!(
                    "{:<4} {:<18} FAIL (baseline-only: not measured in the new file)",
                    key.0, key.1
                ));
                ok = false;
            } else {
                lines.push(format!(
                    "{:<4} {:<18} skipped (baseline-only: not measured in the new file)",
                    key.0, key.1
                ));
            }
        }
    }
    (ok, lines)
}

fn run(
    baseline_path: &str,
    new_path: &str,
    threshold_pct: f64,
    strict: bool,
    tracer: &Tracer,
) -> Result<bool, String> {
    let _diff = tracer.span("diff.run");
    let baseline = {
        let _span = tracer.span("diff.load_baseline");
        load_runs(baseline_path)?
    };
    let fresh = {
        let _span = tracer.span("diff.load_new");
        load_runs(new_path)?
    };
    let _compare = tracer.span("diff.compare");
    tracer.counter("diff.baseline_runs", baseline.len() as f64);
    tracer.counter("diff.new_runs", fresh.len() as f64);

    let (ok, lines) = diff(&baseline, &fresh, threshold_pct, strict);
    for line in lines {
        println!("{line}");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    const USAGE: &str =
        "usage: bench_diff BASELINE.json NEW.json [--threshold PCT] [--strict] [--trace PATH]";
    let mut positional: Vec<String> = Vec::new();
    let mut threshold_pct = 25.0;
    let mut strict = false;
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--strict" {
            strict = true;
        } else if arg == "--threshold" {
            match args.next().as_deref().map(str::parse::<f64>) {
                Some(Ok(t)) if t >= 0.0 => threshold_pct = t,
                _ => {
                    eprintln!("--threshold requires a non-negative percentage");
                    return ExitCode::from(2);
                }
            }
        } else if arg == "--trace" {
            match args.next() {
                Some(p) => trace_path = Some(p),
                None => {
                    eprintln!("--trace requires a path");
                    return ExitCode::from(2);
                }
            }
        } else if arg == "--help" || arg == "-h" {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        } else {
            positional.push(arg);
        }
    }
    let [baseline_path, new_path] = positional.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let chrome = trace_path
        .as_ref()
        .map(|_| Arc::new(ChromeTraceSink::new()));
    let tracer = match &chrome {
        Some(sink) => Tracer::new(Arc::clone(sink) as Arc<dyn gcr_trace::TraceSink>),
        None => Tracer::disabled(),
    };

    let outcome = run(baseline_path, new_path, threshold_pct, strict, &tracer);

    if let (Some(path), Some(sink)) = (&trace_path, &chrome) {
        if let Err(e) = sink.write_to(path) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    match outcome {
        Ok(true) => {
            println!("bench_diff: OK (threshold {threshold_pct}%)");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("bench_diff: FAIL (threshold {threshold_pct}%)");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("bench_diff: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_entry(wall_ms: f64, identical: bool) -> Run {
        Run {
            pruned_wall_ms: wall_ms,
            exact_cost_evals: 100.0,
            bound_evals: 1_000.0,
            heap_pops: 500.0,
            identical_topology: identical,
            eco_warm_ms: f64::NAN,
            eco_speedup: f64::NAN,
            eco_loop_allocs: f64::NAN,
            strict_zero_alloc: false,
            pruned_loop_allocs: 0.0,
        }
    }

    fn eco_entry(wall_ms: f64, eco_warm_ms: f64, eco_speedup: f64) -> Run {
        Run {
            eco_warm_ms,
            eco_speedup,
            eco_loop_allocs: 0.0,
            ..run_entry(wall_ms, true)
        }
    }

    fn map(entries: Vec<(&str, &str, Run)>) -> BTreeMap<(String, String), Run> {
        entries
            .into_iter()
            .map(|(b, o, r)| ((b.to_owned(), o.to_owned()), r))
            .collect()
    }

    #[test]
    fn matching_runs_within_threshold_pass() {
        let baseline = map(vec![("r1", "equation-3", run_entry(10.0, true))]);
        let fresh = map(vec![("r1", "equation-3", run_entry(11.0, true))]);
        let (ok, lines) = diff(&baseline, &fresh, 25.0, false);
        assert!(ok, "{lines:?}");
        assert!(lines.iter().any(|l| l.ends_with("ok")));
    }

    #[test]
    fn wall_time_regressions_fail() {
        let baseline = map(vec![("r1", "equation-3", run_entry(10.0, true))]);
        let fresh = map(vec![("r1", "equation-3", run_entry(20.0, true))]);
        let (ok, lines) = diff(&baseline, &fresh, 25.0, false);
        assert!(!ok);
        assert!(lines.iter().any(|l| l.contains("FAIL (regression)")));
    }

    #[test]
    fn diverged_topology_fails_even_without_baseline() {
        let baseline = map(vec![]);
        let fresh = map(vec![("r6", "equation-3", run_entry(5.0, false))]);
        let (ok, lines) = diff(&baseline, &fresh, 25.0, false);
        assert!(!ok);
        assert!(lines.iter().any(|l| l.contains("topology diverged")));
    }

    #[test]
    fn counter_growth_fails_when_wall_time_is_quiet() {
        let baseline = map(vec![("r2", "nearest-neighbor", run_entry(10.0, true))]);
        let mut new_run = run_entry(10.0, true);
        new_run.heap_pops = 5_000.0;
        let fresh = map(vec![("r2", "nearest-neighbor", new_run)]);
        let (ok, lines) = diff(&baseline, &fresh, 25.0, false);
        assert!(!ok);
        assert!(lines.iter().any(|l| l.contains("heap_pops grew")));
    }

    #[test]
    fn eco_runs_within_threshold_pass_and_regressions_fail() {
        let baseline = map(vec![("r4", "equation-3", eco_entry(10.0, 0.10, 100.0))]);
        let fresh = map(vec![("r4", "equation-3", eco_entry(10.0, 0.11, 95.0))]);
        let (ok, lines) = diff(&baseline, &fresh, 25.0, false);
        assert!(ok, "{lines:?}");

        let fresh = map(vec![("r4", "equation-3", eco_entry(10.0, 0.30, 33.0))]);
        let (ok, lines) = diff(&baseline, &fresh, 25.0, false);
        assert!(!ok);
        assert!(lines.iter().any(|l| l.contains("eco_warm_ms regressed")));
        assert!(lines
            .iter()
            .any(|l| l.contains("eco_speedup_vs_scratch fell")));
    }

    #[test]
    fn strict_rows_fail_on_any_loop_allocation_without_a_baseline() {
        let baseline = map(vec![]);
        let mut new_run = run_entry(10.0, true);
        new_run.strict_zero_alloc = true;
        new_run.pruned_loop_allocs = 2.0;
        let fresh = map(vec![("bursty", "activity-scan", new_run)]);
        let (ok, lines) = diff(&baseline, &fresh, 25.0, false);
        assert!(!ok);
        assert!(lines.iter().any(|l| l.contains("strict warm loop")));

        // The same allocations on a row that did not opt in stay quiet:
        // BENCH_greedy's coarsened rows legitimately allocate.
        let mut lax = run_entry(10.0, true);
        lax.pruned_loop_allocs = 12.0;
        let fresh = map(vec![("r6", "equation-3", lax)]);
        let (ok, _) = diff(&baseline, &fresh, 25.0, false);
        assert!(ok, "non-strict rows must tolerate loop allocations");
    }

    #[test]
    fn eco_loop_allocations_fail_without_a_baseline() {
        let baseline = map(vec![]);
        let mut new_run = eco_entry(10.0, 0.10, 100.0);
        new_run.eco_loop_allocs = 3.0;
        let fresh = map(vec![("r1", "equation-3", new_run)]);
        let (ok, lines) = diff(&baseline, &fresh, 25.0, false);
        assert!(!ok);
        assert!(lines.iter().any(|l| l.contains("warm ECO loop allocated")));
    }

    #[test]
    fn files_without_eco_columns_diff_as_before() {
        let baseline = map(vec![("r1", "equation-3", run_entry(10.0, true))]);
        let fresh = map(vec![("r1", "equation-3", eco_entry(10.0, 0.1, 80.0))]);
        let (ok, lines) = diff(&baseline, &fresh, 25.0, false);
        assert!(ok, "one-sided eco columns must stay informative: {lines:?}");
    }

    #[test]
    fn missing_runs_skip_by_default_and_fail_in_strict_mode() {
        // A one-sided pair in each direction.
        let baseline = map(vec![("r1", "equation-3", run_entry(10.0, true))]);
        let fresh = map(vec![("r6", "equation-3", run_entry(900.0, true))]);

        let (ok, lines) = diff(&baseline, &fresh, 25.0, false);
        assert!(ok, "one-sided runs must stay informative by default");
        assert!(lines
            .iter()
            .any(|l| l.contains("skipped (new, no baseline)")));
        assert!(lines.iter().any(|l| l.contains("skipped (baseline-only")));

        let (ok, lines) = diff(&baseline, &fresh, 25.0, true);
        assert!(!ok, "strict mode must flag one-sided runs");
        assert!(lines
            .iter()
            .any(|l| l.contains("FAIL (missing from baseline)")));
        assert!(lines.iter().any(|l| l.contains("FAIL (baseline-only")));
    }

    /// The provenance stamp in `params` (`threads`, `rev`) is not read:
    /// a stamped file and an older unstamped baseline diff clean both ways.
    #[test]
    fn provenance_params_are_ignored() {
        let row = r#"{"benchmark": "r1", "objective": "equation-3",
            "pruned": {"wall_ms": 5.0, "bound_evals": 10, "heap_pops": 3},
            "identical_topology": true}"#;
        let dir = std::env::temp_dir().join("gcr_bench_diff_provenance");
        std::fs::create_dir_all(&dir).unwrap();
        let old = dir.join("old.json");
        let new = dir.join("new.json");
        std::fs::write(
            &old,
            format!(r#"{{"params": {{"seed": 1}}, "runs": [{row}]}}"#),
        )
        .unwrap();
        std::fs::write(
            &new,
            format!(
                r#"{{"params": {{"seed": 1, "threads": 2, "rev": "unknown"}}, "runs": [{row}]}}"#
            ),
        )
        .unwrap();
        let (old, new) = (old.to_str().unwrap(), new.to_str().unwrap());
        let tracer = Tracer::disabled();
        assert_eq!(run(old, new, 25.0, true, &tracer), Ok(true));
        assert_eq!(run(new, old, 25.0, true, &tracer), Ok(true));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_mode_passes_when_both_sides_match() {
        let baseline = map(vec![
            ("r1", "equation-3", run_entry(10.0, true)),
            ("r6", "equation-3", run_entry(800.0, true)),
        ]);
        let fresh = map(vec![
            ("r1", "equation-3", run_entry(9.0, true)),
            ("r6", "equation-3", run_entry(820.0, true)),
        ]);
        let (ok, _) = diff(&baseline, &fresh, 25.0, true);
        assert!(ok);
    }
}
