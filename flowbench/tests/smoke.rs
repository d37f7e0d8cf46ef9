//! Runs every workload end to end at tiny sizes through the real binary,
//! untraced and traced, and checks the result line.

use std::process::Command;

use gcr_bench::json::{self, Json};

fn run(workload: &str, trace: bool, trace_out: Option<&std::path::Path>) -> Json {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_flow_bench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--smoke",
    ])
    .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let out = cmd.output().expect("flow_bench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the result line is JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    result
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn batch_workloads_run_at_smoke_size() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("flow_bench_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    for (workload, dominant) in [
        ("route-r4", "cts.greedy_share"),
        ("route-r6", "cts.coarsen_share"),
        ("cli-r2", "core.simulate_share"),
        ("import-36m", "activity.scan_share"),
    ] {
        let e2e = run(workload, false, None);
        for name in ["setup_s", "ops_per_s", "switched_cap_ratio"] {
            assert!(metric(&e2e, name) > 0.0, "{workload}: {name}");
        }
        let trace_path = dir.join(format!("{workload}.json"));
        let layers = run(workload, true, Some(&trace_path));
        assert!(metric(&layers, dominant) > 0.0, "{workload}: {dominant}");
        assert!(metric(&layers, "bench.op_self_share") < 0.5);
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        json::parse(&trace).expect("the Chrome trace is JSON");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn daemon_workloads_run_at_smoke_size() {
    for workload in ["gcrd-read", "gcrd-write"] {
        let e2e = run(workload, false, None);
        assert!(metric(&e2e, "ops_per_s") > 0.0);
        let layers = run(workload, true, None);
        assert!(metric(&layers, "bench.peak_rss_mb") > 0.0);
        assert!(metric(&layers, "gcrd.request_share") > 0.0);
        assert_eq!(metric(&layers, "gcrd.rejected"), 0.0);
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "route-r9"][..],
        &["--workload", "route-r4", "--seed"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_flow_bench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
