//! Integration tests of the `gcr` binary's command-line surface.
// Test code: unwrap/expect on infallible setup is idiomatic here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::{Command, Output};

use gcr_report::Experiment;

/// The binary's source: every `"--flag" =>` match arm is a flag some
/// subcommand accepts.
const GCR_SOURCE: &str = include_str!("../crates/report/src/bin/gcr.rs");

fn accepted_flags() -> Vec<&'static str> {
    GCR_SOURCE
        .lines()
        .filter_map(|line| {
            let arm = line.trim().strip_prefix('"')?;
            let (flag, rest) = arm.split_once('"')?;
            (flag.starts_with("--") && rest.trim_start().starts_with("=>")).then_some(flag)
        })
        .collect()
}

/// With no arguments, `gcr` exits 2 and prints a usage naming every
/// subcommand and every flag the subcommands accept.
#[test]
fn no_arguments_print_the_full_usage_and_exit_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_gcr"))
        .output()
        .expect("spawning gcr");
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8(out.stderr).unwrap();
    for command in [
        "gcr route",
        "gcr evaluate",
        "gcr experiment",
        "gcr init-example",
    ] {
        assert!(usage.contains(command), "usage omits `{command}`:\n{usage}");
    }
    assert_eq!(Experiment::ALL.len(), 15);
    for exp in Experiment::ALL {
        let named = usage
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .any(|word| word == exp.name());
        assert!(named, "usage omits experiment `{}`:\n{usage}", exp.name());
    }
    let flags = accepted_flags();
    assert!(flags.len() >= 12, "flag scan found only {flags:?}");
    for flag in flags {
        let named = usage
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .any(|word| word == flag);
        assert!(named, "usage omits `{flag}`:\n{usage}");
    }
}

fn gcr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gcr"))
        .args(args)
        .output()
        .expect("spawning gcr")
}

/// Unknown experiments, benchmarks outside r1–r5, non-positive or
/// non-numeric seed counts and flags an experiment does not take are
/// usage errors: exit 2 with the usage and nothing on stdout. Exit 2 is
/// only reachable from the argument parser, so no workload was generated.
#[test]
fn hostile_experiment_arguments_are_usage_errors() {
    for args in [
        &["experiment"][..],
        &["experiment", "fig9"],
        &["experiment", "breakdown", "--bench", "r9"],
        &["experiment", "breakdown", "--bench", "r6"],
        &["experiment", "breakdown", "--bench"],
        &["experiment", "variance", "--seeds", "0"],
        &["experiment", "variance", "--seeds", "abc"],
        &["experiment", "fig4", "--quick"],
        &["experiment", "table4", "--out", "x.html"],
        &["experiment", "all", "--bogus"],
    ] {
        let out = gcr(args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(stderr.contains("usage: gcr"), "{args:?}: {stderr}");
    }
}

/// The cheapest experiment runs end to end and prints its table.
#[test]
fn table4_quick_prints_its_table() {
    let out = gcr(&["experiment", "table4", "--quick"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.starts_with("Table 4: Benchmark characteristics for gated clock routing\n"),
        "{stdout}"
    );
    assert!(
        stdout.contains("Bench  No. of sinks  No. of instr  Stream len  Ave(M(I))"),
        "{stdout}"
    );
    assert_eq!(stdout.matches("\n   r").count(), 3, "{stdout}");
}

/// `route` and `evaluate` parse every flag before reading a file: an
/// unknown flag, a missing flag or value, or a value out of range exits
/// 2 with the usage, names the flag, and prints nothing on stdout. The
/// input paths do not exist, so reaching a file read would exit 1.
#[test]
fn hostile_route_and_evaluate_arguments_are_usage_errors() {
    let route = [
        "route", "--sinks", "no.txt", "--rtl", "no.txt", "--trace", "no.txt",
    ];
    let evaluate = [
        "evaluate", "--design", "no.out", "--rtl", "no.txt", "--trace", "no.txt",
    ];
    let cases: [(&[&str], &[&str], &str); 17] = [
        (&route, &["--bogus"], "--bogus"),
        (&route, &["--strength", "abc"], "--strength"),
        (&route, &["--strength", "2"], "--strength"),
        (&route, &["--strength", "-3"], "--strength"),
        (&route, &["--strength", "inf"], "--strength"),
        (&route, &["--strength", "nan"], "--strength"),
        (&route, &["--strength"], "--strength"),
        (&route, &["--die", "nan", "1"], "--die"),
        (&route, &["--die", "-5", "-5"], "--die"),
        (&route, &["--die", "0", "5"], "--die"),
        (&route, &["--die", "5"], "--die"),
        (&route, &["--controllers", "0"], "--controllers"),
        (&route, &["--controllers", "-1"], "--controllers"),
        (&route[..5], &[], "--trace"),
        (&evaluate, &["--bogus"], "--bogus"),
        (&evaluate, &["--design"], "--design"),
        (
            &["evaluate", "--rtl", "no.txt", "--trace", "no.txt"],
            &[],
            "--design",
        ),
    ];
    for (base, extra, flag) in cases {
        let args: Vec<&str> = base.iter().chain(extra).copied().collect();
        let out = gcr(&args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(stderr.contains("usage: gcr"), "{args:?}: {stderr}");
        let error = stderr.lines().next().unwrap_or_default();
        assert!(
            error.contains(flag),
            "{args:?} does not name {flag}: {error}"
        );
    }
}

/// The value after `label` on the line of `stdout` that starts with it.
fn field<'a>(stdout: &'a str, label: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|line| line.strip_prefix(label))
        .unwrap_or_else(|| panic!("no `{label}` line in:\n{stdout}"))
        .trim_start_matches([' ', ':'])
}

/// `init-example` → `route --save` → `evaluate`: the reloaded design
/// evaluates to exactly the fully gated report `route` printed.
#[test]
fn route_save_then_evaluate_round_trips() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("gcr_cli_round_trip");
    let _ = std::fs::remove_dir_all(&dir);
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    assert!(gcr(&["init-example", &path("")]).status.success());
    let (sinks, rtl, trace, design) = (
        path("sinks.txt"),
        path("rtl.txt"),
        path("trace.txt"),
        path("design.out"),
    );
    let routed = gcr(&[
        "route", "--sinks", &sinks, "--rtl", &rtl, "--trace", &trace, "--save", &design,
    ]);
    assert!(routed.status.success(), "{routed:?}");
    let routed = String::from_utf8(routed.stdout).unwrap();
    assert_eq!(field(&routed, "sinks"), "6");
    assert_eq!(field(&routed, "design"), format!("wrote {design}"));

    let evaluated = gcr(&[
        "evaluate", "--design", &design, "--rtl", &rtl, "--trace", &trace,
    ]);
    assert!(evaluated.status.success(), "{evaluated:?}");
    let evaluated = String::from_utf8(evaluated.stdout).unwrap();
    assert_eq!(field(&evaluated, "reloaded"), "6 sinks, 11 devices");
    assert_eq!(field(&evaluated, "evaluation"), field(&routed, "gated"));
}
