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
