//! Integration tests of the `gcr` binary's command-line surface.
// Test code: unwrap/expect on infallible setup is idiomatic here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

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
    for command in ["gcr route", "gcr evaluate", "gcr init-example"] {
        assert!(usage.contains(command), "usage omits `{command}`:\n{usage}");
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
