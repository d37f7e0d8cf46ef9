//! Command-line parsing.
//!
//! ```text
//! flow_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!            [--threads N] [--smoke] [--trace-out PATH]
//! ```

use std::fmt;

/// One benchmark workload: a set of inputs and the user path it drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Library flow on r4 through the flat pruned greedy engine.
    RouteR4,
    /// Library flow on r6 through the hierarchical coarsening engine.
    RouteR6,
    /// The full `gcr route` flow on r2, cycle-accurate simulation included.
    CliR2,
    /// Trace import: streaming scans of pre-buffered scenario traces,
    /// each followed by an r1 route.
    Import,
    /// `gcrd` serving cache hits only.
    GcrdRead,
    /// `gcrd` under cache churn and ECO writes.
    GcrdWrite,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 6] = [
        Workload::RouteR4,
        Workload::RouteR6,
        Workload::CliR2,
        Workload::Import,
        Workload::GcrdRead,
        Workload::GcrdWrite,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::RouteR4 => "route-r4",
            Workload::RouteR6 => "route-r6",
            Workload::CliR2 => "cli-r2",
            Workload::Import => "import-36m",
            Workload::GcrdRead => "gcrd-read",
            Workload::GcrdWrite => "gcrd-write",
        }
    }

    /// Resolves a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs in-process (as opposed to against `gcrd`).
    #[must_use]
    pub fn is_batch(self) -> bool {
        !matches!(self, Workload::GcrdRead | Workload::GcrdWrite)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed: design `i` of a run is generated from `seed + i`.
    pub seed: u64,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
    /// Print per-layer metrics from an extra traced pass instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Engine threads; `None` uses the available parallelism.
    pub threads: Option<usize>,
    /// Tiny inputs, for tests.
    pub smoke: bool,
    /// Where to write the traced pass's spans as Chrome-trace JSON.
    pub trace_out: Option<String>,
}

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 1998;

/// Default `--seconds`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// The usage line printed with argument errors.
pub const USAGE: &str = "usage: flow_bench --workload NAME [--seed N] [--seconds S] \
                         [--trace 0|1] [--threads N] [--smoke] [--trace-out PATH]";

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns a message naming the problem: an unknown flag or workload, a
/// flag without its value, or a value that does not parse.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut threads = None;
    let mut smoke = false;
    let mut trace_out = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?;
                workload = Some(w);
            }
            "--seed" => seed = parse_num(&flag, &value()?)?,
            "--seconds" => {
                seconds = parse_num(&flag, &value()?)?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--threads" => {
                let n: usize = parse_num(&flag, &value()?)?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_owned());
                }
                threads = Some(n);
            }
            "--smoke" => smoke = true,
            "--trace-out" => trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        threads,
        smoke,
        trace_out,
    })
}

fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: invalid number {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults_and_full_form() {
        let a = parse(&["--workload", "route-r4"]).unwrap();
        assert_eq!(a.workload, Workload::RouteR4);
        assert_eq!(a.seed, DEFAULT_SEED);
        assert_eq!(a.seconds, DEFAULT_SECONDS);
        assert!(!a.trace && !a.smoke);
        assert_eq!(a.threads, None);

        let a = parse(&[
            "--workload",
            "gcrd-write",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
            "--threads",
            "2",
            "--smoke",
            "--trace-out",
            "t.json",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::GcrdWrite);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 3.0);
        assert!(a.trace && a.smoke);
        assert_eq!(a.threads, Some(2));
        assert_eq!(a.trace_out.as_deref(), Some("t.json"));
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert_eq!(parse(&["--workload", w.name()]).unwrap().workload, w);
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let err = parse(&["--workload", "route-r9"]).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
    }

    #[test]
    fn missing_values_are_errors() {
        assert!(parse(&["--workload", "route-r4", "--seed"])
            .unwrap_err()
            .contains("--seed needs a value"));
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--seed", "3"])
            .unwrap_err()
            .contains("--workload is required"));
    }

    #[test]
    fn malformed_values_are_errors() {
        assert!(parse(&["--workload", "route-r4", "--seed", "x"]).is_err());
        assert!(parse(&["--workload", "route-r4", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "route-r4", "--trace", "yes"]).is_err());
        assert!(parse(&["--workload", "route-r4", "--threads", "0"]).is_err());
        assert!(parse(&["--workload", "route-r4", "--bogus"]).is_err());
    }
}
