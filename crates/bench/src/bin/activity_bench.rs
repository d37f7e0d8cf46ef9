//! Streaming activity-scan throughput on the production scenario presets.
//!
//! For each [`ActivityScenario`] this generates one multi-million-cycle
//! trace into memory (timed apart, as `generate_wall_ms`) and measures on
//! it:
//!
//! * the **two-pass reference** — [`Ift::scan`] + [`Itmatt::scan`], the
//!   oracle every streamed table must equal bit for bit
//!   (`identical_topology` in the JSON, reusing the gate name
//!   `bench_diff` already enforces);
//! * the **streaming scan** at 1 thread over the pre-buffered
//!   [`SliceSource`] — cold run to grow the [`ScanScratch`], then the
//!   fastest of five timed warm rescans. This is the gated
//!   `pruned.wall_ms` row: it times the scan alone, not the trace
//!   generator;
//! * the same warm rescans at 2 threads (this machine's core count);
//! * a warm rescan over the incremental model generator, informational
//!   only (it mostly times the generator), whose chunk loop must not
//!   allocate either.
//!
//! Allocation counts come from a counting global allocator fed through
//! [`gcr_trace::set_alloc_probe`]. Rows are emitted with
//! `"strict_zero_alloc": true`, which makes `bench_diff` fail — without
//! needing a baseline — whenever a warm single-threaded chunk loop
//! allocated (`pruned.loop_allocs` sums the slice and generator rescans);
//! the usual wall-time threshold catches throughput regressions against
//! the checked-in `BENCH_activity.json`.
//!
//! Usage: `activity_bench [--cycles N] [--seed S] [--out BENCH_activity.json]`

mod common;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use gcr_activity::{
    scan_source, ActivityTables, CpuModel, Ift, Itmatt, ScanParams, ScanProfile, ScanScratch,
    SliceSource, TraceSource,
};
use gcr_workloads::ActivityScenario;

/// Modules in every scenario model: enough for non-trivial RTL without
/// dominating the scan with table construction.
const MODULES: usize = 96;

/// Threads of the parallel column: this machine's core count.
const PARALLEL_THREADS: usize = 2;

/// Worker threads of the gated warm scan (`pruned.*`).
const GATED_THREADS: usize = 1;

/// One scenario's measurements.
struct ScenarioRun {
    scenario: ActivityScenario,
    cycles: u64,
    /// Generating the trace into memory, wall ms.
    generate_ms: f64,
    /// Two-pass reference scan of the buffered trace, wall ms.
    reference_ms: f64,
    /// Warm single-thread scan of the buffered trace.
    warm1: ScanProfile,
    warm1_ms: f64,
    /// Warm scan of the buffered trace at [`PARALLEL_THREADS`].
    warm2: ScanProfile,
    warm2_ms: f64,
    /// Warm single-thread scan over the model generator.
    generator: ScanProfile,
    generator_ms: f64,
    /// Every streamed table == the two-pass reference, bit for bit.
    identical_tables: bool,
}

impl ScenarioRun {
    /// Warm parallel speedup over the warm single-thread run.
    fn speedup_2t(&self) -> f64 {
        self.warm1_ms / self.warm2_ms.max(1e-6)
    }

    /// Cycles per second of the fastest warm single-thread rescan.
    fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / (self.warm1_ms / 1e3).max(1e-9)
    }

    /// Warm single-thread chunk-loop allocations, both sources.
    fn loop_allocs(&self) -> u64 {
        self.warm1.chunk_allocs + self.generator.chunk_allocs
    }
}

/// Timed warm rescans of the buffered trace; the fastest is reported.
/// Interference from other processes only ever slows a rescan down.
const WARM_REPS: usize = 5;

/// A cold scan of `source()` to grow a fresh scratch, then `reps` timed
/// warm rescans: the fastest wall ms, and the largest chunk-loop
/// allocation count of any rescan.
#[expect(
    clippy::expect_used,
    reason = "bench harness: a failing scan of a generated trace is a bug"
)]
fn warm_scan<S: TraceSource>(
    model: &CpuModel,
    threads: usize,
    reps: usize,
    source: impl Fn() -> S,
) -> (ActivityTables, ScanProfile, f64) {
    let params = ScanParams {
        threads: Some(threads),
        ..ScanParams::default()
    };
    let mut scratch = ScanScratch::new();
    let scan = |scratch: &mut ScanScratch| {
        let mut warm = source();
        let t = Instant::now();
        let (tables, profile) = scan_source(model.rtl(), &mut warm, &params, scratch)
            .expect("streaming scan failed on a generated trace");
        (tables, profile, t.elapsed().as_secs_f64() * 1e3)
    };
    scan(&mut scratch); // cold: grows the scratch
    let (tables, mut profile, mut best_ms) = scan(&mut scratch);
    for _ in 1..reps {
        let (_, p, ms) = scan(&mut scratch);
        best_ms = best_ms.min(ms);
        profile.chunk_allocs = profile.chunk_allocs.max(p.chunk_allocs);
    }
    (tables, profile, best_ms)
}

#[expect(
    clippy::expect_used,
    reason = "bench harness: aborting on a degenerate generated model is intended"
)]
fn measure(scenario: ActivityScenario, cycles: u64, seed: u64) -> ScenarioRun {
    let model = scenario
        .model(MODULES, seed)
        .expect("scenario model is valid by construction");

    let t = Instant::now();
    let stream = model.generate_stream(cycles as usize);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let reference = (
        Ift::scan(model.rtl(), &stream),
        Itmatt::scan(model.rtl(), &stream),
    );
    let reference_ms = t.elapsed().as_secs_f64() * 1e3;

    let buffered = || SliceSource::new(&stream);
    let (tables1, warm1, warm1_ms) = warm_scan(&model, GATED_THREADS, WARM_REPS, buffered);
    let (tables2, warm2, warm2_ms) = warm_scan(&model, PARALLEL_THREADS, WARM_REPS, buffered);
    let (tables_gen, generator, generator_ms) =
        warm_scan(&model, 1, 1, || model.trace_source(cycles));

    let identical_tables = [&tables1, &tables2, &tables_gen]
        .iter()
        .all(|t| t.ift() == &reference.0 && t.itmatt() == &reference.1);

    ScenarioRun {
        scenario,
        cycles,
        generate_ms,
        reference_ms,
        warm1,
        warm1_ms,
        warm2,
        warm2_ms,
        generator,
        generator_ms,
        identical_tables,
    }
}

/// Renders the `bench_diff`-compatible JSON document. The warm
/// single-thread scan of the buffered trace is the gated row
/// (`pruned.wall_ms`, `pruned.loop_allocs`); the reference, generator and
/// 2-thread numbers ride along as informational fields.
///
/// `params` ends with [`common::provenance`]'s stamp for the gated row's
/// [`GATED_THREADS`]; the 2-thread row carries its own `threads2`.
fn render_json(cycles: u64, seed: u64, runs: &[ScenarioRun]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"params\": {{\"cycles\": {cycles}, \"seed\": {seed}, \"modules\": {MODULES}, {}}},",
        common::provenance(GATED_THREADS)
    );
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(
            out,
            "      \"benchmark\": \"{}\", \"objective\": \"activity-scan\", \
             \"cycles\": {},",
            r.scenario.name(),
            r.cycles
        );
        let _ = writeln!(
            out,
            "      \"pruned\": {{\"wall_ms\": {:.3}, \"loop_allocs\": {}, \
             \"merge_allocs\": {}, \"chunks\": {}}},",
            r.warm1_ms,
            r.loop_allocs(),
            r.warm1.merge_allocs,
            r.warm1.chunks
        );
        let _ = writeln!(
            out,
            "      \"generate_wall_ms\": {:.3}, \"reference_wall_ms\": {:.3}, \
             \"generator_wall_ms\": {:.3}, \"generator_loop_allocs\": {},",
            r.generate_ms, r.reference_ms, r.generator_ms, r.generator.chunk_allocs
        );
        let _ = writeln!(
            out,
            "      \"warm2_wall_ms\": {:.3}, \"speedup_2t\": {:.2}, \"threads2\": {}, \
             \"cycles_per_sec\": {:.0},",
            r.warm2_ms,
            r.speedup_2t(),
            r.warm2.threads,
            r.cycles_per_sec()
        );
        let _ = writeln!(
            out,
            "      \"strict_zero_alloc\": true, \"identical_topology\": {}",
            r.identical_tables
        );
        out.push_str(if i + 1 == runs.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parsed command line.
#[derive(Debug)]
struct Cli {
    cycles: u64,
    seed: u64,
    out_path: String,
}

/// Parses the argument list (without the program name). Errors are the
/// usage message to print before exiting nonzero.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        cycles: 10_000_000,
        seed: 20,
        out_path: String::from("BENCH_activity.json"),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        if arg == "--cycles" {
            cli.cycles = value("--cycles")?
                .parse::<u64>()
                .map_err(|e| format!("--cycles: {e}"))?
                .max(2);
        } else if arg == "--seed" {
            cli.seed = value("--seed")?
                .parse::<u64>()
                .map_err(|e| format!("--seed: {e}"))?;
        } else if arg == "--out" {
            cli.out_path = value("--out")?;
        } else {
            return Err(format!(
                "unknown argument `{arg}`; usage: activity_bench [--cycles N] \
                 [--seed S] [--out PATH]"
            ));
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    common::install_alloc_probe();
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut runs = Vec::new();
    for scenario in ActivityScenario::ALL {
        eprintln!(
            "{scenario}: streaming {} cycles ({})...",
            cli.cycles,
            scenario.description()
        );
        runs.push(measure(scenario, cli.cycles, cli.seed));
    }

    let mut ok = true;
    for r in &runs {
        println!(
            "{:<16} cycles {:>10}  generate {:>7.1} ms  reference {:>7.1} ms  \
             warm 1t {:>6.1} ms ({:>6.1} Mcyc/s)  warm 2t {:>6.1} ms ({:.2}x)  \
             generator {:>7.1} ms  loop allocs {}  identical {}",
            r.scenario.name(),
            r.cycles,
            r.generate_ms,
            r.reference_ms,
            r.warm1_ms,
            r.cycles_per_sec() / 1e6,
            r.warm2_ms,
            r.speedup_2t(),
            r.generator_ms,
            r.loop_allocs(),
            r.identical_tables,
        );
        if !r.identical_tables {
            eprintln!(
                "FAIL: {} streamed tables diverged from the two-pass reference",
                r.scenario.name()
            );
            ok = false;
        }
        if r.loop_allocs() > 0 {
            eprintln!(
                "FAIL: {} warm single-thread chunk loops allocated {} times",
                r.scenario.name(),
                r.loop_allocs()
            );
            ok = false;
        }
    }

    let json = render_json(cli.cycles, cli.seed, &runs);
    if !common::write_or_report(&cli.out_path, &json) {
        return ExitCode::FAILURE;
    }
    println!("wrote {}", cli.out_path);

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_trace::json::{self, Json};

    #[test]
    fn parse_args_defaults() {
        let cli = parse_args(Vec::new()).unwrap();
        assert_eq!(cli.cycles, 10_000_000);
        assert_eq!(cli.out_path, "BENCH_activity.json");
    }

    #[test]
    fn parse_args_overrides() {
        let cli =
            parse_args(["--cycles", "5000", "--seed", "7", "--out", "x.json"].map(String::from))
                .unwrap();
        assert_eq!(cli.cycles, 5_000);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.out_path, "x.json");
    }

    #[test]
    fn arg_errors_are_reported() {
        assert!(parse_args(["--cycles"].map(String::from)).is_err());
        assert!(parse_args(["--cycles", "nope"].map(String::from)).is_err());
        assert!(parse_args(["--bogus"].map(String::from))
            .unwrap_err()
            .contains("unknown argument"));
    }

    #[test]
    fn json_rows_carry_the_gate_fields() {
        let run = measure(ActivityScenario::LowPersistence, 5_000, 3);
        assert!(run.identical_tables);
        let json = render_json(5_000, 3, &[run]);
        let doc = json::parse(&json).unwrap();
        let params = doc.get("params").unwrap();
        assert_eq!(params.get("seed").and_then(Json::as_f64), Some(3.0));
        assert_eq!(params.get("threads").and_then(Json::as_f64), Some(1.0));
        assert!(params.get("rev").and_then(Json::as_str).is_some());
        let rows = doc.get("runs").and_then(Json::as_array).unwrap();
        let row = &rows[0];
        assert_eq!(
            row.get("benchmark").and_then(Json::as_str),
            Some("low-persistence")
        );
        assert_eq!(
            row.get("strict_zero_alloc").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            row.get("identical_topology").and_then(Json::as_bool),
            Some(true)
        );
        assert!(row
            .get("pruned")
            .and_then(|p| p.get("loop_allocs"))
            .and_then(Json::as_f64)
            .is_some());
    }
}
