//! `gcr-verify`: static verification of a saved gated-clock-tree design.
//!
//! Loads a `gcr-design v1` file (see `gcr-cts::design_io`), re-embeds it
//! under the default technology, runs the full lint deck, and prints the
//! findings. Exits `0` when the design is clean, `1` when any
//! error-severity diagnostic fires (or a pass was skipped under
//! `--deny-skipped`), `2` on usage or load failure.
//!
//! The `audit` subcommand is the determinism harness: it routes the
//! r1–r5 reference benchmarks through the library's gated-routing flow
//! (`gcr_core::route_gated_with_scratch`, the flow `gcrd` runs) across
//! thread counts and traced/untraced configurations, records the
//! decision log of every run, and fails unless all logs are
//! bit-identical and the baseline routing — its tree, node statistics
//! and decision log — verifies clean. The scale benchmarks (r6–r8) can
//! be requested by name; the same flow routes them through the
//! hierarchical coarsening engine, whose decision logs are audited with
//! exactly the same machinery (they are sequential and canonical, like
//! the flat engine's). Only there does the thread axis change what runs:
//! r1–r5 stay below the coarsening cut-over, where the flow runs the
//! serial flat engine at every thread count, and the coarsened region
//! pool is the one reader of the thread setting.

use std::process::ExitCode;
use std::sync::Arc;

use gcr_core::{route_gated_with_scratch, ControllerPlan, DeviceRole, RouterConfig};
use gcr_cts::{
    canonical_decision_log, embed, load_design, CoarsenParams, CoarsenScratch, GreedyParams,
};
use gcr_geometry::{BBox, Point};
use gcr_rctree::Technology;
use gcr_trace::{MemorySink, Tracer};
use gcr_verify::{Scope, Verifier, VerifyInput};
use gcr_workloads::{TsayBenchmark, Workload, WorkloadParams};

const USAGE: &str = "\
usage: gcr-verify [options] <design-file>
       gcr-verify audit [audit-options]

Statically verifies a gcr-design v1 file: tree structure, geometry,
zero skew, gating consistency, and switched-capacitance accounting.

options:
  --json                 emit the report as JSON instead of text
  --sarif                emit the report as SARIF 2.1.0 instead of text
  --deny-skipped         exit nonzero when any pass was skipped
  --scope N,N,...        verify only the given dirty node indices
                         (whole-design passes are skipped and recorded)
  --die X0 Y0 X1 Y1      die outline; default: bounding box of the design
  --skew-tol PS          allowed sink-to-sink skew in ps (default 1e-6)
  --role gate|buffer     how edge devices are accounted (default gate)
  --list-lints           print the registered passes and exit
  -h, --help             print this help

audit-options:
  --benchmarks r1,r2,..  benchmarks to replay, r1..r8 (default r1,r2,r3,r4,r5;
                         r6-r8 are the coarsened scale benchmarks)
  --threads 1,2,4,8      GCR_THREADS values to sweep (default 1,2,4,8)
  --stream-len N         activity stream length (default 2000)
  --sarif-dir DIR        write one SARIF report per benchmark into DIR
";

struct Options {
    path: Option<String>,
    json: bool,
    sarif: bool,
    deny_skipped: bool,
    die: Option<BBox>,
    skew_tol: Option<f64>,
    role: DeviceRole,
    list_lints: bool,
    scope: Option<Vec<usize>>,
}

struct AuditOptions {
    benchmarks: Vec<TsayBenchmark>,
    threads: Vec<usize>,
    stream_len: usize,
    sarif_dir: Option<String>,
}

fn take_f64(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<f64, String> {
    args.next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse::<f64>()
        .map_err(|e| format!("{flag}: {e}"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        path: None,
        json: false,
        sarif: false,
        deny_skipped: false,
        die: None,
        skew_tol: None,
        role: DeviceRole::Gate,
        list_lints: false,
        scope: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--sarif" => opts.sarif = true,
            "--deny-skipped" => opts.deny_skipped = true,
            "--scope" => {
                let value = args.next().ok_or("--scope needs a value")?;
                opts.scope = Some(
                    value
                        .split(',')
                        .map(|n| n.parse::<usize>().map_err(|e| format!("--scope: {e}")))
                        .collect::<Result<_, _>>()?,
                );
            }
            "--list-lints" => opts.list_lints = true,
            "--skew-tol" => opts.skew_tol = Some(take_f64(&mut args, "--skew-tol")?),
            "--die" => {
                let x0 = take_f64(&mut args, "--die")?;
                let y0 = take_f64(&mut args, "--die")?;
                let x1 = take_f64(&mut args, "--die")?;
                let y1 = take_f64(&mut args, "--die")?;
                opts.die = Some(BBox::new(Point::new(x0, y0), Point::new(x1, y1)));
            }
            "--role" => {
                let value = args.next().ok_or("--role needs gate|buffer")?;
                opts.role = match value.as_str() {
                    "gate" => DeviceRole::Gate,
                    "buffer" => DeviceRole::Buffer,
                    other => return Err(format!("--role must be gate or buffer, got {other}")),
                };
            }
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            _ if opts.path.is_none() => opts.path = Some(arg),
            _ => return Err("more than one design file given".into()),
        }
    }
    if opts.json && opts.sarif {
        return Err("--json and --sarif are mutually exclusive".into());
    }
    Ok(opts)
}

fn parse_audit_args(mut args: impl Iterator<Item = String>) -> Result<AuditOptions, String> {
    let mut opts = AuditOptions {
        benchmarks: TsayBenchmark::ALL.to_vec(),
        threads: vec![1, 2, 4, 8],
        stream_len: 2_000,
        sarif_dir: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--benchmarks" => {
                let value = args.next().ok_or("--benchmarks needs a value")?;
                opts.benchmarks = value
                    .split(',')
                    .map(|name| {
                        TsayBenchmark::from_name(name)
                            .ok_or_else(|| format!("unknown benchmark {name}; expected r1..r8"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--threads" => {
                let value = args.next().ok_or("--threads needs a value")?;
                opts.threads = value
                    .split(',')
                    .map(|t| t.parse::<usize>().map_err(|e| format!("--threads: {e}")))
                    .collect::<Result<_, _>>()?;
                if opts.threads.is_empty() {
                    return Err("--threads needs at least one value".into());
                }
            }
            "--stream-len" => {
                let value = args.next().ok_or("--stream-len needs a value")?;
                opts.stream_len = value
                    .parse::<usize>()
                    .map_err(|e| format!("--stream-len: {e}"))?;
            }
            "--sarif-dir" => {
                opts.sarif_dir = Some(args.next().ok_or("--sarif-dir needs a value")?);
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown audit option {other}")),
        }
    }
    Ok(opts)
}

fn run() -> Result<bool, String> {
    let mut args = std::env::args();
    let _argv0 = args.next();
    let args: Vec<String> = args.collect();
    if args.first().map(String::as_str) == Some("audit") {
        let opts = parse_audit_args(args.into_iter().skip(1))?;
        return run_audit(&opts);
    }
    let opts = parse_args(args.into_iter())?;
    let verifier = Verifier::with_default_lints();
    if opts.list_lints {
        for lint in verifier.lints() {
            println!("{:<16} {}", lint.id(), lint.description());
        }
        return Ok(true);
    }
    let Some(path) = opts.path else {
        return Err("no design file given".into());
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let design = load_design(&text).map_err(|e| format!("{path}: {e}"))?;
    let tech = Technology::default();
    let tree = embed(
        &design.topology,
        &design.sinks,
        &tech,
        &design.assignment,
        design.source,
    )
    .map_err(|e| format!("{path}: embedding failed: {e}"))?;

    // Die outline: explicit, or the extent of everything placed.
    let die = opts.die.or_else(|| {
        BBox::of_points(
            tree.ids()
                .map(|id| tree.node(id).location())
                .chain(std::iter::once(design.source)),
        )
    });
    // The paper's centralized controller sits at the center of the chip.
    let controller = ControllerPlan::Centralized {
        location: die.map_or(design.source, |d| d.center()),
    };

    let mut input = VerifyInput::new(&tree, &tech)
        .with_role(opts.role)
        .with_controller(&controller);
    if let Some(die) = die {
        input = input.with_die(die);
    }
    if let Some(tol) = opts.skew_tol {
        input = input.with_skew_tolerance_ps(tol);
    }
    if let Some(nodes) = opts.scope {
        input = input.with_scope(Scope::nodes(nodes));
    }

    let report = verifier.run(&input);
    if opts.json {
        println!("{}", report.render_json());
    } else if opts.sarif {
        println!("{}", report.render_sarif());
    } else {
        print!("{}", report.render_text());
    }
    let denied = opts.deny_skipped && !report.skipped().is_empty();
    if denied && !opts.json && !opts.sarif {
        println!(
            "--deny-skipped: {} pass(es) were skipped",
            report.skipped().len()
        );
    }
    Ok(!report.has_errors() && !denied)
}

fn run_audit(opts: &AuditOptions) -> Result<bool, String> {
    let params = WorkloadParams::smoke().with_stream_len(opts.stream_len);
    if let Some(dir) = &opts.sarif_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    }
    let mut all_ok = true;
    for &which in &opts.benchmarks {
        let workload =
            Workload::generate(which, &params).map_err(|e| format!("{}: {e}", which.name()))?;
        let die = workload.benchmark.die;
        let config = RouterConfig::new(Technology::default(), die);
        let module_of = workload.module_of();
        // One cold-scratch run of the gated-routing flow; it traces to
        // whatever tracer the caller entered.
        let route = |threads: usize| {
            let coarsen = CoarsenParams {
                greedy: GreedyParams {
                    threads: Some(threads),
                    log_decisions: true,
                },
                target_region_size: 0,
            };
            let mut scratch = CoarsenScratch::new();
            let (routing, _) = route_gated_with_scratch(
                &workload.benchmark.sinks,
                &module_of,
                &workload.tables,
                &config,
                &coarsen,
                &mut scratch,
            )
            .map_err(|e| format!("{}: route failed: {e}", which.name()))?;
            Ok::<_, String>((routing, scratch.take_decisions()))
        };

        // The baseline: single-threaded, untraced.
        let (routing, baseline) = route(opts.threads[0])?;
        let baseline_log = canonical_decision_log(&baseline);
        let mut divergent = 0usize;
        let mut configs = 1usize;
        for &threads in &opts.threads {
            for traced in [false, true] {
                if threads == opts.threads[0] && !traced {
                    continue; // the baseline itself
                }
                let tracer = if traced {
                    Tracer::new(Arc::new(MemorySink::new()))
                } else {
                    Tracer::disabled()
                };
                let _entered = tracer.enter();
                let (_, log) = route(threads)?;
                configs += 1;
                if canonical_decision_log(&log) != baseline_log {
                    divergent += 1;
                    eprintln!(
                        "gcr-verify audit: {}: decision log diverges at threads={threads} \
                         traced={traced}",
                        which.name()
                    );
                }
            }
        }

        // Verify the baseline routing end to end, decision log included.
        let report = Verifier::with_default_lints().run(
            &VerifyInput::new(&routing.tree, config.tech())
                .with_die(die)
                .with_controller(config.controller())
                .with_tables(&workload.tables)
                .with_node_stats(&routing.node_stats)
                .with_decision_log(&baseline),
        );
        if let Some(dir) = &opts.sarif_dir {
            let path = format!("{dir}/{}.sarif", which.name());
            std::fs::write(&path, report.render_sarif()).map_err(|e| format!("{path}: {e}"))?;
        }
        let errors = report
            .diagnostics()
            .iter()
            .filter(|d| d.severity == gcr_verify::Severity::Error)
            .count();
        let ok = divergent == 0 && errors == 0;
        all_ok &= ok;
        println!(
            "{}: {} merges, {configs} configs {}, verify: {errors} errors{}",
            which.name(),
            baseline.len(),
            if divergent == 0 {
                "bit-identical".to_string()
            } else {
                format!("with {divergent} divergent")
            },
            if ok { "" } else { " [FAIL]" },
        );
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                ExitCode::SUCCESS
            } else {
                eprintln!("gcr-verify: {msg}");
                eprint!("{USAGE}");
                ExitCode::from(2)
            }
        }
    }
}
