//! Pruned-vs-exhaustive greedy engine comparison on the Tsay suite.
//!
//! For each requested benchmark (default: r1–r5) and for both merge
//! objectives — plain nearest-neighbor distance and the paper's Equation-3
//! switched capacitance — this runs the lower-bound pruned engine
//! ([`gcr_cts::run_greedy_with_scratch`]) and the exhaustive reference
//! ([`gcr_cts::run_greedy_exhaustive_with_scratch`]) on identical inputs,
//! then reports exact-cost evaluation counts, per-phase wall times,
//! allocation counts, and whether the two engines produced bit-identical
//! topologies.
//!
//! The pruned engine is measured **warm**: a first (cold) run grows the
//! reusable [`GreedyScratch`] buffers, then the timed run reuses them — the
//! steady-state regime of the arena engine, whose merge loop performs zero
//! heap allocations (`loop_allocs`). A counting global allocator feeds the
//! engine's allocation profile via [`gcr_trace::set_alloc_probe`].
//!
//! Usage: `greedy_bench [r1 r2 ...] [--eco] [--out BENCH_greedy.json]
//! [--trace PATH]`
//!
//! With `--eco` each reference benchmark additionally measures the
//! incremental ECO engine on the canonical small edit — a single-sink
//! move of ~2 % of the die — against a warm from-scratch pruned run over
//! the same edited design. Both sides exclude objective construction and
//! embedding (the merge search is the contested phase); the ECO side is
//! the warm loop of `examples/eco.rs`: one [`gcr_core::GatedObjective`]
//! and one [`gcr_cts::EcoScratch`] stay alive and
//! [`GatedObjective::truncate`] rewinds to the leaf rows between edits.
//! The equation-3 run row gains `eco_warm_ms`, `eco_scratch_ms`,
//! `eco_speedup_vs_scratch` and `eco_loop_allocs` fields, which
//! `bench_diff` gates alongside the wall times. Scale benchmarks
//! (r6–r8) skip the ECO columns: their from-scratch reference is the
//! coarsened engine, a different algorithm than the flat pruned run the
//! speedup is defined against.
//!
//! The scale benchmarks (r6–r8, up to a million sinks) are opt-in by
//! name and measured differently: the exhaustive reference is skipped
//! (its all-pairs seeding alone would dwarf the measurement) and the
//! instance runs through the hierarchical coarsening engine
//! ([`gcr_cts::run_greedy_coarsened`]); `identical_topology` there
//! records that the warm run at the ambient thread count reproduced the
//! single-threaded cold run's topology.
//!
//! With `--trace PATH` the run records a merged Chrome-trace timeline
//! (load it in `chrome://tracing`, Perfetto or Speedscope): workload and
//! activity-table construction, the warm pruned greedy run with its
//! ring/defer/bound/merge sub-phases, and one full gated-routing flow per
//! benchmark (Equation-3 merge, embedding, Equation-3 evaluation, and the
//! full `gcr-verify` lint suite with a span per pass) so the trace covers
//! every layer of the pipeline.
//!
//! The JSON output backs two acceptance gates: the pruned engine must stay
//! bit-identical everywhere, and `bench_diff` compares `pruned.wall_ms`
//! against the checked-in baseline to catch performance regressions.

mod common;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use gcr_core::{
    evaluate, gated_region_factory, route_gated_coarsened, DeviceRole, GatedObjective, RouterConfig,
};
use gcr_cts::{
    apply_eco, plan_eco_leaves, run_greedy_coarsened, run_greedy_exhaustive_with_scratch,
    run_greedy_with_scratch, CoarsenParams, CoarsenScratch, EcoEdit, EcoScratch, GreedyParams,
    GreedyProfile, GreedyScratch, GreedyStats, MergeObjective, NearestNeighborObjective, Sink,
};
use gcr_geometry::Point;
use gcr_rctree::Technology;
use gcr_trace::{ChromeTraceSink, EchoWarnSink, TraceSink, Tracer};
use gcr_verify::{Verifier, VerifyInput};
use gcr_workloads::{TsayBenchmark, Workload, WorkloadParams};

use common::write_or_report;

/// One engine's measurements on one (benchmark, objective) input.
struct EngineRun {
    stats: GreedyStats,
    profile: GreedyProfile,
    wall_ms: f64,
}

/// A pruned/exhaustive pair on one (benchmark, objective) input. On the
/// scale benchmarks (above [`EXHAUSTIVE_LIMIT`] sinks) the exhaustive
/// reference is skipped — its all-pairs seeding alone would dwarf the
/// measured run — and `identical_topology` instead records that the
/// coarsened engine reproduced its own single-threaded result.
struct Comparison {
    benchmark: &'static str,
    objective: &'static str,
    sinks: usize,
    pruned: EngineRun,
    exhaustive: Option<EngineRun>,
    identical_topology: bool,
    eco: Option<EcoBench>,
}

/// Incremental-ECO measurements on one benchmark: the canonical
/// single-sink move, warm incremental engine against a warm from-scratch
/// pruned run over the same edited design.
struct EcoBench {
    /// Best-of-[`ECO_ITERS`] warm `apply_eco` wall time.
    warm_ms: f64,
    /// Best-of-[`ECO_ITERS`] warm from-scratch pruned wall time.
    scratch_ms: f64,
    /// Worst warm-iteration loop-phase allocation count (contract: 0).
    loop_allocs: u64,
    /// Clean merges replayed verbatim by the last warm run.
    replayed: usize,
    /// Merges the splice search re-decided in the last warm run.
    spliced: usize,
}

impl EcoBench {
    /// How much faster the incremental engine re-routes the edit than
    /// the from-scratch pruned run (the PR's headline number).
    fn speedup_vs_scratch(&self) -> f64 {
        self.scratch_ms / self.warm_ms.max(1e-6)
    }
}

/// Warm timing repetitions for the ECO columns; both sides take their
/// best iteration, which filters scheduler noise out of the
/// sub-millisecond incremental runs.
const ECO_ITERS: usize = 5;

/// Largest sink count on which the exhaustive reference engine is run.
const EXHAUSTIVE_LIMIT: usize = 10_000;

impl Comparison {
    /// Pruned exact evaluations as a fraction of exhaustive ones (0 when
    /// the exhaustive reference was skipped).
    fn exact_eval_ratio(&self) -> f64 {
        let denom = match &self.exhaustive {
            Some(run) if run.stats.exact_cost_evals > 0 => run.stats.exact_cost_evals,
            _ => return 0.0,
        };
        self.pruned.stats.exact_cost_evals as f64 / denom as f64
    }
}

#[expect(
    clippy::expect_used,
    reason = "bench harness: aborting on an unroutable generated workload is intended"
)]
fn compare<O: MergeObjective + Clone>(
    benchmark: &'static str,
    objective_name: &'static str,
    n: usize,
    objective: &O,
    tracer: &Tracer,
) -> Comparison {
    let params = GreedyParams::default();

    let mut exhaustive_scratch = GreedyScratch::new();
    let mut exhaustive_obj = objective.clone();
    let t0 = Instant::now();
    let (reference, exhaustive_stats, exhaustive_profile) = run_greedy_exhaustive_with_scratch(
        n,
        &mut exhaustive_obj,
        &params,
        &mut exhaustive_scratch,
    )
    .expect("exhaustive greedy failed on a generated workload");
    let exhaustive_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Cold run grows the scratch buffers; the timed run reuses them, which
    // is the engine's steady-state (zero-allocation) regime. Only the warm
    // run is traced so the timeline shows steady-state phase costs.
    let mut scratch = GreedyScratch::new();
    let mut cold_obj = objective.clone();
    run_greedy_with_scratch(n, &mut cold_obj, &params, &mut scratch)
        .expect("pruned greedy failed on a generated workload");
    let mut pruned_obj = objective.clone();
    let entered = tracer.enter();
    let t1 = Instant::now();
    let (pruned_topology, pruned_stats, pruned_profile) =
        run_greedy_with_scratch(n, &mut pruned_obj, &params, &mut scratch)
            .expect("pruned greedy failed on a generated workload");
    let pruned_ms = t1.elapsed().as_secs_f64() * 1e3;
    drop(entered);

    Comparison {
        benchmark,
        objective: objective_name,
        sinks: n,
        pruned: EngineRun {
            stats: pruned_stats,
            profile: pruned_profile,
            wall_ms: pruned_ms,
        },
        exhaustive: Some(EngineRun {
            stats: exhaustive_stats,
            profile: exhaustive_profile,
            wall_ms: exhaustive_ms,
        }),
        identical_topology: pruned_topology == reference,
        eco: None,
    }
}

/// Scale-benchmark measurement: the hierarchical coarsening engine,
/// warm-scratch, against its own single-threaded cold run instead of the
/// (intractable) exhaustive reference. The cold run doubles as the
/// determinism check: `identical_topology` records that the warm run at
/// the ambient thread count reproduced the single-threaded topology.
#[expect(
    clippy::expect_used,
    reason = "bench harness: aborting on an unroutable generated workload is intended"
)]
fn compare_coarsened<O, R, F>(
    benchmark: &'static str,
    objective_name: &'static str,
    n: usize,
    objective: &O,
    factory: &F,
    tracer: &Tracer,
) -> Comparison
where
    O: MergeObjective + Clone,
    R: MergeObjective,
    F: Fn(&[u32]) -> R + Sync,
{
    let mut scratch = CoarsenScratch::new();
    let cold_params = CoarsenParams {
        greedy: GreedyParams {
            threads: Some(1),
            ..GreedyParams::default()
        },
        ..CoarsenParams::default()
    };
    let mut cold_obj = objective.clone();
    let (reference, _, _) =
        run_greedy_coarsened(n, &mut cold_obj, factory, &cold_params, &mut scratch)
            .expect("coarsened greedy failed on a generated workload");

    let warm_params = CoarsenParams::default();
    let mut warm_obj = objective.clone();
    let entered = tracer.enter();
    let t0 = Instant::now();
    let (topology, stats, profile) =
        run_greedy_coarsened(n, &mut warm_obj, factory, &warm_params, &mut scratch)
            .expect("coarsened greedy failed on a generated workload");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(entered);

    Comparison {
        benchmark,
        objective: objective_name,
        sinks: n,
        pruned: EngineRun {
            stats,
            profile,
            wall_ms,
        },
        exhaustive: None,
        identical_topology: topology == reference,
        eco: None,
    }
}

/// Measures the incremental ECO engine on the canonical small edit: the
/// middle sink moves by ~2 % of the die. Reference is a warm pruned run
/// over the *edited* design (same leaf set as the ECO side); the ECO
/// side keeps one objective and one [`EcoScratch`] warm across
/// iterations, rewinding with [`GatedObjective::truncate`] — the steady
/// state of an ECO stream, whose loop phase must not allocate.
#[expect(
    clippy::expect_used,
    reason = "bench harness: aborting on an unroutable generated workload is intended"
)]
fn measure_eco(workload: &gcr_workloads::Workload, config: &RouterConfig) -> EcoBench {
    let sinks = &workload.benchmark.sinks;
    let n = sinks.len();
    let die = workload.benchmark.die;
    let module_of = workload.module_of();
    let params = GreedyParams::default();
    let mut scratch = GreedyScratch::new();

    // The routed design the ECO perturbs: its merge topology is all the
    // engine consumes (embedding is outside both measured windows).
    let mut old_obj = GatedObjective::new(
        config.tech(),
        config.controller(),
        &workload.tables,
        sinks,
        &module_of,
    );
    let (old_topology, _, _) = run_greedy_with_scratch(n, &mut old_obj, &params, &mut scratch)
        .expect("pruned greedy failed on a generated workload");
    let old_locations: Vec<Point> = sinks.iter().map(Sink::location).collect();

    let index = n / 2;
    let from = sinks[index].location();
    let reach = 0.02 * (die.max().x - die.min().x).max(die.max().y - die.min().y);
    let to = Point::new(
        (from.x + reach).min(die.max().x),
        (from.y + reach).min(die.max().y),
    );
    let edits = [EcoEdit::MoveSink { index, to }];
    let plan = plan_eco_leaves(n, &edits).expect("canonical ECO edit is valid");
    let new_sinks = plan.new_sinks(sinks);
    let new_modules = plan.new_module_of(&module_of);

    // From-scratch reference: the warm pruned engine over the edited
    // design (cold run grows the scratch, best warm iteration is taken).
    let fresh = GatedObjective::new(
        config.tech(),
        config.controller(),
        &workload.tables,
        &new_sinks,
        &new_modules,
    );
    let mut cold = fresh.clone();
    run_greedy_with_scratch(n, &mut cold, &params, &mut scratch)
        .expect("pruned greedy failed on the edited workload");
    let mut scratch_ms = f64::INFINITY;
    for _ in 0..ECO_ITERS {
        let mut warm = fresh.clone();
        let t = Instant::now();
        run_greedy_with_scratch(n, &mut warm, &params, &mut scratch)
            .expect("pruned greedy failed on the edited workload");
        scratch_ms = scratch_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }

    // Incremental engine, warm loop: one objective + one EcoScratch stay
    // alive; truncate() rewinds the objective to its leaf rows.
    let mut eco_obj = fresh.clone();
    let mut eco_scratch = EcoScratch::new();
    apply_eco(
        &old_topology,
        &old_locations,
        &edits,
        &mut eco_obj,
        &mut eco_scratch,
    )
    .expect("incremental ECO failed on the edited workload");
    let mut warm_ms = f64::INFINITY;
    let mut loop_allocs = 0u64;
    let mut replayed = 0usize;
    let mut spliced = 0usize;
    for _ in 0..ECO_ITERS {
        eco_obj.truncate(n);
        let t = Instant::now();
        let outcome = apply_eco(
            &old_topology,
            &old_locations,
            &edits,
            &mut eco_obj,
            &mut eco_scratch,
        )
        .expect("incremental ECO failed on the edited workload");
        warm_ms = warm_ms.min(t.elapsed().as_secs_f64() * 1e3);
        loop_allocs = loop_allocs.max(outcome.profile.loop_allocs);
        replayed = outcome.replayed;
        spliced = outcome.spliced;
    }

    EcoBench {
        warm_ms,
        scratch_ms,
        loop_allocs,
        replayed,
        spliced,
    }
}

#[expect(
    clippy::expect_used,
    reason = "bench harness: aborting on an unroutable generated workload is intended"
)]
fn run_benchmark(
    which: TsayBenchmark,
    params: &WorkloadParams,
    eco: bool,
    tracer: &Tracer,
) -> Vec<Comparison> {
    let workload = {
        let _entered = tracer.enter();
        Workload::generate(which, params).expect("workload generation failed")
    };
    let sinks = &workload.benchmark.sinks;
    let n = sinks.len();
    let tech = Technology::default();
    let config = RouterConfig::new(tech.clone(), workload.benchmark.die);
    let module_of = workload.module_of();

    let nn = NearestNeighborObjective::new(&tech, sinks, None);
    let gated = GatedObjective::new(
        config.tech(),
        config.controller(),
        &workload.tables,
        sinks,
        &module_of,
    );
    let mut runs = if n > EXHAUSTIVE_LIMIT {
        let nn_factory = |members: &[u32]| {
            let sub: Vec<Sink> = members.iter().map(|&i| sinks[i as usize]).collect();
            NearestNeighborObjective::new(&tech, &sub, None)
        };
        let gated_factory = gated_region_factory(
            config.tech(),
            config.controller(),
            &workload.tables,
            sinks,
            &module_of,
        );
        vec![
            compare_coarsened(
                which.name(),
                "nearest-neighbor",
                n,
                &nn,
                &nn_factory,
                tracer,
            ),
            compare_coarsened(
                which.name(),
                "equation-3",
                n,
                &gated,
                &gated_factory,
                tracer,
            ),
        ]
    } else {
        vec![
            compare(which.name(), "nearest-neighbor", n, &nn, tracer),
            compare(which.name(), "equation-3", n, &gated, tracer),
        ]
    };

    // The ECO columns ride on the equation-3 row: the incremental engine
    // re-prices gating decisions, so that objective is the one an ECO
    // stream actually runs under. Scale benchmarks skip them — their
    // from-scratch reference is the coarsened engine, not the flat
    // pruned run the speedup is defined against.
    if eco {
        if n > EXHAUSTIVE_LIMIT {
            eprintln!("{which}: eco columns skipped (scale benchmark)");
        } else if let Some(run) = runs.iter_mut().find(|c| c.objective == "equation-3") {
            run.eco = Some(measure_eco(&workload, &config));
        }
    }

    // With tracing on, additionally record one full gated-routing flow —
    // Equation-3 merge, zero-skew embedding, Equation-3 evaluation and
    // verification — so the timeline covers every pipeline layer, not
    // just the merge loop.
    // The coarsened entry point picks the engine: flat on the reference
    // benchmarks, regions on the scale ones, like the measured runs.
    if tracer.enabled() {
        let _entered = tracer.enter();
        let routing = route_gated_coarsened(
            sinks,
            &module_of,
            &workload.tables,
            &config,
            &CoarsenParams::default(),
        )
        .expect("gated routing failed on a generated workload");
        let report = evaluate(
            &routing.tree,
            &routing.node_stats,
            config.controller(),
            config.tech(),
            DeviceRole::Gate,
        );
        assert!(report.total_switched_cap.is_finite());
        let input = VerifyInput::new(&routing.tree, config.tech())
            .with_die(workload.benchmark.die)
            .with_controller(config.controller())
            .with_tables(&workload.tables)
            .with_node_stats(&routing.node_stats);
        let verified = Verifier::with_default_lints().run(&input);
        assert!(!verified.has_errors(), "{}", verified.render_text());
    }
    runs
}

fn stats_json(out: &mut String, label: &str, run: &EngineRun) {
    let s = run.stats;
    let p = run.profile;
    let _ = write!(
        out,
        "      \"{label}\": {{\"exact_cost_evals\": {}, \"bound_evals\": {}, \
         \"bound_batches\": {}, \"bounds_filtered\": {}, \
         \"ring_expansions\": {}, \"heap_pops\": {}, \"wall_ms\": {:.3}, \
         \"seed_ms\": {:.3}, \"loop_ms\": {:.3}, \
         \"seed_allocs\": {}, \"loop_allocs\": {}}}",
        s.exact_cost_evals,
        s.bound_evals,
        s.bound_batches,
        s.bounds_filtered,
        s.ring_expansions,
        s.heap_pops,
        run.wall_ms,
        p.seed_ms,
        p.loop_ms,
        p.seed_allocs,
        p.loop_allocs
    );
}

/// Renders the BENCH document; `provenance` is [`common::provenance`]'s
/// stamp, appended to `params`.
fn render_json(params: &WorkloadParams, provenance: &str, runs: &[Comparison]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"params\": {{\"stream_len\": {}, \"seed\": {}, \"groups\": {}, {provenance}}},",
        params.stream_len, params.seed, params.groups
    );
    out.push_str("  \"runs\": [\n");
    for (i, c) in runs.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(
            out,
            "      \"benchmark\": \"{}\", \"objective\": \"{}\", \"sinks\": {},",
            c.benchmark, c.objective, c.sinks
        );
        stats_json(&mut out, "pruned", &c.pruned);
        out.push_str(",\n");
        if let Some(exhaustive) = &c.exhaustive {
            stats_json(&mut out, "exhaustive", exhaustive);
            out.push_str(",\n");
            let _ = writeln!(
                out,
                "      \"exact_eval_ratio\": {:.6},",
                c.exact_eval_ratio()
            );
        }
        if let Some(eco) = &c.eco {
            let _ = writeln!(
                out,
                "      \"eco_warm_ms\": {:.4}, \"eco_scratch_ms\": {:.4}, \
                 \"eco_speedup_vs_scratch\": {:.2}, \"eco_loop_allocs\": {}, \
                 \"eco_replayed\": {}, \"eco_spliced\": {},",
                eco.warm_ms,
                eco.scratch_ms,
                eco.speedup_vs_scratch(),
                eco.loop_allocs,
                eco.replayed,
                eco.spliced
            );
        }
        let _ = writeln!(
            out,
            "      \"identical_topology\": {}",
            c.identical_topology
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
    benchmarks: Vec<TsayBenchmark>,
    eco: bool,
    out_path: String,
    trace_path: Option<String>,
}

/// Parses the argument list (without the program name). Errors are the
/// usage message to print before exiting nonzero.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut benchmarks: Vec<TsayBenchmark> = Vec::new();
    let mut eco = false;
    let mut out_path = String::from("BENCH_greedy.json");
    let mut trace_path = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--eco" {
            eco = true;
        } else if arg == "--out" {
            match args.next() {
                Some(p) => out_path = p,
                None => return Err("--out requires a path".to_owned()),
            }
        } else if arg == "--trace" {
            match args.next() {
                Some(p) => trace_path = Some(p),
                None => return Err("--trace requires a path".to_owned()),
            }
        } else if let Some(b) = TsayBenchmark::from_name(&arg) {
            benchmarks.push(b);
        } else {
            return Err(format!(
                "unknown argument `{arg}`; usage: greedy_bench [r1..r8] [--eco] \
                 [--out PATH] [--trace PATH]"
            ));
        }
    }
    if benchmarks.is_empty() {
        benchmarks.extend(TsayBenchmark::ALL);
    }
    Ok(Cli {
        benchmarks,
        eco,
        out_path,
        trace_path,
    })
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

    let chrome = cli
        .trace_path
        .as_ref()
        .map(|_| Arc::new(ChromeTraceSink::new()));
    let tracer = match &chrome {
        Some(sink) => Tracer::new(Arc::new(EchoWarnSink::new(
            Arc::clone(sink) as Arc<dyn TraceSink>
        ))),
        None => Tracer::disabled(),
    };

    let params = WorkloadParams::smoke();
    let mut runs = Vec::new();
    for which in cli.benchmarks {
        eprintln!("{which}: routing {} sinks...", which.num_sinks());
        runs.extend(run_benchmark(which, &params, cli.eco, &tracer));
    }

    let mut all_identical = true;
    for c in &runs {
        let (exhaustive_evals, exhaustive_wall) = match &c.exhaustive {
            Some(run) => (
                run.stats.exact_cost_evals.to_string(),
                format!("{:.1} ms", run.wall_ms),
            ),
            None => ("-".to_owned(), "coarsened".to_owned()),
        };
        println!(
            "{:>3} {:<16} sinks {:>7}  exact {:>9} / {:>9} ({:>5.1} %)  batches {:>6}  parked {:>8}  wall {:>8.1} ms / {:>10}  loop allocs {:>6}  identical {}",
            c.benchmark,
            c.objective,
            c.sinks,
            c.pruned.stats.exact_cost_evals,
            exhaustive_evals,
            100.0 * c.exact_eval_ratio(),
            c.pruned.stats.bound_batches,
            c.pruned.stats.bounds_filtered,
            c.pruned.wall_ms,
            exhaustive_wall,
            c.pruned.profile.loop_allocs,
            c.identical_topology,
        );
        all_identical &= c.identical_topology;
        if let Some(eco) = &c.eco {
            println!(
                "    eco: warm {:.4} ms vs scratch {:.3} ms -> {:.1}x, loop allocs {}, replayed {} + spliced {}",
                eco.warm_ms,
                eco.scratch_ms,
                eco.speedup_vs_scratch(),
                eco.loop_allocs,
                eco.replayed,
                eco.spliced,
            );
            if eco.loop_allocs > 0 {
                eprintln!(
                    "FAIL: {} warm ECO loop allocated {} times",
                    c.benchmark, eco.loop_allocs
                );
                all_identical = false;
            }
        }
    }

    // The thread count the unpinned (warm) runs resolve, as they do.
    let threads = gcr_trace::threads::resolve(None, "greedy.threads", &tracer);
    let json = render_json(&params, &common::provenance(threads), &runs);
    if !write_or_report(&cli.out_path, &json) {
        return ExitCode::FAILURE;
    }
    println!("wrote {}", cli.out_path);

    if let (Some(path), Some(sink)) = (&cli.trace_path, &chrome) {
        if !write_or_report(path, &sink.to_json()) {
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if all_identical {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAIL: pruned engine diverged from the exhaustive reference");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_defaults_to_full_suite() {
        let cli = parse_args(Vec::new()).unwrap();
        assert_eq!(cli.benchmarks.len(), TsayBenchmark::ALL.len());
        assert_eq!(cli.out_path, "BENCH_greedy.json");
        assert!(cli.trace_path.is_none());
        assert!(!cli.eco);
    }

    #[test]
    fn parse_args_accepts_eco() {
        let cli = parse_args(["r4", "--eco"].map(String::from)).unwrap();
        assert!(cli.eco);
        assert_eq!(cli.benchmarks, vec![TsayBenchmark::R4]);
    }

    #[test]
    fn parse_args_accepts_benchmarks_out_and_trace() {
        let cli =
            parse_args(["r1", "r3", "--out", "x.json", "--trace", "t.json"].map(String::from))
                .unwrap();
        assert_eq!(cli.benchmarks.len(), 2);
        assert_eq!(cli.out_path, "x.json");
        assert_eq!(cli.trace_path.as_deref(), Some("t.json"));
    }

    #[test]
    fn arg_errors_are_reported() {
        assert!(parse_args(["--out"].map(String::from)).is_err());
        assert!(parse_args(["--trace"].map(String::from)).is_err());
        assert!(parse_args(["r9"].map(String::from))
            .unwrap_err()
            .contains("unknown argument"));
    }

    #[test]
    fn scale_benchmarks_parse_but_stay_out_of_the_default_suite() {
        let cli = parse_args(["r6", "r7", "r8"].map(String::from)).unwrap();
        assert_eq!(
            cli.benchmarks,
            vec![TsayBenchmark::R6, TsayBenchmark::R7, TsayBenchmark::R8]
        );
        let default = parse_args(Vec::new()).unwrap();
        assert!(!default
            .benchmarks
            .iter()
            .any(|b| TsayBenchmark::SCALED.contains(b)));
    }

    #[test]
    fn params_carry_the_thread_count_and_revision() {
        let json = render_json(&WorkloadParams::smoke(), &common::provenance(3), &[]);
        let doc = gcr_trace::json::parse(&json).unwrap();
        let params = doc.get("params").unwrap();
        let field = |key: &str| params.get(key).unwrap();
        assert_eq!(field("seed").as_f64(), Some(1998.0));
        assert_eq!(field("threads").as_f64(), Some(3.0));
        let rev = field("rev").as_str().unwrap();
        assert!(rev == "unknown" || rev.bytes().all(|b| b.is_ascii_hexdigit()));
        let outside = std::env::temp_dir().join("gcr_greedy_bench_no_checkout");
        std::fs::create_dir_all(&outside).unwrap();
        assert_eq!(common::git_revision(&outside), "unknown");
    }

    #[test]
    fn failed_writes_are_reported_as_false() {
        assert!(!write_or_report("/nonexistent-gcr-dir/trace.json", "{}"));
        let dir = std::env::temp_dir().join("gcr_greedy_bench_write_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        assert!(write_or_report(path.to_str().unwrap(), "{}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
