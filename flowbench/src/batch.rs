//! The in-process workloads: `route-r4`, `route-r6`, `cli-r2` and
//! `import-36m`.
//!
//! One op routes one design through each layer's public entry point, in
//! the order `gcr route` calls them: generate → scan → objective → greedy
//! (or coarsened) merge → sized embedding → evaluate → gate reduction →
//! evaluate with the reduction mask, plus the cycle-accurate simulation
//! on `cli-r2`. Engine scratch is reused across designs, as a batch
//! caller would. Every call is timed; outputs are checked after each op,
//! outside its latency.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gcr_activity::{
    scan_source, ActivityTables, CpuModel, InstructionStream, ScanParams, ScanProfile, ScanScratch,
    SliceSource,
};
use gcr_core::{
    evaluate, evaluate_with_mask, gated_region_factory, reduce_gates_untied, route_gated_coarsened,
    route_gated_mapped, simulate_stream, DeviceRole, GatedObjective, GatedRouting, PowerReport,
    ReductionParams, RouterConfig, SimulationReport,
};
use gcr_cts::{
    embed_sized, run_greedy_coarsened, run_greedy_with_scratch, CoarsenParams, CoarsenScratch,
    DeviceAssignment, GreedyParams, GreedyProfile, GreedyScratch, GreedyStats,
    NearestNeighborObjective, Sink, SizingLimits,
};
use gcr_geometry::BBox;
use gcr_rctree::Technology;
use gcr_workloads::{ActivityScenario, Benchmark, TsayBenchmark, Workload, WorkloadParams};

use crate::cli::Workload as Kind;
use crate::harness::{cold_passes, median, peak_rss_mb, span_metrics, Outcome, PASSES};
use crate::spans::{check_trace, Span, Track};

/// Gate-reduction strength, the `gcr route` default.
const STRENGTH: f64 = 0.2;

/// Modules of the import scenario models (and of the r1 design routed
/// against their tables).
const IMPORT_MODULES: usize = 96;

/// Sizes of one batch workload.
#[derive(Clone, Copy, Debug)]
struct Spec {
    which: TsayBenchmark,
    stream_len: usize,
    /// Coarsened engine with this target region size (0: library default).
    coarsen: Option<usize>,
    simulate: bool,
    /// Cycles per pre-buffered scenario trace (import only).
    import_cycles: Option<usize>,
    /// Fewest designs per pass; the switched-capacitance ratio is the
    /// mean over exactly these first designs, so it does not depend on
    /// how fast the code under test is.
    min_ops: usize,
}

fn spec(kind: Kind, smoke: bool) -> Spec {
    let base = Spec {
        which: TsayBenchmark::R4,
        stream_len: WorkloadParams::default().stream_len,
        coarsen: None,
        simulate: false,
        import_cycles: None,
        min_ops: 32,
    };
    let full = match kind {
        Kind::RouteR6 => Spec {
            which: TsayBenchmark::R6,
            coarsen: Some(0),
            min_ops: 4,
            ..base
        },
        Kind::CliR2 => Spec {
            which: TsayBenchmark::R2,
            simulate: true,
            min_ops: 8,
            ..base
        },
        Kind::Import => Spec {
            which: TsayBenchmark::R1,
            import_cycles: Some(12_000_000),
            ..base
        },
        _ => base,
    };
    if smoke {
        Spec {
            which: TsayBenchmark::R1,
            stream_len: 2_000,
            coarsen: full.coarsen.map(|_| 32),
            import_cycles: full.import_cycles.map(|_| 100_000),
            min_ops: 2,
            ..full
        }
    } else {
        full
    }
}

/// Reusable engine state: what a batch caller keeps across designs.
struct Engine {
    threads: usize,
    region_size: Option<usize>,
    greedy: GreedyScratch,
    coarsen: CoarsenScratch,
    scan: ScanScratch,
}

impl Engine {
    fn new(threads: usize, spec: &Spec) -> Self {
        Self {
            threads,
            region_size: spec.coarsen,
            greedy: GreedyScratch::new(),
            coarsen: CoarsenScratch::new(),
            scan: ScanScratch::new(),
        }
    }

    fn greedy_params(&self) -> GreedyParams {
        GreedyParams {
            threads: Some(self.threads),
            log_decisions: false,
        }
    }

    fn coarsen_params(&self) -> Option<CoarsenParams> {
        self.region_size.map(|target_region_size| CoarsenParams {
            greedy: self.greedy_params(),
            target_region_size,
        })
    }

    fn scan_params(&self, threads: usize) -> ScanParams {
        ScanParams {
            threads: Some(threads),
            ..ScanParams::default()
        }
    }
}

/// One pre-buffered scenario trace of the import workload.
struct Trace {
    model: CpuModel,
    stream: InstructionStream,
}

/// Per-run inputs built during set-up.
struct State {
    /// Import traces (empty for the route workloads).
    traces: Vec<Trace>,
    /// Seconds spent generating the import traces.
    trace_gen_s: f64,
}

/// Everything one op produced.
struct FlowOut {
    routing: GatedRouting,
    gated: PowerReport,
    reduced: PowerReport,
    kept_frac: f64,
    sim: Option<SimulationReport>,
    stats: GreedyStats,
    profile: GreedyProfile,
    scan: Option<ScanProfile>,
    /// The scanned tables (import: compared against the oracle).
    tables: ActivityTables,
    sinks: Vec<Sink>,
}

/// The generated inputs of one design.
struct Generated {
    bench: Benchmark,
    model: CpuModel,
    stream: InstructionStream,
}

/// Generates design `seed` exactly as [`Workload::generate`] does,
/// stopping before the scan so the scan is timed as its own layer.
fn generate(spec: &Spec, seed: u64) -> Result<Generated, String> {
    let params = WorkloadParams::default()
        .with_seed(seed)
        .with_stream_len(spec.stream_len);
    let bench = Benchmark::tsay_clustered(spec.which, seed, params.groups);
    let model = CpuModel::builder(Workload::num_modules_for(bench.sinks.len()))
        .instructions(params.instructions)
        .usage_fraction(params.usage_fraction)
        .persistence(params.persistence)
        .groups(params.groups)
        .seed(seed)
        .build()
        .map_err(|e| format!("workload generation failed: {e}"))?;
    let stream = model.generate_stream(params.stream_len);
    Ok(Generated {
        bench,
        model,
        stream,
    })
}

/// Sink `j` gates on module `j mod modules`, like [`Workload::module_of`].
fn module_map(sinks: usize, modules: usize) -> Vec<usize> {
    (0..sinks).map(|j| j % modules).collect()
}

/// Routes one design: objective → merge → embed → evaluate → reduce →
/// evaluate with mask → (simulate).
#[allow(clippy::too_many_arguments)]
fn route(
    t: &mut Track,
    engine: &mut Engine,
    sinks: Vec<Sink>,
    die: BBox,
    tables: ActivityTables,
    scan: Option<ScanProfile>,
    simulate: Option<&InstructionStream>,
) -> Result<FlowOut, String> {
    let config = RouterConfig::new(Technology::default(), die);
    let tech = config.tech();
    let n = sinks.len();
    let (mut objective, module_of) = t.span("core.objective", |_| {
        let module_of = module_map(n, tables.rtl().num_modules());
        let objective = GatedObjective::new(tech, config.controller(), &tables, &sinks, &module_of);
        (objective, module_of)
    });
    let (topology, stats, profile) = match engine.coarsen_params() {
        Some(params) => t.span("cts.coarsen", |_| {
            let factory =
                gated_region_factory(tech, config.controller(), &tables, &sinks, &module_of);
            run_greedy_coarsened(n, &mut objective, factory, &params, &mut engine.coarsen)
        }),
        None => t.span("cts.greedy", |_| {
            let params = engine.greedy_params();
            run_greedy_with_scratch(n, &mut objective, &params, &mut engine.greedy)
        }),
    }
    .map_err(|e| format!("merge failed: {e}"))?;
    let (assignment, tree) = t
        .span("cts.embed", |_| {
            let assignment = DeviceAssignment::everywhere(&topology, tech.and_gate());
            embed_sized(
                &topology,
                &sinks,
                tech,
                &assignment,
                config.source(),
                SizingLimits::default(),
            )
            .map(|tree| (assignment, tree))
        })
        .map_err(|e| format!("embedding failed: {e}"))?;
    let (node_stats, node_modules) = t.span("core.node_stats", |_| {
        (objective.node_stats(), objective.node_modules())
    });
    drop(objective);
    let gated = t.span("core.evaluate", |_| {
        evaluate(
            &tree,
            &node_stats,
            config.controller(),
            tech,
            DeviceRole::Gate,
        )
    });
    let routing = GatedRouting {
        topology,
        assignment,
        tree,
        node_stats,
        node_modules,
    };
    let mask = t.span("core.reduce", |_| {
        let params =
            ReductionParams::from_strength_scaled(STRENGTH, tech, die.half_perimeter() / 8.0);
        reduce_gates_untied(&routing, tech, &params)
    });
    let reduced = t.span("core.evaluate", |_| {
        evaluate_with_mask(
            &routing.tree,
            &routing.node_stats,
            config.controller(),
            tech,
            &mask,
        )
    });
    let sim = simulate.map(|stream| {
        t.span("core.simulate", |_| {
            simulate_stream(
                &routing.tree,
                &routing.node_modules,
                &mask,
                tables.rtl(),
                stream,
                config.controller(),
                tech,
            )
        })
    });
    let kept = mask.iter().filter(|&&k| k).count();
    let devices = routing.tree.device_count().max(1);
    Ok(FlowOut {
        kept_frac: kept as f64 / devices as f64,
        routing,
        gated,
        reduced,
        sim,
        stats,
        profile,
        scan,
        tables,
        sinks,
    })
}

/// Op `i` of a run seeded with `seed`: design `seed + i`.
fn op(
    t: &mut Track,
    engine: &mut Engine,
    spec: &Spec,
    state: &State,
    seed: u64,
    i: u64,
) -> Result<FlowOut, String> {
    let design_seed = seed.wrapping_add(i);
    if state.traces.is_empty() {
        let g = t.span("workloads.generate", |_| generate(spec, design_seed))?;
        let tables = t.span("activity.scan", |_| {
            ActivityTables::scan(g.model.rtl(), &g.stream)
        });
        let simulate = spec.simulate.then_some(&g.stream);
        route(
            t,
            engine,
            g.bench.sinks,
            g.bench.die,
            tables,
            None,
            simulate,
        )
    } else {
        let trace = &state.traces[trace_index(i, state.traces.len())];
        let params = engine.scan_params(engine.threads);
        let (tables, profile) = t
            .span("activity.scan", |_| {
                scan_source(
                    trace.model.rtl(),
                    &mut SliceSource::new(&trace.stream),
                    &params,
                    &mut engine.scan,
                )
            })
            .map_err(|e| format!("scan failed: {e}"))?;
        let bench = t.span("workloads.generate", |_| {
            Benchmark::tsay_clustered(spec.which, design_seed, WorkloadParams::default().groups)
        });
        route(
            t,
            engine,
            bench.sinks,
            bench.die,
            tables,
            Some(profile),
            None,
        )
    }
}

fn trace_index(i: u64, traces: usize) -> usize {
    usize::try_from(i % traces as u64).unwrap_or(0)
}

/// Pre-buffers the import traces: one per scenario, seeded `seed + k`.
fn buffer_traces(cycles: usize, seed: u64) -> Result<(Vec<Trace>, f64), String> {
    let t = Instant::now();
    let traces = ActivityScenario::ALL
        .iter()
        .zip(0u64..)
        .map(|(scenario, k)| {
            let model = scenario
                .model(IMPORT_MODULES, seed.wrapping_add(k))
                .map_err(|e| format!("scenario model failed: {e}"))?;
            let stream = model.generate_stream(cycles);
            Ok(Trace { model, stream })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((traces, t.elapsed().as_secs_f64()))
}

/// Output checks that apply to every design.
fn check_design(out: &FlowOut) -> Result<(), String> {
    let tech = Technology::default();
    let skew = out.routing.tree.verify_skew(&tech);
    if !skew.is_finite() || skew >= 1e-6 {
        return Err(format!("skew {skew:e} ps is not zero"));
    }
    let w = out.reduced.total_switched_cap;
    if !(w.is_finite() && w > 0.0) {
        return Err(format!(
            "switched capacitance {w} is not finite and positive"
        ));
    }
    if let Some(sim) = &out.sim {
        let rel = (sim.total_switched_cap - w).abs() / w;
        if !rel.is_finite() || rel > 1e-9 {
            return Err(format!(
                "simulated W {} differs from analytic W {w} by {rel:e} relative",
                sim.total_switched_cap
            ));
        }
    }
    Ok(())
}

/// Import only: op `i`'s streamed tables must equal the sequential scan
/// of its trace.
fn check_tables(oracles: &[ActivityTables], i: u64, out: &FlowOut) -> Result<(), String> {
    if oracles.is_empty() {
        return Ok(());
    }
    let oracle = &oracles[trace_index(i, oracles.len())];
    if out.tables.ift() == oracle.ift() && out.tables.itmatt() == oracle.itmatt() {
        Ok(())
    } else {
        Err(format!(
            "design {i}: streamed tables differ from the sequential scan"
        ))
    }
}

/// `W / Σ C_sink · P(EN_sink)`: the reduced tree's switched capacitance
/// per unit of switching the sinks themselves must do. It tracks W on a
/// fixed design, with less seed-to-seed spread than W.
fn switched_cap_ratio(w: f64, sinks: &[Sink], routing: &GatedRouting) -> f64 {
    let ideal: f64 = sinks
        .iter()
        .zip(&routing.node_stats)
        .map(|(s, st)| s.cap() * st.signal)
        .sum();
    w / ideal
}

/// The composed calls must reproduce the library's one-call router bit
/// for bit on design `i`, topology and W alike.
fn check_against_router(
    spec: &Spec,
    engine: &Engine,
    oracles: &[ActivityTables],
    seed: u64,
    i: u64,
    out: &FlowOut,
) -> Result<(), String> {
    let design_seed = seed.wrapping_add(i);
    let (sinks, die, tables) = if oracles.is_empty() {
        let g = generate(spec, design_seed)?;
        let tables = ActivityTables::scan(g.model.rtl(), &g.stream);
        (g.bench.sinks, g.bench.die, tables)
    } else {
        let bench =
            Benchmark::tsay_clustered(spec.which, design_seed, WorkloadParams::default().groups);
        let tables = oracles[trace_index(i, oracles.len())].clone();
        (bench.sinks, bench.die, tables)
    };
    let config = RouterConfig::new(Technology::default(), die);
    let module_of = module_map(sinks.len(), tables.rtl().num_modules());
    let reference = match engine.coarsen_params() {
        Some(params) => route_gated_coarsened(&sinks, &module_of, &tables, &config, &params),
        None => route_gated_mapped(&sinks, &module_of, &tables, &config),
    }
    .map_err(|e| format!("reference router failed: {e}"))?;
    let w = evaluate(
        &reference.tree,
        &reference.node_stats,
        config.controller(),
        config.tech(),
        DeviceRole::Gate,
    )
    .total_switched_cap;
    if reference.topology != out.routing.topology {
        return Err(format!(
            "design {i}: topology differs from the one-call router"
        ));
    }
    if w.to_bits() != out.gated.total_switched_cap.to_bits() {
        return Err(format!(
            "design {i}: W {} differs from the one-call router's {w}",
            out.gated.total_switched_cap
        ));
    }
    Ok(())
}

/// Runs one batch workload.
///
/// # Errors
///
/// Returns a message when set-up fails; failures of individual ops and
/// output checks are counted in the outcome instead.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    smoke: bool,
) -> Result<(Outcome, Vec<Span>), String> {
    let spec = spec(kind, smoke);
    let mut outcome = Outcome::default();
    let epoch = Instant::now();
    let mut untraced = Track::new(0, epoch, false);

    // Each pass follows its own cold set-up: buffer the import traces,
    // then route design 0 with a fresh engine. The first pass routes
    // designs 1..=k for its share of the window; the later passes route
    // the same k designs again, and each design keeps its fastest time.
    let pass_window = Duration::from_secs_f64(seconds / PASSES as f64);
    let mut oracles: Vec<ActivityTables> = Vec::new();
    let mut best_ms: Vec<f64> = Vec::new();
    let mut first_pass_ms: Vec<f64> = Vec::new();
    let mut w_bits: Vec<u64> = Vec::new();
    let mut ratios = Vec::new();
    let mut designs = 0u64;
    let set_up = || -> Result<(Engine, State, FlowOut), String> {
        let (traces, trace_gen_s) = match spec.import_cycles {
            Some(cycles) => buffer_traces(cycles, seed)?,
            None => (Vec::new(), 0.0),
        };
        let state = State {
            traces,
            trace_gen_s,
        };
        let mut engine = Engine::new(threads, &spec);
        let mut cold = Track::new(0, epoch, false);
        let first = op(&mut cold, &mut engine, &spec, &state, seed, 0)?;
        Ok((engine, state, first))
    };
    let (setup_s, (mut engine, state, _)) = cold_passes(set_up, |pass, (engine, state, first)| {
        outcome.attempted += 1;
        if pass == 0 {
            oracles = state
                .traces
                .iter()
                .map(|t| ActivityTables::scan(t.model.rtl(), &t.stream))
                .collect();
            outcome.check(check_design(first));
            outcome.check(check_tables(&oracles, 0, first));
            outcome.check(check_against_router(
                &spec, engine, &oracles, seed, 0, first,
            ));
            w_bits.push(first.reduced.total_switched_cap.to_bits());
        } else if first.reduced.total_switched_cap.to_bits() != w_bits[0] {
            outcome.fail("design 0: W differs between set-ups");
        }
        let start = Instant::now();
        let mut i = 0u64;
        loop {
            i += 1;
            let more = if pass == 0 {
                i <= spec.min_ops as u64 || start.elapsed() < pass_window
            } else {
                i <= designs
            };
            if !more {
                break;
            }
            outcome.attempted += 1;
            let t = Instant::now();
            let result = op(&mut untraced, engine, &spec, state, seed, i);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if pass == 0 {
                designs = i;
                first_pass_ms.push(ms);
                best_ms.push(ms);
                let bits = result
                    .as_ref()
                    .map_or(0, |o| o.reduced.total_switched_cap.to_bits());
                w_bits.push(bits);
            }
            let d = usize::try_from(i).unwrap_or(usize::MAX);
            best_ms[d - 1] = best_ms[d - 1].min(ms);
            match result {
                Ok(out) if out.reduced.total_switched_cap.to_bits() == w_bits[d] => {
                    if pass == 0 {
                        outcome.check(
                            check_design(&out).and_then(|()| check_tables(&oracles, i, &out)),
                        );
                        if ratios.len() < spec.min_ops {
                            ratios.push(switched_cap_ratio(
                                out.reduced.total_switched_cap,
                                &out.sinks,
                                &out.routing,
                            ));
                        }
                    }
                }
                Ok(_) => outcome.fail(format!("design {i}: W differs between passes")),
                Err(e) => outcome.fail(format!("design {i}: {e}")),
            }
        }
        Ok(())
    })?;
    outcome.setup_s = setup_s;
    let busy_s: f64 = best_ms.iter().sum::<f64>() / 1e3;
    outcome.ops_per_s = best_ms.len() as f64 / busy_s.max(f64::MIN_POSITIVE);
    outcome.op_ms = best_ms;
    outcome.switched_cap_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    outcome.peak_rss_mb = peak_rss_mb(None).unwrap_or(0.0);

    if !trace {
        return Ok((outcome, Vec::new()));
    }

    // Traced pass over the same designs: the per-layer numbers.
    let mut track = Track::new(0, epoch, true);
    let mut counters: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |name: &'static str, v: f64| counters.entry(name).or_default().push(v);
    for i in 1..=designs {
        outcome.attempted += 1;
        match track.op(i, |t| op(t, &mut engine, &spec, &state, seed, i)) {
            Ok(out) => {
                outcome.check(check_design(&out).and_then(|()| check_tables(&oracles, i, &out)));
                push("cts.greedy_seed_ms", out.profile.seed_ms);
                push("cts.greedy_loop_ms", out.profile.loop_ms);
                push("cts.exact_cost_evals", out.stats.exact_cost_evals as f64);
                push("cts.bound_evals", out.stats.bound_evals as f64);
                push("cts.heap_pops", out.stats.heap_pops as f64);
                push("cts.bounds_filtered", out.stats.bounds_filtered as f64);
                push("cts.loop_allocs", out.profile.loop_allocs as f64);
                push("core.gates_kept_frac", out.kept_frac);
                if let Some(scan) = out.scan {
                    push("activity.chunk_allocs", scan.chunk_allocs as f64);
                }
            }
            Err(e) => outcome.fail(format!("traced design {i}: {e}")),
        }
    }
    let mut layers = span_metrics(track.ops());
    for (&name, values) in &counters {
        // Allocation counts gate a zero-allocation contract: report the
        // worst op, not the typical one.
        let value = if name.ends_with("allocs") {
            values.iter().copied().fold(0.0, f64::max)
        } else {
            median(values)
        };
        layers.insert(name, value);
    }
    let cycles = spec.import_cycles.unwrap_or(spec.stream_len) as f64;
    let scan_ms = layers.get("activity.scan_ms").copied().unwrap_or(0.0);
    if scan_ms > 0.0 {
        layers.insert("activity.scan_mcycles_per_s", cycles / scan_ms / 1e3);
    }
    if spec.import_cycles.is_some() && state.trace_gen_s > 0.0 {
        let total = cycles * state.traces.len() as f64;
        layers.insert(
            "workloads.trace_mcycles_per_s",
            total / state.trace_gen_s / 1e6,
        );
        layers.insert(
            "activity.scan_speedup_t2",
            scan_speedup_t2(&engine, &state)?,
        );
    }
    let merge_span = if spec.coarsen.is_some() {
        "cts.coarsen"
    } else {
        "cts.greedy"
    };
    if let Some(first) = track.ops().first() {
        let eq3_ms = first.self_ns.get(merge_span).copied().unwrap_or(0) as f64 / 1e6;
        let nn_ms = nn_merge_ms(&spec, &engine, &state, seed)?;
        layers.insert("cts.eq3_over_nn", eq3_ms / nn_ms.max(1e-9));
    }
    // Against the first untraced pass: one timing per design on both sides.
    let traced_ms: f64 = track.ops().iter().map(|o| o.total_ns as f64 / 1e6).sum();
    let untraced_ms: f64 = first_pass_ms.iter().sum();
    layers.insert(
        "bench.trace_overhead_frac",
        traced_ms / untraced_ms.max(f64::MIN_POSITIVE) - 1.0,
    );
    outcome.layers = layers;

    let mut required = vec![
        "workloads.generate",
        "activity.scan",
        "core.objective",
        merge_span,
        "cts.embed",
        "core.node_stats",
        "core.evaluate",
        "core.reduce",
    ];
    if spec.simulate {
        required.push("core.simulate");
    }
    outcome.check(check_trace(track.spans(), &required));
    Ok((outcome, track.spans().to_vec()))
}

/// Warm wall time of the merge engine on design 1 under the
/// nearest-neighbour objective, for the equation-3 / NN cost ratio.
fn nn_merge_ms(spec: &Spec, engine: &Engine, state: &State, seed: u64) -> Result<f64, String> {
    let design_seed = seed.wrapping_add(1);
    let bench = if state.traces.is_empty() {
        generate(spec, design_seed)?.bench
    } else {
        Benchmark::tsay_clustered(spec.which, design_seed, WorkloadParams::default().groups)
    };
    let tech = Technology::default();
    let sinks = &bench.sinks;
    let n = sinks.len();
    let mut greedy = GreedyScratch::new();
    let mut coarsen = CoarsenScratch::new();
    let mut run = || -> Result<f64, String> {
        let mut objective = NearestNeighborObjective::new(&tech, sinks, None);
        let t = Instant::now();
        match engine.coarsen_params() {
            Some(params) => {
                let factory = |members: &[u32]| {
                    let sub: Vec<Sink> = members.iter().map(|&m| sinks[m as usize]).collect();
                    NearestNeighborObjective::new(&tech, &sub, None)
                };
                run_greedy_coarsened(n, &mut objective, factory, &params, &mut coarsen).map(|_| ())
            }
            None => {
                run_greedy_with_scratch(n, &mut objective, &engine.greedy_params(), &mut greedy)
                    .map(|_| ())
            }
        }
        .map_err(|e| format!("nearest-neighbour merge failed: {e}"))?;
        Ok(t.elapsed().as_secs_f64() * 1e3)
    };
    run()?; // cold: grows the scratch
    run()
}

/// Warm scan time at 1 thread over warm scan time at 2 threads, summed
/// over the import traces.
fn scan_speedup_t2(engine: &Engine, state: &State) -> Result<f64, String> {
    let mut totals = [0.0f64; 2];
    for (slot, threads) in [1usize, 2].into_iter().enumerate() {
        let params = engine.scan_params(threads);
        let mut scratch = ScanScratch::new();
        for (k, trace) in state.traces.iter().enumerate() {
            let mut scan = || {
                let t = Instant::now();
                scan_source(
                    trace.model.rtl(),
                    &mut SliceSource::new(&trace.stream),
                    &params,
                    &mut scratch,
                )
                .map_err(|e| format!("scan failed: {e}"))?;
                Ok::<f64, String>(t.elapsed().as_secs_f64())
            };
            if k == 0 {
                scan()?; // cold: grows the scratch
            }
            totals[slot] += scan()?;
        }
    }
    Ok(totals[0] / totals[1].max(f64::MIN_POSITIVE))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_outputs_fail_their_checks() {
        let spec = spec(Kind::CliR2, true);
        let mut engine = Engine::new(1, &spec);
        let state = State {
            traces: Vec::new(),
            trace_gen_s: 0.0,
        };
        let mut track = Track::new(0, Instant::now(), false);
        let mut out = op(&mut track, &mut engine, &spec, &state, 7, 0).unwrap();
        check_design(&out).unwrap();
        check_against_router(&spec, &engine, &[], 7, 0, &out).unwrap();
        // The one-call router on another design is a corrupted reference.
        assert!(check_against_router(&spec, &engine, &[], 8, 0, &out).is_err());

        let sim = out.sim.as_mut().unwrap();
        sim.total_switched_cap *= 1.0 + 1e-6;
        assert!(check_design(&out).unwrap_err().contains("simulated"));
        out.sim = None;
        out.reduced.total_switched_cap = f64::NAN;
        assert!(check_design(&out).is_err());
    }
}
