//! `gcr experiment <name>`: every table, figure and extension study of
//! this crate, printed from one entry point, [`run_experiment`].
//!
//! The paper's table and figures are rendered as [`Section`]s so that
//! `all` prints (and writes into its HTML report) the very sections the
//! single experiments print.

use std::fmt;
use std::num::NonZeroUsize;

use gcr_activity::{ActivityTables, CpuModel, EnableStats, ScanParams, ScanScratch};
use gcr_core::{
    evaluate, evaluate_breakdown, evaluate_with_mask, gated_routing_for_topology, reduce_gates,
    reduce_gates_optimal, reduce_gates_untied, route_activity_driven, route_gated, DeviceRole,
    GatedRouting, PowerReport, ReductionParams, RouterConfig,
};
use gcr_rctree::Technology;
use gcr_workloads::{Benchmark, TsayBenchmark, Workload, WorkloadParams};

use crate::experiments::ext::{
    corner_study, optimal_vs_heuristic, seeded_workload, skew_tradeoff_study, tech_scaling_study,
    variance_study,
};
use crate::experiments::{fig3, fig4, fig5, fig6, table4};
use crate::{render_svg, SvgOptions, TextTable};

type Error = Box<dyn std::error::Error>;

/// One experiment `gcr experiment <name>` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Experiment {
    /// Table 4: benchmark characteristics.
    Table4,
    /// Figure 3: buffered vs gated vs gate-reduced routing on r1–r5.
    Fig3,
    /// Figure 4: module activity vs switched capacitance on r1.
    Fig4,
    /// Figure 5: gate reduction vs switched capacitance and area on r1.
    Fig5,
    /// Figure 6 / §6: centralized vs distributed controllers.
    Fig6,
    /// Merge objective, reduction rules and reduction mode ablations.
    Ablations,
    /// The exact tree-DP control optimum vs the §4.3 rules.
    OptimalReduction,
    /// Bounded-skew embeddings of the gated topology.
    SkewTradeoff,
    /// Wire process corners, buffered vs gated.
    Corners,
    /// The gated advantage across three technology nodes.
    TechScaling,
    /// The Figure-3 ratios across workload seeds.
    Variance,
    /// §4.3 reduction decisions vs instruction-trace length.
    ReductionVsTrace,
    /// Switched capacitance by tree depth, fully gated vs reduced.
    Breakdown,
    /// An SVG floorplan of the reduced gated tree.
    RenderTree,
    /// Table 4 and Figures 3–6 in one run, optionally as an HTML report.
    All,
}

impl Experiment {
    /// Every experiment, in the order the usage lists them.
    pub const ALL: [Experiment; 15] = [
        Self::Table4,
        Self::Fig3,
        Self::Fig4,
        Self::Fig5,
        Self::Fig6,
        Self::Ablations,
        Self::OptimalReduction,
        Self::SkewTradeoff,
        Self::Corners,
        Self::TechScaling,
        Self::Variance,
        Self::ReductionVsTrace,
        Self::Breakdown,
        Self::RenderTree,
        Self::All,
    ];

    /// The name `gcr experiment` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Table4 => "table4",
            Self::Fig3 => "fig3",
            Self::Fig4 => "fig4",
            Self::Fig5 => "fig5",
            Self::Fig6 => "fig6",
            Self::Ablations => "ablations",
            Self::OptimalReduction => "optimal_reduction",
            Self::SkewTradeoff => "skew_tradeoff",
            Self::Corners => "corners",
            Self::TechScaling => "tech_scaling",
            Self::Variance => "variance",
            Self::ReductionVsTrace => "reduction_vs_trace",
            Self::Breakdown => "breakdown",
            Self::RenderTree => "render_tree",
            Self::All => "all",
        }
    }

    /// Resolves a [`Self::name`] back to the experiment.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|e| e.name() == name)
    }

    /// The flags this experiment takes; any other flag is a usage error.
    #[must_use]
    pub fn flags(self) -> &'static [&'static str] {
        match self {
            Self::Table4 | Self::Fig3 | Self::Fig6 | Self::OptimalReduction => &["--quick"],
            Self::SkewTradeoff | Self::Corners | Self::Breakdown => &["--bench"],
            Self::RenderTree => &["--bench", "--out"],
            Self::Variance => &["--seeds"],
            Self::All => &["--quick", "--out"],
            Self::Fig4
            | Self::Fig5
            | Self::Ablations
            | Self::TechScaling
            | Self::ReductionVsTrace => &[],
        }
    }
}

/// The settable values of [`run_experiment`]; each experiment reads only
/// those of its [`Experiment::flags`].
#[derive(Clone, Debug)]
pub struct ExperimentOptions {
    /// `--quick`: trim the benchmark sweep to its smallest members.
    pub quick: bool,
    /// `--bench`: the benchmark of the single-benchmark studies (r1).
    pub bench: TsayBenchmark,
    /// `--seeds`: workload draws of the variance study (10).
    pub seeds: NonZeroUsize,
    /// `--out`: the SVG of `render_tree` (`gated_tree.svg`) or the HTML
    /// report of `all` (none).
    pub out: Option<String>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            quick: false,
            bench: TsayBenchmark::R1,
            seeds: NonZeroUsize::MIN.saturating_add(9), // 10
            out: None,
        }
    }
}

/// A printed report: a heading line and the body under it.
struct Section {
    heading: String,
    body: String,
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}\n{}", self.heading, self.body)
    }
}

/// Runs one experiment and prints its report to stdout.
///
/// # Errors
///
/// Returns workload, routing and file-writing failures.
pub fn run_experiment(exp: Experiment, opts: &ExperimentOptions) -> Result<(), Error> {
    let tech = Technology::default();
    let section = match exp {
        Experiment::Table4
        | Experiment::Fig3
        | Experiment::Fig4
        | Experiment::Fig5
        | Experiment::Fig6 => paper_section(exp, opts.quick, false, &tech)?,
        Experiment::Ablations => return ablations(&tech),
        Experiment::ReductionVsTrace => return reduction_vs_trace(&tech),
        Experiment::RenderTree => return render_tree(opts, &tech),
        Experiment::All => return all(opts, &tech),
        Experiment::OptimalReduction => optimal_reduction(opts.quick, &tech)?,
        Experiment::SkewTradeoff => skew_tradeoff(&generate(opts.bench)?, &tech)?,
        Experiment::Corners => corners(&generate(opts.bench)?, &tech)?,
        Experiment::TechScaling => tech_scaling(&generate(TsayBenchmark::R1)?)?,
        Experiment::Variance => variance(opts.seeds, &tech)?,
        Experiment::Breakdown => breakdown(&ReducedRouting::new(opts.bench, &tech)?, &tech),
    };
    print!("{section}");
    Ok(())
}

fn generate(bench: TsayBenchmark) -> Result<Workload, Error> {
    Ok(Workload::generate(bench, &WorkloadParams::default())?)
}

/// Table 4 or Figures 3–6 (`exp` is one of the five). `in_all` selects
/// the shorter Figure 4/5 sweeps and section titles of the `all` report;
/// Figure 5 alone also names its optimum.
fn paper_section(
    exp: Experiment,
    quick: bool,
    in_all: bool,
    tech: &Technology,
) -> Result<Section, Error> {
    let params = WorkloadParams::default();
    let benches = |quick_len: usize, full_len: usize| {
        &TsayBenchmark::ALL[..if quick { quick_len } else { full_len }]
    };
    let (heading, alone_heading, body) = match exp {
        Experiment::Table4 => (
            "Table 4: benchmark characteristics",
            "Table 4: Benchmark characteristics for gated clock routing",
            table4::render(&table4::table4(benches(3, 5), &params)?).to_string(),
        ),
        Experiment::Fig3 => {
            let rows = fig3::fig3(benches(2, 5), &params, tech)?;
            (
                "Figure 3: buffered vs gated vs gate-reduced",
                // Alone, Figure 3 leaves a blank line under its heading.
                "Figure 3: Comparison among different clock routing methods\n",
                format!(
                    "Switched capacitance (pF):\n{}\nArea (10^6 λ²):\n{}",
                    fig3::render_switched_cap(&rows),
                    fig3::render_area(&rows)
                ),
            )
        }
        Experiment::Fig4 => {
            let activities: &[f64] = if in_all {
                &[0.1, 0.3, 0.5, 0.7, 0.9]
            } else {
                &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
            };
            let rows = fig4::fig4(activities, TsayBenchmark::R1, &params, tech)?;
            (
                "Figure 4: module activity vs switched capacitance (r1)",
                "Figure 4: Average module activity vs switched capacitance (r1)",
                fig4::render(&rows).to_string(),
            )
        }
        Experiment::Fig5 => {
            let strengths: &[f64] = if in_all {
                &[0.0, 0.05, 0.1, 0.2, 0.4, 0.8]
            } else {
                &[0.0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8]
            };
            let rows = fig5::fig5(strengths, TsayBenchmark::R1, &params, tech)?;
            let mut body = fig5::render(&rows).to_string();
            let best = rows
                .iter()
                .min_by(|a, b| a.total_switched_cap.total_cmp(&b.total_switched_cap));
            if let (false, Some(best)) = (in_all, best) {
                body += &format!(
                    "\noptimum: {:.0}% gate reduction at W = {:.2} pF",
                    100.0 * best.reduction_fraction,
                    best.total_switched_cap
                );
            }
            (
                "Figure 5: gate reduction sweep (r1)",
                "Figure 5: Gate reduction vs switched capacitance and area (r1)",
                body,
            )
        }
        // Figure 6.
        _ => (
            "Figure 6 / §6: distributed controllers",
            "Figure 6 / §6: centralized vs distributed controllers",
            fig6::render(&fig6::fig6(&[0, 1, 2], benches(1, 3), &params, tech)?).to_string(),
        ),
    };
    Ok(Section {
        heading: (if in_all { heading } else { alone_heading }).to_owned(),
        body,
    })
}

/// The paper's table and figures in one run; `--out` also writes them,
/// with a floorplan of the reduced r1 tree, as a self-contained HTML page.
fn all(opts: &ExperimentOptions, tech: &Technology) -> Result<(), Error> {
    let mut html = String::from(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
         <title>gated-clock-routing — experiments</title>\
         <style>body{font-family:sans-serif;max-width:70em;margin:2em auto}\
         pre{background:#f6f6f2;padding:1em;overflow-x:auto}</style>\
         </head><body><h1>Gated Clock Routing — reproduced experiments</h1>",
    );
    // Table 4 and Figures 3–6 lead `Experiment::ALL`.
    for exp in &Experiment::ALL[..5] {
        let Section { heading, body } = paper_section(*exp, opts.quick, true, tech)?;
        println!("== {heading} ==\n{body}");
        html += &format!("<h2>{heading}</h2><pre>{body}</pre>");
    }
    if let Some(path) = &opts.out {
        html += "<h2>Gated r1 floorplan</h2>";
        html += &ReducedRouting::new(TsayBenchmark::R1, tech)?.svg(SvgOptions::default());
        html += "</body></html>";
        std::fs::write(path, html).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// A benchmark's default workload routed gated, with the §4.3 untied
/// reduction at strength 0.2: the design `render_tree`, `breakdown` and
/// the `all` report show.
struct ReducedRouting {
    bench: TsayBenchmark,
    config: RouterConfig,
    routing: GatedRouting,
    /// Which gates keep their enable after reduction.
    mask: Vec<bool>,
}

impl ReducedRouting {
    fn new(bench: TsayBenchmark, tech: &Technology) -> Result<Self, Error> {
        let w = generate(bench)?;
        let config = RouterConfig::new(tech.clone(), w.benchmark.die);
        let routing = route_gated(&w.benchmark.sinks, &w.tables, &config)?;
        let star = w.benchmark.die.half_perimeter() / 8.0;
        let mask = reduce_gates_untied(
            &routing,
            tech,
            &ReductionParams::from_strength_scaled(0.2, tech, star),
        );
        Ok(Self {
            bench,
            config,
            routing,
            mask,
        })
    }

    fn svg(&self, options: SvgOptions) -> String {
        let options = SvgOptions {
            node_stats: Some(self.routing.node_stats.clone()),
            controlled: Some(self.mask.clone()),
            ..options
        };
        render_svg(
            &self.routing.tree,
            self.config.die(),
            self.config.controller(),
            &options,
        )
    }
}

fn render_tree(opts: &ExperimentOptions, tech: &Technology) -> Result<(), Error> {
    let out = opts.out.as_deref().unwrap_or("gated_tree.svg");
    let r = ReducedRouting::new(opts.bench, tech)?;
    let svg = r.svg(SvgOptions {
        width_px: 1200.0,
        ..SvgOptions::default()
    });
    std::fs::write(out, svg).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {out}: {} sinks, {} gates ({} controlled)",
        r.routing.tree.num_sinks(),
        r.routing.tree.device_count(),
        r.mask.iter().filter(|&&k| k).count()
    );
    Ok(())
}

fn breakdown(r: &ReducedRouting, tech: &Technology) -> Section {
    let rows = |mask: &[bool]| {
        evaluate_breakdown(
            &r.routing.tree,
            &r.routing.node_stats,
            r.config.controller(),
            tech,
            mask,
        )
    };
    let mut t = TextTable::new(vec![
        "depth",
        "edges",
        "full: W(T) pF",
        "full: W(S) pF",
        "reduced: W(T) pF",
        "reduced: W(S) pF",
    ]);
    for (f, d) in rows(&vec![true; r.routing.tree.len()])
        .iter()
        .zip(&rows(&r.mask))
    {
        t.row(vec![
            f.depth.to_string(),
            f.nodes.to_string(),
            format!("{:.2}", f.clock_switched_cap),
            format!("{:.2}", f.control_switched_cap),
            format!("{:.2}", d.clock_switched_cap),
            format!("{:.2}", d.control_switched_cap),
        ]);
    }
    Section {
        heading: format!(
            "Switched capacitance by tree depth on {} (fully gated vs reduced):",
            r.bench.name()
        ),
        body: t.to_string(),
    }
}

fn optimal_reduction(quick: bool, tech: &Technology) -> Result<Section, Error> {
    let mut t = TextTable::new(vec![
        "Bench",
        "Buffered pF",
        "Heuristic pF",
        "heur. gates",
        "DP optimum pF",
        "DP gates",
        "DP vs heur.",
    ]);
    for &b in &TsayBenchmark::ALL[..if quick { 2 } else { 5 }] {
        let row = optimal_vs_heuristic(&generate(b)?, tech)?;
        t.row(vec![
            row.bench.clone(),
            format!("{:.1}", row.buffered),
            format!("{:.1}", row.heuristic.0),
            row.heuristic.1.to_string(),
            format!("{:.1}", row.optimal.0),
            row.optimal.1.to_string(),
            format!("-{:.1}%", 100.0 * (1.0 - row.optimal.0 / row.heuristic.0)),
        ]);
    }
    Ok(Section {
        heading: "Exact control-subset optimum vs the paper's reduction rules:".to_owned(),
        body: t.to_string(),
    })
}

fn skew_tradeoff(w: &Workload, tech: &Technology) -> Result<Section, Error> {
    let rows = skew_tradeoff_study(w, tech, &[0.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0])?;
    let mut t = TextTable::new(vec![
        "skew bound (ps)",
        "measured skew (ps)",
        "wire (kλ)",
        "W(T) pF",
        "total W pF",
    ]);
    for r in rows {
        t.row(vec![
            format!("{:.0}", r.bound),
            format!("{:.2}", r.measured_skew),
            format!("{:.0}", r.wire_length / 1e3),
            format!("{:.2}", r.clock_switched_cap),
            format!("{:.2}", r.total_switched_cap),
        ]);
    }
    Ok(Section {
        heading: format!(
            "Bounded-skew trade-off on {} (gated topology):",
            w.benchmark.name
        ),
        body: t.to_string(),
    })
}

fn corners(w: &Workload, tech: &Technology) -> Result<Section, Error> {
    let mut t = TextTable::new(vec![
        "corner",
        "buffered skew (ps)",
        "buffered delay (ps)",
        "gated skew (ps)",
        "gated delay (ps)",
    ]);
    for r in corner_study(w, tech, 0.2)? {
        t.row(vec![
            r.corner,
            format!("{:.2}", r.buffered_skew),
            format!("{:.0}", r.buffered_delay),
            format!("{:.2}", r.gated_skew),
            format!("{:.0}", r.gated_delay),
        ]);
    }
    Ok(Section {
        heading: format!("Wire corners (devices fixed) on {}:", w.benchmark.name),
        body: t.to_string(),
    })
}

fn tech_scaling(w: &Workload) -> Result<Section, Error> {
    let nodes = [
        ("0.5um/5V/100MHz", Technology::half_micron()),
        ("0.35um/3.3V/200MHz", Technology::three_fifty_nm()),
        ("0.25um/2.5V/400MHz", Technology::quarter_micron()),
    ];
    let mut t = TextTable::new(vec![
        "node",
        "buffered pF",
        "reduced pF",
        "ratio",
        "buffered mW",
        "reduced mW",
    ]);
    for (r, (_, tech)) in tech_scaling_study(w, &nodes)?.iter().zip(&nodes) {
        t.row(vec![
            r.node.clone(),
            format!("{:.1}", r.buffered.total_switched_cap),
            format!("{:.1}", r.reduced.total_switched_cap),
            format!(
                "{:.2}",
                r.reduced.total_switched_cap / r.buffered.total_switched_cap
            ),
            format!("{:.1}", r.buffered.power_uw(tech) / 1e3),
            format!("{:.1}", r.reduced.power_uw(tech) / 1e3),
        ]);
    }
    Ok(Section {
        heading: "Technology scaling of the gated clock advantage (r1):".to_owned(),
        body: t.to_string(),
    })
}

/// The synthetic r1 is a random instance; this shows the Figure-3
/// conclusions do not hinge on one draw.
fn variance(n_seeds: NonZeroUsize, tech: &Technology) -> Result<Section, Error> {
    let base = WorkloadParams::default();
    let v = variance_study(
        |seed| seeded_workload(TsayBenchmark::R1, &base, seed),
        n_seeds.get(),
        tech,
    )?;
    let mut t = TextTable::new(vec!["metric", "mean", "std", "min", "max"]);
    for (name, s) in [
        ("gated / buffered", &v.gated_ratio),
        ("reduced / buffered", &v.reduced_ratio),
        ("% controls removed", &v.reduction_pct),
    ] {
        t.row(vec![
            name.to_owned(),
            format!("{:.3}", s.mean),
            format!("{:.3}", s.std),
            format!("{:.3}", s.min),
            format!("{:.3}", s.max),
        ]);
    }
    Ok(Section {
        heading: format!("Figure-3 ratios on r1 across {n_seeds} seeds:"),
        body: format!(
            "{t}\ngate reduction beats buffered on {}/{} seeds",
            v.wins, v.seeds
        ),
    })
}

/// The best untied reduction of `routing` over a small strength grid.
#[expect(
    clippy::expect_used,
    reason = "the strength grid scanned below is a non-empty literal"
)]
fn best_untied(routing: &GatedRouting, config: &RouterConfig) -> (f64, PowerReport) {
    let tech = config.tech();
    let star = config.die().half_perimeter() / 8.0;
    [0.0, 0.05, 0.1, 0.2, 0.3, 0.5]
        .iter()
        .map(|&s| {
            let mask = reduce_gates_untied(
                routing,
                tech,
                &ReductionParams::from_strength_scaled(s, tech, star),
            );
            (
                s,
                evaluate_with_mask(
                    &routing.tree,
                    &routing.node_stats,
                    config.controller(),
                    tech,
                    &mask,
                ),
            )
        })
        .min_by(|a, b| a.1.total_switched_cap.total_cmp(&b.1.total_switched_cap))
        .expect("non-empty strength grid")
}

/// `w`'s nearest-neighbor topology with the same gating machinery.
fn nearest_neighbor_routing(w: &Workload, config: &RouterConfig) -> Result<GatedRouting, Error> {
    let tech = config.tech();
    let topo = gcr_cts::nearest_neighbor_topology(tech, &w.benchmark.sinks, Some(tech.and_gate()))?;
    Ok(gated_routing_for_topology(
        topo,
        &w.benchmark.sinks,
        &w.tables,
        config,
    )?)
}

/// Quality ablations of the design choices called out in DESIGN.md:
///
/// 1. **Merge objective**: the Equation-3 greedy vs geometry-only and
///    activity-only topologies, each after its best reduction.
/// 2. **Reduction rules**: R1 / R2 / R3 enabled individually vs together.
/// 3. **Reduction mode**: untying enables (gates stay as buffers) vs
///    physically removing gates and re-balancing the tree.
fn ablations(tech: &Technology) -> Result<(), Error> {
    let params = WorkloadParams {
        stream_len: 10_000,
        ..WorkloadParams::default()
    };
    let w = Workload::generate(TsayBenchmark::R1, &params)?;
    let config = RouterConfig::new(tech.clone(), w.benchmark.die);
    let star = w.benchmark.die.half_perimeter() / 8.0;

    // --- Ablation 1: merge objective -----------------------------------
    println!("== ablation 1: merge objective (r1, best untied reduction) ==");
    let sc_routing = route_gated(&w.benchmark.sinks, &w.tables, &config)?;
    let (s_sc, sc_best) = best_untied(&sc_routing, &config);
    let (s_nn, nn_best) = best_untied(&nearest_neighbor_routing(&w, &config)?, &config);
    // Top-down means-and-medians topology.
    let mmm_topo = gcr_cts::mmm_topology(&w.benchmark.sinks)?;
    let mmm_routing = gated_routing_for_topology(mmm_topo, &w.benchmark.sinks, &w.tables, &config)?;
    let (s_mmm, mmm_best) = best_untied(&mmm_routing, &config);
    // The activity-driven ordering of Tellez et al. [5], the prior work
    // the paper extends (geometry only as a tie-break).
    let act_routing = route_activity_driven(&w.benchmark.sinks, &w.tables, &config)?;
    let (s_act, act_best) = best_untied(&act_routing, &config);
    println!("  min-SC objective : {sc_best} (strength {s_sc:.2})");
    println!("  nearest-neighbor : {nn_best} (strength {s_nn:.2})");
    println!("  means-&-medians  : {mmm_best} (strength {s_mmm:.2})");
    println!("  activity-driven  : {act_best} (strength {s_act:.2})");
    println!(
        "  -> Equation-3 ordering saves {:.1}% over geometric ordering",
        100.0 * (1.0 - sc_best.total_switched_cap / nn_best.total_switched_cap)
    );

    // Same CPU model, but *uniform* placement: activity clusters are no
    // longer co-located, so geometry and activity disagree — the regime
    // the Equation-3 objective is built for.
    let scrambled =
        Workload::for_benchmark(Benchmark::tsay(TsayBenchmark::R1, params.seed), &params)?;
    let s_config = RouterConfig::new(tech.clone(), scrambled.benchmark.die);
    let s_routing = route_gated(&scrambled.benchmark.sinks, &scrambled.tables, &s_config)?;
    let (_, s_sc_best) = best_untied(&s_routing, &s_config);
    let (_, s_nn_best) = best_untied(&nearest_neighbor_routing(&scrambled, &s_config)?, &s_config);
    println!(
        "  (uniform placement) min-SC {:.2} pF vs NN {:.2} pF -> {:.1}% saved\n",
        s_sc_best.total_switched_cap,
        s_nn_best.total_switched_cap,
        100.0 * (1.0 - s_sc_best.total_switched_cap / s_nn_best.total_switched_cap)
    );

    // --- Ablation 2: reduction rules individually -----------------------
    println!("== ablation 2: reduction rules (r1, strength 0.2 scale) ==");
    let eval = |mask: &[bool]| {
        evaluate_with_mask(
            &sc_routing.tree,
            &sc_routing.node_stats,
            config.controller(),
            tech,
            mask,
        )
    };
    let full = ReductionParams::from_strength_scaled(0.2, tech, star);
    let variants = [
        (
            "R1 only (activity)",
            ReductionParams {
                cap_threshold: 0.0,
                similarity_threshold: 0.0,
                ..full
            },
        ),
        (
            "R2 only (subtree cap)",
            ReductionParams {
                activity_threshold: 0.0,
                similarity_threshold: 0.0,
                ..full
            },
        ),
        (
            "R3 only (similarity)",
            ReductionParams {
                activity_threshold: 0.0,
                cap_threshold: 0.0,
                ..full
            },
        ),
        ("R1+R2+R3", full),
    ];
    for (name, p) in variants {
        let mask = reduce_gates_untied(&sc_routing, tech, &p);
        let kept = mask.iter().filter(|&&k| k).count();
        println!(
            "  {name:24} kept {kept:4} controls, W = {:7.2} pF",
            eval(&mask).total_switched_cap
        );
    }
    // Extension: the exact tree-DP optimum over all control subsets.
    let dp_mask = reduce_gates_optimal(&sc_routing, tech, config.controller());
    let dp_kept = dp_mask.iter().filter(|&&k| k).count();
    println!(
        "  {:24} kept {dp_kept:4} controls, W = {:7.2} pF",
        "DP optimum (extension)",
        eval(&dp_mask).total_switched_cap
    );
    println!();

    // --- Ablation 3: untie vs physical removal --------------------------
    println!("== ablation 3: reduction mode (r1, strength 0.2 scale) ==");
    let untied = eval(&reduce_gates_untied(&sc_routing, tech, &full));
    let removal_assignment = reduce_gates(&sc_routing, tech, &full);
    let removed = sc_routing.reembed(&w.benchmark.sinks, removal_assignment, &config)?;
    let removed_report = evaluate(
        &removed.tree,
        &removed.node_stats,
        config.controller(),
        tech,
        DeviceRole::Gate,
    );
    println!("  untie enables    : {untied}");
    println!(
        "  physical removal : {removed_report} (+{:.0}kλ re-balance wire)",
        (removed.tree.total_wire_length() - sc_routing.tree.total_wire_length()) / 1e3
    );
    println!(
        "  -> untying avoids the re-balancing wire entirely; removal pays\n\
         \u{20}    it back only when gate area dominates."
    );
    Ok(())
}

/// The trace-length axis of [`reduction_vs_trace`]; the last entry is the
/// converged reference.
const TRACE_LENGTHS: [u64; 5] = [2_000, 20_000, 200_000, 2_000_000, 20_000_000];

/// §4.3 gate-reduction decisions vs trace length.
///
/// The paper drives every benchmark with one 20k-cycle stream. This
/// study asks how much trace that decision needs: on a **fixed** gated r1
/// topology, the optimal control subset (`reduce_gates_optimal`) is
/// recomputed from activity tables over growing prefixes of the same
/// instruction stream (2k to 20M cycles, each streamed through
/// `gcr_activity::scan_source` without materializing the trace), and
/// every short-trace mask is judged under the converged (20M-cycle)
/// statistics: how many keep/untie decisions flip, and how much switched
/// capacitance the flips cost. Keeping the topology fixed isolates the
/// reduction decision from the routing decision.
fn reduction_vs_trace(tech: &Technology) -> Result<(), Error> {
    // r1 geometry and the paper's activity-model knobs, seed 1998: the
    // model every other experiment runs; only the trace length varies.
    let params = WorkloadParams::default();
    let workload = Workload::generate(TsayBenchmark::R1, &WorkloadParams::smoke())?;
    let sinks = &workload.benchmark.sinks;
    let model = CpuModel::builder(sinks.len())
        .instructions(params.instructions)
        .usage_fraction(params.usage_fraction)
        .persistence(params.persistence)
        .groups(params.groups)
        .seed(params.seed)
        .build()?;

    // One scratch serves all lengths. trace_source(L) is the first L
    // cycles of the same deterministic sequence, so longer rows refine,
    // not redraw.
    let mut scratch = ScanScratch::new();
    let mut scan = |len: u64| {
        let mut source = model.trace_source(len);
        gcr_activity::scan_source(
            model.rtl(),
            &mut source,
            &ScanParams::default(),
            &mut scratch,
        )
        .map(|(tables, _)| tables)
    };

    // Fixed topology: routed once under the converged tables.
    let reference_len = TRACE_LENGTHS[TRACE_LENGTHS.len() - 1];
    let reference_tables = scan(reference_len)?;
    let config = RouterConfig::new(tech.clone(), workload.benchmark.die);
    let routing = route_gated(sinks, &reference_tables, &config)?;
    let stats_under = |tables: &ActivityTables| -> Vec<EnableStats> {
        routing
            .node_modules
            .iter()
            .map(|set| tables.enable_stats(set))
            .collect()
    };
    let reference_stats = stats_under(&reference_tables);
    // The switched capacitance of a mask under the converged statistics.
    let w_ref = |mask: &[bool]| {
        evaluate_with_mask(
            &routing.tree,
            &reference_stats,
            config.controller(),
            tech,
            mask,
        )
        .total_switched_cap
    };
    let reference_mask = reduce_gates_optimal(&routing, tech, config.controller());
    let reference_w = w_ref(&reference_mask);

    println!(
        "r1, {} sinks, fixed topology; decisions judged under the \
         {reference_len}-cycle reference (W = {reference_w:.1} pF, {} controls kept)\n",
        sinks.len(),
        reference_mask.iter().filter(|&&m| m).count(),
    );
    println!(
        "{:>10}  {:>5}  {:>6}  {:>9}  {:>7}",
        "cycles", "kept", "flips", "W(ref) pF", "excess"
    );
    for len in TRACE_LENGTHS {
        // Same tree, short-trace statistics: swap the per-node stats and
        // re-run the exact control-subset DP.
        let mut short = routing.clone();
        short.node_stats = stats_under(&scan(len)?);
        let mask = reduce_gates_optimal(&short, tech, config.controller());
        let kept = mask.iter().filter(|&&m| m).count();
        let flips = mask
            .iter()
            .zip(&reference_mask)
            .filter(|(a, b)| a != b)
            .count();
        let w = w_ref(&mask);
        println!(
            "{len:>10}  {kept:>5}  {flips:>6}  {w:>9.1}  {:>+6.2}%",
            100.0 * (w - reference_w) / reference_w,
        );
    }
    Ok(())
}
