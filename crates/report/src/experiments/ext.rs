//! The extension experiments as tested library functions: corner analysis,
//! cross-seed variance, technology scaling, the bounded-skew trade-off,
//! and the DP-vs-heuristic reduction comparison. `gcr experiment` prints
//! them as tables.

use gcr_core::{
    corner_analysis, evaluate, evaluate_buffered, evaluate_with_mask, reduce_gates_optimal,
    reduce_gates_untied, route_gated, DeviceRole, PowerReport, ReductionParams, RouteError,
    RouterConfig,
};
use gcr_cts::{build_buffered_tree, embed_bounded_skew};
use gcr_rctree::Technology;
use gcr_workloads::{Workload, WorkloadParams};

use crate::experiments::pipeline::{run_pipeline, DEFAULT_STRENGTHS};

fn workload_err(e: gcr_activity::ActivityError) -> RouteError {
    RouteError::Cts(gcr_cts::CtsError::InvalidTopology {
        reason: format!("workload generation failed: {e}"),
    })
}

/// Summary statistics of one scalar metric across seeds.
#[derive(Clone, Debug, PartialEq)]
pub struct Stats1d {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1).
    pub std: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Stats1d {
    /// Computes the summary of `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    #[must_use]
    pub fn from_samples(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "statistics over an empty sample");
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
        Self {
            mean,
            std: var.sqrt(),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Result of [`variance_study`]: the Figure-3 ratios across seeds.
#[derive(Clone, Debug)]
pub struct VarianceSummary {
    /// Fully gated / buffered total switched capacitance.
    pub gated_ratio: Stats1d,
    /// Best reduced / buffered total switched capacitance.
    pub reduced_ratio: Stats1d,
    /// Percent of gate controls removed at the chosen point.
    pub reduction_pct: Stats1d,
    /// Seeds on which the reduced tree beat the buffered baseline.
    pub wins: usize,
    /// Seeds evaluated.
    pub seeds: usize,
}

/// Runs the §5 pipeline across `n_seeds` independent workload draws of the
/// same benchmark and summarizes the headline ratios.
///
/// # Errors
///
/// Returns [`RouteError`] when any draw fails to route.
///
/// # Panics
///
/// Panics if `n_seeds` is zero.
pub fn variance_study(
    make_workload: impl Fn(u64) -> Result<Workload, gcr_activity::ActivityError>,
    n_seeds: usize,
    tech: &Technology,
) -> Result<VarianceSummary, RouteError> {
    assert!(n_seeds > 0, "variance study needs at least one seed");
    let mut gated = Vec::with_capacity(n_seeds);
    let mut reduced = Vec::with_capacity(n_seeds);
    let mut pct = Vec::with_capacity(n_seeds);
    for seed in 0..n_seeds as u64 {
        let w = make_workload(seed).map_err(workload_err)?;
        let r = run_pipeline(&w, tech, DEFAULT_STRENGTHS)?;
        gated.push(r.gated.total_switched_cap / r.buffered.total_switched_cap);
        reduced.push(r.reduced.total_switched_cap / r.buffered.total_switched_cap);
        pct.push(100.0 * r.reduction_fraction);
    }
    Ok(VarianceSummary {
        wins: reduced.iter().filter(|&&r| r < 1.0).count(),
        seeds: n_seeds,
        gated_ratio: Stats1d::from_samples(&gated),
        reduced_ratio: Stats1d::from_samples(&reduced),
        reduction_pct: Stats1d::from_samples(&pct),
    })
}

/// One corner of [`corner_study`], buffered vs gated side by side.
#[derive(Clone, Debug)]
pub struct CornerRow {
    /// Corner label.
    pub corner: String,
    /// Buffered-tree skew (ps).
    pub buffered_skew: f64,
    /// Buffered-tree insertion delay (ps).
    pub buffered_delay: f64,
    /// Gated-tree skew (ps).
    pub gated_skew: f64,
    /// Gated-tree insertion delay (ps).
    pub gated_delay: f64,
}

/// Wire process corners (±`spread` on unit R and C, devices fixed) for the
/// buffered baseline and the gated tree of one workload.
///
/// # Errors
///
/// Returns [`RouteError`] when routing fails or the spread is invalid.
pub fn corner_study(
    workload: &Workload,
    tech: &Technology,
    spread: f64,
) -> Result<Vec<CornerRow>, RouteError> {
    let config = RouterConfig::new(tech.clone(), workload.benchmark.die);
    let buffered = build_buffered_tree(tech, &workload.benchmark.sinks, config.source())?;
    let gated = route_gated(&workload.benchmark.sinks, &workload.tables, &config)?.tree;
    let to_cts = |e: gcr_rctree::TechnologyError| {
        RouteError::Cts(gcr_cts::CtsError::InvalidTopology {
            reason: format!("corner technology invalid: {e}"),
        })
    };
    let b = corner_analysis(&buffered, tech, spread).map_err(to_cts)?;
    let g = corner_analysis(&gated, tech, spread).map_err(to_cts)?;
    Ok(b.into_iter()
        .zip(g)
        .map(|(cb, cg)| CornerRow {
            corner: cb.name,
            buffered_skew: cb.skew,
            buffered_delay: cb.delay,
            gated_skew: cg.skew,
            gated_delay: cg.delay,
        })
        .collect())
}

/// One technology node of [`tech_scaling_study`].
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Node label.
    pub node: String,
    /// Buffered baseline report.
    pub buffered: PowerReport,
    /// Best reduced report.
    pub reduced: PowerReport,
}

/// Re-runs the §5 pipeline for one workload under several technologies.
///
/// # Errors
///
/// Returns [`RouteError`] when any run fails to route.
pub fn tech_scaling_study(
    workload: &Workload,
    techs: &[(&str, Technology)],
) -> Result<Vec<ScalingRow>, RouteError> {
    techs
        .iter()
        .map(|(name, tech)| {
            let r = run_pipeline(workload, tech, DEFAULT_STRENGTHS)?;
            Ok(ScalingRow {
                node: (*name).to_owned(),
                buffered: r.buffered,
                reduced: r.reduced,
            })
        })
        .collect()
}

/// One skew budget of [`skew_tradeoff_study`].
#[derive(Clone, Debug)]
pub struct SkewTradeoffRow {
    /// Requested budget (ps).
    pub bound: f64,
    /// Measured Elmore skew (ps), always ≤ bound.
    pub measured_skew: f64,
    /// Total electrical wirelength (layout units).
    pub wire_length: f64,
    /// Clock-tree switched capacitance (pF).
    pub clock_switched_cap: f64,
    /// Total switched capacitance (pF).
    pub total_switched_cap: f64,
}

/// Bounded-skew embeddings of the gated topology across skew budgets.
///
/// # Errors
///
/// Returns [`RouteError`] when routing fails.
pub fn skew_tradeoff_study(
    workload: &Workload,
    tech: &Technology,
    bounds: &[f64],
) -> Result<Vec<SkewTradeoffRow>, RouteError> {
    let config = RouterConfig::new(tech.clone(), workload.benchmark.die);
    let routing = route_gated(&workload.benchmark.sinks, &workload.tables, &config)?;
    bounds
        .iter()
        .map(|&bound| {
            let tree = embed_bounded_skew(
                &routing.topology,
                &workload.benchmark.sinks,
                tech,
                &routing.assignment,
                config.source(),
                bound,
            )?;
            let report = evaluate(
                &tree,
                &routing.node_stats,
                config.controller(),
                tech,
                DeviceRole::Gate,
            );
            Ok(SkewTradeoffRow {
                bound,
                measured_skew: report.skew,
                wire_length: tree.total_wire_length(),
                clock_switched_cap: report.clock_switched_cap,
                total_switched_cap: report.total_switched_cap,
            })
        })
        .collect()
}

/// One benchmark of [`optimal_vs_heuristic`].
#[derive(Clone, Debug)]
pub struct OptimalRow {
    /// Benchmark name.
    pub bench: String,
    /// Buffered baseline total (pF).
    pub buffered: f64,
    /// Best §4.3-heuristic total (pF) and its controlled-gate count.
    pub heuristic: (f64, usize),
    /// DP-optimal total (pF) and its controlled-gate count.
    pub optimal: (f64, usize),
}

/// The exact DP control optimum vs the best §4.3 heuristic point for one
/// workload.
///
/// # Errors
///
/// Returns [`RouteError`] when routing fails.
#[expect(
    clippy::expect_used,
    reason = "the strength grid scanned below is a non-empty literal"
)]
pub fn optimal_vs_heuristic(
    workload: &Workload,
    tech: &Technology,
) -> Result<OptimalRow, RouteError> {
    let config = RouterConfig::new(tech.clone(), workload.benchmark.die);
    let buffered = evaluate_buffered(
        &build_buffered_tree(tech, &workload.benchmark.sinks, config.source())?,
        tech,
    );
    let routing = route_gated(&workload.benchmark.sinks, &workload.tables, &config)?;
    let eval = |mask: &[bool]| {
        evaluate_with_mask(
            &routing.tree,
            &routing.node_stats,
            config.controller(),
            tech,
            mask,
        )
        .total_switched_cap
    };
    let star = workload.benchmark.die.half_perimeter() / 8.0;
    let heuristic = DEFAULT_STRENGTHS
        .iter()
        .map(|&s| {
            let mask = reduce_gates_untied(
                &routing,
                tech,
                &ReductionParams::from_strength_scaled(s, tech, star),
            );
            (eval(&mask), mask.iter().filter(|&&k| k).count())
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("non-empty strength grid");
    let dp_mask = reduce_gates_optimal(&routing, tech, config.controller());
    let optimal = (eval(&dp_mask), dp_mask.iter().filter(|&&k| k).count());
    Ok(OptimalRow {
        bench: workload.benchmark.name.clone(),
        buffered: buffered.total_switched_cap,
        heuristic,
        optimal,
    })
}

/// Convenience: the default workload of a benchmark with `seed` folded in.
///
/// # Errors
///
/// Returns [`gcr_activity::ActivityError`] for invalid parameters.
pub fn seeded_workload(
    bench: gcr_workloads::TsayBenchmark,
    base: &WorkloadParams,
    seed: u64,
) -> Result<Workload, gcr_activity::ActivityError> {
    Workload::generate(bench, &base.with_seed(base.seed.wrapping_add(seed)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_workloads::Benchmark;

    fn quick_workload(seed: u64) -> Workload {
        let params = WorkloadParams {
            instructions: 10,
            stream_len: 2_000,
            seed,
            ..WorkloadParams::default()
        };
        Workload::for_benchmark(Benchmark::uniform(24, 18_000.0, seed), &params).unwrap()
    }

    #[test]
    fn stats1d_basics() {
        let s = Stats1d::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.std - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn stats1d_rejects_empty() {
        let _ = Stats1d::from_samples(&[]);
    }

    #[test]
    fn variance_study_runs_and_counts_wins() {
        let tech = Technology::default();
        let v = variance_study(|seed| Ok(quick_workload(seed)), 3, &tech).unwrap();
        assert_eq!(v.seeds, 3);
        assert!(v.wins <= 3);
        assert!(v.reduced_ratio.mean <= v.gated_ratio.mean + 1e-9);
        assert!(v.reduction_pct.min >= 0.0 && v.reduction_pct.max <= 100.0);
    }

    #[test]
    fn corner_study_nominal_is_balanced() {
        let tech = Technology::default();
        let rows = corner_study(&quick_workload(5), &tech, 0.2).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(rows[0].buffered_skew <= 1e-6 * rows[0].buffered_delay.max(1.0));
        assert!(rows[0].gated_skew <= 1e-6 * rows[0].gated_delay.max(1.0));
        // Extremes move delay.
        assert!(rows[1].buffered_delay > rows[0].buffered_delay);
    }

    #[test]
    fn skew_tradeoff_respects_bounds() {
        let tech = Technology::default();
        let rows = skew_tradeoff_study(&quick_workload(6), &tech, &[0.0, 10.0, 100.0]).unwrap();
        for r in &rows {
            assert!(r.measured_skew <= r.bound + 1e-6, "bound {}", r.bound);
        }
        assert!(rows[2].wire_length <= rows[0].wire_length + 1e-6);
    }

    #[test]
    fn optimal_never_loses_to_heuristic() {
        let tech = Technology::default();
        let row = optimal_vs_heuristic(&quick_workload(7), &tech).unwrap();
        assert!(row.optimal.0 <= row.heuristic.0 + 1e-9);
        assert!(row.buffered > 0.0);
    }

    #[test]
    fn tech_scaling_produces_a_row_per_node() {
        let w = quick_workload(8);
        let rows = tech_scaling_study(
            &w,
            &[
                ("a", Technology::half_micron()),
                ("b", Technology::default()),
            ],
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.reduced.total_switched_cap <= r.buffered.total_switched_cap * 1.6);
        }
    }
}
