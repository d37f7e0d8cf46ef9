//! The daemon's routing engine: cacheable design/routing entries and
//! the compute paths that produce them.
//!
//! A [`DesignEntry`] is everything derivable from a design key —
//! generated benchmark, scanned [`ActivityTables`](gcr_activity::ActivityTables),
//! sink-to-module map, router configuration. A [`RoutingEntry`] is a
//! completed gated routing plus its canonical decision log, the FNV-1a
//! digest of that log, and the Equation-3 power evaluation — the full
//! payload of a cache-hit response, so a hit is a pure replay that
//! touches no engine code at all.
//!
//! [`route_design`] routes every design through
//! [`route_gated_with_scratch`], the library's one gated-routing flow,
//! with the worker's reusable [`CoarsenScratch`]. Below twice
//! [`DEFAULT_REGION_SIZE`](gcr_cts::DEFAULT_REGION_SIZE) sinks (r1–r5)
//! it runs the flat pruned engine with the flat engine's decision log,
//! above it (r6–r8) the regional decomposition. So a daemon response is
//! bit-identical to the CLI flow and to `gcr-verify audit`'s replay of
//! the same key.

use std::sync::Arc;

use gcr_core::{
    evaluate, route_gated_eco, route_gated_with_scratch, DeviceRole, GatedRouting, PowerReport,
    RouterConfig,
};
use gcr_cts::{
    canonical_decision_log, CoarsenParams, CoarsenScratch, EcoEdit, EcoOutcome, EcoScratch,
    GreedyParams, MergeDecision,
};
use gcr_rctree::Technology;
use gcr_workloads::{TsayBenchmark, Workload, WorkloadParams};

use crate::cache::fnv1a;

/// The identity of a cacheable design: everything that determines the
/// generated benchmark and activity tables bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DesignKey {
    /// Which Tsay benchmark.
    pub benchmark: TsayBenchmark,
    /// Activity-stream length.
    pub stream_len: usize,
    /// Workload generator seed.
    pub seed: u64,
}

impl DesignKey {
    /// The canonical cache-key string; hashed with [`fnv1a`] for the
    /// LRU key and stored alongside the entry for collision detection.
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "{}:{}:{}",
            self.benchmark.name(),
            self.stream_len,
            self.seed
        )
    }

    /// FNV-1a hash of [`Self::canonical`].
    #[must_use]
    pub fn hash(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

/// A parsed, scanned, route-ready design (cache value).
#[derive(Debug)]
pub struct DesignEntry {
    /// The key this entry was built from.
    pub key: DesignKey,
    /// Generated benchmark + scanned activity tables.
    pub workload: Workload,
    /// Sink-to-module map (identity on r1–r5, clamped on r6–r8).
    pub module_of: Vec<usize>,
    /// Router configuration: technology, die, source, controller plan —
    /// the same defaults as the CLI (`RouterConfig::new`).
    pub config: RouterConfig,
}

/// A completed routing plus its full response payload (cache value).
#[derive(Debug)]
pub struct RoutingEntry {
    /// The routed, embedded gated clock tree.
    pub routing: GatedRouting,
    /// The committed merge decisions, in order.
    pub decisions: Vec<MergeDecision>,
    /// `canonical_decision_log(&decisions)`, shared with every log reply
    /// rendered from this entry.
    pub log: Arc<str>,
    /// FNV-1a digest of the canonical log — the wire `log_hash`.
    pub log_hash: u64,
    /// Equation-3 power evaluation of the routing.
    pub report: PowerReport,
    /// Merge-loop heap allocations of the run that produced this entry
    /// (0 once the producing worker's scratch is warm).
    pub loop_allocs: u64,
}

/// Per-worker reusable engine buffers. Each worker owns one; a warm
/// scratch makes every subsequent route allocation-free in its merge
/// loops.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// Incremental-ECO frontier/replay buffers.
    pub eco: EcoScratch,
    /// Routing buffers: the flat pruned engine's scratch below the
    /// coarsening cut-over, the region and root-merge scratches above.
    pub coarsen: CoarsenScratch,
}

impl WorkerScratch {
    /// Fresh (cold) buffers.
    #[must_use]
    pub fn new() -> Self {
        WorkerScratch::default()
    }
}

/// Generates and scans the design for `key`. This is the expensive,
/// once-per-design path a cache hit skips.
///
/// # Errors
///
/// Returns a message for an invalid workload parameterization.
pub fn build_design(key: DesignKey) -> Result<DesignEntry, String> {
    let params = WorkloadParams::smoke()
        .with_stream_len(key.stream_len)
        .with_seed(key.seed);
    let workload = Workload::generate(key.benchmark, &params)
        .map_err(|e| format!("workload generation failed: {e}"))?;
    let module_of = workload.module_of();
    let config = RouterConfig::new(Technology::default(), workload.benchmark.die);
    Ok(DesignEntry {
        key,
        workload,
        module_of,
        config,
    })
}

/// Routes `design` from scratch through the per-worker `scratch`,
/// producing the full cacheable entry. Bit-identical to the CLI
/// single-shot flow at any thread count and tracing state; the decision
/// log is **copied** out of the scratch (not stolen), so a warm
/// scratch's next run stays allocation-free.
///
/// # Errors
///
/// Returns a message for an engine failure (empty sink set, embedding
/// failure — none occur for generated benchmarks).
pub fn route_design(
    design: &DesignEntry,
    threads: usize,
    scratch: &mut WorkerScratch,
) -> Result<RoutingEntry, String> {
    let params = CoarsenParams {
        greedy: GreedyParams {
            threads: Some(threads),
            log_decisions: true,
        },
        target_region_size: 0,
    };
    let (routing, profile) = route_gated_with_scratch(
        &design.workload.benchmark.sinks,
        &design.module_of,
        &design.workload.tables,
        &design.config,
        &params,
        &mut scratch.coarsen,
    )
    .map_err(|e| format!("route failed: {e}"))?;
    // Copy, don't steal: `take_decisions` would leave the scratch's log
    // buffer empty and the next warm run would regrow it, breaking the
    // `loop_allocs == 0` steady state.
    let decisions = scratch.coarsen.decisions().to_vec();
    let report = evaluate(
        &routing.tree,
        &routing.node_stats,
        design.config.controller(),
        design.config.tech(),
        DeviceRole::Gate,
    );
    let log: Arc<str> = canonical_decision_log(&decisions).into();
    let log_hash = fnv1a(log.as_bytes());
    Ok(RoutingEntry {
        routing,
        decisions,
        log,
        log_hash,
        report,
        loop_allocs: profile.loop_allocs,
    })
}

/// The result of one incremental re-route served by the daemon.
#[derive(Debug)]
pub struct EcoAnswer {
    /// Power evaluation of the re-routed tree.
    pub report: PowerReport,
    /// What the incremental engine did.
    pub outcome: EcoOutcome,
}

/// Incrementally re-routes a cached routing under `edits` via the
/// dirty-frontier engine — the 21–39× path for small edits.
///
/// # Errors
///
/// Returns a message for an invalid edit batch (out-of-range index,
/// unknown module).
pub fn eco_design(
    design: &DesignEntry,
    routing: &RoutingEntry,
    edits: &[EcoEdit],
    scratch: &mut WorkerScratch,
) -> Result<EcoAnswer, String> {
    let result = route_gated_eco(
        &routing.routing,
        &design.workload.benchmark.sinks,
        &design.module_of,
        edits,
        &design.workload.tables,
        &design.config,
        &mut scratch.eco,
    )
    .map_err(|e| format!("eco failed: {e}"))?;
    let report = evaluate(
        &result.routing.tree,
        &result.routing.node_stats,
        design.config.controller(),
        design.config.tech(),
        DeviceRole::Gate,
    );
    Ok(EcoAnswer {
        report,
        outcome: result.outcome,
    })
}

/// Runs the full verifier lint suite over a routing and returns
/// `(error_count, warn_count)`.
#[must_use]
pub fn verify_routing(design: &DesignEntry, routing: &RoutingEntry) -> (u64, u64) {
    let verifier = gcr_verify::Verifier::with_default_lints();
    let input = gcr_verify::VerifyInput::new(&routing.routing.tree, design.config.tech())
        .with_die(design.workload.benchmark.die)
        .with_controller(design.config.controller())
        .with_tables(&design.workload.tables)
        .with_node_stats(&routing.routing.node_stats)
        .with_decision_log(&routing.decisions);
    let report = verifier.run(&input);
    let errors = report
        .diagnostics()
        .iter()
        .filter(|d| d.severity == gcr_verify::Severity::Error)
        .count();
    let warns = report
        .diagnostics()
        .iter()
        .filter(|d| d.severity == gcr_verify::Severity::Warn)
        .count();
    (errors as u64, warns as u64)
}

/// The single-shot CLI-equivalent reference: fresh (cold) scratch,
/// single-threaded, untraced. Integration tests and the CI smoke
/// compare daemon responses against this bit for bit.
///
/// # Errors
///
/// As [`build_design`] / [`route_design`].
pub fn single_shot_reference(key: DesignKey) -> Result<(Arc<DesignEntry>, RoutingEntry), String> {
    let design = Arc::new(build_design(key)?);
    let routing = route_design(&design, 1, &mut WorkerScratch::new())?;
    Ok((design, routing))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_key_canonical_is_stable() {
        let key = DesignKey {
            benchmark: TsayBenchmark::R1,
            stream_len: 500,
            seed: 1998,
        };
        assert_eq!(key.canonical(), "r1:500:1998");
        assert_eq!(key.hash(), fnv1a(b"r1:500:1998"));
    }

    /// A warm-scratch re-route reproduces the cold route bit for bit
    /// (same canonical log, same hash) and the ECO fast path over a
    /// no-op edit batch is a pure replay — the daemon's cache-hit and
    /// incremental contracts, exercised without any networking.
    #[test]
    fn warm_reroute_and_pure_replay_match_cold_reference() {
        let key = DesignKey {
            benchmark: TsayBenchmark::R1,
            stream_len: 500,
            seed: 1998,
        };
        let design = build_design(key).unwrap();
        let mut scratch = WorkerScratch::new();
        let cold = route_design(&design, 1, &mut scratch).unwrap();
        let warm = route_design(&design, 1, &mut scratch).unwrap();
        assert_eq!(cold.log, warm.log);
        assert_eq!(cold.log_hash, warm.log_hash);
        assert_eq!(cold.routing.topology, warm.routing.topology);

        let eco = eco_design(
            &design,
            &warm,
            &[EcoEdit::SwapActivity { module: 0 }],
            &mut scratch,
        )
        .unwrap();
        assert!(eco.outcome.pure_replay);
        assert_eq!(eco.outcome.topology, cold.routing.topology);

        let (errors, _) = verify_routing(&design, &warm);
        assert_eq!(errors, 0);
    }
}
