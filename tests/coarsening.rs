//! Property tests for the hierarchical coarsening engine: the region
//! decomposition must be a deterministic partition of the sink set, the
//! coarsened parallel route must produce decision logs that are
//! bit-identical across worker-thread counts (the contract the
//! `gcr-verify audit` subcommand enforces on the scale benchmarks), and
//! the routed result must pass the full `gcr-verify` lint deck with
//! complete activity context. `route_gated_mapped`, the flow `gcr route`
//! runs, must stay flat above the cut-over.
// Test code: unwrap/expect on infallible setup is idiomatic here, in
// helpers as well as in #[test] functions.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use gcr_activity::{ActivityTables, CpuModel};
use gcr_core::{
    route_gated_mapped, route_gated_with_scratch, GatedObjective, GatedRouting, RouterConfig,
};
use gcr_cts::{
    canonical_decision_log, partition_regions, run_greedy_with_scratch, CoarsenParams,
    CoarsenScratch, GreedyParams, GreedyScratch, MergeDecision, Sink, DEFAULT_REGION_SIZE,
};
use gcr_geometry::{BBox, Point};
use gcr_rctree::Technology;
use gcr_trace::{MemorySink, Tracer};
use gcr_verify::{Verifier, VerifyInput};
use proptest::prelude::*;

const SIDE: f64 = 40_000.0;

fn sinks_strategy(min: usize, max: usize) -> impl Strategy<Value = Vec<Sink>> {
    prop::collection::vec((0.0..SIDE, 0.0..SIDE, 0.005..0.3f64), min..max).prop_map(|v| {
        v.into_iter()
            .map(|(x, y, c)| Sink::new(Point::new(x, y), c))
            .collect()
    })
}

/// A small activity model with one module per sink, deterministic per
/// seed (same shape as the flat-engine property tests).
fn tables_for(num_sinks: usize, seed: u64) -> ActivityTables {
    let model = CpuModel::builder(num_sinks)
        .instructions(8)
        .seed(seed)
        .build()
        .unwrap();
    let stream = model.generate_stream(600);
    ActivityTables::scan(model.rtl(), &stream)
}

/// Routes through the gated-routing flow at `threads` workers with
/// `scratch`, returning the routing and the decision log.
fn coarsened_route(
    sinks: &[Sink],
    module_of: &[usize],
    tables: &ActivityTables,
    config: &RouterConfig,
    target_region_size: usize,
    threads: usize,
    scratch: &mut CoarsenScratch,
) -> (GatedRouting, Vec<MergeDecision>) {
    let params = CoarsenParams {
        greedy: GreedyParams {
            threads: Some(threads),
            log_decisions: true,
        },
        target_region_size,
    };
    let (routing, _) =
        route_gated_with_scratch(sinks, module_of, tables, config, &params, scratch).unwrap();
    (routing, scratch.take_decisions())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The region decomposition is a partition of the sink set — every
    /// sink in exactly one region, members ascending — and a pure
    /// function of the locations (no thread count anywhere near it).
    #[test]
    fn partition_is_a_deterministic_partition(
        sinks in sinks_strategy(2, 200),
        target in 1usize..64,
    ) {
        let locations: Vec<Point> = sinks.iter().map(Sink::location).collect();
        let regions = partition_regions(&locations, target);
        let mut seen = vec![false; locations.len()];
        for region in &regions {
            prop_assert!(!region.is_empty());
            let mut prev = None;
            for &m in region {
                prop_assert!(!seen[m as usize], "sink {m} appears in two regions");
                seen[m as usize] = true;
                prop_assert!(prev.is_none_or(|p| p < m), "members must ascend");
                prev = Some(m);
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "partition must cover every sink");
        prop_assert_eq!(partition_regions(&locations, target), regions);
    }

    /// The coarsened parallel route is deterministic across worker
    /// counts: topologies and canonical decision logs are bit-identical
    /// for `threads` ∈ {1, 2, 4, 8} — the property `gcr-verify audit`
    /// sweeps via `GCR_THREADS` on the scale benchmarks.
    #[test]
    fn coarsened_route_is_thread_count_invariant(
        sinks in sinks_strategy(40, 120),
        seed in 1u64..1_000,
    ) {
        let tech = Technology::default();
        let die = BBox::new(Point::ORIGIN, Point::new(SIDE, SIDE));
        let config = RouterConfig::new(tech, die);
        let tables = tables_for(sinks.len(), seed);
        let module_of: Vec<usize> = (0..sinks.len()).collect();
        // target 16 forces multiple regions even at 40 sinks.
        let (routing, log) =
            coarsened_route(&sinks, &module_of, &tables, &config, 16, 1, &mut CoarsenScratch::new());
        prop_assert_eq!(log.len(), sinks.len() - 1);
        let baseline = canonical_decision_log(&log);
        for threads in [2usize, 4, 8] {
            let (routing_t, log_t) =
                coarsened_route(
                    &sinks, &module_of, &tables, &config, 16, threads, &mut CoarsenScratch::new(),
                );
            prop_assert_eq!(&routing_t.topology, &routing.topology, "topology diverged at {} threads", threads);
            prop_assert_eq!(
                canonical_decision_log(&log_t),
                baseline.clone(),
                "decision log diverged at {} threads",
                threads
            );
        }
    }

    /// A coarsened parallel route passes the full `gcr-verify` lint deck
    /// — zero skew, gating consistency, switched-capacitance accounting,
    /// and the determinism lints over its decision log.
    #[test]
    fn coarsened_route_verifies_clean(
        sinks in sinks_strategy(40, 120),
        seed in 1u64..1_000,
    ) {
        let tech = Technology::default();
        let die = BBox::new(Point::ORIGIN, Point::new(SIDE, SIDE));
        let config = RouterConfig::new(tech.clone(), die);
        let tables = tables_for(sinks.len(), seed);
        let module_of: Vec<usize> = (0..sinks.len()).collect();
        let (routing, log) =
            coarsened_route(&sinks, &module_of, &tables, &config, 16, 4, &mut CoarsenScratch::new());
        let report = Verifier::with_default_lints().run(
            &VerifyInput::new(&routing.tree, &tech)
                .with_die(die)
                .with_tables(&tables)
                .with_node_stats(&routing.node_stats)
                .with_controller(config.controller())
                .with_decision_log(&log),
        );
        prop_assert!(!report.has_errors(), "{}", report.render_text());
    }
}

/// Region sizes that differ by an order of magnitude make the region
/// schedule matter: which worker solves which region, and in what order,
/// changes with the thread count and with what a warm scratch holds. The
/// topology and decision log must not.
#[test]
fn coarsened_route_is_schedule_invariant_on_uneven_regions() {
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1_u64 << 53) as f64
    };
    // Three dense clusters over a sparse uniform background.
    let mut sinks = Vec::new();
    for (cx, cy) in [
        (6_000.0, 7_000.0),
        (31_000.0, 12_000.0),
        (20_000.0, 33_000.0),
    ] {
        for _ in 0..90 {
            let p = Point::new(cx + next() * 1_500.0, cy + next() * 1_500.0);
            sinks.push(Sink::new(p, 0.01 + 0.05 * next()));
        }
    }
    for _ in 0..130 {
        let p = Point::new(next() * SIDE, next() * SIDE);
        sinks.push(Sink::new(p, 0.01 + 0.05 * next()));
    }
    let target = 24;
    let locations: Vec<Point> = sinks.iter().map(Sink::location).collect();
    let sizes: Vec<usize> = partition_regions(&locations, target)
        .iter()
        .map(Vec::len)
        .collect();
    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
    assert!(max >= &(8 * min), "region sizes {min}..{max} are too even");

    let tech = Technology::default();
    let die = BBox::new(Point::ORIGIN, Point::new(SIDE, SIDE));
    let config = RouterConfig::new(tech, die);
    let modules = 16;
    let tables = tables_for(modules, 7);
    let module_of: Vec<usize> = (0..sinks.len()).map(|i| i % modules).collect();
    let route = |threads: usize, scratch: &mut CoarsenScratch| {
        let (routing, log) = coarsened_route(
            &sinks, &module_of, &tables, &config, target, threads, scratch,
        );
        (routing.topology, canonical_decision_log(&log))
    };
    let (topology, log) = route(1, &mut CoarsenScratch::new());
    assert_eq!(topology.num_leaves(), sinks.len());
    let mut warm = CoarsenScratch::new();
    for threads in [1, 2, 3, 8] {
        for (kind, scratch) in [("cold", &mut CoarsenScratch::new()), ("warm", &mut warm)] {
            let (topo_t, log_t) = route(threads, scratch);
            assert_eq!(
                topo_t, topology,
                "{kind} topology diverged at {threads} threads"
            );
            assert_eq!(
                log_t, log,
                "{kind} decision log diverged at {threads} threads"
            );
        }
    }
}

/// `route_gated_mapped` is flat at every size. On exactly twice
/// [`DEFAULT_REGION_SIZE`] sinks, where the default coarsened flow
/// partitions, it opens no `coarsen.run` span and commits the topology
/// of the flat pruned engine on a fresh objective.
#[test]
fn route_gated_mapped_stays_flat_at_the_cut_over() {
    let n = 2 * DEFAULT_REGION_SIZE;
    let sinks: Vec<Sink> = (0..n)
        .map(|i| {
            let p = Point::new(((i * 7_919) % 39_989) as f64, ((i * 6_007) % 39_971) as f64);
            Sink::new(p, 0.01 + 0.01 * (i % 5) as f64)
        })
        .collect();
    let locations: Vec<Point> = sinks.iter().map(Sink::location).collect();
    assert!(partition_regions(&locations, DEFAULT_REGION_SIZE).len() >= 2);
    let die = BBox::new(Point::ORIGIN, Point::new(SIDE, SIDE));
    let config = RouterConfig::new(Technology::default(), die);
    let modules = 16;
    let tables = tables_for(modules, 5);
    let module_of: Vec<usize> = (0..n).map(|i| i % modules).collect();

    let sink = Arc::new(MemorySink::new());
    let routing = {
        let _entered = Tracer::new(sink.clone()).enter();
        route_gated_mapped(&sinks, &module_of, &tables, &config).unwrap()
    };
    let spans: Vec<&str> = sink
        .nesting()
        .unwrap()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert!(spans.contains(&"greedy.run"), "{spans:?}");
    assert!(!spans.contains(&"coarsen.run"), "{spans:?}");

    let mut objective = GatedObjective::new(
        config.tech(),
        config.controller(),
        &tables,
        &sinks,
        &module_of,
    );
    let (flat, _, _) = run_greedy_with_scratch(
        n,
        &mut objective,
        &GreedyParams::default(),
        &mut GreedyScratch::new(),
    )
    .unwrap();
    assert_eq!(routing.topology, flat);
}
