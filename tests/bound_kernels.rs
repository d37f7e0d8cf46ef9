//! Contract tests for the columnar bound kernels: `bound_kernel` over
//! `bound_terms` rows must be **bitwise** identical to the scalar
//! `cost_lower_bound` path for every objective, because a single ULP of
//! drift would reorder heap entries (see `docs/performance.md` §Bound
//! kernels and candidate filtering). The crate-private sub-run view
//! (`MappedObjective`) has the same check in `gcr-cts`'s own tests.
//! A second set of tests pins the filtering behavior itself: candidate
//! filtering must actually engage on an r1-scale workload and must never
//! change the merge order relative to the exhaustive reference.
// Test code: unwrap/expect on infallible setup is idiomatic here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gcr_activity::{ActivityTables, CpuModel};
use gcr_core::{ActivityDrivenObjective, GatedObjective, RouterConfig};
use gcr_cts::{
    run_greedy_exhaustive_with_scratch, run_greedy_with_scratch, BoundColumns, GreedyParams,
    GreedyScratch, MergeObjective, NearestNeighborObjective, Sink,
};
use gcr_geometry::{BBox, Point};
use gcr_rctree::Technology;
use gcr_workloads::{TsayBenchmark, Workload, WorkloadParams};
use proptest::prelude::*;

const SIDE: f64 = 40_000.0;

fn sinks_strategy(max: usize) -> impl Strategy<Value = Vec<Sink>> {
    prop::collection::vec((0.0..SIDE, 0.0..SIDE, 0.005..0.3f64), 2..max).prop_map(|v| {
        v.into_iter()
            .map(|(x, y, c)| Sink::new(Point::new(x, y), c))
            .collect()
    })
}

/// A small activity model with one module per sink, deterministic per
/// seed, so the Equation-3 objective has real probabilities to chew on.
fn tables_for(num_sinks: usize, seed: u64) -> ActivityTables {
    let model = CpuModel::builder(num_sinks)
        .instructions(8)
        .seed(seed)
        .build()
        .unwrap();
    let stream = model.generate_stream(600);
    ActivityTables::scan(model.rtl(), &stream)
}

/// Merges a few leaf pairs so the arena holds internal nodes too (whose
/// merging regions are segments, not points), then checks every
/// center's bound kernel bitwise against the scalar path: over the
/// candidates' [`BoundTerms`] rows in both orientations the engine uses
/// (`center < y` for ring expansions, `center > y` for post-merge
/// floods), and over sub-slices that start and end at odd offsets, as
/// the engine's per-thread column splits do.
fn assert_kernel_matches_scalar<O: MergeObjective>(objective: &mut O, num_leaves: usize) {
    let mut next = num_leaves;
    let mut leaf = 0;
    while leaf + 1 < num_leaves && next < num_leaves + 3 {
        objective.merge(leaf, leaf + 1, next).unwrap();
        next += 1;
        leaf += 2;
    }
    let total = next;
    for center in 0..total {
        let candidates: Vec<usize> = (0..total).filter(|&y| y != center).collect();
        let mut rows = BoundColumns::default();
        for &y in &candidates {
            rows.push(objective.bound_terms(y));
        }
        let terms = objective.bound_terms(center);
        let n = candidates.len();
        for (start, end) in [(0, n), (0, n.min(1)), (1.min(n), n), (3.min(n), n.min(12))] {
            let mut out = vec![f64::NAN; end - start];
            objective.bound_kernel(&terms, rows.rows().slice(start..end), &mut out);
            for (&y, got) in candidates[start..end].iter().zip(out) {
                let scalar = objective.cost_lower_bound(center, y);
                assert!(
                    got.to_bits() == scalar.to_bits(),
                    "bound_kernel({center}, {y}) = {got:?} differs from scalar {scalar:?}",
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Nearest-neighbor objective: batched bounds are bitwise equal to
    /// scalar bounds over random arenas.
    #[test]
    fn nearest_neighbor_batch_is_bitwise_scalar(sinks in sinks_strategy(48)) {
        let tech = Technology::default();
        let mut objective = NearestNeighborObjective::new(&tech, &sinks, None);
        assert_kernel_matches_scalar(&mut objective, sinks.len());
    }

    /// Equation-3 objective: same bitwise contract, across random
    /// geometry *and* random activity models.
    #[test]
    fn equation3_batch_is_bitwise_scalar(sinks in sinks_strategy(48), seed in 1u64..1_000) {
        let tech = Technology::default();
        let die = BBox::new(Point::ORIGIN, Point::new(SIDE, SIDE));
        let config = RouterConfig::new(tech, die);
        let tables = tables_for(sinks.len(), seed);
        let module_of: Vec<usize> = (0..sinks.len()).collect();
        let mut objective = GatedObjective::new(
            config.tech(),
            config.controller(),
            &tables,
            &sinks,
            &module_of,
        );
        assert_kernel_matches_scalar(&mut objective, sinks.len());
    }

    /// Activity-driven (Téllez-style) objective: same bitwise contract.
    #[test]
    fn activity_driven_batch_is_bitwise_scalar(sinks in sinks_strategy(48), seed in 1u64..1_000) {
        let tech = Technology::default();
        let die = BBox::new(Point::ORIGIN, Point::new(SIDE, SIDE));
        let tables = tables_for(sinks.len(), seed);
        let mut objective =
            ActivityDrivenObjective::new(&tech, &tables, &sinks, die.half_perimeter());
        assert_kernel_matches_scalar(&mut objective, sinks.len());
    }
}

/// On a real r1-scale workload the kernel filter must actually engage
/// (`bounds_filtered > 0`: candidates parked in the deferred slab instead
/// of becoming heap entries) — and filtering must never change the merge
/// order: the pruned topology stays bit-identical to the exhaustive
/// reference under both objectives.
#[test]
fn filtering_engages_on_r1_without_changing_merge_order() {
    let params = WorkloadParams::smoke();
    let workload = Workload::generate(TsayBenchmark::R1, &params).unwrap();
    let sinks = &workload.benchmark.sinks;
    let n = sinks.len();
    let tech = Technology::default();
    let config = RouterConfig::new(tech.clone(), workload.benchmark.die);
    let module_of: Vec<usize> = (0..n).collect();

    let nn = NearestNeighborObjective::new(&tech, sinks, None);
    let gated = GatedObjective::new(
        config.tech(),
        config.controller(),
        &workload.tables,
        sinks,
        &module_of,
    );

    let params = GreedyParams::default();
    let mut nn_pruned = nn.clone();
    let (topology, stats, _) =
        run_greedy_with_scratch(n, &mut nn_pruned, &params, &mut GreedyScratch::new()).unwrap();
    assert!(
        stats.bounds_filtered > 0,
        "candidate filtering never engaged on r1 (nearest-neighbor)"
    );
    assert!(stats.bound_batches > 0, "no batched bound sweeps on r1");
    let mut nn_ref = nn.clone();
    let (reference, _, _) =
        run_greedy_exhaustive_with_scratch(n, &mut nn_ref, &params, &mut GreedyScratch::new())
            .unwrap();
    assert_eq!(
        topology, reference,
        "filtering changed the nearest-neighbor merge order on r1"
    );

    let params = GreedyParams::default();
    let mut gated_pruned = gated.clone();
    let (topology, stats, _) =
        run_greedy_with_scratch(n, &mut gated_pruned, &params, &mut GreedyScratch::new()).unwrap();
    assert!(
        stats.bounds_filtered > 0,
        "candidate filtering never engaged on r1 (equation-3)"
    );
    assert!(stats.bound_batches > 0, "no batched bound sweeps on r1");
    let mut gated_ref = gated.clone();
    let (reference, _, _) =
        run_greedy_exhaustive_with_scratch(n, &mut gated_ref, &params, &mut GreedyScratch::new())
            .unwrap();
    assert_eq!(
        topology, reference,
        "filtering changed the equation-3 merge order on r1"
    );
}
