//! Property tests for the lower-bound pruned greedy engine: on random
//! sink sets it must produce **bit-identical** topologies to the
//! exhaustive reference under both the nearest-neighbor and the paper's
//! Equation-3 objectives, and every routed output must pass the
//! `gcr-verify` oracle. See `docs/algorithms.md` §Candidate pruning for
//! why identity (not mere equivalence) is the contract.
// Test code: unwrap/expect on infallible setup is idiomatic here, in
// helpers as well as in #[test] functions.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gcr_activity::{ActivityTables, CpuModel};
use gcr_core::{gated_routing_for_topology, GatedObjective, RouterConfig};
use gcr_cts::{
    run_greedy_checked, run_greedy_with_scratch, GreedyParams, GreedyScratch,
    NearestNeighborObjective, Sink, Topology,
};
use gcr_geometry::{BBox, Point};
use gcr_rctree::Technology;
use gcr_verify::{Verifier, VerifyInput};
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

/// Runs both engines over clones of `objective` and returns the pruned
/// topology; `run_greedy_checked` panics unless its decision log is
/// bit-identical to the exhaustive reference's.
fn pruned_equals_exhaustive<O>(n: usize, objective: &O) -> Topology
where
    O: gcr_cts::MergeObjective + Clone,
{
    run_greedy_checked(n, &mut objective.clone()).unwrap().0
}

/// Routes `topology` with the full gated pipeline and runs the verifier
/// oracle over the result with complete activity context.
fn verify_routed(topology: Topology, sinks: &[Sink], tables: &ActivityTables) {
    let tech = Technology::default();
    let die = BBox::new(Point::ORIGIN, Point::new(SIDE, SIDE));
    let config = RouterConfig::new(tech.clone(), die);
    let routing = gated_routing_for_topology(topology, sinks, tables, &config).unwrap();
    let report = Verifier::with_default_lints().run(
        &VerifyInput::new(&routing.tree, &tech)
            .with_die(die)
            .with_tables(tables)
            .with_node_stats(&routing.node_stats)
            .with_controller(config.controller()),
    );
    assert!(!report.has_errors(), "{}", report.render_text());
}

/// The pruned engine prices every flood on the calling thread, whatever
/// `GreedyParams::threads` says (docs/performance.md §4), so its decision
/// log must not depend on the thread setting. The engine has no size
/// threshold for threads, so 600 sinks suffice; the coarsened engine's
/// region pool, which does use threads, is checked in
/// `tests/coarsening.rs`.
#[test]
fn pruned_floods_split_across_threads_log_identically() {
    let n = 600;
    let sinks: Vec<Sink> = (0..n)
        .map(|i| {
            let (x, y) = (i * 37 % 4_999, i * 71 % 4_987);
            Sink::new(Point::new(f64::from(x * 8), f64::from(y * 8)), 0.05)
        })
        .collect();
    let tech = Technology::default();
    let log = |threads: usize| {
        let mut objective = NearestNeighborObjective::new(&tech, &sinks, None);
        let params = GreedyParams {
            threads: Some(threads),
            log_decisions: true,
        };
        let mut scratch = GreedyScratch::new();
        run_greedy_with_scratch(sinks.len(), &mut objective, &params, &mut scratch).unwrap();
        scratch.take_decisions()
    };
    let serial = log(1);
    assert_eq!(serial.len(), sinks.len() - 1);
    assert!(
        serial == log(2),
        "decision logs differ between 1 and 2 threads"
    );
}

/// 100–139 sinks in one to five tight blobs inside a single bucket-grid
/// cell, plus 30 background sinks spread over the die (two of them on
/// its corners, so the grid spans the die in cells of about extent/√n).
fn one_crowded_cell(seed: u64) -> Vec<Sink> {
    let mut rng = proptest::test_runner::TestRng::seeded(seed);
    let mut u = || rng.unit_f64();
    let crowd = 100 + (u() * 40.0) as usize;
    let background = 30;
    let cell = SIDE / ((crowd + background) as f64).sqrt();
    let center = 5.5 * cell;
    let blobs: Vec<(f64, f64, f64)> = (0..1 + (u() * 5.0) as usize)
        .map(|_| (u() - 0.5, u() - 0.5, 0.002 + u() * 0.05))
        .collect();
    let mut sinks: Vec<Sink> = (0..crowd)
        .map(|i| {
            let (bx, by, radius) = blobs[i % blobs.len()];
            let x = center + (bx * 0.5 + (u() - 0.5) * radius) * cell;
            let y = center + (by * 0.5 + (u() - 0.5) * radius) * cell;
            Sink::new(Point::new(x, y), 0.01 + u() * 0.1)
        })
        .collect();
    sinks.push(Sink::new(Point::ORIGIN, 0.05));
    sinks.push(Sink::new(Point::new(SIDE, SIDE), 0.05));
    for _ in 2..background {
        let (x, y) = (u() * SIDE, u() * SIDE);
        sinks.push(Sink::new(Point::new(x, y), 0.05));
    }
    sinks
}

/// A ring batch holding more than 65 candidates (the lead plus the 64 a
/// slab row stores) is truncated like a post-merge flood: the row keeps
/// its cutoff and re-floods when it drains. The proptests below stop at
/// 64 sinks, so their ring batches never exceed 63 candidates; here 100
/// or more sinks share one bucket-grid cell, so the first crowd leaves'
/// ring-0 batches hold up to 138. Both objectives must still commit the
/// exhaustive engine's decision log bit for bit. Under Equation 3 four
/// of these seeds (19, 31, 38 and 39) diverge from the exhaustive log if
/// a drained truncated ring row is not re-flooded.
#[test]
fn ring_batches_beyond_a_slab_row_are_truncated_exactly() {
    let tech = Technology::default();
    let die = BBox::new(Point::ORIGIN, Point::new(SIDE, SIDE));
    let config = RouterConfig::new(tech.clone(), die);
    for seed in 0..40 {
        let sinks = one_crowded_cell(seed);
        let n = sinks.len();
        let tables = tables_for(n, seed + 1);
        let nn = NearestNeighborObjective::new(&tech, &sinks, Some(tech.and_gate()));
        verify_routed(pruned_equals_exhaustive(n, &nn), &sinks, &tables);
        let module_of: Vec<usize> = (0..n).collect();
        let eq3 = GatedObjective::new(
            config.tech(),
            config.controller(),
            &tables,
            &sinks,
            &module_of,
        );
        verify_routed(pruned_equals_exhaustive(n, &eq3), &sinks, &tables);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Nearest-neighbor objective: the pruned engine's topology is
    /// bit-identical to the exhaustive engine's, and the routed result
    /// passes the verifier.
    #[test]
    fn nearest_neighbor_pruning_is_exact(sinks in sinks_strategy(64)) {
        let tech = Technology::default();
        let objective = NearestNeighborObjective::new(&tech, &sinks, Some(tech.and_gate()));
        let topology = pruned_equals_exhaustive(sinks.len(), &objective);
        let tables = tables_for(sinks.len(), 7);
        verify_routed(topology, &sinks, &tables);
    }

    /// Equation-3 objective: same identity contract on the objective the
    /// pruning was built for, across random geometry *and* random
    /// activity models.
    #[test]
    fn equation3_pruning_is_exact(sinks in sinks_strategy(64), seed in 1u64..1_000) {
        let tech = Technology::default();
        let die = BBox::new(Point::ORIGIN, Point::new(SIDE, SIDE));
        let config = RouterConfig::new(tech, die);
        let tables = tables_for(sinks.len(), seed);
        let module_of: Vec<usize> = (0..sinks.len()).collect();
        let objective = GatedObjective::new(
            config.tech(),
            config.controller(),
            &tables,
            &sinks,
            &module_of,
        );
        let topology = pruned_equals_exhaustive(sinks.len(), &objective);
        verify_routed(topology, &sinks, &tables);
    }

    /// Degenerate geometry — clusters of coincident sinks — must neither
    /// panic nor break the identity contract (the bucket grid collapses
    /// to few occupied cells; zero-length merges exercise the β/α
    /// fallbacks in `zero_skew_merge`).
    #[test]
    fn coincident_clusters_do_not_panic(
        num_clusters in 1usize..6,
        per_cluster in 1usize..5,
        seed in 0u64..50,
    ) {
        let mut sinks = Vec::new();
        for c in 0..num_clusters {
            // Deterministic cluster centers spread over the die.
            let x = (seed as f64 * 977.0 + c as f64 * 7_919.0) % SIDE;
            let y = (seed as f64 * 1_433.0 + c as f64 * 4_871.0) % SIDE;
            for _ in 0..per_cluster {
                sinks.push(Sink::new(Point::new(x, y), 0.05));
            }
        }
        prop_assume!(sinks.len() >= 2);
        let tech = Technology::default();
        let objective = NearestNeighborObjective::new(&tech, &sinks, Some(tech.and_gate()));
        let topology = pruned_equals_exhaustive(sinks.len(), &objective);
        let tables = tables_for(sinks.len(), seed + 1);
        verify_routed(topology, &sinks, &tables);
    }
}
