//! Degenerate-input regressions for the arena-backed greedy engine: on
//! inputs that collapse the geometry or the objective (a single sink,
//! duplicated sink locations, an activity model whose enables never fire)
//! the pruned engine must still produce **bit-identical** topologies to
//! the exhaustive reference — these are exactly the inputs where every
//! candidate ties and the `(key, kind, a, b)` order does all the work.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gcr_activity::{ActivityTables, InstructionStream, Rtl};
use gcr_core::{GatedObjective, RouterConfig};
use gcr_cts::{run_greedy_checked, NearestNeighborObjective, Sink, Topology};
use gcr_geometry::{BBox, Point};
use gcr_rctree::Technology;

const SIDE: f64 = 20_000.0;

fn pruned_equals_exhaustive<O>(n: usize, objective: &O) -> Topology
where
    O: gcr_cts::MergeObjective + Clone,
{
    // Panics unless both engines commit bit-identical decision logs.
    run_greedy_checked(n, &mut objective.clone()).unwrap().0
}

/// An activity model in which none of the first `num_modules` modules is
/// ever active: the only instruction touches a spare "drain" module, so
/// every sink-facing enable probability is exactly zero and every
/// Equation-3 cost ties at the wire-free static term.
fn all_zero_tables(num_modules: usize) -> ActivityTables {
    let rtl = Rtl::builder(num_modules + 1)
        .instruction("DRAIN", [num_modules])
        .and_then(gcr_activity::RtlBuilder::build)
        .unwrap();
    let stream = InstructionStream::from_indices(&rtl, vec![0; 64]).unwrap();
    ActivityTables::scan(&rtl, &stream)
}

#[test]
fn single_sink_is_a_leaf_topology() {
    let tech = Technology::default();
    let sinks = [Sink::new(Point::new(123.0, 456.0), 0.07)];
    let objective = NearestNeighborObjective::new(&tech, &sinks, Some(tech.and_gate()));
    let topology = pruned_equals_exhaustive(1, &objective);
    assert_eq!(topology.num_leaves(), 1);
    assert_eq!(topology.len(), 1);
    assert_eq!(topology.root(), 0);
}

#[test]
fn all_sinks_at_one_location_merge_identically() {
    // Every merging segment is the same point: all distances are 0, all
    // costs tie, every merge is zero-length.
    let tech = Technology::default();
    for n in [2usize, 3, 7, 16] {
        let sinks: Vec<Sink> = (0..n)
            .map(|_| Sink::new(Point::new(5_000.0, 5_000.0), 0.05))
            .collect();
        let objective = NearestNeighborObjective::new(&tech, &sinks, None);
        let topology = pruned_equals_exhaustive(n, &objective);
        assert_eq!(topology.num_leaves(), n);
    }
}

#[test]
fn duplicate_location_pairs_merge_identically() {
    // Mixed case: distinct cluster centers, each holding several
    // coincident sinks — ties inside clusters, real geometry between them.
    let tech = Technology::default();
    let mut sinks = Vec::new();
    for c in 0..5 {
        let p = Point::new(
            1_000.0 + 3_700.0 * f64::from(c),
            2_000.0 + 900.0 * f64::from(c),
        );
        for k in 0..3 {
            sinks.push(Sink::new(p, 0.03 + 0.01 * f64::from(k)));
        }
    }
    let objective = NearestNeighborObjective::new(&tech, &sinks, Some(tech.and_gate()));
    let topology = pruned_equals_exhaustive(sinks.len(), &objective);
    assert_eq!(topology.num_leaves(), sinks.len());
}

#[test]
fn subnormal_extent_region_routes_identically() {
    // A "region" whose bounding box is almost — but not exactly — a
    // point: the sinks differ by a few ULPs around a common coordinate,
    // so the bucket-grid extent divided by √n underflows to a subnormal
    // (or zero) cell size. Before the cell-size clamp this saturated the
    // grid dimension computation; now the clamp keeps the grid finite
    // and the pruned engine must still match the exhaustive reference.
    let tech = Technology::default();
    for n in [2usize, 5, 12] {
        let base = 5_000.0_f64;
        let sinks: Vec<Sink> = (0..n)
            .map(|i| {
                let x = f64::from_bits(base.to_bits() + i as u64);
                let y = f64::from_bits(base.to_bits() + (i as u64 % 3));
                Sink::new(Point::new(x, y), 0.05)
            })
            .collect();
        let objective = NearestNeighborObjective::new(&tech, &sinks, Some(tech.and_gate()));
        let topology = pruned_equals_exhaustive(n, &objective);
        assert_eq!(topology.num_leaves(), n);
    }
}

#[test]
fn all_zero_activity_ties_resolve_identically() {
    // With P(EN) = P_tr(EN) = 0 everywhere, every Equation-3 cost and
    // every lower bound is 0: the engine's answer is decided purely by
    // the (key, kind, a, b) tie-break order, which both engines share.
    let tables = all_zero_tables(10);
    let sinks: Vec<Sink> = (0..10)
        .map(|i| {
            let x = (f64::from(i) * 2_654.435) % SIDE;
            let y = (f64::from(i) * 1_618.034) % SIDE;
            Sink::new(Point::new(x, y), 0.05)
        })
        .collect();
    let die = BBox::new(Point::ORIGIN, Point::new(SIDE, SIDE));
    let config = RouterConfig::new(Technology::default(), die);
    let module_of: Vec<usize> = (0..sinks.len()).collect();
    let objective = GatedObjective::new(
        config.tech(),
        config.controller(),
        &tables,
        &sinks,
        &module_of,
    );
    // Sanity: the degenerate model really zeroes the stats.
    for s in objective.node_stats() {
        assert_eq!(s.signal, 0.0);
        assert_eq!(s.transition, 0.0);
    }
    let topology = pruned_equals_exhaustive(sinks.len(), &objective);
    assert_eq!(topology.num_leaves(), sinks.len());
}

#[test]
fn all_zero_activity_with_duplicate_locations() {
    // Both degeneracies at once: zero activity *and* coincident sinks.
    let tables = all_zero_tables(8);
    let sinks: Vec<Sink> = (0..8)
        .map(|i| Sink::new(Point::new(4_000.0 + f64::from(i % 2), 4_000.0), 0.05))
        .collect();
    let die = BBox::new(Point::ORIGIN, Point::new(SIDE, SIDE));
    let config = RouterConfig::new(Technology::default(), die);
    let module_of: Vec<usize> = (0..sinks.len()).collect();
    let objective = GatedObjective::new(
        config.tech(),
        config.controller(),
        &tables,
        &sinks,
        &module_of,
    );
    let topology = pruned_equals_exhaustive(sinks.len(), &objective);
    assert_eq!(topology.num_leaves(), sinks.len());
}
