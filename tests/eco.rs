//! Property tests for the incremental ECO engine: on the reference
//! benchmarks (r1–r3) and random edit streams, every incremental
//! re-route must pass the from-scratch oracle (`gcr_verify::check_eco`)
//! — scoped verification over the dirty-node set, bit-identity with the
//! same-topology rebuild, the ε quality contract against a full
//! re-route — **and** verify clean under an unrestricted Full-scope run
//! of the whole lint deck. Activity-only streams must be pure replays
//! that keep the topology bit-identical. See `docs/algorithms.md`
//! §Incremental ECO for the contract these tests pin down.
// Test code: unwrap/expect on infallible setup is idiomatic here, in
// helpers as well as in #[test] functions.
#![allow(clippy::unwrap_used, clippy::expect_used)]
// The offline proptest stub expands `proptest!` by token munching; two
// stream-driving properties in one block run past the default limit.
#![recursion_limit = "256"]

use gcr_core::{route_gated_eco, route_gated_mapped, GatedObjective, GatedRouting, RouterConfig};
use gcr_cts::{
    apply_eco, plan_eco_leaves, run_greedy_checked, BoundRows, BoundTerms, BucketGrid, EcoEdit,
    EcoScratch, MergeObjective, NearestNeighborObjective, Sink,
};
use gcr_geometry::Point;
use gcr_rctree::Technology;
use gcr_verify::{check_eco, Verifier, VerifyInput, DEFAULT_QUALITY_EPS};
use gcr_workloads::{
    generate_eco_stream, EcoStreamParams, TsayBenchmark, Workload, WorkloadParams,
};
use proptest::prelude::*;

const BENCHES: [TsayBenchmark; 3] = [TsayBenchmark::R1, TsayBenchmark::R2, TsayBenchmark::R3];

/// Routes `which` from scratch and returns the routing plus the design
/// lists and routing context the ECO stream evolves.
fn routed(which: TsayBenchmark) -> (GatedRouting, Vec<Sink>, Vec<usize>, Workload, RouterConfig) {
    let workload = Workload::generate(which, &WorkloadParams::smoke()).unwrap();
    let config = RouterConfig::new(Technology::default(), workload.benchmark.die);
    let sinks = workload.benchmark.sinks.clone();
    let module_of = workload.module_of();
    let routing = route_gated_mapped(&sinks, &module_of, &workload.tables, &config).unwrap();
    (routing, sinks, module_of, workload, config)
}

/// Full-scope verifier run (no dirty-set restriction) with complete
/// activity context; panics with the rendered report on any error.
fn verify_full(routing: &GatedRouting, workload: &Workload, config: &RouterConfig) {
    let report = Verifier::with_default_lints().run(
        &VerifyInput::new(&routing.tree, config.tech())
            .with_die(config.die())
            .with_tables(&workload.tables)
            .with_node_stats(&routing.node_stats)
            .with_controller(config.controller()),
    );
    assert!(!report.has_errors(), "{}", report.render_text());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random mixed edit streams on r1–r3: after every batch the
    /// incremental result passes the from-scratch oracle and a
    /// Full-scope verifier run.
    #[test]
    fn random_edit_streams_verify_and_match_the_oracle(
        bench in 0..3usize,
        seed in 0..10_000u64,
        batches in 1..4usize,
        batch_size in 1..3usize,
    ) {
        let (mut routing, mut sinks, mut module_of, workload, config) = routed(BENCHES[bench]);
        let params = EcoStreamParams {
            seed,
            ..EcoStreamParams::default().with_batches(batches, batch_size)
        };
        let num_modules = workload.tables.rtl().num_modules();
        let stream = generate_eco_stream(&sinks, config.die(), num_modules, &params);
        let mut scratch = EcoScratch::new();
        for batch in &stream {
            let eco = route_gated_eco(
                &routing,
                &sinks,
                &module_of,
                batch,
                &workload.tables,
                &config,
                &mut scratch,
            )
            .unwrap();
            let report =
                check_eco(&routing, &eco, &workload.tables, &config, DEFAULT_QUALITY_EPS).unwrap();
            prop_assert!(
                report.passed(),
                "oracle mismatch on {:?} (quality {:.4}): {:?}",
                batch,
                report.quality_ratio,
                report.failures
            );
            verify_full(&eco.routing, &workload, &config);
            routing = eco.routing;
            sinks = eco.sinks;
            module_of = eco.module_of;
        }
    }

    /// Activity-only streams are pure replays: the topology survives
    /// every batch bit-identically and the oracle's bit-identity
    /// contract (not just the ε bound) holds.
    #[test]
    fn activity_only_streams_are_pure_replays(
        bench in 0..2usize,
        seed in 0..10_000u64,
    ) {
        let (routing, sinks, module_of, workload, config) = routed(BENCHES[bench]);
        let params = EcoStreamParams {
            batches: 3,
            batch_size: 1,
            move_weight: 0,
            add_weight: 0,
            remove_weight: 0,
            swap_weight: 1,
            seed,
        };
        let num_modules = workload.tables.rtl().num_modules();
        let stream = generate_eco_stream(&sinks, config.die(), num_modules, &params);
        let mut scratch = EcoScratch::new();
        let mut current = routing;
        for batch in &stream {
            let eco = route_gated_eco(
                &current,
                &sinks,
                &module_of,
                batch,
                &workload.tables,
                &config,
                &mut scratch,
            )
            .unwrap();
            prop_assert!(eco.outcome.pure_replay);
            prop_assert_eq!(&eco.routing.topology, &current.topology);
            let report =
                check_eco(&current, &eco, &workload.tables, &config, DEFAULT_QUALITY_EPS).unwrap();
            prop_assert!(report.passed(), "{:?}", report.failures);
            prop_assert!(report.pure_replay);
            current = eco.routing;
        }
    }
}

/// A long deterministic mixed stream on r1 — the example scenario as a
/// test: every batch verifies, and the design lists stay consistent
/// (sink count tracks adds/removes, modules stay in range).
#[test]
fn long_mixed_stream_on_r1_stays_verified() {
    let (mut routing, mut sinks, mut module_of, workload, config) = routed(TsayBenchmark::R1);
    let num_modules = workload.tables.rtl().num_modules();
    let params = EcoStreamParams::default().with_batches(8, 2);
    let stream = generate_eco_stream(&sinks, config.die(), num_modules, &params);
    let mut scratch = EcoScratch::new();
    for batch in &stream {
        let eco = route_gated_eco(
            &routing,
            &sinks,
            &module_of,
            batch,
            &workload.tables,
            &config,
            &mut scratch,
        )
        .unwrap();
        let report = check_eco(
            &routing,
            &eco,
            &workload.tables,
            &config,
            DEFAULT_QUALITY_EPS,
        )
        .unwrap();
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(eco.routing.tree.num_sinks(), eco.sinks.len());
        assert_eq!(eco.module_of.len(), eco.sinks.len());
        assert!(eco.module_of.iter().all(|&m| m < num_modules));
        routing = eco.routing;
        sinks = eco.sinks;
        module_of = eco.module_of;
    }
}

/// The splice's ring bound takes its floor over the splice's own
/// super-leaves. Survivor subtree roots are among them, and on this
/// design one holds a static Equation-3 term below every sink's, so a
/// floor taken over the sinks alone could overshoot. Priced at distance
/// 0 against the super-leaf floor, every super-leaf's bound must stay at
/// or below its exact cost to every other super-leaf.
#[test]
fn splice_floor_bounds_every_super_leaf_pair() {
    let (routing, sinks, module_of, workload, config) = routed(TsayBenchmark::R2);
    let n = sinks.len();
    let old_locations: Vec<Point> = sinks.iter().map(Sink::location).collect();
    let to = Point::new(old_locations[0].x + 10.0, old_locations[0].y);
    let edits = [EcoEdit::MoveSink { index: 0, to }];
    let plan = plan_eco_leaves(n, &edits).unwrap();
    let mut objective = GatedObjective::new(
        config.tech(),
        config.controller(),
        &workload.tables,
        &plan.new_sinks(&sinks),
        &plan.new_module_of(&module_of),
    );
    let outcome = apply_eco(
        &routing.topology,
        &old_locations,
        &edits,
        &mut objective,
        &mut EcoScratch::new(),
    )
    .unwrap();

    // The dirty set lists the super-leaves first, then the spliced nodes.
    let num_supers = outcome.dirty_nodes.len() - outcome.spliced;
    let supers: Vec<usize> = outcome.dirty_nodes[..num_supers]
        .iter()
        .map(|&x| x as usize)
        .collect();
    let min2 = |m: [f64; 2], f: [f64; 2]| [m[0].min(f[0]), m[1].min(f[1])];
    let floor = supers
        .iter()
        .map(|&x| objective.leaf_floor(x))
        .fold([f64::INFINITY; 2], min2);
    let sink_floor = (0..n)
        .map(|i| objective.leaf_floor(i))
        .fold([f64::INFINITY; 2], min2);
    assert!(
        floor[0] < sink_floor[0],
        "no survivor root undercuts the sinks' static floor; the design no longer exercises it"
    );
    for &x in &supers {
        let bound = objective.cost_lower_bound_at_distance(x, 0.0, floor);
        for &y in supers.iter().filter(|&&y| y != x) {
            let exact = objective.cost(x, y);
            assert!(
                bound <= exact,
                "super-leaf {x}: floor bound {bound} exceeds its exact cost {exact} to {y}"
            );
        }
    }
}

/// A splice over super-leaves, as `apply_eco` runs its search: local node
/// `i` is node `map[i]` of the caller's objective, and pairs reach the
/// inner objective in ascending global order. It mirrors the engine's
/// crate-private sub-run view, but owns its objective so that
/// `run_greedy_checked` can clone it for the exhaustive reference.
#[derive(Clone)]
struct Splice<O> {
    inner: O,
    map: Vec<u32>,
    next: usize,
}

impl<O: MergeObjective> Splice<O> {
    fn pair(&self, a: usize, b: usize) -> (usize, usize) {
        let (x, y) = (self.map[a] as usize, self.map[b] as usize);
        (x.min(y), x.max(y))
    }
}

impl<O: MergeObjective> MergeObjective for Splice<O> {
    fn cost(&self, a: usize, b: usize) -> f64 {
        let (x, y) = self.pair(a, b);
        self.inner.cost(x, y)
    }
    fn cost_lower_bound(&self, a: usize, b: usize) -> f64 {
        let (x, y) = self.pair(a, b);
        self.inner.cost_lower_bound(x, y)
    }
    fn bound_terms(&self, node: usize) -> BoundTerms {
        self.inner.bound_terms(self.map[node] as usize)
    }
    fn bound_kernel(&self, center: &BoundTerms, rows: BoundRows<'_>, out: &mut [f64]) {
        self.inner.bound_kernel(center, rows, out);
    }
    fn cost_lower_bound_at_distance(&self, node: usize, dist: f64, floor: [f64; 2]) -> f64 {
        self.inner
            .cost_lower_bound_at_distance(self.map[node] as usize, dist, floor)
    }
    fn leaf_floor(&self, leaf: usize) -> [f64; 2] {
        self.inner.leaf_floor(self.map[leaf] as usize)
    }
    fn location(&self, node: usize) -> Point {
        self.inner.location(self.map[node] as usize)
    }
    fn merge(&mut self, a: usize, b: usize, k: usize) -> Result<(), gcr_cts::CtsError> {
        assert_eq!(k, self.map.len());
        let (x, y) = self.pair(a, b);
        self.inner.merge(x, y, self.next)?;
        self.map.push(self.next as u32);
        self.next += 1;
        Ok(())
    }
}

/// The ECO splice's ring keys must hold for super-leaves whose merging
/// region is a segment, not a point. A survivor root merged from two
/// diagonal sinks `D` apart carries a merging segment reaching `D` (in
/// Manhattan distance) either side of its center, so a partner near one
/// end of the segment is close to the region but more than seven grid
/// cells from the center, where the root's ring key prices it at a
/// distance far beyond the region distance. The pruned splice must still
/// commit exactly the exhaustive engine's merges (with the shadow checks
/// compiled in, every ring sweep's coverage is checked too).
#[test]
fn splice_ring_keys_cover_segment_super_leaves() {
    let d = 30_000.0;
    let end = Point::new(d + 10.0, -10.0);
    let mut sinks = vec![
        Sink::new(Point::ORIGIN, 0.05),
        Sink::new(Point::new(d, d), 0.05),
        Sink::new(end, 0.05),
    ];
    // A 36 × 36 grid over [-d/2, 3d/2]², clear of the root's segment
    // (x + y = d) and of the end sink, so every near partner of the root
    // is the end sink.
    let step = 2.0 * d / 35.0;
    for i in 0..36 {
        for j in 0..36 {
            let p = Point::new(
                -d / 2.0 + step * f64::from(i),
                -d / 2.0 + step * f64::from(j),
            );
            if (p.x + p.y - d).abs() > 0.3 * d && p.manhattan(end) > 0.3 * d {
                sinks.push(Sink::new(p, 0.05));
            }
        }
    }
    let tech = Technology::default();
    let mut inner = NearestNeighborObjective::new(&tech, &sinks, None);
    let root = sinks.len();
    inner.merge(0, 1, root).unwrap();
    let radius = inner.bound_terms(root).radius();
    assert!(
        radius >= d - 1.0,
        "the survivor root must carry a segment: radius {radius}"
    );

    // Locals: the survivor root, then every other sink.
    let map: Vec<u32> = std::iter::once(root as u32).chain(2..root as u32).collect();
    let locations: Vec<Point> = map.iter().map(|&g| inner.location(g as usize)).collect();
    let grid = BucketGrid::build(&locations);
    let cells = |p: Point| {
        let c = grid.cell_size();
        (((p.x - locations[0].x) / c).abs()).max(((p.y - locations[0].y) / c).abs())
    };
    assert!(
        cells(end) > 7.0 && radius > grid.cell_size(),
        "the end sink must lie more than seven cells from the root ({} cells) and the \
         segment must reach past the root's own cell",
        cells(end)
    );

    let n = map.len();
    let mut splice = Splice {
        inner,
        map,
        next: root + 1,
    };
    let (topology, log) = run_greedy_checked(n, &mut splice).unwrap();
    assert_eq!(topology.num_leaves(), n);
    // The root and the end sink (local 1) are the cheapest pair by far.
    assert_eq!((log[0].a, log[0].b), (0, 1), "first merge {:?}", log[0]);
}
