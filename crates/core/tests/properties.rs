//! Property-based tests of the gated clock router: zero skew always holds,
//! gating never increases the clock tree's switched capacitance, and the
//! §6 distributed-controller claim holds for every routed instance.
// Test code: unwrap/expect on infallible setup is idiomatic here, in
// helpers as well as in #[test] functions.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gcr_activity::{ActivityTables, CpuModel, EnableStats};
use gcr_core::{
    evaluate, evaluate_with_mask, reduce_gates, reduce_gates_optimal, route_gated, route_gated_eco,
    simulate_stream, ControllerPlan, DeviceRole, ReductionParams, RouterConfig,
};
use gcr_cts::{EcoEdit, EcoScratch, Sink};
use gcr_geometry::{BBox, Point};
use gcr_rctree::Technology;
use proptest::prelude::*;

const SIDE: f64 = 20_000.0;

fn sinks_strategy(max: usize) -> impl Strategy<Value = Vec<Sink>> {
    prop::collection::vec((0.0..SIDE, 0.0..SIDE, 0.01..0.1f64), 3..max).prop_map(|v| {
        v.into_iter()
            .map(|(x, y, c)| Sink::new(Point::new(x, y), c))
            .collect()
    })
}

fn setup(sinks: &[Sink], seed: u64) -> (ActivityTables, RouterConfig) {
    let (tables, config, _) = setup_with_stream(sinks, seed);
    (tables, config)
}

fn setup_with_stream(
    sinks: &[Sink],
    seed: u64,
) -> (
    ActivityTables,
    RouterConfig,
    gcr_activity::InstructionStream,
) {
    let model = CpuModel::builder(sinks.len())
        .instructions(8)
        .usage_fraction(0.4)
        .seed(seed)
        .build()
        .unwrap();
    let stream = model.generate_stream(2_000);
    let tables = ActivityTables::scan(model.rtl(), &stream);
    let die = BBox::new(Point::new(0.0, 0.0), Point::new(SIDE, SIDE));
    (
        tables,
        RouterConfig::new(Technology::default(), die),
        stream,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The routed gated tree is always zero-skew, before and after gate
    /// reduction at any strength.
    #[test]
    fn routing_and_reduction_preserve_zero_skew(
        sinks in sinks_strategy(14),
        seed in 0u64..500,
        strength in 0.0..1.0f64,
    ) {
        let (tables, config) = setup(&sinks, seed);
        let routing = route_gated(&sinks, &tables, &config).unwrap();
        let tech = config.tech();
        let d = routing.tree.source_to_sink_delay(tech);
        prop_assert!(routing.tree.verify_skew(tech) <= 1e-9 * d.max(1.0));

        let reduced_assignment =
            reduce_gates(&routing, tech, &ReductionParams::from_strength(strength, tech));
        let reduced = routing.reembed(&sinks, reduced_assignment, &config).unwrap();
        let d2 = reduced.tree.source_to_sink_delay(tech);
        prop_assert!(reduced.tree.verify_skew(tech) <= 1e-9 * d2.max(1.0),
            "skew {} after reduction strength {strength}", reduced.tree.verify_skew(tech));
    }

    /// Gating the clock tree never burns more clock-tree capacitance than
    /// running the identical tree ungated (P = 1 everywhere).
    #[test]
    fn gating_never_increases_clock_tree_cap(
        sinks in sinks_strategy(12),
        seed in 0u64..500,
    ) {
        let (tables, config) = setup(&sinks, seed);
        let routing = route_gated(&sinks, &tables, &config).unwrap();
        let tech = config.tech();
        let gated = evaluate(
            &routing.tree, &routing.node_stats, config.controller(), tech, DeviceRole::Gate,
        );
        let always_on = vec![EnableStats::ALWAYS_ON; routing.tree.len()];
        let ungated = evaluate(
            &routing.tree, &always_on, config.controller(), tech, DeviceRole::Gate,
        );
        prop_assert!(gated.clock_switched_cap <= ungated.clock_switched_cap + 1e-9,
            "gated {} > ungated {}", gated.clock_switched_cap, ungated.clock_switched_cap);
        // The floor: the clock tree can never switch less than its
        // activity-weighted leaf edges.
        prop_assert!(gated.clock_switched_cap > 0.0);
    }

    /// §6's distributed controllers: every star edge is bounded by the
    /// half-perimeter of the partition serving it — which shrinks by 2×
    /// per level and drives the √k area reduction. (The aggregate-average
    /// claim is validated on uniform gate fields in the controller unit
    /// tests; it is not a per-instance invariant, since a gate sitting on
    /// the die center is free under the centralized plan.)
    #[test]
    fn distributed_star_edges_are_partition_bounded(
        sinks in sinks_strategy(14),
        seed in 0u64..500,
        levels in 0u32..3,
    ) {
        let (tables, config) = setup(&sinks, seed);
        let routing = route_gated(&sinks, &tables, &config).unwrap();
        let plan = if levels == 0 {
            ControllerPlan::centralized(&config.die())
        } else {
            ControllerPlan::distributed(config.die(), levels)
        };
        let bound = config.die().half_perimeter() / 2f64.powi(levels as i32 + 1);
        for (id, _) in routing.tree.devices() {
            let g = routing.tree.gate_location(id);
            // Gate locations live inside the die, so the serving partition
            // contains them.
            let len = plan.enable_wire_length(g);
            prop_assert!(len <= bound + 1e-6,
                "star edge {len} exceeds partition bound {bound} at levels {levels}");
        }
        // Sanity: the evaluator's total equals the sum of per-gate legs.
        let report = evaluate(
            &routing.tree, &routing.node_stats, &plan, config.tech(), DeviceRole::Gate,
        );
        let total: f64 = routing
            .tree
            .devices()
            .map(|(id, _)| plan.enable_wire_length(routing.tree.gate_location(id)))
            .sum();
        prop_assert!((report.control_wire_length - total).abs() < 1e-6);
    }

    /// For *any* control mask, the cycle-accurate replay of the training
    /// stream reproduces the analytic switched capacitance exactly.
    #[test]
    fn simulation_equals_analytics(
        sinks in sinks_strategy(12),
        seed in 0u64..500,
        mask_bits in any::<u64>(),
    ) {
        let (tables, config, stream) = setup_with_stream(&sinks, seed);
        let routing = route_gated(&sinks, &tables, &config).unwrap();
        let tech = config.tech();
        let n = routing.tree.len();
        let mask: Vec<bool> = (0..n).map(|i| mask_bits & (1 << (i % 64)) != 0).collect();
        let analytic = evaluate_with_mask(
            &routing.tree, &routing.node_stats, config.controller(), tech, &mask,
        );
        let sim = simulate_stream(
            &routing.tree, &routing.node_modules, &mask,
            tables.rtl(), &stream, config.controller(), tech,
        );
        prop_assert!((sim.clock_switched_cap - analytic.clock_switched_cap).abs() < 1e-9);
        prop_assert!((sim.control_switched_cap - analytic.control_switched_cap).abs() < 1e-9);
    }

    /// The DP control-subset optimum is never beaten by a random mask.
    #[test]
    fn dp_beats_random_masks(
        sinks in sinks_strategy(12),
        seed in 0u64..500,
        mask_bits in any::<u64>(),
    ) {
        let (tables, config) = setup(&sinks, seed);
        let routing = route_gated(&sinks, &tables, &config).unwrap();
        let tech = config.tech();
        let n = routing.tree.len();
        let eval = |mask: &[bool]| {
            evaluate_with_mask(
                &routing.tree, &routing.node_stats, config.controller(), tech, mask,
            )
            .total_switched_cap
        };
        let dp = eval(&reduce_gates_optimal(&routing, tech, config.controller()));
        let random: Vec<bool> = (0..n).map(|i| mask_bits & (1 << (i % 64)) != 0).collect();
        prop_assert!(dp <= eval(&random) + 1e-9,
            "DP {dp} beaten by a random mask {}", eval(&random));
    }

    /// ECO churn through `route_gated_eco` keeps the tree valid: one
    /// `AddSink` batch, then one `RemoveSink` batch on the grown design,
    /// preserve zero skew and sink-count bookkeeping.
    #[test]
    fn eco_churn_preserves_invariants(
        sinks in sinks_strategy(10),
        seed in 0u64..300,
        insert_at in 0usize..10,
        remove_at in 0usize..10,
    ) {
        let (tables, config) = setup(&sinks, seed);
        let routing = route_gated(&sinks, &tables, &config).unwrap();
        let tech = config.tech();
        let module_of: Vec<usize> = (0..sinks.len()).collect();
        let mut scratch = EcoScratch::new();
        let add = EcoEdit::AddSink {
            sink: Sink::new(Point::new(SIDE * 0.31, SIDE * 0.47), 0.05),
            module: insert_at % sinks.len(),
        };
        let grown = route_gated_eco(
            &routing, &sinks, &module_of, &[add], &tables, &config, &mut scratch,
        )
        .unwrap();
        prop_assert_eq!(grown.sinks.len(), sinks.len() + 1);
        prop_assert_eq!(grown.routing.tree.num_sinks(), sinks.len() + 1);
        let d1 = grown.routing.tree.source_to_sink_delay(tech);
        prop_assert!(grown.routing.tree.verify_skew(tech) <= 1e-9 * d1.max(1.0));

        let remove = EcoEdit::RemoveSink { index: remove_at % grown.sinks.len() };
        let shrunk = route_gated_eco(
            &grown.routing, &grown.sinks, &grown.module_of, &[remove], &tables, &config,
            &mut scratch,
        )
        .unwrap();
        prop_assert_eq!(shrunk.sinks.len(), sinks.len());
        prop_assert_eq!(shrunk.routing.tree.num_sinks(), sinks.len());
        let d2 = shrunk.routing.tree.source_to_sink_delay(tech);
        prop_assert!(shrunk.routing.tree.verify_skew(tech) <= 1e-9 * d2.max(1.0));
        // Stats stay within probability bounds after the churn.
        for s in &shrunk.routing.node_stats {
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&s.signal));
        }
    }

    /// Reduction monotonicity at the endpoints: strength 0 keeps all
    /// gates; any strength keeps at most that many.
    #[test]
    fn reduction_counts_are_bounded(
        sinks in sinks_strategy(12),
        seed in 0u64..500,
        strength in 0.0..1.0f64,
    ) {
        let (tables, config) = setup(&sinks, seed);
        let routing = route_gated(&sinks, &tables, &config).unwrap();
        let tech = config.tech();
        let full = routing.assignment.device_count();
        prop_assert_eq!(full, routing.tree.len());
        let zero = reduce_gates(&routing, tech, &ReductionParams::from_strength(0.0, tech));
        prop_assert_eq!(zero.device_count(), full);
        let some = reduce_gates(&routing, tech, &ReductionParams::from_strength(strength, tech));
        prop_assert!(some.device_count() <= full);
    }
}
