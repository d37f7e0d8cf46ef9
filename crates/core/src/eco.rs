//! Incremental ECO re-routing of a gated clock tree.
//!
//! [`route_gated_eco`] is the gated-router front end of
//! [`gcr_cts::apply_eco`]: it takes a completed [`GatedRouting`] plus an
//! edit batch, rebuilds the Equation-3 objective over the edited leaf
//! set (new activity tables and all — which is how `SwapActivity` edits
//! re-price every gating decision down the affected module's merge path
//! without any geometric re-search), lets the dirty-frontier engine
//! replay the clean subtrees and re-search only the spliced region, and
//! re-embeds the result into a zero-skew tree.
//!
//! The one-shot entry points here construct a fresh objective per call —
//! convenient, but the construction dominates small edits. A warm ECO
//! loop (the benchmarked path) keeps one [`GatedObjective`] and one
//! [`EcoScratch`] alive, calling
//! [`GatedObjective::truncate`](crate::GatedObjective::truncate) to
//! rewind to the leaf rows between edits; see `examples/eco.rs`.

use gcr_activity::ActivityTables;
use gcr_cts::{
    apply_eco, plan_eco_leaves, DeviceAssignment, EcoEdit, EcoOutcome, EcoScratch, Sink,
};
use gcr_geometry::Point;
use gcr_trace::Tracer;

use crate::router::check_module_of;
use crate::{GatedObjective, GatedRouting, RouteError, RouterConfig};

/// The result of one incremental gated re-route: the new routing plus
/// the edited design lists (the inputs of the *next* ECO in a stream)
/// and the engine's [`EcoOutcome`] (dirty-node set, phase profile,
/// splice statistics).
#[derive(Clone, Debug)]
pub struct GatedEcoResult {
    /// The re-routed, re-embedded gated clock tree.
    pub routing: GatedRouting,
    /// The sink list after the batch, in [`gcr_cts::EcoLeafPlan`] order.
    pub sinks: Vec<Sink>,
    /// The sink-to-module map after the batch, aligned with `sinks`.
    pub module_of: Vec<usize>,
    /// What the incremental engine did: topology, dirty-node set for the
    /// scoped verifier, per-phase profile, splice counters.
    pub outcome: EcoOutcome,
}

/// Incrementally re-routes `old` under an ECO edit batch.
///
/// `old_sinks` / `old_module_of` describe the design `old` was routed
/// from; `tables` are the **current** activity tables (pass the new
/// tables after a `SwapActivity` — every node's `P(EN)`/`P_tr(EN)` is
/// re-derived from them during the replay, which is the entire
/// activity-only re-route). A pure-replay batch reproduces `old`'s
/// topology bit-identically; geometric edits re-search only the dirty
/// frontier (see the `gcr_cts::eco` module docs for the contract).
///
/// The splice search runs the pruned engine on the calling thread.
///
/// Emits through [`Tracer::current`] the `eco.apply > eco.frontier /
/// eco.splice / eco.search` span family inside a `route.gated_eco` span,
/// then the usual `embed.*` spans for the re-embedding.
///
/// # Errors
///
/// Returns [`RouteError::SinkModuleMismatch`] when the design lists do
/// not match the routing or a module reference is outside the activity
/// model, and [`RouteError::Cts`] for an invalid edit batch or an
/// embedding failure.
pub fn route_gated_eco(
    old: &GatedRouting,
    old_sinks: &[Sink],
    old_module_of: &[usize],
    edits: &[EcoEdit],
    tables: &ActivityTables,
    config: &RouterConfig,
    scratch: &mut EcoScratch,
) -> Result<GatedEcoResult, RouteError> {
    let num_modules = tables.rtl().num_modules();
    if old_sinks.len() != old.topology.num_leaves() {
        return Err(RouteError::SinkModuleMismatch {
            sinks: old_sinks.len(),
            modules: num_modules,
        });
    }
    check_module_of(old_sinks, old_module_of, tables)?;
    let plan = plan_eco_leaves(old_sinks.len(), edits)?;
    if plan.added.iter().any(|&(_, m)| m >= num_modules) {
        return Err(RouteError::SinkModuleMismatch {
            sinks: plan.num_new_leaves,
            modules: num_modules,
        });
    }
    let sinks = plan.new_sinks(old_sinks);
    let module_of = plan.new_module_of(old_module_of);

    let tracer = Tracer::current();
    let _route = tracer.span("route.gated_eco");
    let mut objective = {
        let _span = tracer.span("route.objective");
        GatedObjective::new(
            config.tech(),
            config.controller(),
            tables,
            &sinks,
            &module_of,
        )
    };
    tracer.counter("route.sinks", sinks.len() as f64);
    let old_locations: Vec<Point> = old_sinks.iter().map(Sink::location).collect();
    let outcome = apply_eco(
        &old.topology,
        &old_locations,
        edits,
        &mut objective,
        scratch,
    )?;
    let assignment = DeviceAssignment::everywhere(&outcome.topology, config.tech().and_gate());
    let routing = GatedRouting::embed(
        outcome.topology.clone(),
        assignment,
        &sinks,
        config,
        objective.node_stats(),
        objective.node_modules(),
    )?;
    Ok(GatedEcoResult {
        routing,
        sinks,
        module_of,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gated_routing_for_topology_mapped, route_gated_mapped};
    use gcr_activity::CpuModel;
    use gcr_geometry::BBox;
    use gcr_rctree::Technology;

    fn setup(n: usize, seed: u64) -> (Vec<Sink>, Vec<usize>, ActivityTables, RouterConfig) {
        let side = 10_000.0;
        let sinks: Vec<Sink> = (0..n)
            .map(|i| {
                let x = (i as f64 * 2654.435) % side;
                let y = (i as f64 * 1618.034) % side;
                Sink::new(Point::new(x, y), 0.03 + 0.01 * (i % 5) as f64)
            })
            .collect();
        let module_of: Vec<usize> = (0..n).collect();
        let model = CpuModel::builder(n)
            .instructions(8)
            .usage_fraction(0.4)
            .seed(seed)
            .build()
            .unwrap();
        let stream = model.generate_stream(4_000);
        let tables = ActivityTables::scan(model.rtl(), &stream);
        let die = BBox::new(Point::new(0.0, 0.0), Point::new(side, side));
        let config = RouterConfig::new(Technology::default(), die);
        (sinks, module_of, tables, config)
    }

    /// A cold [`route_gated_eco`] call.
    fn cold_eco(
        old: &GatedRouting,
        sinks: &[Sink],
        module_of: &[usize],
        edits: &[EcoEdit],
        tables: &ActivityTables,
        config: &RouterConfig,
    ) -> Result<GatedEcoResult, RouteError> {
        let mut scratch = EcoScratch::new();
        route_gated_eco(old, sinks, module_of, edits, tables, config, &mut scratch)
    }

    /// An activity-only ECO (new tables, `SwapActivity` edits) is a pure
    /// replay: the topology and the mapped-oracle rebuild over the same
    /// topology match the incremental result bit for bit.
    #[test]
    fn activity_swap_is_bit_identical_to_mapped_oracle() {
        let (sinks, module_of, tables, config) = setup(24, 3);
        let old = route_gated_mapped(&sinks, &module_of, &tables, &config).unwrap();
        // "Swap" the tables: rescan the same RTL on a different stream.
        let model = CpuModel::builder(24)
            .instructions(8)
            .usage_fraction(0.4)
            .seed(3)
            .build()
            .unwrap();
        let new_tables = ActivityTables::scan(model.rtl(), &model.generate_stream(6_000));
        let eco = cold_eco(
            &old,
            &sinks,
            &module_of,
            &[EcoEdit::SwapActivity { module: 5 }],
            &new_tables,
            &config,
        )
        .unwrap();
        assert!(eco.outcome.pure_replay);
        assert_eq!(eco.routing.topology, old.topology);
        let oracle = gated_routing_for_topology_mapped(
            old.topology.clone(),
            &sinks,
            &module_of,
            &new_tables,
            &config,
        )
        .unwrap();
        assert_eq!(eco.routing.tree, oracle.tree);
        assert_eq!(eco.routing.node_stats, oracle.node_stats);
        assert_eq!(eco.routing.node_modules, oracle.node_modules);
    }

    /// A geometric edit produces a verified zero-skew tree over the new
    /// design lists, and the node stats agree with the mapped oracle
    /// rebuilt over the incremental topology.
    #[test]
    fn move_edit_re_routes_and_matches_oracle_stats() {
        let (sinks, module_of, tables, config) = setup(30, 9);
        let old = route_gated_mapped(&sinks, &module_of, &tables, &config).unwrap();
        let to = Point::new(
            sinks[7].location().x + 900.0,
            (sinks[7].location().y + 700.0) % 10_000.0,
        );
        let eco = cold_eco(
            &old,
            &sinks,
            &module_of,
            &[EcoEdit::MoveSink { index: 7, to }],
            &tables,
            &config,
        )
        .unwrap();
        assert_eq!(eco.sinks.len(), 30);
        assert_eq!(eco.sinks[7].location(), to);
        let tech = config.tech();
        let delay = eco.routing.tree.source_to_sink_delay(tech);
        assert!(eco.routing.tree.verify_skew(tech) <= 1e-9 * delay.max(1.0));
        let oracle = gated_routing_for_topology_mapped(
            eco.routing.topology.clone(),
            &eco.sinks,
            &eco.module_of,
            &tables,
            &config,
        )
        .unwrap();
        assert_eq!(eco.routing.tree, oracle.tree);
        for (a, b) in eco.routing.node_stats.iter().zip(&oracle.node_stats) {
            assert!((a.signal - b.signal).abs() <= 1e-12);
            assert!((a.transition - b.transition).abs() <= 1e-12);
        }
    }

    /// Add + remove in one batch: the design lists follow the plan
    /// convention and the result stays consistent end to end.
    #[test]
    fn add_and_remove_batch_updates_design_lists() {
        let (sinks, module_of, tables, config) = setup(20, 17);
        let old = route_gated_mapped(&sinks, &module_of, &tables, &config).unwrap();
        let added = Sink::new(Point::new(4_500.0, 4_500.0), 0.05);
        let eco = cold_eco(
            &old,
            &sinks,
            &module_of,
            &[
                EcoEdit::RemoveSink { index: 2 },
                EcoEdit::AddSink {
                    sink: added,
                    module: 2,
                },
            ],
            &tables,
            &config,
        )
        .unwrap();
        assert_eq!(eco.sinks.len(), 20);
        assert_eq!(eco.module_of.len(), 20);
        assert_eq!(eco.sinks[19], added);
        assert_eq!(eco.module_of[19], 2);
        assert_eq!(eco.routing.tree.num_sinks(), 20);
        assert_eq!(eco.routing.node_stats.len(), 2 * 20 - 1);
        let tech = config.tech();
        let delay = eco.routing.tree.source_to_sink_delay(tech);
        assert!(eco.routing.tree.verify_skew(tech) <= 1e-9 * delay.max(1.0));
    }

    /// An added sink that shares a module with an existing sink is a
    /// leaf of that module with the existing leaf's exact stats.
    #[test]
    fn added_sink_shares_its_module_leaf_stats() {
        let (sinks, module_of, tables, config) = setup(10, 21);
        let old = route_gated_mapped(&sinks, &module_of, &tables, &config).unwrap();
        let near = sinks[3].location();
        let added = Sink::new(Point::new(near.x + 120.0, near.y + 80.0), 0.03);
        let eco = cold_eco(
            &old,
            &sinks,
            &module_of,
            &[EcoEdit::AddSink {
                sink: added,
                module: 3,
            }],
            &tables,
            &config,
        )
        .unwrap();
        assert_eq!(eco.routing.tree.num_sinks(), 11);
        assert_eq!(eco.module_of[10], 3);
        assert!(eco.routing.node_modules[10].contains(3));
        assert_eq!(eco.routing.node_modules[10].len(), 1);
        assert_eq!(eco.routing.node_stats[10], eco.routing.node_stats[3]);
        let tech = config.tech();
        let delay = eco.routing.tree.source_to_sink_delay(tech);
        assert!(eco.routing.tree.verify_skew(tech) <= 1e-9 * delay.max(1.0));
    }

    /// After a removal every surviving leaf keeps its original sink and
    /// module, compacted past the victim.
    #[test]
    fn removal_keeps_surviving_leaf_modules() {
        let (sinks, module_of, tables, config) = setup(9, 33);
        let old = route_gated_mapped(&sinks, &module_of, &tables, &config).unwrap();
        let eco = cold_eco(
            &old,
            &sinks,
            &module_of,
            &[EcoEdit::RemoveSink { index: 4 }],
            &tables,
            &config,
        )
        .unwrap();
        assert_eq!(eco.routing.tree.num_sinks(), 8);
        for i in 0..8 {
            let orig = if i < 4 { i } else { i + 1 };
            assert_eq!(eco.sinks[i], sinks[orig], "leaf {i}");
            assert_eq!(eco.module_of[i], orig, "leaf {i}");
            assert!(eco.routing.node_modules[i].contains(orig), "leaf {i}");
        }
        let tech = config.tech();
        let delay = eco.routing.tree.source_to_sink_delay(tech);
        assert!(eco.routing.tree.verify_skew(tech) <= 1e-9 * delay.max(1.0));
    }

    /// Mismatched design lists and unknown modules are rejected up
    /// front.
    #[test]
    fn invalid_inputs_are_rejected() {
        let (sinks, module_of, tables, config) = setup(10, 1);
        let old = route_gated_mapped(&sinks, &module_of, &tables, &config).unwrap();
        assert!(matches!(
            cold_eco(&old, &sinks[..5], &module_of[..5], &[], &tables, &config),
            Err(RouteError::SinkModuleMismatch { .. })
        ));
        assert!(matches!(
            cold_eco(
                &old,
                &sinks,
                &module_of,
                &[EcoEdit::AddSink {
                    sink: Sink::new(Point::new(1.0, 1.0), 0.01),
                    module: 99,
                }],
                &tables,
                &config,
            ),
            Err(RouteError::SinkModuleMismatch { .. })
        ));
        assert!(matches!(
            cold_eco(
                &old,
                &sinks,
                &module_of,
                &[EcoEdit::RemoveSink { index: 42 }],
                &tables,
                &config,
            ),
            Err(RouteError::Cts(gcr_cts::CtsError::InvalidEco { .. }))
        ));
    }

    /// The warm-loop primitive: truncating a searched objective back to
    /// its leaves and re-running the same ECO reproduces the cold result
    /// bitwise.
    #[test]
    fn truncate_and_reapply_is_deterministic() {
        let (sinks, module_of, tables, config) = setup(40, 23);
        let old = route_gated_mapped(&sinks, &module_of, &tables, &config).unwrap();
        let plan = plan_eco_leaves(
            sinks.len(),
            &[EcoEdit::MoveSink {
                index: 11,
                to: Point::new(2_000.0, 8_000.0),
            }],
        )
        .unwrap();
        let edits = [EcoEdit::MoveSink {
            index: 11,
            to: Point::new(2_000.0, 8_000.0),
        }];
        let new_sinks = plan.new_sinks(&sinks);
        let new_modules = plan.new_module_of(&module_of);
        let old_locations: Vec<Point> = sinks.iter().map(Sink::location).collect();
        let mut objective = GatedObjective::new(
            config.tech(),
            config.controller(),
            &tables,
            &new_sinks,
            &new_modules,
        );
        let mut scratch = EcoScratch::new();
        let cold = gcr_cts::apply_eco(
            &old.topology,
            &old_locations,
            &edits,
            &mut objective,
            &mut scratch,
        )
        .unwrap();
        objective.truncate(new_sinks.len());
        let warm = gcr_cts::apply_eco(
            &old.topology,
            &old_locations,
            &edits,
            &mut objective,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(cold.topology, warm.topology);
        assert_eq!(cold.dirty_nodes, warm.dirty_nodes);
        assert_eq!(objective.node_stats().len(), 2 * 40 - 1);
    }
}
