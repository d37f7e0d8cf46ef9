use gcr_activity::{ActivityTables, EnableStats, ModuleSet};
use gcr_cts::{
    run_greedy_with_scratch, BoundRows, BoundTerms, CtsError, DeviceAssignment, GreedyParams,
    GreedyScratch, MergeObjective, Sink,
};
use gcr_geometry::Point;
use gcr_rctree::Technology;

use crate::router::{identity_module_map, GatedNodes};
use crate::{GatedRouting, RouteError, RouterConfig};

/// The activity-driven merge objective in the spirit of Téllez, Farrahi &
/// Sarrafzadeh \[5\] ("Activity Driven Clock Design for Low Power
/// Circuits"): merge the pair whose **combined enable activity** is
/// lowest, so rarely-co-active modules share subtrees and gates stay off
/// longer. Geometry enters only as a tie-break.
///
/// This is the prior work the paper extends; `route_activity_driven`
/// exists as the comparator for the objective ablation
/// (`gcr experiment ablations`). It ignores wire lengths and controller
/// distances during ordering — exactly the information the paper's
/// Equation-3 objective adds.
///
/// Node state is the store [`GatedObjective`](crate::GatedObjective)
/// keeps — geometry in a `MergeArena`, enable statistics and
/// activation/module bitsets as flat per-node rows, all reserved for the
/// full `2n − 1` node count so the greedy loop appends without
/// reallocating — with no Equation-3 columns on top.
#[derive(Clone)]
pub struct ActivityDrivenObjective<'a> {
    nodes: GatedNodes<'a>,
    /// Normalization for the geometric tie-break (die half-perimeter).
    dist_scale: f64,
}

impl<'a> ActivityDrivenObjective<'a> {
    /// Creates the objective over `sinks` (sink `i` = module `i`).
    ///
    /// # Panics
    ///
    /// Panics when there are more sinks than activity-model modules
    /// ([`route_activity_driven`] checks this and returns
    /// [`RouteError::SinkModuleMismatch`]).
    #[must_use]
    pub fn new(
        tech: &'a Technology,
        tables: &'a ActivityTables,
        sinks: &[Sink],
        dist_scale: f64,
    ) -> Self {
        Self {
            nodes: GatedNodes::new(tech, tables, sinks, |i| i),
            dist_scale: dist_scale.max(1.0),
        }
    }

    /// Signal/transition probability of `EN_i` for every node, in node
    /// order (leaves first, then merges as committed).
    #[must_use]
    pub fn node_stats(&self) -> Vec<EnableStats> {
        self.nodes.node_stats()
    }

    /// Module set under every node, in node order.
    #[must_use]
    pub fn node_modules(&self) -> Vec<ModuleSet> {
        self.nodes.node_modules()
    }
}

impl MergeObjective for ActivityDrivenObjective<'_> {
    fn cost(&self, a: usize, b: usize) -> f64 {
        // Primary key: the merged node's activity; secondary: distance,
        // scaled well below one activity quantum so it only breaks ties.
        let activity = self.nodes.union_signal(a, b);
        let dist = self.nodes.arena().distance(a, b);
        activity + 1e-3 * dist / self.dist_scale
    }

    // Admissible: the union of two active sets covers each one, so the
    // union signal is at least the larger individual signal, and the
    // tie-break term is monotone in the true distance.
    fn cost_lower_bound(&self, a: usize, b: usize) -> f64 {
        let signal = self.nodes.signal();
        let activity = signal[a].max(signal[b]);
        let dist = self.nodes.arena().distance(a, b);
        activity + 1e-3 * dist / self.dist_scale
    }

    #[inline]
    fn bound_terms(&self, node: usize) -> BoundTerms {
        BoundTerms {
            region: self.nodes.arena().region(node),
            scalars: [self.nodes.signal()[node], 0.0],
        }
    }

    // One fused columnar pass: the same expressions in the same order as
    // `cost_lower_bound`, so the keys are bit-identical.
    fn bound_kernel(&self, center: &BoundTerms, rows: BoundRows<'_>, out: &mut [f64]) {
        let signal_c = center.scalars[0];
        let dist_scale = self.dist_scale;
        rows.price(center, out, |d, [signal_y, _]| {
            signal_c.max(signal_y) + 1e-3 * d / dist_scale
        });
    }

    // Ignores the floor: the partner's own signal never enters. Needs no
    // rounding margin either: the union signal sums a superset of the
    // node's non-negative instruction probabilities in the same order, so
    // by monotone rounding it is at least either node's computed signal,
    // and the distance term is the same expression as `cost`'s.
    fn cost_lower_bound_at_distance(&self, node: usize, dist: f64, _floor: [f64; 2]) -> f64 {
        self.nodes.signal()[node] + 1e-3 * dist / self.dist_scale
    }

    fn location(&self, node: usize) -> Point {
        self.nodes.arena().center(node)
    }

    fn merge(&mut self, a: usize, b: usize, k: usize) -> Result<(), CtsError> {
        debug_assert_eq!(k, self.nodes.arena().len());
        self.nodes.merge_push(a, b)?;
        Ok(())
    }
}

/// Routes a gated clock tree with the activity-driven ordering of \[5\]
/// instead of the paper's Equation-3 ordering. Gating, embedding and
/// evaluation machinery are identical, so the difference between the two
/// results isolates the objective.
///
/// # Errors
///
/// Returns [`RouteError::SinkModuleMismatch`] when the sink count differs
/// from the activity model's module count, and [`RouteError::Cts`] for an
/// empty sink list.
pub fn route_activity_driven(
    sinks: &[Sink],
    tables: &ActivityTables,
    config: &RouterConfig,
) -> Result<GatedRouting, RouteError> {
    identity_module_map(sinks, tables)?;
    let mut objective =
        ActivityDrivenObjective::new(config.tech(), tables, sinks, config.die().half_perimeter());
    let params = GreedyParams::default();
    let (topology, _, _) = run_greedy_with_scratch(
        sinks.len(),
        &mut objective,
        &params,
        &mut GreedyScratch::new(),
    )?;
    let assignment = DeviceAssignment::everywhere(&topology, config.tech().and_gate());
    GatedRouting::embed(
        topology,
        assignment,
        sinks,
        config,
        objective.node_stats(),
        objective.node_modules(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_activity::{InstructionStream, Rtl};
    use gcr_geometry::{BBox, Point};

    /// Two co-active module pairs placed so that geometry disagrees with
    /// activity: the activity-driven objective must pair by activity.
    #[test]
    fn pairs_by_activity_not_geometry() {
        // Modules 0, 2 are always used together; 1, 3 together.
        let rtl = Rtl::builder(4)
            .instruction("A", [0, 2])
            .and_then(|b| b.instruction("B", [1, 3]))
            .and_then(gcr_activity::RtlBuilder::build)
            .unwrap();
        let stream = InstructionStream::from_indices(&rtl, [0, 0, 1, 0, 1, 1, 0, 1, 0, 0]).unwrap();
        let tables = ActivityTables::scan(&rtl, &stream);
        // Geometry pairs (0,1) and (2,3); activity pairs (0,2) and (1,3).
        let sinks = vec![
            Sink::new(Point::new(0.0, 0.0), 0.05),     // module 0
            Sink::new(Point::new(100.0, 0.0), 0.05),   // module 1
            Sink::new(Point::new(5_000.0, 0.0), 0.05), // module 2
            Sink::new(Point::new(5_100.0, 0.0), 0.05), // module 3
        ];
        let die = BBox::new(Point::new(0.0, 0.0), Point::new(6_000.0, 1_000.0));
        let config = RouterConfig::new(Technology::default(), die);
        let routing = route_activity_driven(&sinks, &tables, &config).unwrap();
        // First two merges must unite {0,2} and {1,3}.
        let n4 = &routing.node_modules[4];
        assert!(
            (n4.contains(0) && n4.contains(2)) || (n4.contains(1) && n4.contains(3)),
            "first merge paired {n4:?} by geometry, not activity"
        );
        // Mid-level enables keep the low per-class activity.
        assert!(routing.node_stats[4].signal < 0.75);
        // And the tree is still zero-skew.
        let tech = config.tech();
        let delay = routing.tree.source_to_sink_delay(tech);
        assert!(routing.tree.verify_skew(tech) <= 1e-9 * delay.max(1.0));
    }

    #[test]
    fn mismatched_modules_rejected() {
        let rtl = gcr_activity::paper_example_rtl();
        let stream = InstructionStream::from_indices(&rtl, [0, 1, 2]).unwrap();
        let tables = ActivityTables::scan(&rtl, &stream);
        let sinks = vec![Sink::new(Point::ORIGIN, 0.05); 3];
        let die = BBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let config = RouterConfig::new(Technology::default(), die);
        assert!(matches!(
            route_activity_driven(&sinks, &tables, &config),
            Err(RouteError::SinkModuleMismatch { .. })
        ));
    }
}
