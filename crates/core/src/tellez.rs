use gcr_activity::{set_bits, ActivityTables, EnableStats, Itmatt, ModuleSet};
use gcr_cts::{
    clone_preserving_capacity, run_greedy_with_scratch, BoundRows, BoundTerms, CtsError,
    DeviceAssignment, GreedyParams, GreedyScratch, MergeArena, MergeObjective, Sink,
};
use gcr_geometry::Point;
use gcr_rctree::{Device, Technology};

use crate::router::{identity_module_map, push_leaf_activation, push_union_row};
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
/// Storage mirrors [`GatedObjective`](crate::GatedObjective): geometry in
/// a [`MergeArena`], enable statistics and activation/module bitsets as
/// flat per-node rows, all reserved for the full `2n − 1` node count so
/// the greedy loop appends without reallocating.
pub struct ActivityDrivenObjective<'a> {
    gate: Device,
    tables: &'a ActivityTables,
    /// Normalization for the geometric tie-break (die half-perimeter).
    dist_scale: f64,
    num_modules: usize,
    /// Width (in `u64` words) of one row of `modules`.
    module_words: usize,
    /// Width (in `u64` words) of one row of `active`: `⌈K/64⌉`.
    active_words: usize,
    arena: MergeArena,
    /// `P(EN_i)` per node.
    signal: Vec<f64>,
    /// `P_tr(EN_i)` per node.
    transition: Vec<f64>,
    /// Row-major `len × active_words` bitset matrix: which instructions
    /// activate node i.
    active: Vec<u64>,
    /// Row-major `len × module_words` bitset matrix: modules under node i.
    modules: Vec<u64>,
}

impl Clone for ActivityDrivenObjective<'_> {
    // Manual so the pre-reserved columns keep their spare capacity; a
    // derived clone would shrink them to `len` and the first merges after
    // the clone would reallocate every column.
    fn clone(&self) -> Self {
        Self {
            gate: self.gate,
            tables: self.tables,
            dist_scale: self.dist_scale,
            num_modules: self.num_modules,
            module_words: self.module_words,
            active_words: self.active_words,
            arena: self.arena.clone(),
            signal: clone_preserving_capacity(&self.signal),
            transition: clone_preserving_capacity(&self.transition),
            active: clone_preserving_capacity(&self.active),
            modules: clone_preserving_capacity(&self.modules),
        }
    }
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
        let gate = tech.and_gate();
        let num_modules = tables.rtl().num_modules();
        let module_words = num_modules.div_ceil(64);
        let active_words = tables.activation_words();
        let capacity = sinks.len().saturating_mul(2).saturating_sub(1);
        let mut this = Self {
            gate,
            tables,
            dist_scale: dist_scale.max(1.0),
            num_modules,
            module_words,
            active_words,
            arena: MergeArena::new(tech, capacity),
            signal: Vec::with_capacity(capacity),
            transition: Vec::with_capacity(capacity),
            active: Vec::with_capacity(capacity * active_words),
            modules: Vec::with_capacity(capacity * module_words),
        };
        for (i, s) in sinks.iter().enumerate() {
            assert!(i < num_modules, "module {i} outside universe {num_modules}");
            let row = this.active.len();
            push_leaf_activation(&mut this.active, active_words, tables.rtl(), i);
            let stats = tables.enable_stats_for_bits(&this.active[row..]);
            this.arena.push_leaf(s, Some(gate));
            let row = this.modules.len();
            this.modules.resize(row + module_words, 0);
            this.modules[row + i / 64] |= 1u64 << (i % 64);
            this.signal.push(stats.signal);
            this.transition.push(stats.transition);
        }
        this
    }

    /// `P(EN)` of the union of nodes `a` and `b`: the set bits of their
    /// OR'd activation rows, ascending, mapped to `P(I)` and summed — the
    /// operands and order of pricing the merged node.
    pub(crate) fn union_signal(&self, a: usize, b: usize) -> f64 {
        let words = self.active_words;
        let mut buf = [0u64; Itmatt::MAX_INSTRUCTIONS / 64];
        let union = &mut buf[..words];
        let rows = self.active[a * words..(a + 1) * words]
            .iter()
            .zip(&self.active[b * words..(b + 1) * words]);
        for (u, (&x, &y)) in union.iter_mut().zip(rows) {
            *u = x | y;
        }
        let probs = self.tables.ift().probabilities();
        set_bits(union).map(|i| probs[i]).sum()
    }

    /// Signal/transition probability of `EN_i` for every node, in node
    /// order (leaves first, then merges as committed).
    #[must_use]
    pub fn node_stats(&self) -> Vec<EnableStats> {
        self.signal
            .iter()
            .zip(&self.transition)
            .map(|(&signal, &transition)| EnableStats { signal, transition })
            .collect()
    }

    /// Module set under every node, in node order.
    #[must_use]
    pub fn node_modules(&self) -> Vec<ModuleSet> {
        (0..self.signal.len())
            .map(|i| {
                let row = &self.modules[i * self.module_words..(i + 1) * self.module_words];
                ModuleSet::with_modules(self.num_modules, set_bits(row))
            })
            .collect()
    }
}

impl MergeObjective for ActivityDrivenObjective<'_> {
    fn cost(&self, a: usize, b: usize) -> f64 {
        // Primary key: the merged node's activity; secondary: distance,
        // scaled well below one activity quantum so it only breaks ties.
        let activity = self.union_signal(a, b);
        let dist = self.arena.distance(a, b);
        activity + 1e-3 * dist / self.dist_scale
    }

    // Admissible: the union of two active sets covers each one, so the
    // union signal is at least the larger individual signal, and the
    // tie-break term is monotone in the true distance.
    fn cost_lower_bound(&self, a: usize, b: usize) -> f64 {
        let activity = self.signal[a].max(self.signal[b]);
        let dist = self.arena.distance(a, b);
        activity + 1e-3 * dist / self.dist_scale
    }

    #[inline]
    fn bound_terms(&self, node: usize) -> BoundTerms {
        BoundTerms {
            region: self.arena.region(node),
            scalars: [self.signal[node], 0.0],
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
        self.signal[node] + 1e-3 * dist / self.dist_scale
    }

    fn location(&self, node: usize) -> Point {
        self.arena.center(node)
    }

    fn merge(&mut self, a: usize, b: usize, k: usize) -> Result<(), CtsError> {
        debug_assert_eq!(k, self.arena.len());
        self.arena.merge_push(a, b, Some(self.gate))?;
        let row = self.active.len();
        push_union_row(&mut self.active, self.active_words, a, b);
        let stats = self.tables.enable_stats_for_bits(&self.active[row..]);
        push_union_row(&mut self.modules, self.module_words, a, b);
        self.signal.push(stats.signal);
        self.transition.push(stats.transition);
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
