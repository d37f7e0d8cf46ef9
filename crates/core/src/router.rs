use gcr_activity::{set_bits, ActivityTables, EnableStats, Itmatt, ModuleSet};
use gcr_cts::{
    clone_preserving_capacity, embed_sized, run_greedy_coarsened, BoundRows, BoundTerms, ClockTree,
    CoarsenParams, CoarsenScratch, CtsError, DeviceAssignment, GreedyProfile, MergeArena,
    MergeObjective, MergeOutcome, Sink, SizingLimits, Topology,
};
use gcr_geometry::{BBox, Point};
use gcr_rctree::{Device, Technology};
use gcr_trace::Tracer;

use crate::{merge_switched_cap, ControllerPlan, RouteError};

/// Configuration of the gated clock router: technology, die outline, clock
/// source location, and controller placement.
///
/// ```
/// use gcr_core::{ControllerPlan, RouterConfig};
/// use gcr_geometry::{BBox, Point};
/// use gcr_rctree::Technology;
///
/// let die = BBox::new(Point::new(0.0, 0.0), Point::new(10_000.0, 10_000.0));
/// let config = RouterConfig::new(Technology::default(), die)
///     .with_controller(ControllerPlan::distributed(die, 1));
/// assert_eq!(config.controller().num_controllers(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct RouterConfig {
    tech: Technology,
    die: BBox,
    source: Point,
    controller: ControllerPlan,
}

impl RouterConfig {
    /// Creates a configuration with the paper's defaults: clock source and
    /// a single centralized controller at the die center.
    #[must_use]
    pub fn new(tech: Technology, die: BBox) -> Self {
        Self {
            tech,
            die,
            source: die.center(),
            controller: ControllerPlan::centralized(&die),
        }
    }

    /// Overrides the controller placement (e.g. §6 distributed
    /// controllers).
    #[must_use]
    pub fn with_controller(mut self, controller: ControllerPlan) -> Self {
        self.controller = controller;
        self
    }

    /// Overrides the clock source location (default: die center).
    #[must_use]
    pub fn with_source(mut self, source: Point) -> Self {
        self.source = source;
        self
    }

    /// The technology parameters.
    #[must_use]
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The die outline.
    #[must_use]
    pub fn die(&self) -> BBox {
        self.die
    }

    /// The clock source location.
    #[must_use]
    pub fn source(&self) -> Point {
        self.source
    }

    /// The controller placement.
    #[must_use]
    pub fn controller(&self) -> &ControllerPlan {
        &self.controller
    }
}

/// The per-node state both activity objectives keep — the Equation-3
/// [`GatedObjective`] and the activity-driven
/// [`ActivityDrivenObjective`](crate::ActivityDrivenObjective): geometry
/// and Elmore coefficients in a [`MergeArena`], `P(EN)`/`P_tr(EN)` per
/// node, and the activation and module bitsets as fixed-width rows of
/// flat matrices. Every column is reserved for the full `2n − 1` node
/// count, so the greedy loop appends without reallocating. The
/// objectives hold it by value, so their hot reads index its columns
/// directly.
pub(crate) struct GatedNodes<'a> {
    tech: &'a Technology,
    gate: Device,
    tables: &'a ActivityTables,
    num_modules: usize,
    /// Width (in `u64` words) of one row of `modules`.
    module_words: usize,
    /// Width (in `u64` words) of one row of `active`: `⌈K/64⌉`.
    active_words: usize,
    /// Merging segments and Elmore coefficients, indexed by node.
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

impl Clone for GatedNodes<'_> {
    // Manual so the pre-reserved columns keep their spare capacity; a
    // derived clone would shrink them to `len` and the first merges after
    // the clone would reallocate every column.
    fn clone(&self) -> Self {
        Self {
            tech: self.tech,
            gate: self.gate,
            tables: self.tables,
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

impl<'a> GatedNodes<'a> {
    /// The gated leaves of `sinks`, sink `i` gated by module
    /// `module_of(i)`, with room for every merge above them.
    ///
    /// # Panics
    ///
    /// Panics when `module_of` names a module outside the activity model.
    pub(crate) fn new(
        tech: &'a Technology,
        tables: &'a ActivityTables,
        sinks: &[Sink],
        module_of: impl Fn(usize) -> usize,
    ) -> Self {
        let gate = tech.and_gate();
        let num_modules = tables.rtl().num_modules();
        let module_words = num_modules.div_ceil(64);
        let active_words = tables.activation_words();
        let capacity = node_capacity(sinks.len());
        let mut this = Self {
            tech,
            gate,
            tables,
            num_modules,
            module_words,
            active_words,
            arena: MergeArena::new(tech, capacity),
            signal: Vec::with_capacity(capacity),
            transition: Vec::with_capacity(capacity),
            active: Vec::with_capacity(capacity * active_words),
            modules: Vec::with_capacity(capacity * module_words),
        };
        // Each leaf's activation row and module bit are written straight
        // into the columns: no per-leaf allocation. A leaf's row and
        // enable stats depend only on its module, so the first sink of
        // each module prices them and later sinks copy that leaf's.
        let mut first_leaf = vec![u32::MAX; num_modules];
        for (i, s) in sinks.iter().enumerate() {
            let m = module_of(i);
            assert!(m < num_modules, "module {m} outside universe {num_modules}");
            let j = first_leaf[m] as usize;
            let stats = if j < i {
                this.active
                    .extend_from_within(j * active_words..(j + 1) * active_words);
                EnableStats {
                    signal: this.signal[j],
                    transition: this.transition[j],
                }
            } else {
                first_leaf[m] = i as u32;
                let row = this.active.len();
                this.push_leaf_activation(m);
                tables.enable_stats_for_bits(&this.active[row..])
            };
            this.arena.push_leaf(s, Some(gate));
            let row = this.modules.len();
            this.modules.resize(row + module_words, 0);
            this.modules[row + m / 64] |= 1u64 << (m % 64);
            this.signal.push(stats.signal);
            this.transition.push(stats.transition);
        }
        this
    }

    /// Appends the activation row of a leaf gating module `m`: bit `i`
    /// is set when instruction `i` uses `m`.
    fn push_leaf_activation(&mut self, m: usize) {
        let rtl = self.tables.rtl();
        let row = self.active.len();
        self.active.resize(row + self.active_words, 0);
        for id in rtl.instruction_ids().filter(|&id| rtl.uses(id, m)) {
            self.active[row + id.index() / 64] |= 1 << (id.index() % 64);
        }
    }

    /// Appends the OR of rows `a` and `b` of a flat `words`-wide bitset
    /// matrix as its next row — a merged node's module or activation set.
    fn push_union_row(rows: &mut Vec<u64>, words: usize, a: usize, b: usize) {
        for w in 0..words {
            let v = rows[a * words + w] | rows[b * words + w];
            rows.push(v);
        }
    }

    /// Merges nodes `a` and `b` into the next node under a gate: the
    /// arena's zero-skew merge, the OR'd activation and module rows, and
    /// the enable stats priced from the new activation row.
    ///
    /// # Errors
    ///
    /// Propagates the arena's [`CtsError::MergeRegionDisjoint`].
    pub(crate) fn merge_push(&mut self, a: usize, b: usize) -> Result<MergeOutcome, CtsError> {
        let outcome = self.arena.merge_push(a, b, Some(self.gate))?;
        let row = self.active.len();
        Self::push_union_row(&mut self.active, self.active_words, a, b);
        let stats = self.tables.enable_stats_for_bits(&self.active[row..]);
        Self::push_union_row(&mut self.modules, self.module_words, a, b);
        self.signal.push(stats.signal);
        self.transition.push(stats.transition);
        Ok(outcome)
    }

    /// Geometry and Elmore coefficients of every node.
    #[inline]
    pub(crate) fn arena(&self) -> &MergeArena {
        &self.arena
    }

    /// `P(EN_i)` of every node.
    #[inline]
    pub(crate) fn signal(&self) -> &[f64] {
        &self.signal
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

    /// Rewinds to the first `len` nodes, keeping every column's spare
    /// capacity; a no-op at or above the current node count.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.arena.truncate(len);
        self.signal.truncate(len);
        self.transition.truncate(len);
        self.active.truncate(len * self.active_words);
        self.modules.truncate(len * self.module_words);
    }

    /// Signal/transition probability of `EN_i` for every node, in node
    /// order (leaves first, then merges as committed).
    pub(crate) fn node_stats(&self) -> Vec<EnableStats> {
        self.signal
            .iter()
            .zip(&self.transition)
            .map(|(&signal, &transition)| EnableStats { signal, transition })
            .collect()
    }

    /// Module set under every node, in node order.
    pub(crate) fn node_modules(&self) -> Vec<ModuleSet> {
        (0..self.signal.len())
            .map(|i| {
                let row = &self.modules[i * self.module_words..(i + 1) * self.module_words];
                ModuleSet::with_modules(self.num_modules, set_bits(row))
            })
            .collect()
    }
}

/// Nodes of a merge tree over `sinks` leaves: `2n − 1`.
fn node_capacity(sinks: usize) -> usize {
    sinks.saturating_mul(2).saturating_sub(1)
}

/// Factor every Equation-3 lower bound is scaled by. The bound and the
/// exact cost sum the same non-negative terms in different groupings, a
/// handful of roundings each (at most `ε/2` relative apiece, and no
/// cancellation), so with no snaking the computed bound could exceed the
/// computed cost by an ULP or two. `16 ε` covers both sides' rounding
/// with room to spare, and applying the one factor to the pairwise,
/// batched and at-distance bounds alike keeps them bit-identical to each
/// other and keeps ring keys below the pairwise bounds they cover.
const BOUND_MARGIN: f64 = 1.0 - 16.0 * f64::EPSILON;

/// The Equation-3 merge objective: among all live subtree pairs, merge the
/// one whose new edges and enable wires add the least switched
/// capacitance.
///
/// Node state lives in struct-of-arrays form: the geometry, `P(EN)`,
/// `P_tr(EN)` and activation/module rows it shares with the
/// activity-driven objective, plus three Equation-3 columns of its own
/// (the merge-independent static term, node capacitance, controller
/// distance). Every buffer is reserved for the full `2n − 1` node count
/// up front, so the greedy loop appends without reallocating.
///
/// Public so benchmarks and cross-validation can drive it through any of
/// the greedy engines (`run_greedy_with_scratch`,
/// `run_greedy_exhaustive_with_scratch`, `run_greedy_checked`);
/// [`route_gated`] remains the intended high-level
/// entry point.
pub struct GatedObjective<'a> {
    nodes: GatedNodes<'a>,
    controller: &'a ControllerPlan,
    unit_cap: f64,
    /// Cached merge-independent Equation-3 term per node.
    static_term: Vec<f64>,
    /// `C_i`: sink load for leaves, children's gate input caps otherwise.
    node_cap: Vec<f64>,
    /// Star-wire distance from the serving controller to the gate on this
    /// node's parent edge (gate location ≈ mid of ms).
    cp_dist: Vec<f64>,
}

impl Clone for GatedObjective<'_> {
    // Manual so the pre-reserved columns keep their spare capacity (see
    // `GatedNodes`'s clone).
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            controller: self.controller,
            unit_cap: self.unit_cap,
            static_term: clone_preserving_capacity(&self.static_term),
            node_cap: clone_preserving_capacity(&self.node_cap),
            cp_dist: clone_preserving_capacity(&self.cp_dist),
        }
    }
}

impl<'a> GatedObjective<'a> {
    /// Builds the objective over `sinks`, where `module_of[i]` names the
    /// activity-model module gating sink `i`.
    ///
    /// # Panics
    ///
    /// Panics when `module_of` is shorter than `sinks` or references a
    /// module outside the activity model (the routing entry points
    /// validate this and return [`RouteError::SinkModuleMismatch`]).
    #[must_use]
    pub fn new(
        tech: &'a Technology,
        controller: &'a ControllerPlan,
        tables: &'a ActivityTables,
        sinks: &[Sink],
        module_of: &[usize],
    ) -> Self {
        let capacity = node_capacity(sinks.len());
        let mut this = Self {
            nodes: GatedNodes::new(tech, tables, sinks, |i| module_of[i]),
            controller,
            unit_cap: tech.unit_cap(),
            static_term: Vec::with_capacity(capacity),
            node_cap: Vec::with_capacity(capacity),
            cp_dist: Vec::with_capacity(capacity),
        };
        for (leaf, s) in sinks.iter().enumerate() {
            this.push_terms(leaf, s.cap(), controller.enable_wire_length(s.location()));
        }
        this
    }

    /// Appends the Equation-3 columns of `node`, the first store node
    /// they lack, caching its merge-independent term:
    /// `C_i · P(EN_i) + (c_ctl · cp_i + C_g) · P_tr(EN_i)`. Only the wire
    /// term `c · e_i · P(EN_i)` depends on the merge partner.
    fn push_terms(&mut self, node: usize, node_cap: f64, cp_dist: f64) {
        let (signal, transition) = (self.nodes.signal[node], self.nodes.transition[node]);
        self.node_cap.push(node_cap);
        self.cp_dist.push(cp_dist);
        self.static_term.push(
            node_cap * signal
                + (self.nodes.tech.control_unit_cap() * cp_dist + self.nodes.gate.input_cap())
                    * transition,
        );
    }

    /// Rewinds the objective to its first `len` nodes, keeping every
    /// column's spare capacity. This is the warm-loop primitive of the
    /// incremental ECO engine: the leaf rows stay priced while internal
    /// rows from a superseded search are dropped, so the next
    /// [`gcr_cts::apply_eco`] pass appends into the same storage without
    /// reallocating. The objective caches nothing derived from the rows
    /// it drops: the ring bound's floors live in the greedy engine, which
    /// takes them over the live leaves of each run.
    ///
    /// Truncating at or above the current node count is a no-op.
    pub fn truncate(&mut self, len: usize) {
        self.nodes.truncate(len);
        self.static_term.truncate(len);
        self.node_cap.truncate(len);
        self.cp_dist.truncate(len);
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

impl MergeObjective for GatedObjective<'_> {
    /// Exact Equation-3 cost; an impossible merge (non-finite state) is
    /// priced at `+∞` so the greedy never selects it.
    fn cost(&self, a: usize, b: usize) -> f64 {
        let nodes = &self.nodes;
        let Ok(outcome) = nodes.arena.try_merge(a, b) else {
            return f64::INFINITY;
        };
        merge_switched_cap(
            nodes.tech,
            outcome.ea,
            outcome.eb,
            self.node_cap[a],
            self.node_cap[b],
            EnableStats {
                signal: nodes.signal[a],
                transition: nodes.transition[a],
            },
            EnableStats {
                signal: nodes.signal[b],
                transition: nodes.transition[b],
            },
            self.cp_dist[a],
            self.cp_dist[b],
        )
    }

    // Admissible because the zero-skew tap lengths always cover the region
    // distance (`e_a + e_b >= d`; snaking only adds wire), every term of
    // Equation 3 is non-negative, and probabilities are in [0, 1]:
    //
    //   c·e_a·P_a + c·e_b·P_b >= c·(e_a + e_b)·min(P_a, P_b)
    //                         >= c·d·min(P_a, P_b).
    //
    // The bound and `cost` sum their terms in different orders, so with
    // no snaking the two can round a few ULPs apart; `BOUND_MARGIN`
    // keeps the computed bound below the computed cost.
    fn cost_lower_bound(&self, a: usize, b: usize) -> f64 {
        let signal = &self.nodes.signal;
        let d = self.nodes.arena.distance(a, b);
        (self.static_term[a] + self.static_term[b] + self.unit_cap * d * signal[a].min(signal[b]))
            * BOUND_MARGIN
    }

    #[inline]
    fn bound_terms(&self, node: usize) -> BoundTerms {
        BoundTerms {
            region: self.nodes.arena.region(node),
            scalars: [self.static_term[node], self.nodes.signal[node]],
        }
    }

    // One fused columnar pass: the same expressions in the same order as
    // `cost_lower_bound`, so the keys are bit-identical.
    fn bound_kernel(&self, center: &BoundTerms, rows: BoundRows<'_>, out: &mut [f64]) {
        let [static_c, signal_c] = center.scalars;
        let unit_cap = self.unit_cap;
        rows.price(center, out, |d, [static_y, signal_y]| {
            (static_c + static_y + unit_cap * d * signal_c.min(signal_y)) * BOUND_MARGIN
        });
    }

    // For live leaf partners at distance >= dist: the partner's static
    // term is at least the floor's, and it switches at least as often as
    // the floor's enable probability. The expression is
    // `cost_lower_bound`'s with each partner term replaced by a floor
    // that is no larger, so by monotone rounding every ring candidate's
    // pairwise bound is at least this key.
    fn cost_lower_bound_at_distance(&self, node: usize, dist: f64, floor: [f64; 2]) -> f64 {
        let signal = self.nodes.signal[node];
        (self.static_term[node] + floor[0] + self.unit_cap * dist * signal.min(floor[1]))
            * BOUND_MARGIN
    }

    fn leaf_floor(&self, leaf: usize) -> [f64; 2] {
        [self.static_term[leaf], self.nodes.signal[leaf]]
    }

    fn location(&self, node: usize) -> Point {
        self.nodes.arena.center(node)
    }

    fn merge(&mut self, a: usize, b: usize, k: usize) -> Result<(), CtsError> {
        debug_assert_eq!(k, self.nodes.arena.len());
        let outcome = self.nodes.merge_push(a, b)?;
        // Both child edges are gated during construction, so the new node
        // feeds exactly two gate input capacitances.
        let node_cap = 2.0 * self.nodes.gate.input_cap();
        let cp_dist = self.controller.enable_wire_length(outcome.ms.center());
        self.push_terms(k, node_cap, cp_dist);
        Ok(())
    }
}

/// The output of [`route_gated`]: the embedded tree plus everything needed
/// to evaluate, reduce, and re-embed it.
#[derive(Clone, Debug)]
pub struct GatedRouting {
    /// The merge structure chosen by the Equation-3 greedy.
    pub topology: Topology,
    /// Device on every edge (the fully gated tree; gate reduction produces
    /// sparser assignments from this).
    pub assignment: DeviceAssignment,
    /// The embedded zero-skew tree.
    pub tree: ClockTree,
    /// Signal/transition probability of `EN_i` for every topology node.
    pub node_stats: Vec<EnableStats>,
    /// Module set under every topology node.
    pub node_modules: Vec<ModuleSet>,
}

impl GatedRouting {
    /// Embeds `topology` under `assignment` into a sized zero-skew tree
    /// and packages it with the node statistics: the one tail of every
    /// router and of [`Self::reembed`].
    pub(crate) fn embed(
        topology: Topology,
        assignment: DeviceAssignment,
        sinks: &[Sink],
        config: &RouterConfig,
        node_stats: Vec<EnableStats>,
        node_modules: Vec<ModuleSet>,
    ) -> Result<Self, RouteError> {
        let tree = embed_sized(
            &topology,
            sinks,
            config.tech(),
            &assignment,
            config.source(),
            SizingLimits::default(),
        )?;
        Ok(GatedRouting {
            topology,
            assignment,
            tree,
            node_stats,
            node_modules,
        })
    }

    /// Re-embeds the same topology with a different device assignment
    /// (e.g. after gate reduction), restoring exact zero skew.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Cts`] if the assignment does not match the
    /// topology.
    pub fn reembed(
        &self,
        sinks: &[Sink],
        assignment: DeviceAssignment,
        config: &RouterConfig,
    ) -> Result<GatedRouting, RouteError> {
        Self::embed(
            self.topology.clone(),
            assignment,
            sinks,
            config,
            self.node_stats.clone(),
            self.node_modules.clone(),
        )
    }
}

/// Builds a fully gated routing over an *externally supplied* topology
/// (nearest-neighbor, MMM, hand-written…): computes every node's module
/// set and enable statistics, puts a gate on every edge, and embeds with
/// sizing — everything [`route_gated`] does except choosing the merge
/// order. Used by the objective ablations.
///
/// # Errors
///
/// Returns [`RouteError::SinkModuleMismatch`] when the sink count differs
/// from the activity model's module count, and [`RouteError::Cts`] when
/// the topology does not match the sinks.
pub fn gated_routing_for_topology(
    topology: Topology,
    sinks: &[Sink],
    tables: &ActivityTables,
    config: &RouterConfig,
) -> Result<GatedRouting, RouteError> {
    let identity = identity_module_map(sinks, tables)?;
    gated_routing_for_topology_mapped(topology, sinks, &identity, tables, config)
}

/// As [`gated_routing_for_topology`], with an explicit sink-to-module map
/// (see [`route_gated_mapped`]).
///
/// # Errors
///
/// Returns [`RouteError::SinkModuleMismatch`] for an inconsistent map and
/// [`RouteError::Cts`] when the topology does not fit the sinks.
pub fn gated_routing_for_topology_mapped(
    topology: Topology,
    sinks: &[Sink],
    module_of: &[usize],
    tables: &ActivityTables,
    config: &RouterConfig,
) -> Result<GatedRouting, RouteError> {
    check_module_of(sinks, module_of, tables)?;
    let (node_modules, node_stats) = node_activity(&topology, module_of, tables);
    let assignment = DeviceAssignment::everywhere(&topology, config.tech().and_gate());
    GatedRouting::embed(
        topology,
        assignment,
        sinks,
        config,
        node_stats,
        node_modules,
    )
}

/// Every topology node's module set and enable statistics, indexed by
/// node: a leaf holds its sink's module `module_of[sink]`, an internal
/// node the union of its children's sets.
///
/// # Panics
///
/// Panics when `module_of` misses a leaf of `topology` or names a module
/// outside `tables`.
#[must_use]
pub fn node_activity(
    topology: &Topology,
    module_of: &[usize],
    tables: &ActivityTables,
) -> (Vec<ModuleSet>, Vec<EnableStats>) {
    let n_modules = tables.rtl().num_modules();
    let mut node_modules: Vec<ModuleSet> = Vec::with_capacity(topology.len());
    let mut node_stats: Vec<EnableStats> = Vec::with_capacity(topology.len());
    for (_, node) in topology.bottom_up() {
        let set = match node {
            gcr_cts::TopoNode::Leaf { sink } => {
                ModuleSet::with_modules(n_modules, [module_of[sink]])
            }
            gcr_cts::TopoNode::Internal { left, right } => {
                node_modules[left].union(&node_modules[right])
            }
        };
        node_stats.push(tables.enable_stats(&set));
        node_modules.push(set);
    }
    (node_modules, node_stats)
}

/// Checks that `module_of` maps every sink to a module of `tables`.
pub(crate) fn check_module_of(
    sinks: &[Sink],
    module_of: &[usize],
    tables: &ActivityTables,
) -> Result<(), RouteError> {
    let modules = tables.rtl().num_modules();
    if module_of.len() != sinks.len() || module_of.iter().any(|&m| m >= modules) {
        return Err(RouteError::SinkModuleMismatch {
            sinks: sinks.len(),
            modules,
        });
    }
    Ok(())
}

/// The paper's 1:1 sink-to-module map, the identity (sink `i` is gated
/// by module `i`), or [`RouteError::SinkModuleMismatch`] when the sink
/// count differs from the activity model's module count.
pub(crate) fn identity_module_map(
    sinks: &[Sink],
    tables: &ActivityTables,
) -> Result<Vec<usize>, RouteError> {
    let modules = tables.rtl().num_modules();
    if sinks.len() != modules {
        return Err(RouteError::SinkModuleMismatch {
            sinks: sinks.len(),
            modules,
        });
    }
    Ok((0..modules).collect())
}

/// The paper's `GatedClockRouting` procedure (§4.2): greedy bottom-up
/// merging ordered by the Equation-3 switched capacitance, a masking gate
/// on every edge, then top-down zero-skew placement.
///
/// Sink `i` must correspond to module `i` of the activity model ("the
/// sinks correspond to the locations of modules").
///
/// Reports the full flow through
/// [`Tracer::current`](gcr_trace::Tracer::current): objective
/// construction (`route.objective` — the leaf `P(EN)`/`P_tr(EN)`
/// derivation), the greedy merge (`greedy.*` spans), and the zero-skew
/// embedding (`embed.*` spans), all nested in a `route.gated` span. The
/// routing is bit-identical at any tracing state.
///
/// # Errors
///
/// Returns [`RouteError::SinkModuleMismatch`] when the sink count differs
/// from the activity model's module count, and [`RouteError::Cts`] for an
/// empty sink list.
pub fn route_gated(
    sinks: &[Sink],
    tables: &ActivityTables,
    config: &RouterConfig,
) -> Result<GatedRouting, RouteError> {
    let identity = identity_module_map(sinks, tables)?;
    route_gated_mapped(sinks, &identity, tables, config)
}

/// As [`route_gated`], for designs where a module clocks **several**
/// sinks: `module_of[i]` names the module whose activity gates sink `i`
/// (the paper's 1:1 mapping is the identity). All of a module's sinks
/// share its enable probability, so the router naturally groups them; the
/// reduction and evaluation machinery is unchanged.
///
/// Flat at every size: this is [`route_gated_with_scratch`] with one
/// region as large as the design, so the flat pruned engine merges every
/// sink even above the coarsening cut-over.
///
/// # Errors
///
/// Returns [`RouteError::SinkModuleMismatch`] when `module_of` does not
/// cover every sink or references a module outside the activity model,
/// and [`RouteError::Cts`] for an empty sink list.
pub fn route_gated_mapped(
    sinks: &[Sink],
    module_of: &[usize],
    tables: &ActivityTables,
    config: &RouterConfig,
) -> Result<GatedRouting, RouteError> {
    let flat = CoarsenParams {
        target_region_size: sinks.len(),
        ..CoarsenParams::default()
    };
    let mut scratch = CoarsenScratch::new();
    route_gated_with_scratch(sinks, module_of, tables, config, &flat, &mut scratch)
        .map(|(routing, _)| routing)
}

/// A region-objective factory over `sinks` for the coarsened greedy
/// engine: for a member subset (ascending global sink indices) it builds
/// a [`GatedObjective`] whose leaf states are bit-identical to the
/// corresponding leaves of the global objective — same technology,
/// controller plan, activity tables and module gating, restricted to the
/// subset. This is the contract [`gcr_cts::run_greedy_coarsened`]
/// requires of its `region_objective` argument.
pub fn gated_region_factory<'a>(
    tech: &'a Technology,
    controller: &'a ControllerPlan,
    tables: &'a ActivityTables,
    sinks: &'a [Sink],
    module_of: &'a [usize],
) -> impl Fn(&[u32]) -> GatedObjective<'a> + Sync + 'a {
    move |members: &[u32]| {
        let sub_sinks: Vec<Sink> = members.iter().map(|&i| sinks[i as usize]).collect();
        let sub_modules: Vec<usize> = members.iter().map(|&i| module_of[i as usize]).collect();
        GatedObjective::new(tech, controller, tables, &sub_sinks, &sub_modules)
    }
}

/// As [`route_gated_mapped`], but building the topology through
/// [`gcr_cts::run_greedy_coarsened`], which alone chooses the engine:
/// below twice the target region size (4 096 sinks by default, so r1–r5)
/// the flat pruned engine with its exact result and decision log, above
/// it (r6–r8, up to a million sinks) the hierarchical coarsening engine,
/// where the flat greedy's merge loop is no longer economical. So this
/// is safe to call at any size. A cold-scratch wrapper of
/// [`route_gated_with_scratch`], the flow `gcrd` and `gcr-verify audit`
/// run.
///
/// See the `gcr_cts::coarsen` module docs for the exactness caveat: the
/// coarsened topology is a deterministic approximation of the flat
/// greedy's, not bit-identical to it. Traces like [`route_gated`], with
/// the `coarsen.*` spans in place of the `greedy.*` ones above the
/// cut-over.
///
/// # Errors
///
/// As [`route_gated_mapped`].
pub fn route_gated_coarsened(
    sinks: &[Sink],
    module_of: &[usize],
    tables: &ActivityTables,
    config: &RouterConfig,
    params: &CoarsenParams,
) -> Result<GatedRouting, RouteError> {
    let mut scratch = CoarsenScratch::new();
    route_gated_with_scratch(sinks, module_of, tables, config, params, &mut scratch)
        .map(|(routing, _)| routing)
}

/// [`route_gated_coarsened`] through the caller's reusable `scratch`:
/// the whole gated-routing flow at any size, for long-lived callers
/// that route many designs, and the one body behind every `route_gated*`
/// router but [`route_gated_eco`](crate::route_gated_eco): validate,
/// build the objective under `route.objective`, merge, gate every edge
/// and embed with sizing, all in a `route.gated` span. Returns the
/// routing and the merge engine's
/// profile; when `params.greedy.log_decisions` is set, the run's
/// decision log stays readable from
/// [`CoarsenScratch::decisions`](gcr_cts::CoarsenScratch::decisions)
/// until the next run. A warm scratch keeps every merge loop
/// allocation-free (`loop_allocs == 0`).
///
/// # Errors
///
/// As [`route_gated_mapped`].
pub fn route_gated_with_scratch(
    sinks: &[Sink],
    module_of: &[usize],
    tables: &ActivityTables,
    config: &RouterConfig,
    params: &CoarsenParams,
    scratch: &mut CoarsenScratch,
) -> Result<(GatedRouting, GreedyProfile), RouteError> {
    check_module_of(sinks, module_of, tables)?;
    let tracer = Tracer::current();
    let _route = tracer.span("route.gated");
    let mut objective = {
        let _span = tracer.span("route.objective");
        GatedObjective::new(config.tech(), config.controller(), tables, sinks, module_of)
    };
    tracer.counter("route.sinks", sinks.len() as f64);
    let factory =
        gated_region_factory(config.tech(), config.controller(), tables, sinks, module_of);
    let (topology, _, profile) =
        run_greedy_coarsened(sinks.len(), &mut objective, factory, params, scratch)?;
    let assignment = DeviceAssignment::everywhere(&topology, config.tech().and_gate());
    let routing = GatedRouting::embed(
        topology,
        assignment,
        sinks,
        config,
        objective.node_stats(),
        objective.node_modules(),
    )?;
    Ok((routing, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ActivityDrivenObjective;
    use gcr_activity::CpuModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-pair pricing loop over the non-zero ITMATT entries, written
    /// from the public table accessors: the oracle the bitset kernel must
    /// match bit for bit.
    fn oracle_stats(tables: &ActivityTables, active: &[bool]) -> EnableStats {
        let signal = tables
            .rtl()
            .instruction_ids()
            .filter(|i| active[i.index()])
            .map(|i| tables.ift().probability(i))
            .sum();
        let mut transition = 0.0;
        for (a, b, p) in tables.itmatt().nonzero_pairs() {
            if active[a.index()] != active[b.index()] {
                transition += p;
            }
        }
        EnableStats { signal, transition }
    }

    fn stats_bits(stats: &[EnableStats]) -> Vec<(u64, u64)> {
        stats
            .iter()
            .map(|s| (s.signal.to_bits(), s.transition.to_bits()))
            .collect()
    }

    fn setup(n: usize, seed: u64) -> (Vec<Sink>, ActivityTables, RouterConfig) {
        let side = 10_000.0;
        let sinks: Vec<Sink> = (0..n)
            .map(|i| {
                let x = (i as f64 * 2654.435) % side;
                let y = (i as f64 * 1618.034) % side;
                Sink::new(Point::new(x, y), 0.03 + 0.01 * (i % 5) as f64)
            })
            .collect();
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
        (sinks, tables, config)
    }

    #[test]
    fn routed_tree_is_zero_skew_and_fully_gated() {
        let (sinks, tables, config) = setup(12, 3);
        let routing = route_gated(&sinks, &tables, &config).unwrap();
        assert_eq!(routing.tree.num_sinks(), 12);
        assert_eq!(routing.tree.device_count(), routing.tree.len());
        let delay = routing.tree.source_to_sink_delay(config.tech());
        assert!(routing.tree.verify_skew(config.tech()) < 1e-9 * delay.max(1.0));
    }

    #[test]
    fn coarsened_route_matches_flat_below_the_region_threshold() {
        let (sinks, tables, config) = setup(12, 3);
        let module_of: Vec<usize> = (0..12).collect();
        let flat = route_gated(&sinks, &tables, &config).unwrap();
        let coarse = route_gated_coarsened(
            &sinks,
            &module_of,
            &tables,
            &config,
            &CoarsenParams::default(),
        )
        .unwrap();
        assert_eq!(coarse.topology, flat.topology);
        assert_eq!(coarse.node_stats, flat.node_stats);
    }

    #[test]
    fn coarsened_route_is_zero_skew_and_fully_gated() {
        let (sinks, tables, config) = setup(300, 5);
        let module_of: Vec<usize> = (0..300).collect();
        let params = CoarsenParams {
            target_region_size: 32,
            ..CoarsenParams::default()
        };
        let routing = route_gated_coarsened(&sinks, &module_of, &tables, &config, &params).unwrap();
        assert_eq!(routing.tree.num_sinks(), 300);
        assert_eq!(routing.node_stats.len(), 2 * 300 - 1);
        assert_eq!(routing.tree.device_count(), routing.tree.len());
        let delay = routing.tree.source_to_sink_delay(config.tech());
        assert!(routing.tree.verify_skew(config.tech()) < 1e-9 * delay.max(1.0));
    }

    /// Sinks of one module copy the first such leaf's activation row and
    /// enable stats; every column must match pricing each leaf on its
    /// own, bit for bit.
    #[test]
    fn repeated_modules_match_per_leaf_pricing() {
        let (_, tables, config) = setup(7, 11);
        let (n, m) = (40, 7);
        let sinks: Vec<Sink> = (0..n)
            .map(|i| {
                let (x, y) = ((i * 2_477) % 10_000, (i * 6_131) % 10_000);
                Sink::new(Point::new(x as f64, y as f64), 0.02 + 0.01 * (i % 3) as f64)
            })
            .collect();
        let module_of: Vec<usize> = (0..n).map(|i| i % m).collect();
        let objective = GatedObjective::new(
            config.tech(),
            config.controller(),
            &tables,
            &sinks,
            &module_of,
        );

        // Oracle: the same objective rewound and re-priced leaf by leaf.
        let rtl = tables.rtl();
        let mut oracle = objective.clone();
        oracle.truncate(0);
        for (leaf, (s, &module)) in sinks.iter().zip(&module_of).enumerate() {
            let row: Vec<bool> = rtl
                .instruction_ids()
                .map(|id| rtl.uses(id, module))
                .collect();
            let nodes = &mut oracle.nodes;
            let at = nodes.active.len();
            nodes.active.resize(at + nodes.active_words, 0);
            for i in (0..row.len()).filter(|&i| row[i]) {
                nodes.active[at + i / 64] |= 1 << (i % 64);
            }
            nodes.arena.push_leaf(s, Some(nodes.gate));
            let at = nodes.modules.len();
            nodes.modules.resize(at + nodes.module_words, 0);
            nodes.modules[at + module / 64] |= 1 << (module % 64);
            let stats = oracle_stats(&tables, &row);
            nodes.signal.push(stats.signal);
            nodes.transition.push(stats.transition);
            let cp_dist = config.controller().enable_wire_length(s.location());
            oracle.push_terms(leaf, s.cap(), cp_dist);
        }

        assert_eq!(objective.nodes.active, oracle.nodes.active);
        assert_eq!(
            stats_bits(&objective.node_stats()),
            stats_bits(&oracle.node_stats())
        );
        let expected_modules: Vec<ModuleSet> = module_of
            .iter()
            .map(|&module| ModuleSet::with_modules(m, [module]))
            .collect();
        assert_eq!(objective.node_modules(), expected_modules);
        for leaf in 0..n {
            let bits = |floor: [f64; 2]| floor.map(f64::to_bits);
            assert_eq!(
                bits(objective.leaf_floor(leaf)),
                bits(oracle.leaf_floor(leaf))
            );
        }
        let rows = |o: &GatedObjective<'_>| {
            let mut rows = gcr_cts::BoundColumns::default();
            for y in 0..n {
                rows.push(o.bound_terms(y));
            }
            rows
        };
        let (got_rows, want_rows) = (rows(&objective), rows(&oracle));
        let (mut got, mut want) = (vec![0.0; n], vec![0.0; n]);
        for center in 0..n {
            objective.bound_kernel(&objective.bound_terms(center), got_rows.rows(), &mut got);
            oracle.bound_kernel(&oracle.bound_terms(center), want_rows.rows(), &mut want);
            let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(to_bits(&got), to_bits(&want), "center {center}");
        }
    }

    /// Every node of a random merge sequence — leaves and merges, over
    /// one-, two- and three-word activation rows — carries the enable
    /// stats the per-pair oracle prices from the OR of its leaves' `bool`
    /// rows, bit for bit, in both objectives that keep bitset rows.
    #[test]
    fn merged_node_stats_match_the_per_pair_oracle() {
        let config = setup(1, 1).2;
        for (n, k, seed) in [(24, 8, 3), (40, 70, 9), (33, 130, 17)] {
            let model = CpuModel::builder(n)
                .instructions(k)
                .usage_fraction(0.2)
                .persistence(0.5)
                .seed(seed)
                .build()
                .unwrap();
            let tables = ActivityTables::scan(model.rtl(), &model.generate_stream(3_000));
            let sinks: Vec<Sink> = (0..n)
                .map(|i| {
                    let (x, y) = ((i * 3_571) % 9_000, (i * 7_919) % 9_000);
                    Sink::new(Point::new(x as f64, y as f64), 0.03)
                })
                .collect();
            let module_of: Vec<usize> = (0..n).collect();
            let mut gated = GatedObjective::new(
                config.tech(),
                config.controller(),
                &tables,
                &sinks,
                &module_of,
            );
            let mut driven = ActivityDrivenObjective::new(config.tech(), &tables, &sinks, 18_000.0);
            let rtl = tables.rtl();
            let mut rows: Vec<Vec<bool>> = (0..n)
                .map(|m| rtl.instruction_ids().map(|id| rtl.uses(id, m)).collect())
                .collect();
            let mut live: Vec<usize> = (0..n).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            while live.len() > 1 {
                let a = live.swap_remove(rng.gen_range(0..live.len()));
                let b = live.swap_remove(rng.gen_range(0..live.len()));
                let node = rows.len();
                let union: Vec<bool> = rows[a]
                    .iter()
                    .zip(&rows[b])
                    .map(|(&x, &y)| x || y)
                    .collect();
                let signal = oracle_stats(&tables, &union).signal;
                assert_eq!(gated.nodes.union_signal(a, b).to_bits(), signal.to_bits());
                gated.merge(a, b, node).unwrap();
                driven.merge(a, b, node).unwrap();
                rows.push(union);
                live.push(node);
            }
            let want: Vec<EnableStats> = rows.iter().map(|r| oracle_stats(&tables, r)).collect();
            assert_eq!(
                stats_bits(&gated.node_stats()),
                stats_bits(&want),
                "K = {k}"
            );
            assert_eq!(
                stats_bits(&driven.node_stats()),
                stats_bits(&want),
                "K = {k}"
            );
        }
    }

    #[test]
    fn node_stats_are_monotone_up_the_tree() {
        let (sinks, tables, config) = setup(10, 7);
        let routing = route_gated(&sinks, &tables, &config).unwrap();
        let parents = routing.topology.parents();
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = p {
                assert!(
                    routing.node_stats[*p].signal >= routing.node_stats[i].signal - 1e-12,
                    "P(EN) must grow toward the root"
                );
            }
        }
        // The root covers every module and is effectively always on.
        let root = routing.topology.root();
        assert!(routing.node_stats[root].signal > 0.99);
        assert_eq!(routing.node_modules[root].len(), 10);
    }

    #[test]
    fn mismatched_module_count_is_rejected() {
        let (sinks, tables, config) = setup(8, 1);
        let err = route_gated(&sinks[..4], &tables, &config).unwrap_err();
        assert!(matches!(err, RouteError::SinkModuleMismatch { .. }));
    }

    #[test]
    fn deterministic() {
        let (sinks, tables, config) = setup(9, 5);
        let a = route_gated(&sinks, &tables, &config).unwrap();
        let b = route_gated(&sinks, &tables, &config).unwrap();
        assert_eq!(a.topology, b.topology);
        assert_eq!(a.tree, b.tree);
    }

    #[test]
    fn reembed_with_sparser_gates_keeps_zero_skew() {
        let (sinks, tables, config) = setup(10, 11);
        let routing = route_gated(&sinks, &tables, &config).unwrap();
        let mut sparse = routing.assignment.clone();
        for i in 0..routing.topology.len() {
            if i % 2 == 0 {
                sparse.set(i, None);
            }
        }
        let reduced = routing.reembed(&sinks, sparse, &config).unwrap();
        let delay = reduced.tree.source_to_sink_delay(config.tech());
        assert!(reduced.tree.verify_skew(config.tech()) < 1e-9 * delay.max(1.0));
        assert!(reduced.tree.device_count() < routing.tree.device_count());
        // Stats carry over unchanged.
        assert_eq!(reduced.node_stats.len(), routing.node_stats.len());
    }

    #[test]
    fn mapped_routing_groups_a_modules_sinks() {
        // 12 sinks over 3 modules (4 each); a module's sinks share one
        // enable probability and the leaf stats must reflect the map.
        let side = 9_000.0;
        let sinks: Vec<Sink> = (0..12)
            .map(|i| {
                // Module m's sinks cluster around x = m * 3000.
                let m = i / 4;
                Sink::new(
                    Point::new(
                        1_000.0 + f64::from(m) * 3_000.0 + f64::from(i % 4) * 150.0,
                        4_000.0 + f64::from(i % 2) * 300.0,
                    ),
                    0.04,
                )
            })
            .collect();
        let module_of: Vec<usize> = (0..12).map(|i| i / 4).collect();
        let model = CpuModel::builder(3)
            .instructions(5)
            .seed(8)
            .build()
            .unwrap();
        let tables = ActivityTables::scan(model.rtl(), &model.generate_stream(1_000));
        let die = BBox::new(Point::new(0.0, 0.0), Point::new(side, side));
        let config = RouterConfig::new(Technology::default(), die);
        let routing = route_gated_mapped(&sinks, &module_of, &tables, &config).unwrap();
        // Leaf stats equal their module's stats.
        for (i, &m) in module_of.iter().enumerate() {
            let expect = tables
                .enable_stats(&gcr_activity::ModuleSet::with_modules(3, [m]))
                .signal;
            assert!(
                (routing.node_stats[i].signal - expect).abs() < 1e-12,
                "sink {i}"
            );
            assert!(routing.node_modules[i].contains(m));
            assert_eq!(routing.node_modules[i].len(), 1);
        }
        // The root owns all three modules and stays zero-skew.
        assert_eq!(routing.node_modules[routing.topology.root()].len(), 3);
        let tech = config.tech();
        let delay = routing.tree.source_to_sink_delay(tech);
        assert!(routing.tree.verify_skew(tech) <= 1e-9 * delay.max(1.0));
        // Bad maps are rejected.
        assert!(matches!(
            route_gated_mapped(&sinks, &[0; 5], &tables, &config),
            Err(RouteError::SinkModuleMismatch { .. })
        ));
        assert!(matches!(
            route_gated_mapped(&sinks, &[7; 12], &tables, &config),
            Err(RouteError::SinkModuleMismatch { .. })
        ));
    }

    #[test]
    fn config_builders() {
        let die = BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let cfg = RouterConfig::new(Technology::default(), die)
            .with_source(Point::new(0.0, 0.0))
            .with_controller(ControllerPlan::distributed(die, 1));
        assert_eq!(cfg.source(), Point::new(0.0, 0.0));
        assert_eq!(cfg.controller().num_controllers(), 4);
        assert_eq!(cfg.die(), die);
    }
}
