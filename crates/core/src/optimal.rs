use std::collections::HashMap;

use gcr_rctree::Technology;

use crate::{ControllerPlan, GatedRouting};

/// Exact, optimal choice of which gates keep their controller connection,
/// under untie semantics — the problem the paper's §4.3 rules approximate.
///
/// On a fixed fully gated tree, untying a gate changes nothing electrical;
/// it only moves the wires below it into the *domain* of the nearest
/// controlled ancestor (whose enable probability weights their switching)
/// and deletes one enable star wire. Total cost therefore decomposes over
/// the tree once the controlling domain is known, and the controlling
/// domain at any node is the enable probability of one of its ancestors —
/// at most `depth` distinct values. Dynamic programming over
/// `(node, controlling ancestor)` finds the global optimum in
/// O(N · depth) states:
///
/// ```text
/// cost(i, d) = min(  d·C_i^clk + Σ_child cost(child, d),             — untied
///                    star_i + P_i·C_i^clk + Σ_child cost(child, P_i)) — controlled
/// ```
///
/// where `C_i^clk` is the edge wire + node capacitance and `star_i` the
/// enable wire's switched capacitance. Returns the `controlled` mask for
/// [`evaluate_with_mask`](crate::evaluate_with_mask).
///
/// This is an *extension* beyond the paper (its rules R1–R3 are local
/// heuristics); `gcr experiment ablations` and `optimal_reduction` report
/// how much the exact optimum improves on them. The implementation is
/// fully iterative (two index sweeps), so tree depth only affects memory
/// (O(N · depth) table entries), never the stack.
#[must_use]
pub fn reduce_gates_optimal(
    routing: &GatedRouting,
    tech: &Technology,
    controller: &ControllerPlan,
) -> Vec<bool> {
    /// Sentinel "ancestor" for the free-running clock source (domain 1.0).
    const SOURCE: usize = usize::MAX;
    let tree = &routing.tree;
    let stats = &routing.node_stats;
    let n = tree.len();
    let c = tech.unit_cap();

    // Per-node clock capacitance in this node's domain: edge wire + sink
    // load + the input pins of the children's (always present) gates.
    let clock_cap: Vec<f64> = (0..n)
        .map(|i| {
            let node = tree.node(tree.id(i));
            let mut cap = c * node.electrical_length();
            if let Some(s) = node.sink() {
                cap += tree.sink_cap(s);
            }
            for &ch in node.children() {
                if let Some(d) = tree.node(ch).device() {
                    cap += d.input_cap();
                }
            }
            cap
        })
        .collect();

    // Switched capacitance of keeping node i's enable wire (infinite when
    // the edge carries no gate and thus cannot be controlled).
    let star_cost: Vec<f64> = (0..n)
        .map(|i| {
            let id = tree.id(i);
            match tree.node(id).device() {
                Some(d) => {
                    let len = controller.enable_wire_length(tree.gate_location(id));
                    (tech.control_unit_cap() * len + d.input_cap()) * stats[i].transition
                }
                None => f64::INFINITY,
            }
        })
        .collect();

    let domain_p = |ancestor: usize| -> f64 {
        if ancestor == SOURCE {
            1.0
        } else {
            stats[ancestor].signal
        }
    };

    // Pass 1 (top-down): the candidate controlling ancestors of each node.
    // Children have smaller indices than parents, so descending index
    // order visits parents first.
    let mut candidates: Vec<Vec<usize>> = vec![Vec::new(); n];
    let root = tree.root().index();
    candidates[root] = vec![SOURCE];
    for i in (0..n).rev() {
        let node = tree.node(tree.id(i));
        for &ch in node.children() {
            let mut list = candidates[i].clone();
            list.push(i);
            candidates[ch.index()] = list;
        }
    }

    // Pass 2 (bottom-up): cost(i, a) and the controlled decision, for
    // every candidate ancestor a of i. Ascending index order visits
    // children first.
    let mut cost: Vec<HashMap<usize, (f64, bool)>> = vec![HashMap::new(); n];
    for i in 0..n {
        let node = tree.node(tree.id(i));
        let children: Vec<usize> = node.children().iter().map(|ch| ch.index()).collect();
        // The controlled branch's subtree cost is ancestor-independent.
        let controlled_total = if star_cost[i].is_finite() {
            let mut v = star_cost[i] + stats[i].signal * clock_cap[i];
            for &ch in &children {
                v += cost[ch][&i].0;
            }
            v
        } else {
            f64::INFINITY
        };
        let cands = candidates[i].clone();
        for a in cands {
            let mut untied = domain_p(a) * clock_cap[i];
            for &ch in &children {
                untied += cost[ch][&a].0;
            }
            let entry = if controlled_total < untied {
                (controlled_total, true)
            } else {
                (untied, false)
            };
            cost[i].insert(a, entry);
        }
    }

    // Pass 3 (top-down): reconstruct the optimal mask.
    let mut mask = vec![false; n];
    let mut chosen_domain = vec![SOURCE; n];
    for i in (0..n).rev() {
        let a = chosen_domain[i];
        let (_, controlled) = cost[i][&a];
        mask[i] = controlled;
        let next = if controlled { i } else { a };
        for &ch in tree.node(tree.id(i)).children() {
            chosen_domain[ch.index()] = next;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        evaluate_with_mask, reduce_gates_untied, route_gated, ReductionParams, RouterConfig,
    };
    use gcr_activity::{ActivityTables, CpuModel};
    use gcr_cts::Sink;
    use gcr_geometry::{BBox, Point};

    fn setup(n: usize, seed: u64) -> (GatedRouting, RouterConfig) {
        let side = 20_000.0;
        let sinks: Vec<Sink> = (0..n)
            .map(|i| {
                Sink::new(
                    Point::new((i as f64 * 6151.0) % side, (i as f64 * 9011.0) % side),
                    0.04,
                )
            })
            .collect();
        let model = CpuModel::builder(n)
            .instructions(8)
            .groups(4)
            .seed(seed)
            .build()
            .unwrap();
        let tables = ActivityTables::scan(model.rtl(), &model.generate_stream(3_000));
        let die = BBox::new(Point::ORIGIN, Point::new(side, side));
        let config = RouterConfig::new(Technology::default(), die);
        let routing = route_gated(&sinks, &tables, &config).unwrap();
        (routing, config)
    }

    /// The DP optimum is never worse than any heuristic strength — and
    /// never worse than keeping or dropping everything.
    #[test]
    fn dp_dominates_the_heuristic_rules() {
        let tech = Technology::default();
        for seed in [3u64, 11, 29] {
            let (routing, config) = setup(24, seed);
            let eval = |mask: &[bool]| {
                evaluate_with_mask(
                    &routing.tree,
                    &routing.node_stats,
                    config.controller(),
                    &tech,
                    mask,
                )
                .total_switched_cap
            };
            let optimal = reduce_gates_optimal(&routing, &tech, config.controller());
            let opt_cost = eval(&optimal);
            let star = config.die().half_perimeter() / 8.0;
            for s in [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
                let mask = reduce_gates_untied(
                    &routing,
                    &tech,
                    &ReductionParams::from_strength_scaled(s, &tech, star),
                );
                assert!(
                    opt_cost <= eval(&mask) + 1e-9,
                    "seed {seed}: DP {opt_cost} worse than heuristic s={s} ({})",
                    eval(&mask)
                );
            }
            assert!(opt_cost <= eval(&vec![true; routing.tree.len()]) + 1e-9);
            assert!(opt_cost <= eval(&vec![false; routing.tree.len()]) + 1e-9);
        }
    }

    /// Exhaustive verification on tiny trees: the DP equals brute force
    /// over all 2^(2N-1) masks.
    #[test]
    fn dp_matches_brute_force_on_tiny_trees() {
        let tech = Technology::default();
        for seed in [5u64, 7] {
            let (routing, config) = setup(4, seed);
            let n = routing.tree.len(); // 7 nodes -> 128 masks
            let eval = |mask: &[bool]| {
                evaluate_with_mask(
                    &routing.tree,
                    &routing.node_stats,
                    config.controller(),
                    &tech,
                    mask,
                )
                .total_switched_cap
            };
            let mut best = f64::INFINITY;
            for bits in 0u32..(1 << n) {
                let mask: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
                best = best.min(eval(&mask));
            }
            let dp = eval(&reduce_gates_optimal(&routing, &tech, config.controller()));
            assert!(
                (dp - best).abs() < 1e-9,
                "seed {seed}: DP {dp} vs brute force {best}"
            );
        }
    }

    /// The root's enable has P = 1 and a zero-length star wire — the DP
    /// must never pay a positive star cost for a domain that is already 1.
    #[test]
    fn dp_unties_useless_always_on_gates() {
        let tech = Technology::default();
        let (routing, config) = setup(16, 13);
        let mask = reduce_gates_optimal(&routing, &tech, config.controller());
        let root = routing.tree.root().index();
        if routing.node_stats[root].signal >= 1.0 - 1e-12
            && routing.node_stats[root].transition > 0.0
        {
            assert!(!mask[root], "controlled root gate with P=1 saves nothing");
        }
    }

    /// Deterministic across runs.
    #[test]
    fn dp_is_deterministic() {
        let tech = Technology::default();
        let (routing, config) = setup(20, 41);
        let a = reduce_gates_optimal(&routing, &tech, config.controller());
        let b = reduce_gates_optimal(&routing, &tech, config.controller());
        assert_eq!(a, b);
    }
}
