use std::fmt;

use gcr_activity::EnableStats;
use gcr_cts::ClockTree;
use gcr_rctree::Technology;

use crate::ControllerPlan;

/// How the devices in a tree behave for power accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceRole {
    /// Masking AND gates: edges below a gate switch with `P(EN)`, and each
    /// gate needs an enable wire from its controller (switching with
    /// `P_tr(EN)`).
    Gate,
    /// Plain buffers: everything switches every cycle and no control
    /// routing exists (the §5.1 baseline).
    Buffer,
}

/// The switched-capacitance and area report of §5 — the quantities plotted
/// in Figures 3, 4 and 5.
///
/// All capacitances are in pF (per-cycle switching probability already
/// folded in), lengths in layout units, areas in λ².
#[derive(Clone, Debug, PartialEq)]
pub struct PowerReport {
    /// `W(T)` — switched capacitance of the clock tree (wires, sink loads,
    /// gate input pins), Equation (2) summed over the tree.
    pub clock_switched_cap: f64,
    /// `W(S)` — switched capacitance of the controller star routing.
    pub control_switched_cap: f64,
    /// `W = W(T) + W(S)`, the paper's objective.
    pub total_switched_cap: f64,
    /// Total electrical clock wire length.
    pub clock_wire_length: f64,
    /// Total enable star wire length.
    pub control_wire_length: f64,
    /// Clock wiring area.
    pub clock_wire_area: f64,
    /// Control wiring area.
    pub control_wire_area: f64,
    /// Total device (gate/buffer) area.
    pub device_area: f64,
    /// Clock + control + device area.
    pub total_area: f64,
    /// Number of devices in the tree.
    pub num_devices: usize,
    /// Elmore skew across sinks (ps) — should be ≈ 0.
    pub skew: f64,
    /// Source-to-sink Elmore delay (ps).
    pub delay: f64,
}

impl PowerReport {
    /// Dissipated power in µW at the technology's clock and supply.
    #[must_use]
    pub fn power_uw(&self, tech: &Technology) -> f64 {
        tech.power_uw(self.total_switched_cap)
    }
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "W(T)={:.3}pF W(S)={:.3}pF total={:.3}pF area={:.3}Mλ² gates={}",
            self.clock_switched_cap,
            self.control_switched_cap,
            self.total_switched_cap,
            self.total_area / 1e6,
            self.num_devices
        )
    }
}

/// Evaluates the switched capacitance and area of an embedded clock tree
/// (§2's `W = W(T) + W(S)` plus the area accounting of §5).
///
/// `node_stats[i]` must hold the enable statistics of topology node `i`
/// (`EnableStats::ALWAYS_ON` everywhere reproduces an ungated/buffered
/// tree). Under [`DeviceRole::Gate`], a wire switches with the signal
/// probability of the nearest gate at-or-above it, and every gate
/// contributes an enable star wire weighted by its transition
/// probability; under [`DeviceRole::Buffer`] everything switches each
/// cycle and no control routing exists.
///
/// Reports through [`Tracer::current`](gcr_trace::Tracer::current): a
/// span `evaluate.equation3` plus `evaluate.*` result counters.
///
/// # Panics
///
/// Panics if `node_stats.len() != tree.len()`.
#[must_use]
pub fn evaluate(
    tree: &ClockTree,
    node_stats: &[EnableStats],
    controller: &ControllerPlan,
    tech: &Technology,
    role: DeviceRole,
) -> PowerReport {
    let controlled = match role {
        DeviceRole::Gate => vec![true; tree.len()],
        DeviceRole::Buffer => vec![false; tree.len()],
    };
    evaluate_with_mask(tree, node_stats, controller, tech, &controlled)
}

/// As [`evaluate`], but with per-edge control: `controlled[i]` says whether
/// the device on edge `i` (if any) is an *enabled masking gate* — wired to
/// the controller and gating its subtree — or an always-on buffer (an AND
/// gate with its enable tied high). The §4.3 gate-reduction heuristic in
/// untie mode produces exactly such masks: reduced gates stay in place
/// electrically but lose their enable wire. Traces like [`evaluate`].
///
/// # Panics
///
/// Panics if `node_stats` or `controlled` do not cover every tree node.
#[must_use]
pub fn evaluate_with_mask(
    tree: &ClockTree,
    node_stats: &[EnableStats],
    controller: &ControllerPlan,
    tech: &Technology,
    controlled: &[bool],
) -> PowerReport {
    let tracer = gcr_trace::Tracer::current();
    let _span = tracer.span("evaluate.equation3");
    let w = evaluate_switched_cap(tree, node_stats, controller, tech, controlled);
    let mut device_area = 0.0;
    for (_, d) in tree.devices() {
        device_area += d.area();
    }

    let clock_len = tree.total_wire_length();
    let clock_wire_area = tech.wire_area(clock_len);
    let control_wire_area = tech.control_wire_area(w.control_wire_length);
    let (rc, sinks) = tree.to_rc_tree(tech);
    let analysis = rc.analyze();

    tracer.counter("evaluate.clock_switched_cap", w.clock);
    tracer.counter("evaluate.control_switched_cap", w.control);
    tracer.counter("evaluate.total_switched_cap", w.clock + w.control);
    tracer.counter("evaluate.num_devices", tree.device_count() as f64);

    PowerReport {
        clock_switched_cap: w.clock,
        control_switched_cap: w.control,
        total_switched_cap: w.clock + w.control,
        clock_wire_length: clock_len,
        control_wire_length: w.control_wire_length,
        clock_wire_area,
        control_wire_area,
        device_area,
        total_area: clock_wire_area + control_wire_area + device_area,
        num_devices: tree.device_count(),
        skew: analysis.skew(&sinks),
        delay: analysis.max_arrival(&sinks),
    }
}

/// The switched-capacitance half of a [`PowerReport`]: the paper's
/// objective without the area accounting and the Elmore analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SwitchedCap {
    /// `W(T)`, as [`PowerReport::clock_switched_cap`].
    pub clock: f64,
    /// `W(S)`, as [`PowerReport::control_switched_cap`].
    pub control: f64,
    /// Total enable star wire length, as
    /// [`PowerReport::control_wire_length`].
    pub control_wire_length: f64,
}

/// `W(T)` and `W(S)` of [`evaluate_with_mask`] alone, bit-identical to
/// its report's, for callers that need only the objective: it builds no
/// RC tree and runs no Elmore analysis. [`evaluate_with_mask`] calls it
/// for its switched-capacitance fields. Untraced.
///
/// # Panics
///
/// Panics if `node_stats` or `controlled` do not cover every tree node.
#[must_use]
pub fn evaluate_switched_cap(
    tree: &ClockTree,
    node_stats: &[EnableStats],
    controller: &ControllerPlan,
    tech: &Technology,
    controlled: &[bool],
) -> SwitchedCap {
    let mut w = SwitchedCap::default();
    for (_, edge) in edge_terms(tree, node_stats, controller, tech, controlled) {
        w.clock += edge.clock;
        if let Some((len, cap)) = edge.control {
            w.control_wire_length += len;
            w.control += cap;
        }
    }
    // The root's own device input pin is driven by the free-running source.
    if let Some(d) = tree.node(tree.root()).device() {
        w.clock += d.input_cap();
    }
    w
}

/// Switched capacitance attributed to one tree depth by
/// [`evaluate_breakdown`].
#[derive(Clone, Debug, PartialEq)]
pub struct LevelBreakdown {
    /// Distance from the root (root = 0).
    pub depth: usize,
    /// Edges at this depth.
    pub nodes: usize,
    /// Clock-tree switched capacitance of this depth (pF).
    pub clock_switched_cap: f64,
    /// Controller-tree switched capacitance of this depth (pF).
    pub control_switched_cap: f64,
}

/// Splits the switched capacitance of [`evaluate_with_mask`] by tree
/// depth — "where the power goes": trunk edges near the root switch at
/// P ≈ 1 but are few; leaf edges are many but well gated.
///
/// The per-depth rows sum exactly to the totals of the corresponding
/// [`evaluate_with_mask`] report (the root device's source-side pin is
/// attributed to depth 0).
///
/// # Panics
///
/// Panics if `node_stats` or `controlled` do not cover every tree node.
#[must_use]
pub fn evaluate_breakdown(
    tree: &ClockTree,
    node_stats: &[EnableStats],
    controller: &ControllerPlan,
    tech: &Technology,
    controlled: &[bool],
) -> Vec<LevelBreakdown> {
    let n = tree.len();
    let mut depth = vec![0usize; n];
    for idx in (0..n).rev() {
        if let Some(p) = tree.node(tree.id(idx)).parent() {
            depth[idx] = depth[p.index()] + 1;
        }
    }
    let max_depth = depth.iter().copied().max().unwrap_or(0);
    let mut rows: Vec<LevelBreakdown> = (0..=max_depth)
        .map(|d| LevelBreakdown {
            depth: d,
            nodes: 0,
            clock_switched_cap: 0.0,
            control_switched_cap: 0.0,
        })
        .collect();
    for (idx, edge) in edge_terms(tree, node_stats, controller, tech, controlled) {
        let row = &mut rows[depth[idx]];
        row.nodes += 1;
        row.clock_switched_cap += edge.clock;
        if let Some((_, cap)) = edge.control {
            row.control_switched_cap += cap;
        }
    }
    // The root device's input pin switches on the free-running source side.
    if let Some(d) = tree.node(tree.root()).device() {
        rows[0].clock_switched_cap += d.input_cap();
    }
    rows
}

/// One edge's share of Equation 3, as [`edge_terms`] yields it.
struct EdgeTerms {
    /// Clock switched capacitance: the edge's wire, the sink load at its
    /// foot and the input pins of the children's devices, at the signal
    /// probability of the nearest masking gate at or above the edge.
    clock: f64,
    /// For an enabled masking gate on the edge: its enable wire length
    /// and the control switched capacitance it adds.
    control: Option<(f64, f64)>,
}

/// The per-edge walk behind [`evaluate_with_mask`] and
/// [`evaluate_breakdown`]: every node's [`EdgeTerms`], in index order.
/// The root device's source-side input pin belongs to no edge; callers
/// add it.
///
/// # Panics
///
/// Panics if `node_stats` or `controlled` do not cover every tree node.
fn edge_terms<'a>(
    tree: &'a ClockTree,
    node_stats: &'a [EnableStats],
    controller: &'a ControllerPlan,
    tech: &'a Technology,
    controlled: &'a [bool],
) -> impl Iterator<Item = (usize, EdgeTerms)> + 'a {
    assert_eq!(
        node_stats.len(),
        tree.len(),
        "stats must cover every tree node"
    );
    assert_eq!(
        controlled.len(),
        tree.len(),
        "controlled mask must cover every tree node"
    );
    let n = tree.len();

    // The switching probability of each node's wire: the signal
    // probability of the nearest masking gate at-or-above the wire.
    let mut domain = vec![1.0f64; n];
    for idx in (0..n).rev() {
        let node = tree.node(tree.id(idx));
        let gated_here = controlled[idx] && node.device().is_some();
        domain[idx] = if gated_here {
            node_stats[idx].signal
        } else {
            match node.parent() {
                Some(p) => domain[p.index()],
                None => 1.0,
            }
        };
    }

    domain.into_iter().enumerate().map(move |(idx, dom)| {
        let id = tree.id(idx);
        let node = tree.node(id);
        // Wire of this edge plus the sink load at its foot…
        let mut cap_here = tech.unit_cap() * node.electrical_length();
        if let Some(s) = node.sink() {
            cap_here += tree.sink_cap(s);
        }
        // …plus the input pins of the children's edge devices, which hang
        // at this node (before the children's gates).
        for &ch in node.children() {
            if let Some(d) = tree.node(ch).device() {
                cap_here += d.input_cap();
            }
        }
        let control = match node.device() {
            Some(d) if controlled[idx] => {
                let len = controller.enable_wire_length(tree.gate_location(id));
                let cap =
                    (tech.control_unit_cap() * len + d.input_cap()) * node_stats[idx].transition;
                Some((len, cap))
            }
            _ => None,
        };
        let terms = EdgeTerms {
            clock: dom * cap_here,
            control,
        };
        (idx, terms)
    })
}

/// Evaluates a buffered (or plain) tree: always-on statistics, no control
/// routing — the paper's §5.1 baseline columns.
#[must_use]
pub fn evaluate_buffered(tree: &ClockTree, tech: &Technology) -> PowerReport {
    let stats = vec![EnableStats::ALWAYS_ON; tree.len()];
    let dummy = ControllerPlan::Centralized {
        location: gcr_geometry::Point::ORIGIN,
    };
    evaluate(tree, &stats, &dummy, tech, DeviceRole::Buffer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_cts::{build_buffered_tree, embed, DeviceAssignment, Sink, Topology};
    use gcr_geometry::{BBox, Point};

    fn sinks() -> Vec<Sink> {
        vec![
            Sink::new(Point::new(0.0, 0.0), 0.05),
            Sink::new(Point::new(2000.0, 0.0), 0.05),
            Sink::new(Point::new(0.0, 2000.0), 0.05),
            Sink::new(Point::new(2000.0, 2000.0), 0.05),
        ]
    }

    fn die() -> BBox {
        BBox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0))
    }

    fn gated_tree(tech: &Technology) -> gcr_cts::ClockTree {
        let topo = Topology::from_merges(4, &[(0, 1), (2, 3), (4, 5)]).unwrap();
        embed(
            &topo,
            &sinks(),
            tech,
            &DeviceAssignment::everywhere(&topo, tech.and_gate()),
            die().center(),
        )
        .unwrap()
    }

    fn uniform_stats(len: usize, signal: f64, transition: f64) -> Vec<EnableStats> {
        vec![EnableStats { signal, transition }; len]
    }

    #[test]
    fn buffered_report_counts_everything_once() {
        let tech = Technology::default();
        let tree = build_buffered_tree(&tech, &sinks(), die().center()).unwrap();
        let report = evaluate_buffered(&tree, &tech);
        assert_eq!(report.control_switched_cap, 0.0);
        assert_eq!(report.control_wire_length, 0.0);
        assert_eq!(report.num_devices, 7);
        // All wire cap + all sink loads + all buffer input caps except the
        // root's children... every buffer pin is counted exactly once.
        let expect =
            tech.wire_cap(tree.total_wire_length()) + 4.0 * 0.05 + 7.0 * tech.buffer().input_cap();
        assert!(
            (report.clock_switched_cap - expect).abs() < 1e-9,
            "got {}, expected {expect}",
            report.clock_switched_cap
        );
        assert!(report.skew < 1e-6);
        assert!(report.delay > 0.0);
        assert!(report.power_uw(&tech) > 0.0);
    }

    #[test]
    fn always_on_gated_equals_wire_total_like_buffered() {
        // With P = 1 everywhere, gating saves nothing on the clock tree.
        let tech = Technology::default();
        let tree = gated_tree(&tech);
        let stats = uniform_stats(tree.len(), 1.0, 0.0);
        let plan = ControllerPlan::centralized(&die());
        let report = evaluate(&tree, &stats, &plan, &tech, DeviceRole::Gate);
        let expect = tech.wire_cap(tree.total_wire_length())
            + 4.0 * 0.05
            + 7.0 * tech.and_gate().input_cap();
        assert!((report.clock_switched_cap - expect).abs() < 1e-9);
        // Zero transitions: control wires exist but never switch.
        assert_eq!(report.control_switched_cap, 0.0);
        assert!(report.control_wire_length > 0.0);
    }

    #[test]
    fn lower_activity_lowers_clock_cap() {
        let tech = Technology::default();
        let tree = gated_tree(&tech);
        let plan = ControllerPlan::centralized(&die());
        let hi = evaluate(
            &tree,
            &uniform_stats(tree.len(), 0.9, 0.0),
            &plan,
            &tech,
            DeviceRole::Gate,
        );
        let lo = evaluate(
            &tree,
            &uniform_stats(tree.len(), 0.3, 0.0),
            &plan,
            &tech,
            DeviceRole::Gate,
        );
        assert!(lo.clock_switched_cap < hi.clock_switched_cap);
    }

    #[test]
    fn transitions_charge_the_control_tree() {
        let tech = Technology::default();
        let tree = gated_tree(&tech);
        let plan = ControllerPlan::centralized(&die());
        let calm = evaluate(
            &tree,
            &uniform_stats(tree.len(), 0.5, 0.05),
            &plan,
            &tech,
            DeviceRole::Gate,
        );
        let busy = evaluate(
            &tree,
            &uniform_stats(tree.len(), 0.5, 0.5),
            &plan,
            &tech,
            DeviceRole::Gate,
        );
        assert!(busy.control_switched_cap > calm.control_switched_cap);
        assert_eq!(busy.clock_switched_cap, calm.clock_switched_cap);
        // Hand check: every gate wire has the same stats; control wires use
        // the (narrower) control-wire capacitance.
        let c_ctl = tech.control_unit_cap();
        let cg = tech.and_gate().input_cap();
        let expect: f64 = tree
            .devices()
            .map(|(id, _)| (c_ctl * plan.enable_wire_length(tree.gate_location(id)) + cg) * 0.5)
            .sum();
        assert!((busy.control_switched_cap - expect).abs() < 1e-9);
    }

    #[test]
    fn ungated_wires_inherit_parent_domain() {
        let tech = Technology::default();
        let topo = Topology::from_merges(4, &[(0, 1), (2, 3), (4, 5)]).unwrap();
        // Gate only the two mid-level edges (nodes 4 and 5).
        let mut assignment = DeviceAssignment::none(&topo);
        assignment.set(4, Some(tech.and_gate()));
        assignment.set(5, Some(tech.and_gate()));
        let tree = embed(&topo, &sinks(), &tech, &assignment, die().center()).unwrap();
        let mut stats = uniform_stats(tree.len(), 1.0, 0.0);
        stats[4] = EnableStats {
            signal: 0.25,
            transition: 0.0,
        };
        stats[5] = EnableStats {
            signal: 0.75,
            transition: 0.0,
        };
        let plan = ControllerPlan::centralized(&die());
        let report = evaluate(&tree, &stats, &plan, &tech, DeviceRole::Gate);
        // Leaves 0, 1 live in node 4's domain (0.25); leaves 2, 3 in node
        // 5's (0.75); edges 4, 5 in their own; the root edge in domain 1.
        let c = tech.unit_cap();
        let e = |i: usize| tree.node(tree.id(i)).electrical_length();
        let cg = tech.and_gate().input_cap();
        let expect = 0.25 * (c * (e(0) + e(1)) + 0.10)
            + 0.75 * (c * (e(2) + e(3)) + 0.10)
            + 0.25 * (c * e(4))
            + 0.75 * (c * e(5))
            + 1.0 * (c * e(6) + 2.0 * cg);
        assert!(
            (report.clock_switched_cap - expect).abs() < 1e-9,
            "got {} expected {expect}",
            report.clock_switched_cap
        );
    }

    #[test]
    #[should_panic(expected = "stats must cover")]
    fn stats_length_mismatch_panics() {
        let tech = Technology::default();
        let tree = gated_tree(&tech);
        let plan = ControllerPlan::centralized(&die());
        let _ = evaluate(&tree, &[], &plan, &tech, DeviceRole::Gate);
    }

    #[test]
    fn display_is_nonempty() {
        let tech = Technology::default();
        let tree = gated_tree(&tech);
        let report = evaluate_buffered(&tree, &tech);
        assert!(format!("{report}").contains("W(T)"));
    }

    #[test]
    fn breakdown_sums_to_the_totals() {
        let tech = Technology::default();
        let tree = gated_tree(&tech);
        let stats = uniform_stats(tree.len(), 0.5, 0.2);
        let plan = ControllerPlan::centralized(&die());
        // A mixed mask.
        let mask: Vec<bool> = (0..tree.len()).map(|i| i % 2 == 0).collect();
        let total = evaluate_with_mask(&tree, &stats, &plan, &tech, &mask);
        let rows = evaluate_breakdown(&tree, &stats, &plan, &tech, &mask);
        let clock: f64 = rows.iter().map(|r| r.clock_switched_cap).sum();
        let control: f64 = rows.iter().map(|r| r.control_switched_cap).sum();
        let nodes: usize = rows.iter().map(|r| r.nodes).sum();
        assert!((clock - total.clock_switched_cap).abs() < 1e-12);
        assert!((control - total.control_switched_cap).abs() < 1e-12);
        assert_eq!(nodes, tree.len());
        // Balanced 4-sink tree: depths 0..2.
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].nodes, 1);
        assert_eq!(rows[2].nodes, 4);
    }
}
