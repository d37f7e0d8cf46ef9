use gcr_activity::{InstructionStream, ModuleSet, Rtl};
use gcr_cts::ClockTree;
use gcr_rctree::Technology;

use crate::ControllerPlan;

/// Window length (cycles) of [`SimulationReport::window_trace`].
pub const WINDOW: usize = 256;

/// Cycle-accurate energy accounting from replaying an instruction stream
/// through a gated clock tree.
#[derive(Clone, Debug, PartialEq)]
pub struct SimulationReport {
    /// Cycles simulated.
    pub cycles: usize,
    /// Per-window average switched capacitance (clock + control, pF per
    /// cycle) over consecutive windows of [`WINDOW`] cycles — the
    /// power-over-time trace that makes program phases visible. The last
    /// window may be shorter.
    pub window_trace: Vec<f64>,
    /// Average clock-tree switched capacitance per cycle (pF) — the
    /// simulated counterpart of the analytic `W(T)`.
    pub clock_switched_cap: f64,
    /// Average controller-tree switched capacitance per cycle boundary
    /// (pF) — the simulated counterpart of `W(S)`.
    pub control_switched_cap: f64,
    /// Sum of the two.
    pub total_switched_cap: f64,
    /// Per-gate fraction of cycles its enable was on (diagnostics).
    pub enable_duty: Vec<f64>,
}

/// Replays `stream` cycle by cycle through the gated tree: each cycle the
/// executing instruction activates its modules, every enable becomes the
/// OR over its subtree, clock capacitance switches wherever the nearest
/// controlled gate at-or-above is enabled, and enable wires switch at
/// cycle boundaries where their value changes.
///
/// Because the analytic evaluator
/// ([`evaluate_with_mask`](crate::evaluate_with_mask)) weights the same
/// capacitances with probabilities *measured from the same stream*, the
/// simulated averages must equal the analytic report **exactly** (up to
/// f64 summation error) — the strongest possible end-to-end check of the
/// paper's probabilistic machinery, enforced in `tests/simulation.rs`.
///
/// Every enable, and so every cycle's clock energy, is a function of the
/// executing instruction alone (§3 of the paper). Both are therefore
/// computed once per *distinct* instruction, on its first occurrence, and
/// each cycle only adds the memoised clock energy and walks the enables
/// that differ from the previous cycle's. The additions happen in the
/// same order as a naive per-cycle replay, so the result is bit-for-bit
/// the same. Cost: O(B·⌈n/64⌉ + K'·n·⌈M/64⌉) for B cycles, n nodes, K'
/// distinct instructions and M modules, with K'·n bits of memo.
///
/// `node_modules[i]` is the module set under topology node `i` and
/// `controlled[i]` whether the gate on edge `i` keeps its enable wire (as
/// produced by routing + reduction).
///
/// # Panics
///
/// Panics if the per-node vectors do not cover the tree, the stream is
/// over a different module universe, or the stream executes an
/// instruction outside `rtl`.
#[must_use]
pub fn simulate_stream(
    tree: &ClockTree,
    node_modules: &[ModuleSet],
    controlled: &[bool],
    rtl: &Rtl,
    stream: &InstructionStream,
    controller: &ControllerPlan,
    tech: &Technology,
) -> SimulationReport {
    let n = tree.len();
    assert_eq!(node_modules.len(), n, "module sets must cover every node");
    assert_eq!(controlled.len(), n, "controlled mask must cover every node");
    let CapInventory {
        cap_here,
        root_pin,
        star_cap,
    } = CapInventory::new(tree, controlled, controller, tech);

    // Nodes whose enable wire carries capacitance, one bit per node.
    let words = n.div_ceil(64);
    let mut star_mask = vec![0u64; words];
    for (i, &cap) in star_cap.iter().enumerate() {
        if cap > 0.0 {
            star_mask[i / 64] |= 1 << (i % 64);
        }
    }

    // Per-instruction memo, one slot per distinct instruction in order of
    // first occurrence: the enable bitset (`words` u64s at
    // `slot * words`), the cycle's clock energy and the cycle count.
    let num_instructions = rtl.num_instructions();
    let mut slot_of: Vec<Option<usize>> = vec![None; num_instructions];
    let mut slot_enables: Vec<u64> = Vec::new();
    let mut slot_clock: Vec<f64> = Vec::new();
    let mut slot_cycles: Vec<usize> = Vec::new();
    let mut live = vec![true; n];

    let mut clock_energy = 0.0f64;
    let mut control_energy = 0.0f64;
    let mut prev_slot: Option<usize> = None;
    let mut window_trace = Vec::with_capacity(stream.len().div_ceil(WINDOW));
    let mut window_energy = 0.0f64;
    let mut window_cycles = 0usize;

    for &instr in stream.instructions() {
        let k = instr.index();
        assert!(
            k < num_instructions,
            "instruction {instr} outside the rtl ({num_instructions} instructions)"
        );
        let slot = *slot_of[k].get_or_insert_with(|| {
            // Enable of every node: does the instruction touch its subtree?
            let base = slot_enables.len();
            slot_enables.resize(base + words, 0);
            for (i, set) in node_modules.iter().enumerate() {
                if rtl.activates(instr, set) {
                    slot_enables[base + i / 64] |= 1 << (i % 64);
                }
            }
            // Domain per node: nearest controlled gate at-or-above is on.
            // Root-to-leaf order = descending index.
            for i in (0..n).rev() {
                let id = tree.id(i);
                let node = tree.node(id);
                let gated_here = controlled[i] && node.device().is_some();
                let upstream = node.parent().is_none_or(|p| live[p.index()]);
                // The gate only passes the clock when upstream delivers it
                // AND its own enable is on. Upstream of the root gate the
                // source always runs.
                live[i] = upstream && (!gated_here || bit(&slot_enables[base..], i));
            }
            let mut cycle_energy = root_pin; // the source side always switches
            for i in 0..n {
                if live[i] {
                    cycle_energy += cap_here[i];
                }
            }
            slot_clock.push(cycle_energy);
            slot_cycles.push(0);
            slot_clock.len() - 1
        });
        slot_cycles[slot] += 1;
        let mut cycle_energy = slot_clock[slot];
        clock_energy += cycle_energy;
        if let Some(prev) = prev_slot.filter(|&p| p != slot) {
            // Enable wires toggle where the two enable vectors differ;
            // walk them in ascending node order.
            let before = &slot_enables[prev * words..][..words];
            let after = &slot_enables[slot * words..][..words];
            for (w, ((a, b), mask)) in before.iter().zip(after).zip(&star_mask).enumerate() {
                let mut toggled = (a ^ b) & mask;
                while toggled != 0 {
                    let i = w * 64 + toggled.trailing_zeros() as usize;
                    toggled &= toggled - 1;
                    control_energy += star_cap[i];
                    cycle_energy += star_cap[i];
                }
            }
        }
        prev_slot = Some(slot);
        window_energy += cycle_energy;
        window_cycles += 1;
        if window_cycles == WINDOW {
            window_trace.push(window_energy / WINDOW as f64);
            window_energy = 0.0;
            window_cycles = 0;
        }
    }
    if window_cycles > 0 {
        window_trace.push(window_energy / window_cycles as f64);
    }

    // Cycles with each enable on, summed over the instructions that set it.
    let mut on_cycles = vec![0usize; n];
    for (slot, &cycles) in slot_cycles.iter().enumerate() {
        let row = &slot_enables[slot * words..][..words];
        for (i, on) in on_cycles.iter_mut().enumerate() {
            if bit(row, i) {
                *on += cycles;
            }
        }
    }

    let b = stream.len() as f64;
    let clock = clock_energy / b;
    let control = control_energy / (b - 1.0);
    SimulationReport {
        cycles: stream.len(),
        window_trace,
        clock_switched_cap: clock,
        control_switched_cap: control,
        total_switched_cap: clock + control,
        enable_duty: on_cycles.iter().map(|&k| k as f64 / b).collect(),
    }
}

/// Bit `i` of a bitset stored in `u64` words.
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// Static capacitance inventory per node, the same decomposition as the
/// analytic evaluator.
struct CapInventory {
    /// Edge wire + sink load + children's gate pins.
    cap_here: Vec<f64>,
    /// Input pin of the root gate, which the source always drives.
    root_pin: f64,
    /// Control-wire capacitance per controlled gate (0 elsewhere).
    star_cap: Vec<f64>,
}

impl CapInventory {
    fn new(
        tree: &ClockTree,
        controlled: &[bool],
        controller: &ControllerPlan,
        tech: &Technology,
    ) -> Self {
        let c = tech.unit_cap();
        let cap_here = (0..tree.len())
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
        let root_pin = tree
            .node(tree.root())
            .device()
            .map_or(0.0, |d| d.input_cap());
        let star_cap = (0..tree.len())
            .map(|i| {
                let id = tree.id(i);
                match (controlled[i], tree.node(id).device()) {
                    (true, Some(d)) => {
                        let len = controller.enable_wire_length(tree.gate_location(id));
                        tech.control_unit_cap() * len + d.input_cap()
                    }
                    _ => 0.0,
                }
            })
            .collect();
        Self {
            cap_here,
            root_pin,
            star_cap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_with_mask, route_gated, GatedRouting, RouterConfig};
    use gcr_activity::{ActivityTables, CpuModel};
    use gcr_cts::Sink;
    use gcr_geometry::{BBox, Point};
    use proptest::prelude::*;

    /// The naive per-cycle replay — every enable and every clock domain
    /// recomputed each cycle — kept as the oracle for [`simulate_stream`].
    fn simulate_per_cycle(
        tree: &ClockTree,
        node_modules: &[ModuleSet],
        controlled: &[bool],
        rtl: &Rtl,
        stream: &InstructionStream,
        controller: &ControllerPlan,
        tech: &Technology,
    ) -> SimulationReport {
        let n = tree.len();
        let CapInventory {
            cap_here,
            root_pin,
            star_cap,
        } = CapInventory::new(tree, controlled, controller, tech);

        let mut clock_energy = 0.0f64;
        let mut control_energy = 0.0f64;
        let mut on_cycles = vec![0usize; n];
        let mut prev_enable: Option<Vec<bool>> = None;
        let mut window_trace = Vec::with_capacity(stream.len().div_ceil(WINDOW));
        let mut window_energy = 0.0f64;
        let mut window_cycles = 0usize;

        for &instr in stream.instructions() {
            // Enable of every node: does the instruction touch its subtree?
            let enables: Vec<bool> = (0..n)
                .map(|i| rtl.activates(instr, &node_modules[i]))
                .collect();
            // Domain per node: nearest controlled gate at-or-above is on.
            // Root-to-leaf order = descending index.
            let mut live = vec![true; n];
            for i in (0..n).rev() {
                let id = tree.id(i);
                let node = tree.node(id);
                let gated_here = controlled[i] && node.device().is_some();
                let upstream = node.parent().is_none_or(|p| live[p.index()]);
                live[i] = if gated_here {
                    // The gate only passes the clock when upstream delivers it
                    // AND its own enable is on. Upstream of the root gate the
                    // source always runs.
                    upstream && enables[i]
                } else {
                    upstream
                };
            }
            let mut cycle_energy = root_pin; // the source side always switches
            for i in 0..n {
                if live[i] {
                    cycle_energy += cap_here[i];
                }
                if enables[i] {
                    on_cycles[i] += 1;
                }
            }
            clock_energy += cycle_energy;
            if let Some(prev) = &prev_enable {
                for i in 0..n {
                    if star_cap[i] > 0.0 && prev[i] != enables[i] {
                        control_energy += star_cap[i];
                        cycle_energy += star_cap[i];
                    }
                }
            }
            prev_enable = Some(enables);
            window_energy += cycle_energy;
            window_cycles += 1;
            if window_cycles == WINDOW {
                window_trace.push(window_energy / WINDOW as f64);
                window_energy = 0.0;
                window_cycles = 0;
            }
        }
        if window_cycles > 0 {
            window_trace.push(window_energy / window_cycles as f64);
        }

        let b = stream.len() as f64;
        let clock = clock_energy / b;
        let control = control_energy / (b - 1.0);
        SimulationReport {
            cycles: stream.len(),
            window_trace,
            clock_switched_cap: clock,
            control_switched_cap: control,
            total_switched_cap: clock + control,
            enable_duty: on_cycles.iter().map(|&k| k as f64 / b).collect(),
        }
    }

    const DIE: f64 = 15_000.0;

    /// Routes `points` (one module per sink) with tables scanned from
    /// `stream`.
    fn routed(points: &[(f64, f64)], rtl: &Rtl, stream: &InstructionStream) -> GatedRouting {
        let sinks: Vec<Sink> = points
            .iter()
            .map(|&(x, y)| Sink::new(Point::new(x, y), 0.04))
            .collect();
        let tables = ActivityTables::scan(rtl, stream);
        let die = BBox::new(Point::ORIGIN, Point::new(DIE, DIE));
        route_gated(
            &sinks,
            &tables,
            &RouterConfig::new(Technology::default(), die),
        )
        .unwrap()
    }

    type Simulate = fn(
        &ClockTree,
        &[ModuleSet],
        &[bool],
        &Rtl,
        &InstructionStream,
        &ControllerPlan,
        &Technology,
    ) -> SimulationReport;

    /// Asserts the memoised simulation equals the per-cycle oracle bit
    /// for bit under the centralized and both distributed controllers.
    fn assert_matches_oracle(
        routing: &GatedRouting,
        mask: &[bool],
        rtl: &Rtl,
        stream: &InstructionStream,
    ) -> Result<SimulationReport, TestCaseError> {
        let tech = Technology::default();
        let die = BBox::new(Point::ORIGIN, Point::new(DIE, DIE));
        let mut last = None;
        for controller in [
            ControllerPlan::centralized(&die),
            ControllerPlan::distributed(die, 1),
            ControllerPlan::distributed(die, 2),
        ] {
            let [got, oracle] = [simulate_stream as Simulate, simulate_per_cycle].map(|simulate| {
                simulate(
                    &routing.tree,
                    &routing.node_modules,
                    mask,
                    rtl,
                    stream,
                    &controller,
                    &tech,
                )
            });
            prop_assert_eq!(&got, &oracle);
            for (a, b) in [
                (got.clock_switched_cap, oracle.clock_switched_cap),
                (got.control_switched_cap, oracle.control_switched_cap),
                (got.total_switched_cap, oracle.total_switched_cap),
            ] {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            last = Some(got);
        }
        Ok(last.unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn memoised_simulation_is_bit_identical_to_the_per_cycle_oracle(
            points in prop::collection::vec((0.0..DIE, 0.0..DIE), 2..80),
            instructions in 2usize..12,
            persistence_idx in 0usize..3,
            len in prop_oneof![2usize..3, 3usize..700],
            seed in 0u64..10_000,
            mask_draws in prop::collection::vec(0.0..1.0f64, 1..97),
            density in 0.0..1.0f64,
        ) {
            let model = CpuModel::builder(points.len())
                .instructions(instructions)
                .persistence([0.0, 0.75, 0.95][persistence_idx])
                .seed(seed)
                .build()
                .unwrap();
            let stream = model.generate_stream(len);
            let routing = routed(&points, model.rtl(), &stream);
            // A control mask keeping about `density` of the gates.
            let mask: Vec<bool> = (0..routing.tree.len())
                .map(|i| mask_draws[i % mask_draws.len()] < density)
                .collect();
            assert_matches_oracle(&routing, &mask, model.rtl(), &stream)?;

            // One instruction repeated: no enable ever toggles.
            let first = stream.instructions()[0].index();
            let repeated = InstructionStream::from_indices(model.rtl(), vec![first; len]).unwrap();
            let sim = assert_matches_oracle(&routing, &mask, model.rtl(), &repeated)?;
            prop_assert_eq!(sim.control_switched_cap.to_bits(), 0.0f64.to_bits());

            // Two instructions alternating: every cycle boundary toggles.
            let other = (first + 1) % instructions;
            let alternating = InstructionStream::from_indices(
                model.rtl(),
                (0..len).map(|c| if c % 2 == 0 { first } else { other }),
            )
            .unwrap();
            assert_matches_oracle(&routing, &mask, model.rtl(), &alternating)?;
        }
    }

    #[test]
    #[should_panic(expected = "outside the rtl")]
    fn instruction_outside_the_rtl_panics() {
        let points = [(0.0, 0.0), (2_000.0, 0.0), (0.0, 2_000.0)];
        let small = CpuModel::builder(3)
            .instructions(2)
            .seed(5)
            .build()
            .unwrap();
        let large = CpuModel::builder(3)
            .instructions(6)
            .seed(5)
            .build()
            .unwrap();
        let routing = routed(&points, small.rtl(), &small.generate_stream(50));
        // Same module universe, but instruction I6 does not exist in `small`.
        let stream = InstructionStream::from_indices(large.rtl(), [0, 5, 1]).unwrap();
        let mask = vec![true; routing.tree.len()];
        let die = BBox::new(Point::ORIGIN, Point::new(DIE, DIE));
        let _ = simulate_stream(
            &routing.tree,
            &routing.node_modules,
            &mask,
            small.rtl(),
            &stream,
            &ControllerPlan::centralized(&die),
            &Technology::default(),
        );
    }

    #[test]
    fn simulation_matches_analytic_evaluation_exactly() {
        let tech = Technology::default();
        let n = 12;
        let sinks: Vec<Sink> = (0..n)
            .map(|i| {
                Sink::new(
                    Point::new(
                        (i as f64 * 3571.0) % 15_000.0,
                        (i as f64 * 6619.0) % 15_000.0,
                    ),
                    0.04,
                )
            })
            .collect();
        let model = CpuModel::builder(n)
            .instructions(8)
            .groups(4)
            .seed(23)
            .build()
            .unwrap();
        let stream = model.generate_stream(3_000);
        let tables = ActivityTables::scan(model.rtl(), &stream);
        let die = BBox::new(Point::ORIGIN, Point::new(15_000.0, 15_000.0));
        let config = RouterConfig::new(tech.clone(), die);
        let routing = route_gated(&sinks, &tables, &config).unwrap();

        // Any control mask: here, gates on a third of the edges.
        let mask: Vec<bool> = (0..routing.tree.len()).map(|i| i % 3 == 0).collect();
        let analytic = evaluate_with_mask(
            &routing.tree,
            &routing.node_stats,
            config.controller(),
            &tech,
            &mask,
        );
        let simulated = simulate_stream(
            &routing.tree,
            &routing.node_modules,
            &mask,
            model.rtl(),
            &stream,
            config.controller(),
            &tech,
        );
        assert_eq!(simulated.cycles, 3_000);
        assert!(
            (simulated.clock_switched_cap - analytic.clock_switched_cap).abs() < 1e-9,
            "clock: simulated {} vs analytic {}",
            simulated.clock_switched_cap,
            analytic.clock_switched_cap
        );
        assert!(
            (simulated.control_switched_cap - analytic.control_switched_cap).abs() < 1e-9,
            "control: simulated {} vs analytic {}",
            simulated.control_switched_cap,
            analytic.control_switched_cap
        );
        // Enable duty equals the measured signal probabilities.
        for i in 0..routing.tree.len() {
            assert!(
                (simulated.enable_duty[i] - routing.node_stats[i].signal).abs() < 1e-12,
                "node {i} duty"
            );
        }
    }

    #[test]
    fn window_trace_covers_the_stream_and_shows_phases() {
        let tech = Technology::default();
        let n = 16;
        let sinks: Vec<Sink> = (0..n)
            .map(|i| {
                Sink::new(
                    Point::new((i % 4) as f64 * 3_000.0, (i / 4) as f64 * 3_000.0),
                    0.05,
                )
            })
            .collect();
        // Strongly phased workload: bursts of different instruction
        // classes produce visible power swings between windows.
        let model = CpuModel::builder(n)
            .instructions(8)
            .groups(4)
            .phases(2)
            .phase_length(600)
            .persistence(0.8)
            .seed(41)
            .build()
            .unwrap();
        let stream = model.generate_stream(4_000);
        let tables = ActivityTables::scan(model.rtl(), &stream);
        let die = BBox::new(Point::ORIGIN, Point::new(9_000.0, 9_000.0));
        let config = RouterConfig::new(tech.clone(), die);
        let routing = route_gated(&sinks, &tables, &config).unwrap();
        let mask = vec![true; routing.tree.len()];
        let sim = simulate_stream(
            &routing.tree,
            &routing.node_modules,
            &mask,
            model.rtl(),
            &stream,
            config.controller(),
            &tech,
        );
        assert_eq!(sim.window_trace.len(), 4_000usize.div_ceil(super::WINDOW));
        // The window means average (weighted by window lengths) to the
        // overall mean.
        let full_windows = 4_000 / super::WINDOW;
        let rem = 4_000 % super::WINDOW;
        let weighted: f64 = sim.window_trace[..full_windows]
            .iter()
            .map(|w| w * super::WINDOW as f64)
            .sum::<f64>()
            + sim.window_trace.last().unwrap() * rem as f64;
        // Windows accumulate raw per-cycle energy / B, while the report's
        // control average uses the B−1 cycle boundaries.
        let expected =
            sim.clock_switched_cap + sim.control_switched_cap * (4_000.0 - 1.0) / 4_000.0;
        assert!(
            (weighted / 4_000.0 - expected).abs() < 1e-9,
            "windows {} vs expected {expected}",
            weighted / 4_000.0
        );
        // Phased activity makes the trace actually move.
        let lo = sim
            .window_trace
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let hi = sim.window_trace.iter().copied().fold(0.0f64, f64::max);
        assert!(hi > lo * 1.05, "trace is flat: {lo}..{hi}");
    }

    #[test]
    fn fully_untied_simulation_is_all_cap_every_cycle() {
        let tech = Technology::default();
        let sinks = vec![
            Sink::new(Point::new(0.0, 0.0), 0.05),
            Sink::new(Point::new(2_000.0, 0.0), 0.05),
            Sink::new(Point::new(0.0, 2_000.0), 0.05),
        ];
        let model = CpuModel::builder(3)
            .instructions(4)
            .seed(9)
            .build()
            .unwrap();
        let stream = model.generate_stream(200);
        let tables = ActivityTables::scan(model.rtl(), &stream);
        let die = BBox::new(Point::ORIGIN, Point::new(2_000.0, 2_000.0));
        let config = RouterConfig::new(tech.clone(), die);
        let routing = route_gated(&sinks, &tables, &config).unwrap();
        let mask = vec![false; routing.tree.len()];
        let sim = simulate_stream(
            &routing.tree,
            &routing.node_modules,
            &mask,
            model.rtl(),
            &stream,
            config.controller(),
            &tech,
        );
        // Everything switches every cycle, nothing on the control side.
        let tree = &routing.tree;
        let mut inventory = tech.wire_cap(tree.total_wire_length());
        for i in 0..tree.num_sinks() {
            inventory += tree.sink_cap(i);
        }
        for (_, d) in tree.devices() {
            inventory += d.input_cap();
        }
        assert!((sim.clock_switched_cap - inventory).abs() < 1e-9);
        assert_eq!(sim.control_switched_cap, 0.0);
    }
}
