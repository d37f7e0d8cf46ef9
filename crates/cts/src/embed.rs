use gcr_geometry::Point;
use gcr_rctree::{Device, Technology};

use crate::tree::build_clock_tree;
use crate::{zero_skew_merge, ClockTree, CtsError, Sink, SubtreeState, TopoNode, Topology};

/// Which device (masking gate, buffer, or nothing) sits on each edge of a
/// [`Topology`].
///
/// Indexed by topology node: the entry for node `v_i` is the device at the
/// **top of edge `e_i`** (the wire from `v_i`'s parent down to `v_i`) —
/// the paper's "gate on edge `e_i`", controlled by enable `EN_i`. The
/// entry for the root is the optional device between the clock source and
/// the tree.
///
/// The gated router starts from [`DeviceAssignment::everywhere`] (a gate
/// on every edge, §1) and the gate-reduction heuristic clears entries
/// before re-running [`embed`].
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceAssignment {
    devices: Vec<Option<Device>>,
}

impl DeviceAssignment {
    /// No devices anywhere (a plain wire tree).
    #[must_use]
    pub fn none(topology: &Topology) -> Self {
        Self {
            devices: vec![None; topology.len()],
        }
    }

    /// `device` on every edge (and between the source and the root) — the
    /// paper's fully gated tree (§1) or fully buffered baseline (§5.1).
    #[must_use]
    pub fn everywhere(topology: &Topology, device: Device) -> Self {
        Self {
            devices: vec![Some(device); topology.len()],
        }
    }

    /// The device on the edge feeding node `index`, if any.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<Device> {
        self.devices[index]
    }

    /// Sets or clears the device on the edge feeding node `index`.
    pub fn set(&mut self, index: usize, device: Option<Device>) {
        self.devices[index] = device;
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the assignment covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Number of edges that carry a device.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.devices.iter().filter(|d| d.is_some()).count()
    }
}

/// Deferred-merge embedding of a fixed topology: the bottom-up pass
/// computes every node's merging region and zero-skew tap lengths under
/// the given per-edge device assignment; the top-down pass then places
/// each internal node at the point of its region closest to its parent
/// (the root goes to the point closest to `source`).
///
/// The result is a concrete [`ClockTree`] with per-edge *electrical*
/// lengths (≥ the placed Manhattan distance; the excess is wire snaking)
/// that is exactly zero-skew under the Elmore model.
///
/// # Errors
///
/// Returns [`CtsError::InvalidTopology`] when `sinks` does not match the
/// topology's leaf count, [`CtsError::AssignmentMismatch`] when the
/// assignment covers a different node count, and
/// [`CtsError::MergeRegionDisjoint`] when non-finite sink data makes a
/// zero-skew merge impossible.
///
/// Reports the embedding phases (`embed.bottom_up`, `embed.top_down`,
/// nested in `embed.run`) through [`Tracer::current`](gcr_trace::Tracer::current).
pub fn embed(
    topology: &Topology,
    sinks: &[Sink],
    tech: &Technology,
    assignment: &DeviceAssignment,
    source: Point,
) -> Result<ClockTree, CtsError> {
    embed_impl(topology, sinks, tech, assignment, source, None)
}

/// As [`embed`], but allows the embedder to **resize edge devices** within
/// `limits` to balance delays before resorting to wire snaking — the
/// paper's "gates … can be sized to adjust the phase delay of the clock
/// signal" (§1).
///
/// This matters most after gate reduction: with gates on some edges and
/// not others, sibling delays differ by whole gate stages, and matching
/// them with wire alone can multiply the tree's wirelength. The returned
/// tree's [`TreeNode::device`](crate::TreeNode::device) values reflect the
/// final sizes.
///
/// # Errors
///
/// Same as [`embed`].
pub fn embed_sized(
    topology: &Topology,
    sinks: &[Sink],
    tech: &Technology,
    assignment: &DeviceAssignment,
    source: Point,
    limits: crate::SizingLimits,
) -> Result<ClockTree, CtsError> {
    embed_impl(topology, sinks, tech, assignment, source, Some(limits))
}

fn embed_impl(
    topology: &Topology,
    sinks: &[Sink],
    tech: &Technology,
    assignment: &DeviceAssignment,
    source: Point,
    sizing: Option<crate::SizingLimits>,
) -> Result<ClockTree, CtsError> {
    let tracer = gcr_trace::Tracer::current();
    let _run = tracer.span("embed.run");
    if sinks.len() != topology.num_leaves() {
        return Err(CtsError::InvalidTopology {
            reason: format!(
                "topology has {} leaves but {} sinks were supplied",
                topology.num_leaves(),
                sinks.len()
            ),
        });
    }
    if assignment.len() != topology.len() {
        return Err(CtsError::AssignmentMismatch {
            assigned: assignment.len(),
            expected: topology.len(),
        });
    }

    let n = topology.len();
    // Bottom-up order is plain index order (children precede parents), so
    // states can be pushed sequentially — no Option wrapper, no clones.
    let mut states: Vec<SubtreeState> = Vec::with_capacity(n);
    let mut tap_lengths: Vec<(f64, f64)> = vec![(0.0, 0.0); n];
    // Final device of each edge; sizing may scale entries away from the
    // nominal assignment.
    let mut devices: Vec<Option<gcr_rctree::Device>> = (0..n).map(|i| assignment.get(i)).collect();

    // Bottom-up: merging regions, tap lengths, electrical state.
    let bottom_up_span = tracer.span("embed.bottom_up");
    for (i, node) in topology.bottom_up() {
        debug_assert_eq!(i, states.len());
        let state = match node {
            TopoNode::Leaf { sink } => {
                SubtreeState::leaf_with_device(&sinks[sink], assignment.get(i))
            }
            TopoNode::Internal { left, right } => {
                let mut a = states[left];
                let mut b = states[right];
                if let Some(limits) = sizing {
                    if crate::balance_devices(tech, &mut a, &mut b, &limits) {
                        devices[left] = a.edge_device;
                        devices[right] = b.edge_device;
                    }
                }
                let outcome = zero_skew_merge(tech, &a, &b)?;
                tap_lengths[i] = (outcome.ea, outcome.eb);
                outcome.gated_state(assignment.get(i))
            }
        };
        states.push(state);
    }
    drop(bottom_up_span);

    // Top-down: concrete locations.
    let top_down_span = tracer.span("embed.top_down");
    let mut locations: Vec<Point> = vec![Point::ORIGIN; n];
    let root = topology.root();
    locations[root] = states[root].ms.closest_point(source);
    // Children have smaller indices than parents, so a reverse index scan
    // visits parents first.
    for i in (0..n).rev() {
        if let TopoNode::Internal { left, right } = topology.node(i) {
            let p = locations[i];
            locations[left] = states[left].ms.closest_point(p);
            locations[right] = states[right].ms.closest_point(p);
        }
    }
    drop(top_down_span);
    tracer.counter("embed.nodes", n as f64);

    Ok(build_clock_tree(
        topology,
        sinks,
        &devices,
        &locations,
        &tap_lengths,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_geometry::Point;

    fn four_sinks() -> Vec<Sink> {
        vec![
            Sink::new(Point::new(0.0, 0.0), 0.05),
            Sink::new(Point::new(1000.0, 0.0), 0.05),
            Sink::new(Point::new(0.0, 1000.0), 0.05),
            Sink::new(Point::new(1000.0, 1000.0), 0.05),
        ]
    }

    fn balanced_topology() -> Topology {
        Topology::from_merges(4, &[(0, 1), (2, 3), (4, 5)]).unwrap()
    }

    #[test]
    fn plain_tree_is_zero_skew() {
        let tech = Technology::default();
        let topo = balanced_topology();
        let sinks = four_sinks();
        let tree = embed(
            &topo,
            &sinks,
            &tech,
            &DeviceAssignment::none(&topo),
            Point::new(500.0, 500.0),
        )
        .unwrap();
        assert!(tree.verify_skew(&tech) < 1e-9);
        assert_eq!(tree.num_sinks(), 4);
    }

    #[test]
    fn fully_gated_tree_is_zero_skew() {
        let tech = Technology::default();
        let topo = balanced_topology();
        let sinks = four_sinks();
        let gated = embed(
            &topo,
            &sinks,
            &tech,
            &DeviceAssignment::everywhere(&topo, tech.and_gate()),
            Point::new(500.0, 500.0),
        )
        .unwrap();
        assert!(gated.verify_skew(&tech) < 1e-9);
        // One gate per edge plus the source gate.
        assert_eq!(gated.device_count(), 7);
    }

    #[test]
    fn partially_gated_tree_is_zero_skew() {
        let tech = Technology::default();
        let topo = balanced_topology();
        let sinks = four_sinks();
        let mut a = DeviceAssignment::everywhere(&topo, tech.and_gate());
        a.set(0, None);
        a.set(4, None);
        a.set(6, None);
        let tree = embed(&topo, &sinks, &tech, &a, Point::new(500.0, 500.0)).unwrap();
        assert!(tree.verify_skew(&tech) < 1e-9);
        assert_eq!(tree.device_count(), 4);
    }

    #[test]
    fn sink_locations_are_respected() {
        let tech = Technology::default();
        let topo = balanced_topology();
        let sinks = four_sinks();
        let tree = embed(
            &topo,
            &sinks,
            &tech,
            &DeviceAssignment::none(&topo),
            Point::new(0.0, 0.0),
        )
        .unwrap();
        for (i, s) in sinks.iter().enumerate() {
            assert_eq!(tree.node(tree.sink_id(i)).location(), s.location());
        }
    }

    #[test]
    fn edges_cover_placed_distance() {
        let tech = Technology::default();
        let topo = balanced_topology();
        let sinks = four_sinks();
        let tree = embed(
            &topo,
            &sinks,
            &tech,
            &DeviceAssignment::none(&topo),
            Point::new(500.0, 500.0),
        )
        .unwrap();
        // Electrical length of each edge must be >= the Manhattan distance
        // between the placed endpoints (the excess is snaking).
        for id in tree.ids() {
            let node = tree.node(id);
            if let Some(p) = node.parent() {
                let dist = node.location().manhattan(tree.node(p).location());
                assert!(
                    node.electrical_length() >= dist - 1e-6,
                    "edge to {id:?}: electrical {} < placed {dist}",
                    node.electrical_length()
                );
            }
        }
    }

    #[test]
    fn single_sink_tree() {
        let tech = Technology::default();
        let topo = Topology::single_sink().unwrap();
        let sinks = vec![Sink::new(Point::new(7.0, 8.0), 0.02)];
        let tree = embed(
            &topo,
            &sinks,
            &tech,
            &DeviceAssignment::none(&topo),
            Point::ORIGIN,
        )
        .unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.node(tree.root()).location(), Point::new(7.0, 8.0));
    }

    #[test]
    fn mismatched_sinks_rejected() {
        let tech = Technology::default();
        let topo = balanced_topology();
        let sinks = vec![Sink::new(Point::ORIGIN, 0.05)];
        let err = embed(
            &topo,
            &sinks,
            &tech,
            &DeviceAssignment::none(&topo),
            Point::ORIGIN,
        )
        .unwrap_err();
        assert!(matches!(err, CtsError::InvalidTopology { .. }));
    }

    #[test]
    fn mismatched_assignment_rejected() {
        let tech = Technology::default();
        let topo = balanced_topology();
        let other = Topology::single_sink().unwrap();
        let err = embed(
            &topo,
            &four_sinks(),
            &tech,
            &DeviceAssignment::none(&other),
            Point::ORIGIN,
        )
        .unwrap_err();
        assert!(matches!(err, CtsError::AssignmentMismatch { .. }));
    }

    #[test]
    fn assignment_helpers() {
        let topo = balanced_topology();
        let mut a = DeviceAssignment::everywhere(&topo, Technology::default().and_gate());
        assert_eq!(a.device_count(), 7);
        a.set(4, None);
        assert_eq!(a.device_count(), 6);
        assert!(!a.is_empty());
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn gating_reduces_upstream_load_and_delay_variance() {
        // With heavy far-apart sinks, gating every edge shortens the
        // source-to-sink delay because the source drives only gate caps.
        let tech = Technology::default();
        let sinks: Vec<Sink> = (0..8)
            .map(|i| {
                Sink::new(
                    Point::new(f64::from(i % 4) * 30_000.0, f64::from(i / 4) * 30_000.0),
                    0.3,
                )
            })
            .collect();
        let topo = Topology::from_merges(
            8,
            &[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13)],
        )
        .unwrap();
        let src = Point::new(45_000.0, 15_000.0);
        let gated = embed(
            &topo,
            &sinks,
            &tech,
            &DeviceAssignment::everywhere(&topo, tech.and_gate()),
            src,
        )
        .unwrap();
        let plain = embed(&topo, &sinks, &tech, &DeviceAssignment::none(&topo), src).unwrap();
        assert!(gated.verify_skew(&tech) < 1e-6);
        assert!(plain.verify_skew(&tech) < 1e-6);
        assert!(
            gated.source_to_sink_delay(&tech) < plain.source_to_sink_delay(&tech),
            "gated {} >= plain {}",
            gated.source_to_sink_delay(&tech),
            plain.source_to_sink_delay(&tech)
        );
    }
}
