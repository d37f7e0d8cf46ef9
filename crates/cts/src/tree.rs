use std::fmt;

use gcr_geometry::Point;
use gcr_rctree::{Device, NodeId, RcTree, Technology};

use crate::{Sink, TopoNode, Topology};

/// Identifier of a node in a [`ClockTree`]. Identical to the node's index
/// in the [`Topology`](crate::Topology) the tree was embedded from:
/// sinks are `0..N`, internal nodes `N..2N-1`, the root is last.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TreeId(pub(crate) usize);

impl TreeId {
    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TreeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Inline child storage of a binary clock-tree node: at most two ids and
/// a length, so a [`TreeNode`] is one flat `Copy` value with no per-node
/// heap vector behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Children {
    ids: [TreeId; 2],
    len: u8,
}

impl Children {
    const NONE: Self = Self {
        ids: [TreeId(0), TreeId(0)],
        len: 0,
    };

    fn pair(left: TreeId, right: TreeId) -> Self {
        Self {
            ids: [left, right],
            len: 2,
        }
    }

    /// # Panics
    ///
    /// Panics when `children` holds more than two entries — clock-tree
    /// nodes are at most binary.
    fn from_slice(children: &[usize]) -> Self {
        assert!(
            children.len() <= 2,
            "clock-tree nodes are at most binary, got {} children",
            children.len()
        );
        let mut out = Self::NONE;
        for (slot, &c) in out.ids.iter_mut().zip(children) {
            *slot = TreeId(c);
        }
        out.len = children.len() as u8;
        out
    }

    fn as_slice(&self) -> &[TreeId] {
        &self.ids[..self.len as usize]
    }
}

/// One embedded clock-tree node: a placed location, the wire to its
/// parent, and the optional masking gate or buffer at the top of that
/// wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeNode {
    parent: Option<TreeId>,
    children: Children,
    location: Point,
    electrical_length: f64,
    device: Option<Device>,
    sink: Option<usize>,
}

impl TreeNode {
    /// The parent node, or `None` for the root.
    #[must_use]
    pub fn parent(&self) -> Option<TreeId> {
        self.parent
    }

    /// The children (empty for sinks, two for internal nodes).
    #[must_use]
    pub fn children(&self) -> &[TreeId] {
        self.children.as_slice()
    }

    /// The placed layout location.
    #[must_use]
    pub fn location(&self) -> Point {
        self.location
    }

    /// Electrical wire length of the edge to the parent (layout units).
    /// At least the Manhattan distance between the endpoints; the excess
    /// is snaked wire. Zero for the root.
    #[must_use]
    pub fn electrical_length(&self) -> f64 {
        self.electrical_length
    }

    /// The masking gate or buffer at the **top of this node's parent
    /// edge** (for the root: between the clock source and the tree), if
    /// any. This is the paper's "gate on edge `e_i`" controlled by `EN_i`.
    #[must_use]
    pub fn device(&self) -> Option<Device> {
        self.device
    }

    /// The sink index this leaf is bound to, or `None` for internal nodes.
    #[must_use]
    pub fn sink(&self) -> Option<usize> {
        self.sink
    }

    /// Whether the node is a leaf (sink).
    #[must_use]
    pub fn is_sink(&self) -> bool {
        self.sink.is_some()
    }
}

/// A fully embedded clock tree: topology + placement + wire lengths +
/// per-edge devices. Produced by [`embed`](crate::embed).
///
/// The tree knows nothing about gating probabilities — it is pure
/// geometry and electricity. Switched-capacitance evaluation (weighting
/// each edge by its enable probability) lives in `gcr-core`.
#[derive(Clone, Debug, PartialEq)]
pub struct ClockTree {
    nodes: Vec<TreeNode>,
    sink_caps: Vec<f64>,
}

pub(crate) fn build_clock_tree(
    topology: &Topology,
    sinks: &[Sink],
    devices: &[Option<Device>],
    locations: &[Point],
    tap_lengths: &[(f64, f64)],
) -> ClockTree {
    let parents = topology.parents();
    let n = topology.len();
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let (children, sink) = match topology.node(i) {
            TopoNode::Leaf { sink } => (Children::NONE, Some(sink)),
            TopoNode::Internal { left, right } => {
                (Children::pair(TreeId(left), TreeId(right)), None)
            }
        };
        // The edge length to the parent is recorded on the parent's tap
        // lengths: (ea, eb) for (left, right).
        let electrical_length = match parents[i] {
            Some(p) => {
                let (ea, eb) = tap_lengths[p];
                match topology.node(p) {
                    TopoNode::Internal { left, .. } if left == i => ea,
                    _ => eb,
                }
            }
            None => 0.0,
        };
        nodes.push(TreeNode {
            parent: parents[i].map(TreeId),
            children,
            location: locations[i],
            electrical_length,
            device: devices[i],
            sink,
        });
    }
    ClockTree {
        nodes,
        sink_caps: sinks.iter().map(Sink::cap).collect(),
    }
}

/// A [`TreeNode`] with its fields exposed: the exchange format of
/// [`ClockTree::to_raw_parts`] / [`ClockTree::from_raw_parts`]. Indices are
/// plain `usize` node positions.
#[derive(Clone, Debug, PartialEq)]
pub struct RawTreeNode {
    /// Parent node index, `None` for the root.
    pub parent: Option<usize>,
    /// Child node indices (empty for sinks, two for internal nodes).
    pub children: Vec<usize>,
    /// Placed layout location.
    pub location: Point,
    /// Electrical length of the edge to the parent.
    pub electrical_length: f64,
    /// Device at the top of the parent edge.
    pub device: Option<Device>,
    /// Bound sink index, `None` for internal nodes.
    pub sink: Option<usize>,
}

impl ClockTree {
    /// Total number of nodes (`2·N − 1`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Decomposes the tree into raw nodes and sink capacitances — the
    /// inverse of [`ClockTree::from_raw_parts`].
    #[must_use]
    pub fn to_raw_parts(&self) -> (Vec<RawTreeNode>, Vec<f64>) {
        let nodes = self
            .nodes
            .iter()
            .map(|n| RawTreeNode {
                parent: n.parent.map(TreeId::index),
                children: n
                    .children
                    .as_slice()
                    .iter()
                    .copied()
                    .map(TreeId::index)
                    .collect(),
                location: n.location,
                electrical_length: n.electrical_length,
                device: n.device,
                sink: n.sink,
            })
            .collect();
        (nodes, self.sink_caps.clone())
    }

    /// Reassembles a tree from raw nodes and sink capacitances.
    ///
    /// **No structural validation is performed** — out-of-range indices
    /// aside, any shape is accepted, including shapes that violate the
    /// embedding invariants (multiple roots, cycles, negative snaking,
    /// skewed delays). This is deliberate: external importers and tests
    /// construct candidate trees here and run `gcr-verify` over them to
    /// find out what is wrong.
    ///
    /// # Panics
    ///
    /// Panics if a parent, child or sink index is out of range, or if a
    /// node lists more than two children (clock-tree nodes are at most
    /// binary).
    #[must_use]
    pub fn from_raw_parts(nodes: Vec<RawTreeNode>, sink_caps: Vec<f64>) -> Self {
        let n = nodes.len();
        let nodes = nodes
            .into_iter()
            .map(|r| {
                assert!(r.parent.is_none_or(|p| p < n), "parent index out of range");
                assert!(
                    r.children.iter().all(|&c| c < n),
                    "child index out of range"
                );
                assert!(
                    r.sink.is_none_or(|s| s < sink_caps.len()),
                    "sink index out of range"
                );
                TreeNode {
                    parent: r.parent.map(TreeId),
                    children: Children::from_slice(&r.children),
                    location: r.location,
                    electrical_length: r.electrical_length,
                    device: r.device,
                    sink: r.sink,
                }
            })
            .collect();
        ClockTree { nodes, sink_caps }
    }

    /// Whether the tree has no nodes (never true for an embedded tree).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of sinks.
    #[must_use]
    pub fn num_sinks(&self) -> usize {
        self.sink_caps.len()
    }

    /// The root id (always the last node).
    #[must_use]
    pub fn root(&self) -> TreeId {
        TreeId(self.nodes.len() - 1)
    }

    /// The id of sink `i` (leaf ids coincide with sink indices).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_sinks()`.
    #[must_use]
    pub fn sink_id(&self, i: usize) -> TreeId {
        assert!(i < self.sink_caps.len(), "sink {i} out of range");
        TreeId(i)
    }

    /// The load capacitance (pF) of sink `i`.
    #[must_use]
    pub fn sink_cap(&self, i: usize) -> f64 {
        self.sink_caps[i]
    }

    /// The node with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: TreeId) -> &TreeNode {
        &self.nodes[id.0]
    }

    /// The id for a raw node index (the topology index the tree was
    /// embedded from).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[must_use]
    pub fn id(&self, index: usize) -> TreeId {
        assert!(index < self.nodes.len(), "node index {index} out of range");
        TreeId(index)
    }

    /// Iterator over all node ids in bottom-up (children before parents)
    /// order.
    pub fn ids(&self) -> impl Iterator<Item = TreeId> {
        (0..self.nodes.len()).map(TreeId)
    }

    /// Total electrical wire length (layout units), snaking included.
    #[must_use]
    pub fn total_wire_length(&self) -> f64 {
        self.nodes.iter().map(TreeNode::electrical_length).sum()
    }

    /// Total Manhattan distance between placed edge endpoints.
    #[must_use]
    pub fn placed_wire_length(&self) -> f64 {
        self.nodes
            .iter()
            .filter_map(|n| {
                n.parent
                    .map(|p| n.location.manhattan(self.nodes[p.0].location))
            })
            .sum()
    }

    /// Wire added purely to balance delays (electrical − placed).
    #[must_use]
    pub fn snaked_wire_length(&self) -> f64 {
        self.total_wire_length() - self.placed_wire_length()
    }

    /// Number of edges carrying a device.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.device.is_some()).count()
    }

    /// Iterator over `(id, device)` for every gated/buffered edge. The
    /// gate physically sits at the top of the edge — i.e. at the parent's
    /// location (see [`ClockTree::gate_location`]).
    pub fn devices(&self) -> impl Iterator<Item = (TreeId, Device)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.device.map(|d| (TreeId(i), d)))
    }

    /// The physical location of the device on the edge feeding `id`: the
    /// parent's placed location (the root's device sits at the root).
    /// This is where the controller's enable wire terminates.
    #[must_use]
    pub fn gate_location(&self, id: TreeId) -> Point {
        match self.nodes[id.0].parent {
            Some(p) => self.nodes[p.0].location,
            None => self.nodes[id.0].location,
        }
    }

    /// Converts the tree into an [`RcTree`] for independent Elmore
    /// analysis; returns the RC tree and the RC node id of each sink (in
    /// sink order). Edge devices become zero-length buffered stubs at the
    /// parent end of their edge.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "parent-before-child traversal fills every RC id before it is read, \
                  and every sink node is visited"
    )]
    pub fn to_rc_tree(&self, tech: &Technology) -> (RcTree, Vec<NodeId>) {
        let mut rc = RcTree::new(tech.source());
        // One RC node per non-root edge plus a zero-length stub per device.
        rc.reserve(self.nodes.len().saturating_sub(1) + self.device_count());
        let mut rc_ids: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let root = self.root();
        let root_attach = match self.nodes[root.0].device {
            Some(d) => {
                let g = rc.add_node(rc.root(), 0.0, 0.0);
                rc.set_device(g, d);
                g
            }
            None => rc.root(),
        };
        if let Some(s) = self.nodes[root.0].sink {
            rc.set_load(root_attach, self.sink_caps[s]);
        }
        rc_ids[root.0] = Some(root_attach);
        // Parent-before-child traversal: indices descend from the root.
        for i in (0..self.nodes.len()).rev() {
            let node = &self.nodes[i];
            let Some(p) = node.parent else { continue };
            let parent_rc = rc_ids[p.0].expect("parent visited first");
            let attach = match node.device {
                Some(d) => {
                    // Zero-length stub: the gate input sits directly at the
                    // parent's output.
                    let g = rc.add_node(parent_rc, 0.0, 0.0);
                    rc.set_device(g, d);
                    g
                }
                None => parent_rc,
            };
            let len = node.electrical_length;
            let id = rc.add_node(attach, tech.wire_res(len), tech.wire_cap(len));
            if let Some(s) = node.sink {
                rc.set_load(id, self.sink_caps[s]);
            }
            rc_ids[i] = Some(id);
        }
        let sinks = (0..self.sink_caps.len())
            .map(|i| rc_ids[i].expect("every sink is reachable"))
            .collect();
        (rc, sinks)
    }

    /// The Elmore skew (ps) across all sinks, measured on a from-scratch
    /// RC analysis — the independent zero-skew check.
    #[must_use]
    pub fn verify_skew(&self, tech: &Technology) -> f64 {
        let (rc, sinks) = self.to_rc_tree(tech);
        rc.analyze().skew(&sinks)
    }

    /// The Elmore delay (ps) from the clock source to the sinks (all equal
    /// under zero skew; the maximum is reported).
    #[must_use]
    pub fn source_to_sink_delay(&self, tech: &Technology) -> f64 {
        let (rc, sinks) = self.to_rc_tree(tech);
        rc.analyze().max_arrival(&sinks)
    }
}

impl fmt::Display for ClockTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ClockTree[{} sinks, {:.0} wire units, {} devices]",
            self.num_sinks(),
            self.total_wire_length(),
            self.device_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{embed, DeviceAssignment};

    fn small_tree(devices: bool) -> (ClockTree, Technology) {
        let tech = Technology::default();
        let sinks = vec![
            Sink::new(Point::new(0.0, 0.0), 0.05),
            Sink::new(Point::new(600.0, 0.0), 0.07),
            Sink::new(Point::new(300.0, 800.0), 0.03),
        ];
        let topo = Topology::from_merges(3, &[(0, 1), (3, 2)]).unwrap();
        let assignment = if devices {
            DeviceAssignment::everywhere(&topo, tech.and_gate())
        } else {
            DeviceAssignment::none(&topo)
        };
        let tree = embed(&topo, &sinks, &tech, &assignment, Point::new(300.0, 300.0)).unwrap();
        (tree, tech)
    }

    #[test]
    fn structure_accessors() {
        let (tree, _) = small_tree(false);
        assert_eq!(tree.len(), 5);
        assert_eq!(tree.num_sinks(), 3);
        assert_eq!(tree.root(), TreeId(4));
        assert!(tree.node(tree.sink_id(0)).is_sink());
        assert!(!tree.node(tree.root()).is_sink());
        assert_eq!(tree.node(tree.root()).children().len(), 2);
        assert_eq!(tree.sink_cap(1), 0.07);
        assert!(!tree.is_empty());
    }

    #[test]
    fn wire_lengths_are_consistent() {
        let (tree, _) = small_tree(false);
        assert!(tree.total_wire_length() > 0.0);
        assert!(tree.placed_wire_length() <= tree.total_wire_length() + 1e-9);
        assert!(tree.snaked_wire_length() >= -1e-9);
    }

    #[test]
    fn device_enumeration_and_gate_locations() {
        let (plain, _) = small_tree(false);
        assert_eq!(plain.device_count(), 0);
        let (gated, _) = small_tree(true);
        assert_eq!(gated.device_count(), 5);
        for (id, _) in gated.devices() {
            let loc = gated.gate_location(id);
            match gated.node(id).parent() {
                Some(p) => assert_eq!(loc, gated.node(p).location()),
                None => assert_eq!(loc, gated.node(id).location()),
            }
        }
    }

    #[test]
    fn rc_conversion_is_zero_skew_both_ways() {
        for devices in [false, true] {
            let (tree, tech) = small_tree(devices);
            let skew = tree.verify_skew(&tech);
            assert!(skew < 1e-9, "devices={devices}: skew {skew}");
            assert!(tree.source_to_sink_delay(&tech) > 0.0);
        }
    }

    #[test]
    fn rc_conversion_preserves_total_wire_cap() {
        for devices in [false, true] {
            let (tree, tech) = small_tree(devices);
            let (rc, _) = tree.to_rc_tree(&tech);
            let expect = tech.wire_cap(tree.total_wire_length());
            assert!(
                (rc.total_wire_cap() - expect).abs() < 1e-12,
                "devices={devices}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sink_id_bounds() {
        let (tree, _) = small_tree(false);
        let _ = tree.sink_id(3);
    }

    #[test]
    fn display_is_nonempty() {
        let (tree, _) = small_tree(true);
        assert!(format!("{tree}").contains("3 sinks"));
    }
}
