use std::fmt;
use std::num::NonZeroU32;

use crate::{analysis::DelayAnalysis, Device};

/// Identifier of a node inside an [`RcTree`].
///
/// Node ids are dense indices assigned in insertion order; the root is
/// always id 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct Node {
    parent: Option<NodeId>,
    /// Resistance of the wire from the parent to this node (Ω).
    wire_res: f64,
    /// Total capacitance of that wire (pF), split half/half in the π model.
    wire_cap: f64,
    /// Pin load at the node itself (pF) — sink loads.
    cap_load: f64,
    /// Optional buffering device at this node; its input sits at the node,
    /// its output drives the children edges.
    device: Option<Device>,
    /// The children form a singly linked list in insertion order, so
    /// adding a node never allocates a per-node child vector. Links are
    /// nonzero: the root, node 0, is never anyone's child.
    first_child: Option<NonZeroU32>,
    last_child: Option<NonZeroU32>,
    next_sibling: Option<NonZeroU32>,
}

impl Node {
    fn new(parent: Option<NodeId>, wire_res: f64, wire_cap: f64) -> Self {
        Node {
            parent,
            wire_res,
            wire_cap,
            cap_load: 0.0,
            device: None,
            first_child: None,
            last_child: None,
            next_sibling: None,
        }
    }
}

/// A distributed RC tree with optional buffering devices, analyzed under
/// the Elmore delay model.
///
/// Wires use the standard π model (half the wire capacitance at each end),
/// so the Elmore contribution of an edge is `R · (C_wire/2 + C_downstream)`.
/// A [`Device`] placed at a node *decouples* its subtree: the upstream
/// network sees only the device input capacitance, and the device adds
/// `intrinsic + R_out · C_driven` to every downstream path.
///
/// This is the from-scratch delay oracle that the incremental clock-tree
/// builders are validated against.
///
/// ```
/// use gcr_rctree::{Device, RcTree};
///
/// let source = Device::new(0.1, 50.0, 0.0, 0.0);
/// let mut t = RcTree::new(source);
/// let a = t.add_node(t.root(), 10.0, 0.5);
/// let b = t.add_node(t.root(), 10.0, 0.5);
/// t.set_load(a, 0.2);
/// t.set_load(b, 0.2);
/// let analysis = t.analyze();
/// // The tree is symmetric, so the two sinks see identical delay.
/// assert_eq!(analysis.arrival(a), analysis.arrival(b));
/// assert!(analysis.skew(&[a, b]) < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct RcTree {
    nodes: Vec<Node>,
    source: Device,
}

impl RcTree {
    /// Creates a tree containing only the root node, driven by `source`.
    #[must_use]
    pub fn new(source: Device) -> Self {
        Self {
            nodes: vec![Node::new(None, 0.0, 0.0)],
            source,
        }
    }

    /// Reserves room for at least `additional` more nodes, so a builder
    /// that knows its size adds them without reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
    }

    /// The root node id (always 0).
    #[must_use]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes in the tree.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds only the root.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Adds a node connected to `parent` by a wire of total resistance
    /// `wire_res` (Ω) and total capacitance `wire_cap` (pF); returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range, the RC values are negative or
    /// non-finite, or the new node's id would not fit in a `u32`.
    pub fn add_node(&mut self, parent: NodeId, wire_res: f64, wire_cap: f64) -> NodeId {
        assert!(parent.0 < self.nodes.len(), "unknown parent {parent}");
        assert!(
            wire_res.is_finite() && wire_res >= 0.0 && wire_cap.is_finite() && wire_cap >= 0.0,
            "wire RC must be finite and >= 0, got R={wire_res}, C={wire_cap}"
        );
        // Nonzero because the root already exists.
        let Some(link) = u32::try_from(self.nodes.len())
            .ok()
            .and_then(NonZeroU32::new)
        else {
            panic!("RcTree node ids must fit in a u32");
        };
        self.nodes.push(Node::new(Some(parent), wire_res, wire_cap));
        let p = &mut self.nodes[parent.0];
        match p.last_child.replace(link) {
            Some(last) => self.nodes[last.get() as usize].next_sibling = Some(link),
            None => p.first_child = Some(link),
        }
        NodeId(link.get() as usize)
    }

    /// Sets the pin load at `node` (pF).
    ///
    /// # Panics
    ///
    /// Panics if the load is negative or non-finite.
    pub fn set_load(&mut self, node: NodeId, cap: f64) {
        assert!(
            cap.is_finite() && cap >= 0.0,
            "load must be finite and >= 0, got {cap}"
        );
        self.nodes[node.0].cap_load = cap;
    }

    /// Installs a buffering device at `node` (replacing any previous one).
    pub fn set_device(&mut self, node: NodeId, device: Device) {
        self.nodes[node.0].device = Some(device);
    }

    /// The device at `node`, if any.
    #[must_use]
    pub fn device(&self, node: NodeId) -> Option<Device> {
        self.nodes[node.0].device
    }

    /// The parent of `node`, or `None` for the root.
    #[must_use]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.0].parent
    }

    /// The children of `node`, in insertion order.
    pub(crate) fn children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(self.nodes[node.0].first_child, |ch| {
            self.nodes[ch.get() as usize].next_sibling
        })
        .map(|ch| NodeId(ch.get() as usize))
    }

    /// Ids of all leaf nodes, in insertion order.
    #[must_use]
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .map(NodeId)
            .filter(|&n| {
                self.nodes[n.0].first_child.is_none() && (n.0 != 0 || self.nodes.len() == 1)
            })
            .collect()
    }

    /// Runs the Elmore analysis and returns per-node arrivals and
    /// capacitances. Insertion order puts parents before children, so one
    /// descending sweep accumulates capacitance and one ascending sweep
    /// propagates arrivals.
    #[must_use]
    pub fn analyze(&self) -> DelayAnalysis {
        let n = self.nodes.len();

        // Post-order accumulation of downstream capacitance.
        let mut cap_at_output = vec![0.0f64; n]; // cap driven at the node's output point
        let mut cap_seen = vec![0.0f64; n]; // cap presented to the wire above
        for i in (0..n).rev() {
            let node = &self.nodes[i];
            let mut c = node.cap_load;
            for ch in self.children(NodeId(i)) {
                c += self.nodes[ch.0].wire_cap + cap_seen[ch.0];
            }
            cap_at_output[i] = c;
            cap_seen[i] = match node.device {
                Some(d) => d.input_cap(),
                None => c,
            };
        }

        // Pre-order arrival propagation.
        let mut arrival = vec![0.0f64; n]; // at node input (node location)
        let mut drive = vec![0.0f64; n]; // at the point driving the children edges
        for id in (0..n).map(NodeId) {
            let node = &self.nodes[id.0];
            if let Some(p) = node.parent {
                arrival[id.0] = drive[p.0] + node.wire_res * (node.wire_cap / 2.0 + cap_seen[id.0]);
            } else {
                arrival[id.0] = 0.0;
            }
            let stage = if node.parent.is_none() {
                // The root is driven by the clock source.
                self.source.stage_delay(cap_at_output[id.0])
            } else {
                match node.device {
                    Some(d) => d.stage_delay(cap_at_output[id.0]),
                    None => 0.0,
                }
            };
            drive[id.0] = arrival[id.0] + stage;
        }

        DelayAnalysis::new(arrival, cap_seen, cap_at_output)
    }

    /// Sum of all wire capacitance in the tree (pF), ignoring devices and
    /// loads.
    #[must_use]
    pub fn total_wire_cap(&self) -> f64 {
        self.nodes.iter().map(|n| n.wire_cap).sum()
    }

    /// Wire (resistance, capacitance) of the edge feeding `node` (zero for
    /// the root).
    #[must_use]
    pub fn wire_rc(&self, node: NodeId) -> (f64, f64) {
        let n = &self.nodes[node.0];
        (n.wire_res, n.wire_cap)
    }

    /// The pin load at `node` (pF).
    #[must_use]
    pub fn load(&self, node: NodeId) -> f64 {
        self.nodes[node.0].cap_load
    }

    /// The clock source driver at the root.
    #[must_use]
    pub fn source_device(&self) -> Device {
        self.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src() -> Device {
        Device::new(0.1, 50.0, 0.0, 0.0)
    }

    /// Hand-computed single-wire Elmore: source R=50 drives wire (R=10,
    /// C=0.4) into load 0.6.
    #[test]
    fn single_wire_hand_computed() {
        let mut t = RcTree::new(src());
        let a = t.add_node(t.root(), 10.0, 0.4);
        t.set_load(a, 0.6);
        let an = t.analyze();
        // Source stage: 50 * (0.4 + 0.6) = 50 ps; wire: 10 * (0.2 + 0.6) = 8.
        assert!(
            (an.arrival(a) - 58.0).abs() < 1e-12,
            "got {}",
            an.arrival(a)
        );
    }

    /// A device in the middle decouples the downstream capacitance.
    #[test]
    fn device_decouples_subtree() {
        let build = |with_gate: bool| {
            let mut t = RcTree::new(src());
            let mid = t.add_node(t.root(), 10.0, 0.4);
            if with_gate {
                t.set_device(mid, Device::new(0.04, 250.0, 40.0, 0.0));
            }
            let sink = t.add_node(mid, 20.0, 0.8);
            t.set_load(sink, 0.5);
            (t.analyze(), mid, sink)
        };
        let (gated, mid_g, sink_g) = build(true);
        let (plain, mid_p, _sink_p) = build(false);
        // Upstream of the gate, the gated tree is *faster* because the
        // source sees only C_g = 0.04 instead of the full 1.7 pF subtree.
        assert!(gated.arrival(mid_g) < plain.arrival(mid_p));
        // Source stage gated: 50 * (0.4 + 0.04) = 22; wire: 10*(0.2+0.04)=2.4.
        assert!((gated.arrival(mid_g) - 24.4).abs() < 1e-12);
        // Gate stage: 40 + 250 * (0.8 + 0.5) = 365; wire: 20*(0.4+0.5)=18.
        assert!((gated.arrival(sink_g) - (24.4 + 365.0 + 18.0)).abs() < 1e-12);
    }

    #[test]
    fn symmetric_tree_has_zero_skew() {
        let mut t = RcTree::new(src());
        let l = t.add_node(t.root(), 5.0, 0.2);
        let r = t.add_node(t.root(), 5.0, 0.2);
        let mut sinks = Vec::new();
        for mid in [l, r] {
            for _ in 0..2 {
                let s = t.add_node(mid, 7.0, 0.3);
                t.set_load(s, 0.25);
                sinks.push(s);
            }
        }
        let an = t.analyze();
        assert!(an.skew(&sinks) < 1e-12);
        assert!(an.arrival(sinks[0]) > 0.0);
    }

    #[test]
    fn asymmetric_load_creates_skew() {
        let mut t = RcTree::new(src());
        let a = t.add_node(t.root(), 5.0, 0.2);
        let b = t.add_node(t.root(), 5.0, 0.2);
        t.set_load(a, 0.1);
        t.set_load(b, 0.9);
        let an = t.analyze();
        assert!(an.arrival(b) > an.arrival(a));
        assert!(an.skew(&[a, b]) > 0.0);
    }

    #[test]
    fn leaves_enumerates_sinks_only() {
        let mut t = RcTree::new(src());
        let m = t.add_node(t.root(), 1.0, 0.1);
        let s1 = t.add_node(m, 1.0, 0.1);
        let s2 = t.add_node(m, 1.0, 0.1);
        assert_eq!(t.leaves(), vec![s1, s2]);
        assert_eq!(t.children(m).collect::<Vec<_>>(), vec![s1, s2]);
        assert_eq!(t.children(s1).count(), 0);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_tree_root_is_leaf() {
        let t = RcTree::new(src());
        assert!(t.is_empty());
        assert_eq!(t.leaves(), vec![t.root()]);
    }

    #[test]
    #[should_panic(expected = "unknown parent")]
    fn bad_parent_rejected() {
        let mut t = RcTree::new(src());
        let _ = t.add_node(NodeId(99), 1.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "wire RC")]
    fn negative_rc_rejected() {
        let mut t = RcTree::new(src());
        let _ = t.add_node(NodeId(0), -1.0, 0.1);
    }

    #[test]
    fn total_wire_cap_sums_edges() {
        let mut t = RcTree::new(src());
        let a = t.add_node(t.root(), 1.0, 0.25);
        let _b = t.add_node(a, 1.0, 0.75);
        assert_eq!(t.total_wire_cap(), 1.0);
    }

    #[test]
    fn critical_path_traces_the_slow_sink() {
        let mut t = RcTree::new(src());
        let fast = t.add_node(t.root(), 1.0, 0.1);
        let mid = t.add_node(t.root(), 10.0, 0.5);
        let slow = t.add_node(mid, 20.0, 0.8);
        t.set_load(fast, 0.05);
        t.set_load(slow, 0.4);
        let an = t.analyze();
        assert_eq!(an.critical_sink(&[fast, slow]), slow);
    }
}
