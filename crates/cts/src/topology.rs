use std::fmt;

use crate::CtsError;

/// One node of a clock-tree [`Topology`]: either a leaf bound to a sink or
/// an internal merge of two earlier nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopoNode {
    /// A leaf; `sink` indexes the caller's sink list.
    Leaf {
        /// Index into the sink list this topology was built for.
        sink: usize,
    },
    /// An internal node merging two children.
    Internal {
        /// Topology index of the first child.
        left: usize,
        /// Topology index of the second child.
        right: usize,
    },
}

/// The *shape* of a clock tree: a full binary merge structure over N sinks,
/// independent of any geometry, device placement or wire lengths.
///
/// Node indexing is canonical: leaves occupy indices `0..N` (leaf `i` is
/// sink `i`), internal nodes occupy `N..2N-1` in creation (bottom-up merge)
/// order, and the root is the last node. Keeping topology separate from
/// embedding is what allows the gate-reduction heuristic to re-balance the
/// same tree with a different device assignment.
///
/// ```
/// use gcr_cts::Topology;
///
/// // ((s0, s1), s2)
/// let topo = Topology::from_merges(3, &[(0, 1), (3, 2)])?;
/// assert_eq!(topo.root(), 4);
/// assert_eq!(topo.num_leaves(), 3);
/// assert_eq!(topo.parents()[0], Some(3));
/// # Ok::<(), gcr_cts::CtsError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    nodes: Vec<TopoNode>,
    num_leaves: usize,
}

impl Topology {
    /// Builds a topology from a bottom-up merge sequence: merge `k` (zero
    /// based) creates node `num_leaves + k` from the two given node
    /// indices.
    ///
    /// # Errors
    ///
    /// Returns [`CtsError::NoSinks`] for `num_leaves == 0` and
    /// [`CtsError::InvalidTopology`] when the sequence is not a valid full
    /// binary tree (wrong merge count, forward references, a node used as
    /// a child twice, or self-merges).
    pub fn from_merges(num_leaves: usize, merges: &[(usize, usize)]) -> Result<Self, CtsError> {
        if num_leaves == 0 {
            return Err(CtsError::NoSinks);
        }
        if merges.len() + 1 != num_leaves {
            return Err(CtsError::InvalidTopology {
                reason: format!(
                    "{num_leaves} leaves need {} merges, got {}",
                    num_leaves - 1,
                    merges.len()
                ),
            });
        }
        let total = 2 * num_leaves - 1;
        let mut nodes: Vec<TopoNode> = (0..num_leaves)
            .map(|sink| TopoNode::Leaf { sink })
            .collect();
        let mut used = vec![false; total];
        for (k, &(left, right)) in merges.iter().enumerate() {
            let this = num_leaves + k;
            for child in [left, right] {
                if child >= this {
                    return Err(CtsError::InvalidTopology {
                        reason: format!("merge {k} references node {child} not yet created"),
                    });
                }
                if used[child] {
                    return Err(CtsError::InvalidTopology {
                        reason: format!("node {child} used as a child twice"),
                    });
                }
                used[child] = true;
            }
            if left == right {
                return Err(CtsError::InvalidTopology {
                    reason: format!("merge {k} merges node {left} with itself"),
                });
            }
            nodes.push(TopoNode::Internal { left, right });
        }
        Ok(Self { nodes, num_leaves })
    }

    /// A degenerate single-sink topology (one leaf, no merges).
    ///
    /// # Errors
    ///
    /// Never fails; returns `Result` for uniformity with
    /// [`Topology::from_merges`].
    pub fn single_sink() -> Result<Self, CtsError> {
        Self::from_merges(1, &[])
    }

    /// Number of leaves (sinks).
    #[must_use]
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Total number of nodes (`2·N − 1`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the topology is empty (never true for a constructed value).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node index (always `2·N − 2`).
    #[must_use]
    pub fn root(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The node at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn node(&self, index: usize) -> TopoNode {
        self.nodes[index]
    }

    /// Whether `index` is a leaf.
    #[must_use]
    pub fn is_leaf(&self, index: usize) -> bool {
        matches!(self.nodes[index], TopoNode::Leaf { .. })
    }

    /// Per-node parent indices (`None` for the root).
    #[must_use]
    pub fn parents(&self) -> Vec<Option<usize>> {
        let mut parents = vec![None; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if let TopoNode::Internal { left, right } = *n {
                parents[left] = Some(i);
                parents[right] = Some(i);
            }
        }
        parents
    }

    /// Iterates over nodes in bottom-up (children before parents) order —
    /// which is simply index order by construction.
    pub fn bottom_up(&self) -> impl Iterator<Item = (usize, TopoNode)> + '_ {
        self.nodes.iter().copied().enumerate()
    }

    /// The depth of each node (root = 0), and with it the tree height.
    #[must_use]
    pub fn depths(&self) -> Vec<usize> {
        let mut depths = vec![0usize; self.nodes.len()];
        for i in (0..self.nodes.len()).rev() {
            if let TopoNode::Internal { left, right } = self.nodes[i] {
                depths[left] = depths[i] + 1;
                depths[right] = depths[i] + 1;
            }
        }
        depths
    }

    /// The longest root-to-leaf path length (0 for a single sink).
    #[must_use]
    pub fn height(&self) -> usize {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// The number of sinks underneath each node.
    #[must_use]
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            sizes[i] = match *n {
                TopoNode::Leaf { .. } => 1,
                TopoNode::Internal { left, right } => sizes[left] + sizes[right],
            };
        }
        sizes
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Topology[{} sinks, {} nodes]",
            self.num_leaves,
            self.nodes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_balanced_topology() {
        // ((0,1),(2,3))
        let t = Topology::from_merges(4, &[(0, 1), (2, 3), (4, 5)]).unwrap();
        assert_eq!(t.len(), 7);
        assert_eq!(t.root(), 6);
        assert_eq!(t.subtree_sizes()[6], 4);
        assert_eq!(t.subtree_sizes()[4], 2);
        let parents = t.parents();
        assert_eq!(parents[4], Some(6));
        assert_eq!(parents[6], None);
        assert!(t.is_leaf(0) && !t.is_leaf(4));
    }

    #[test]
    fn depths_and_height() {
        let balanced = Topology::from_merges(4, &[(0, 1), (2, 3), (4, 5)]).unwrap();
        assert_eq!(balanced.height(), 2);
        assert_eq!(balanced.depths()[6], 0);
        assert_eq!(balanced.depths()[0], 2);
        let chain = Topology::from_merges(4, &[(0, 1), (4, 2), (5, 3)]).unwrap();
        assert_eq!(chain.height(), 3);
        assert_eq!(Topology::single_sink().unwrap().height(), 0);
    }

    #[test]
    fn chain_topology() {
        // (((0,1),2),3)
        let t = Topology::from_merges(4, &[(0, 1), (4, 2), (5, 3)]).unwrap();
        assert_eq!(t.subtree_sizes(), vec![1, 1, 1, 1, 2, 3, 4]);
    }

    #[test]
    fn single_sink_topology() {
        let t = Topology::single_sink().unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.root(), 0);
        assert!(t.is_leaf(0));
    }

    #[test]
    fn wrong_merge_count_rejected() {
        let e = Topology::from_merges(3, &[(0, 1)]).unwrap_err();
        assert!(matches!(e, CtsError::InvalidTopology { .. }));
    }

    #[test]
    fn forward_reference_rejected() {
        let e = Topology::from_merges(3, &[(0, 3), (1, 2)]).unwrap_err();
        assert!(e.to_string().contains("not yet created"));
    }

    #[test]
    fn double_use_rejected() {
        let e = Topology::from_merges(3, &[(0, 1), (0, 2)]).unwrap_err();
        assert!(e.to_string().contains("twice"));
    }

    #[test]
    fn self_merge_rejected() {
        let e = Topology::from_merges(3, &[(0, 0), (3, 2)]).unwrap_err();
        // Double-use triggers first for (0, 0); both are invalid topologies.
        assert!(matches!(e, CtsError::InvalidTopology { .. }));
    }

    #[test]
    fn zero_leaves_rejected() {
        assert_eq!(
            Topology::from_merges(0, &[]).unwrap_err(),
            CtsError::NoSinks
        );
    }

    #[test]
    fn display_is_nonempty() {
        let t = Topology::single_sink().unwrap();
        assert!(format!("{t}").contains("1 sinks"));
    }
}
