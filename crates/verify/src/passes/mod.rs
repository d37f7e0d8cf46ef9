//! The built-in lint passes.

use gcr_cts::ClockTree;

mod activity_tables;
mod determinism;
mod gating;
mod geometry;
mod switched_cap;
mod tree_structure;
mod zero_skew;

pub use activity_tables::ActivityTablesLint;
pub use determinism::DeterminismLint;
pub use gating::GatingLint;
pub use geometry::GeometryLint;
pub use switched_cap::SwitchedCapLint;
pub use tree_structure::TreeStructureLint;
pub use zero_skew::ZeroSkewLint;

/// How a parent chain ends when no node on it stops the walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ChainEnd {
    /// At a parentless node.
    Root,
    /// At a parent index past the end of the tree.
    OutOfRange,
    /// Never: the chain loops without reaching either.
    Cycle,
}

/// Resolves every node's parent chain in one memoized sweep: node `i`
/// gets `stop(j)` for the first node `j` at or above `i` where `stop`
/// returns a value, otherwise `end` applied to how its chain ends. Each
/// node is walked over once, whatever the shape — cyclic, non-ascending
/// or deep — so the sweep is linear where a walk per node is
/// O(n · depth).
pub(crate) fn resolve_parent_chains<T: Copy>(
    tree: &ClockTree,
    stop: impl Fn(usize) -> Option<T>,
    end: impl Fn(ChainEnd) -> T,
) -> Vec<T> {
    let n = tree.len();
    let mut value: Vec<Option<T>> = vec![None; n];
    // Set when a walk first passes a node; a set flag on a node without a
    // value means the node is on the walk in progress, i.e. a cycle.
    let mut visited = vec![false; n];
    let mut path = Vec::new();
    for start in 0..n {
        let mut cur = start;
        let resolved = loop {
            if let Some(v) = value[cur] {
                break v;
            }
            if visited[cur] {
                break end(ChainEnd::Cycle);
            }
            visited[cur] = true;
            path.push(cur);
            if let Some(v) = stop(cur) {
                break v;
            }
            match tree.node(tree.id(cur)).parent() {
                None => break end(ChainEnd::Root),
                Some(p) if p.index() >= n => break end(ChainEnd::OutOfRange),
                Some(p) => cur = p.index(),
            }
        };
        for i in path.drain(..) {
            value[i] = Some(resolved);
        }
    }
    // Every walk resolved its whole path, so no slot is left empty.
    value.into_iter().flatten().collect()
}
