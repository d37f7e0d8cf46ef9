//! Zero-skew clock-tree synthesis in the DME style.
//!
//! This crate is the routing substrate of the gated-clock-routing
//! reproduction: everything the paper inherits from the zero-skew clock
//! routing literature (Tsay \[6\]; Boese–Kahng \[2\]; Edahiro \[3\]).
//!
//! The flow is split into three orthogonal pieces:
//!
//! 1. **Topology construction** — [`run_greedy_with_scratch`] repeatedly merges the pair
//!    of live subtrees with minimum cost under a pluggable
//!    [`MergeObjective`]; [`nearest_neighbor_topology`] is the classic
//!    geometric objective (and the paper's baseline), while the gated
//!    router in `gcr-core` plugs in the switched-capacitance objective of
//!    Equation (3). The engine prunes with admissible lower bounds over a
//!    [`BucketGrid`] of the sink locations, committing bit-identical
//!    merges to the exhaustive reference ([`run_greedy_exhaustive_with_scratch`]) at a
//!    fraction of the exact cost evaluations.
//! 2. **Zero-skew merging** — [`zero_skew_merge`] computes, for two
//!    subtrees, the exact tap-point split `e_a`/`e_b` (with wire snaking
//!    when one side must be elongated) and the resulting merging region,
//!    delay and capacitance under the Elmore model. Devices (masking gates,
//!    buffers) at subtree roots *decouple* downstream capacitance.
//! 3. **Embedding** — [`embed`] runs the deferred-merge bottom-up pass over
//!    a fixed [`Topology`] with a per-node [`DeviceAssignment`] and then
//!    places every internal node top-down, yielding a concrete
//!    [`ClockTree`] whose zero skew can be independently verified against
//!    `gcr-rctree`'s Elmore engine.
//!
//! Separating topology from embedding is what lets the paper's
//! gate-reduction heuristic (§4.3) re-balance the same tree with fewer
//! gates: remove devices, re-run [`embed`], and the tree is zero-skew
//! again with new wire lengths.
//!
//! # Example
//!
//! ```
//! use gcr_cts::{build_buffered_tree, Sink};
//! use gcr_geometry::Point;
//! use gcr_rctree::Technology;
//!
//! let tech = Technology::default();
//! let sinks = vec![
//!     Sink::new(Point::new(0.0, 0.0), 0.05),
//!     Sink::new(Point::new(800.0, 200.0), 0.03),
//!     Sink::new(Point::new(300.0, 900.0), 0.06),
//!     Sink::new(Point::new(900.0, 900.0), 0.04),
//! ];
//! let tree = build_buffered_tree(&tech, &sinks, Point::new(450.0, 450.0))?;
//! // The embedded tree is zero-skew under the Elmore model.
//! assert!(tree.verify_skew(&tech) < 1e-6);
//! # Ok::<(), gcr_cts::CtsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod bound;
mod bst;
mod coarsen;
mod design_io;
mod eco;
mod embed;
mod error;
mod greedy;
mod merge;
mod mmm;
mod nearest;
mod route;
mod sink;
#[cfg(test)]
mod testing;
mod topology;
mod tree;

pub use arena::{clone_preserving_capacity, MergeArena};
pub use bound::{BoundColumns, BoundRows, BoundTerms};
pub use bst::{bounded_skew_merge, embed_bounded_skew, BstOutcome, BstState};
pub use coarsen::{
    partition_regions, run_greedy_coarsened, CoarsenParams, CoarsenScratch, DEFAULT_REGION_SIZE,
};
pub use design_io::{load_design, save_design, LoadedDesign};
pub use eco::{
    apply_eco, plan_eco_leaves, EcoEdit, EcoLeafPlan, EcoOutcome, EcoProfile, EcoScratch,
};
pub use embed::{embed, embed_sized, DeviceAssignment};
pub use error::CtsError;
/// Re-export of the workspace's one allocation probe, so binaries that
/// install it through this crate keep working.
pub use gcr_trace::set_alloc_probe;
pub use greedy::{
    canonical_decision_log, run_greedy_checked, run_greedy_exhaustive_with_scratch,
    run_greedy_with_scratch, GreedyParams, GreedyProfile, GreedyScratch, GreedyStats,
    MergeDecision, MergeObjective,
};
pub use merge::{balance_devices, zero_skew_merge, MergeOutcome, SizingLimits, SubtreeState};
pub use mmm::mmm_topology;
pub use nearest::{
    build_buffered_tree, nearest_neighbor_topology, BucketGrid, NearestNeighborObjective,
};
pub use route::{format_routes, realize_routes, RoutedEdge};
pub use sink::Sink;
pub use topology::{TopoNode, Topology};
pub use tree::{ClockTree, RawTreeNode, TreeId, TreeNode};
