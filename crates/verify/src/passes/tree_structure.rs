//! `tree-structure`: the shape invariants every embedded [`ClockTree`]
//! must satisfy — single root, mutual parent/child consistency,
//! acyclicity, binary internal nodes, the sink-index bijection and the
//! children-before-parents index convention the bottom-up traversals of
//! `gcr-cts` and `gcr-core` rely on.
//!
//! [`ClockTree`]: gcr_cts::ClockTree

use crate::diag::{Diagnostic, Location, Severity};
use crate::input::VerifyInput;
use crate::lint::Lint;
use crate::passes::{resolve_parent_chains, ChainEnd};

/// See the module docs.
pub struct TreeStructureLint;

const ID: &str = "tree-structure";

impl Lint for TreeStructureLint {
    fn id(&self) -> &'static str {
        ID
    }

    fn description(&self) -> &'static str {
        "single root, parent/child consistency, acyclicity, binary internal nodes, sink bijection"
    }

    fn run(&self, input: &VerifyInput<'_>, out: &mut Vec<Diagnostic>) {
        let tree = input.tree;
        let n = tree.len();
        if n == 0 {
            out.push(
                Diagnostic::new(ID, Severity::Error, Location::Design, "tree has no nodes")
                    .with_code("GCR-TS01"),
            );
            return;
        }
        let s = tree.num_sinks();
        if n != 2 * s.max(1) - 1 {
            out.push(
                Diagnostic::new(
                    ID,
                    Severity::Error,
                    Location::Design,
                    format!(
                        "{n} nodes for {s} sinks; a binary merge tree has 2N-1 = {}",
                        2 * s.max(1) - 1
                    ),
                )
                .with_code("GCR-TS02"),
            );
        }

        // Exactly one root, and it is the last node (the merge-order
        // convention every bottom-up loop in the workspace assumes).
        let root = tree.root();
        for id in tree.ids() {
            let node = tree.node(id);
            match node.parent() {
                None if id != root => out.push(
                    Diagnostic::new(
                        ID,
                        Severity::Error,
                        Location::Node(id.index()),
                        format!("parentless node {id} is not the root (v{})", root.index()),
                    )
                    .with_code("GCR-TS03"),
                ),
                Some(p) if id == root => out.push(
                    Diagnostic::new(
                        ID,
                        Severity::Error,
                        Location::Node(id.index()),
                        format!("root node has parent {p}"),
                    )
                    .with_code("GCR-TS04"),
                ),
                _ => {}
            }
        }

        // Parent/child mutual consistency, child arity, and the
        // children-precede-parents index order.
        for id in tree.ids() {
            let node = tree.node(id);
            let kids = node.children();
            if !kids.is_empty() && kids.len() != 2 {
                out.push(
                    Diagnostic::new(
                        ID,
                        Severity::Error,
                        Location::Node(id.index()),
                        format!(
                            "internal node has {} children; merges are binary",
                            kids.len()
                        ),
                    )
                    .with_code("GCR-TS05"),
                );
            }
            for &ch in kids {
                if ch.index() >= id.index() {
                    out.push(
                        Diagnostic::new(
                            ID,
                            Severity::Error,
                            Location::Node(id.index()),
                            format!("child {ch} does not precede its parent {id} in index order"),
                        )
                        .with_code("GCR-TS06"),
                    );
                }
                if tree.node(ch).parent() != Some(id) {
                    out.push(
                        Diagnostic::new(
                            ID,
                            Severity::Error,
                            Location::Node(ch.index()),
                            format!(
                                "child {ch} of {id} points back at {:?}",
                                tree.node(ch).parent().map(gcr_cts::TreeId::index)
                            ),
                        )
                        .with_code("GCR-TS07"),
                    );
                }
            }
            if let Some(p) = node.parent() {
                if p.index() >= n {
                    out.push(
                        Diagnostic::new(
                            ID,
                            Severity::Error,
                            Location::Node(id.index()),
                            format!("parent index {} out of range", p.index()),
                        )
                        .with_code("GCR-TS08"),
                    );
                } else if !tree.node(p).children().contains(&id) {
                    out.push(
                        Diagnostic::new(
                            ID,
                            Severity::Error,
                            Location::Node(id.index()),
                            format!("{id} claims parent {p}, which does not list it as a child"),
                        )
                        .with_code("GCR-TS09"),
                    );
                }
            }
        }

        // Acyclicity: every parent chain must end, at a parentless node
        // or at an out-of-range parent (reported above).
        let chains = resolve_parent_chains(tree, |_| None, |end| end);
        for id in tree.ids() {
            if chains[id.index()] == ChainEnd::Cycle {
                out.push(
                    Diagnostic::new(
                        ID,
                        Severity::Error,
                        Location::Node(id.index()),
                        format!("parent chain from {id} cycles without reaching the root"),
                    )
                    .with_code("GCR-TS10"),
                );
            }
        }

        // Sink-index bijection: leaves are exactly the nodes 0..N, each
        // bound to its own sink index, and internal nodes carry none.
        let mut seen = vec![false; s];
        for id in tree.ids() {
            let node = tree.node(id);
            match node.sink() {
                Some(k) => {
                    if !node.children().is_empty() {
                        out.push(
                            Diagnostic::new(
                                ID,
                                Severity::Error,
                                Location::Node(id.index()),
                                format!("internal node is bound to sink s{k}"),
                            )
                            .with_code("GCR-TS11"),
                        );
                    }
                    if k >= s {
                        out.push(
                            Diagnostic::new(
                                ID,
                                Severity::Error,
                                Location::Node(id.index()),
                                format!("sink index s{k} out of range (N = {s})"),
                            )
                            .with_code("GCR-TS12"),
                        );
                    } else {
                        if seen[k] {
                            out.push(
                                Diagnostic::new(
                                    ID,
                                    Severity::Error,
                                    Location::Sink(k),
                                    format!("sink s{k} bound to more than one leaf"),
                                )
                                .with_code("GCR-TS13"),
                            );
                        }
                        seen[k] = true;
                        if id.index() != k {
                            out.push(
                                Diagnostic::new(
                                    ID,
                                    Severity::Error,
                                    Location::Node(id.index()),
                                    format!(
                                        "leaf v{} bound to s{k}; leaf ids must equal sink indices",
                                        id.index()
                                    ),
                                )
                                .with_code("GCR-TS14"),
                            );
                        }
                    }
                }
                None => {
                    if node.children().is_empty() {
                        out.push(
                            Diagnostic::new(
                                ID,
                                Severity::Error,
                                Location::Node(id.index()),
                                "leaf node is not bound to any sink",
                            )
                            .with_code("GCR-TS15"),
                        );
                    }
                }
            }
        }
        for (k, &was_seen) in seen.iter().enumerate() {
            if !was_seen {
                out.push(
                    Diagnostic::new(
                        ID,
                        Severity::Error,
                        Location::Sink(k),
                        format!("sink s{k} is not bound to any leaf"),
                    )
                    .with_code("GCR-TS16"),
                );
            }
        }

        // The root drives the tree directly: it has no parent edge, so a
        // nonzero electrical length there is meaningless.
        if tree.node(root).electrical_length() != 0.0 {
            out.push(
                Diagnostic::new(
                    ID,
                    Severity::Error,
                    Location::Edge {
                        child: root.index(),
                    },
                    format!(
                        "root carries a parent-edge length of {}; it has no parent",
                        tree.node(root).electrical_length()
                    ),
                )
                .with_code("GCR-TS17")
                .with_hint("zero the root's electrical_length; only child edges carry wire"),
            );
        }
    }
}
