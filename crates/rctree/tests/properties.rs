//! Property-based tests for the Elmore delay engine.

use gcr_rctree::{Device, NodeId, RcTree};
use proptest::prelude::*;

fn src() -> Device {
    Device::new(0.1, 50.0, 0.0, 0.0)
}

/// A random tree shape: for each node after the first, the index of its
/// parent among previously created nodes, plus its wire RC and load.
#[derive(Debug, Clone)]
struct RandomTree {
    specs: Vec<(usize, f64, f64, f64)>,
}

fn random_tree(max_nodes: usize) -> impl Strategy<Value = RandomTree> {
    prop::collection::vec(
        (0usize..1000, 0.1..50.0f64, 0.001..1.0f64, 0.0..0.5f64),
        1..max_nodes,
    )
    .prop_map(|raw| RandomTree {
        specs: raw
            .into_iter()
            .enumerate()
            .map(|(i, (p, r, c, l))| (p % (i + 1), r, c, l))
            .collect(),
    })
}

fn build(spec: &RandomTree) -> (RcTree, Vec<NodeId>) {
    let mut t = RcTree::new(src());
    let mut ids = vec![t.root()];
    for &(p, r, c, l) in &spec.specs {
        let id = t.add_node(ids[p], r, c);
        t.set_load(id, l);
        ids.push(id);
    }
    (t, ids)
}

proptest! {
    /// Arrival times are monotone along every root-to-node path: signal
    /// cannot arrive earlier downstream.
    #[test]
    fn arrival_monotone_along_paths(spec in random_tree(40)) {
        let (t, ids) = build(&spec);
        let an = t.analyze();
        for &id in &ids {
            if let Some(p) = t.parent(id) {
                prop_assert!(an.arrival(id) >= an.arrival(p) - 1e-12,
                    "child {id} at {} before parent {p} at {}",
                    an.arrival(id), an.arrival(p));
            }
        }
    }

    /// Adding load anywhere never decreases any arrival time (Elmore is
    /// monotone in capacitance).
    #[test]
    fn arrival_monotone_in_load(spec in random_tree(30), extra in 0.01..1.0f64, which in 0usize..30) {
        let (t, ids) = build(&spec);
        let target = ids[which % ids.len()];
        let before = t.analyze();
        let mut t2 = t.clone();
        t2.set_load(target, extra + 1.0); // strictly larger than any default load
        let after = t2.analyze();
        for &id in &ids {
            prop_assert!(after.arrival(id) + 1e-12 >= before.arrival(id));
        }
    }

    /// Inserting a device at a node strictly reduces the capacitance seen
    /// upstream (to C_g) and therefore cannot slow any node outside the
    /// device's subtree.
    #[test]
    fn device_never_slows_upstream(spec in random_tree(30), which in 1usize..30) {
        let (t, ids) = build(&spec);
        prop_assume!(ids.len() > 1);
        let target = ids[1 + (which % (ids.len() - 1))];
        let before = t.analyze();
        prop_assume!(before.cap_seen(target) > 0.04); // gate must actually decouple
        let mut t2 = t.clone();
        t2.set_device(target, Device::new(0.04, 250.0, 40.0, 0.0));
        let after = t2.analyze();
        // Nodes outside the target's subtree: arrival must not increase.
        let mut in_subtree = vec![false; ids.len()];
        in_subtree[target.index()] = true;
        for &id in &ids {
            if let Some(p) = t.parent(id) {
                if in_subtree[p.index()] {
                    in_subtree[id.index()] = true;
                }
            }
        }
        for &id in &ids {
            if !in_subtree[id.index()] {
                prop_assert!(after.arrival(id) <= before.arrival(id) + 1e-12,
                    "node {id} slowed from {} to {}", before.arrival(id), after.arrival(id));
            }
        }
        // The node itself arrives no later than before.
        prop_assert!(after.arrival(target) <= before.arrival(target) + 1e-12);
    }

    /// Two mirror-image subtrees hung off the root arrive simultaneously.
    #[test]
    fn mirrored_subtrees_have_zero_skew(spec in random_tree(15)) {
        let mut t = RcTree::new(src());
        let left = t.add_node(t.root(), 3.0, 0.2);
        let right = t.add_node(t.root(), 3.0, 0.2);
        let mut sinks = Vec::new();
        for side in [left, right] {
            let mut map = vec![side];
            for &(p, r, c, l) in &spec.specs {
                let id = t.add_node(map[p % map.len()], r, c);
                t.set_load(id, l);
                map.push(id);
            }
            sinks.push(*map.last().unwrap());
        }
        let an = t.analyze();
        let skew = (an.arrival(sinks[0]) - an.arrival(sinks[1])).abs();
        let scale = an.arrival(sinks[0]).abs().max(1.0);
        prop_assert!(skew <= 1e-9 * scale, "mirror skew {skew}");
    }
}

/// One node of an oracle tree: parent index (ignored for the root), wire
/// RC, pin load and an optional device.
#[derive(Debug, Clone)]
struct OracleNode {
    parent: usize,
    wire_res: f64,
    wire_cap: f64,
    load: f64,
    device: Option<Device>,
}

/// Random trees for the oracle comparison. `fanout` bounds how far back a
/// node may look for its parent: node `i` hangs off one of the first
/// `i / fanout + 1` nodes, so a small `fanout` gives wide nodes with
/// three or more children. Roughly every third node carries a device.
fn oracle_tree(max_nodes: usize, fanout: usize) -> impl Strategy<Value = Vec<OracleNode>> {
    prop::collection::vec(
        (
            0usize..1000,
            0.1..50.0f64,
            0.001..1.0f64,
            0.0..0.5f64,
            0u32..3,
            (0.01..0.2f64, 10.0..400.0f64, 0.0..60.0f64),
        ),
        1..max_nodes,
    )
    .prop_map(move |raw| {
        raw.into_iter()
            .enumerate()
            .map(
                |(i, (p, r, c, l, kind, (cin, rout, intrinsic)))| OracleNode {
                    parent: p % (i / fanout + 1),
                    wire_res: r,
                    wire_cap: c,
                    load: l,
                    device: (kind == 0).then(|| Device::new(cin, rout, intrinsic, 0.0)),
                },
            )
            .collect()
    })
}

/// The textbook Elmore recursion over explicit per-node child lists kept
/// in insertion order: the independent reference `analyze` must match
/// bit for bit. `nodes[i]` is tree node `i`; node 0 is the root, whose
/// `parent` field is ignored.
struct Oracle<'a> {
    nodes: &'a [OracleNode],
    children: Vec<Vec<usize>>,
    source: Device,
}

impl Oracle<'_> {
    fn cap_at_output(&self, i: usize) -> f64 {
        let mut c = self.nodes[i].load;
        for &ch in &self.children[i] {
            c += self.nodes[ch].wire_cap + self.cap_seen(ch);
        }
        c
    }

    fn cap_seen(&self, i: usize) -> f64 {
        match self.nodes[i].device {
            Some(d) => d.input_cap(),
            None => self.cap_at_output(i),
        }
    }

    /// Arrival at node `i`, given the drive potential of its parent.
    fn arrivals(&self, i: usize, parent_drive: Option<f64>, out: &mut [f64]) {
        let node = &self.nodes[i];
        let arrival = match parent_drive {
            Some(d) => d + node.wire_res * (node.wire_cap / 2.0 + self.cap_seen(i)),
            None => 0.0,
        };
        let stage = match (parent_drive, node.device) {
            (None, _) => self.source.stage_delay(self.cap_at_output(i)),
            (Some(_), Some(d)) => d.stage_delay(self.cap_at_output(i)),
            (Some(_), None) => 0.0,
        };
        out[i] = arrival;
        for &ch in &self.children[i] {
            self.arrivals(ch, Some(arrival + stage), out);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `analyze` equals the recursive Elmore oracle bit for bit, on wide
    /// and deep random trees with devices anywhere, the root included.
    #[test]
    fn analyze_is_bitwise_the_recursive_oracle(
        nodes in oracle_tree(60, 3),
        deep in oracle_tree(40, 1000),
    ) {
        for nodes in [&nodes, &deep] {
            let mut t = RcTree::new(src());
            let mut ids = vec![t.root()];
            let mut children = vec![Vec::new(); nodes.len()];
            for (i, node) in nodes.iter().enumerate() {
                if i > 0 {
                    ids.push(t.add_node(ids[node.parent], node.wire_res, node.wire_cap));
                    children[node.parent].push(i);
                }
                t.set_load(ids[i], node.load);
                if let Some(d) = node.device {
                    t.set_device(ids[i], d);
                }
            }
            let oracle = Oracle { nodes, children, source: src() };
            let mut arrival = vec![0.0; nodes.len()];
            oracle.arrivals(0, None, &mut arrival);
            let an = t.analyze();
            for (i, &id) in ids.iter().enumerate() {
                prop_assert_eq!(an.arrival(id).to_bits(), arrival[i].to_bits(), "arrival of {}", id);
                prop_assert_eq!(an.cap_seen(id).to_bits(), oracle.cap_seen(i).to_bits(), "cap_seen of {}", id);
                prop_assert_eq!(
                    an.cap_at_output(id).to_bits(),
                    oracle.cap_at_output(i).to_bits(),
                    "cap_at_output of {}",
                    id
                );
            }
        }
        // The wide strategy must actually produce wide nodes.
        let mut fan = vec![0usize; nodes.len()];
        for node in &nodes[1..] {
            fan[node.parent] += 1;
        }
        prop_assume!(fan.iter().any(|&k| k >= 3));
    }
}
