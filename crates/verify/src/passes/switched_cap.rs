//! `switched-cap`: re-derives the paper's objective `W = W(T) + W(S)`
//! (Equation (3)) from first principles and cross-checks
//! [`gcr_core::evaluate_switched_cap`] (the switched-capacitance half of
//! [`gcr_core::evaluate_with_mask`]) — and, when one is supplied, a
//! stored [`PowerReport`] — against it.
//!
//! The derivation here deliberately takes another route: for every edge
//! it follows parent links *up* the tree to the nearest controlled gate
//! (one memoized walk, so each node is visited once, whatever its index)
//! and weights that edge's capacitance by the gate's enable probability
//! (§2.1), then sums each controlled gate's enable star wire weighted by
//! its transition probability (§2.2). `gcr_core::evaluate` computes the
//! same quantity with a top-down sweep that relies on the
//! children-before-parents index order; agreement within float noise is
//! the check.
//!
//! [`PowerReport`]: gcr_core::PowerReport

use crate::diag::{Diagnostic, Location, Severity};
use crate::input::VerifyInput;
use crate::lint::Lint;
use crate::passes::{resolve_parent_chains, ChainEnd};
use gcr_activity::EnableStats;
use gcr_core::{evaluate_switched_cap, ControllerPlan};

/// See the module docs.
pub struct SwitchedCapLint;

const ID: &str = "switched-cap";

/// Absolute agreement tolerance (pF) on the switched-capacitance totals.
const CAP_TOL: f64 = 1e-6;

impl Lint for SwitchedCapLint {
    fn id(&self) -> &'static str {
        ID
    }

    fn description(&self) -> &'static str {
        "Equation (3) re-derived from first principles matches gcr-core::evaluate"
    }

    fn whole_design_only(&self) -> bool {
        // Every finding is a Design-level total mismatch; a partial scope
        // never covers those, so the re-derivation would be wasted work.
        true
    }

    fn run(&self, input: &VerifyInput<'_>, out: &mut Vec<Diagnostic>) {
        let tree = input.tree;
        let tech = input.tech;
        let n = tree.len();
        if n == 0 {
            return;
        }
        let controlled = input.effective_controlled();
        if controlled.len() != n {
            return; // reported by the gating pass
        }
        // Without per-node statistics every device is accounted always-on.
        let default_stats;
        let stats: &[EnableStats] = match input.node_stats {
            Some(s) if s.len() == n => s,
            Some(_) => return, // reported by the activity pass
            None => {
                default_stats = vec![EnableStats::ALWAYS_ON; n];
                &default_stats
            }
        };
        // A star plan is needed as soon as any gate is controlled; without
        // one the gating pass reports and there is nothing to check here.
        let any_controlled =
            (0..n).any(|i| controlled[i] && tree.node(tree.id(i)).device().is_some());
        let fallback_plan;
        let controller: &ControllerPlan = match input.controller {
            Some(c) => c,
            None if !any_controlled => {
                // Unused by the computation; any plan will do.
                fallback_plan = ControllerPlan::Centralized {
                    location: tree.node(tree.root()).location(),
                };
                &fallback_plan
            }
            None => return,
        };

        // W(T) from parent links: each edge's capacitance — wire, the sink
        // load at its foot, and the child gate pins hanging at its foot —
        // switches with the enable probability of the nearest controlled
        // gate at or above it (§2.1).
        let domain = resolve_parent_chains(
            tree,
            |i| {
                (controlled[i] && tree.node(tree.id(i)).device().is_some()).then(|| stats[i].signal)
            },
            |end| match end {
                ChainEnd::Root => 1.0,
                // Broken structure; the structure pass reports it.
                ChainEnd::OutOfRange | ChainEnd::Cycle => f64::NAN,
            },
        );
        let mut clock_cap = 0.0;
        for (i, &dom) in domain.iter().enumerate() {
            let node = tree.node(tree.id(i));
            let mut cap_here = tech.unit_cap() * node.electrical_length();
            if let Some(k) = node.sink() {
                cap_here += tree.sink_cap(k);
            }
            for &ch in node.children() {
                if let Some(d) = tree.node(ch).device() {
                    cap_here += d.input_cap();
                }
            }
            clock_cap += dom * cap_here;
        }
        // The root gate's own input pin is driven by the free-running
        // source every cycle.
        if let Some(d) = tree.node(tree.root()).device() {
            clock_cap += d.input_cap();
        }

        // W(S): each controlled gate's enable leg switches with the
        // enable's transition probability (§2.2).
        let mut control_cap = 0.0;
        for (id, d) in tree.devices() {
            if controlled[id.index()] {
                let len = controller.enable_wire_length(tree.gate_location(id));
                control_cap +=
                    (tech.control_unit_cap() * len + d.input_cap()) * stats[id.index()].transition;
            }
        }
        let total = clock_cap + control_cap;

        // Cross-check the production evaluator.
        let reference = evaluate_switched_cap(tree, stats, controller, tech, &controlled);
        for (name, ours, theirs) in [
            ("W(T)", clock_cap, reference.clock),
            ("W(S)", control_cap, reference.control),
            ("W", total, reference.clock + reference.control),
        ] {
            if (ours - theirs).abs() > CAP_TOL {
                out.push(Diagnostic::new(
                    ID,
                    Severity::Error,
                    Location::Design,
                    format!(
                        "{name} from first principles is {ours} pF; gcr-core::evaluate \
                         reports {theirs} pF"
                    ),
                ).with_code("GCR-SC01").with_hint("the naive Equation (3) walk and the memoized evaluator disagree; one of them is wrong"));
            }
        }

        // Cross-check a stored report, if the caller archived one.
        if let Some(stored) = input.power_report {
            for (name, ours, theirs) in [
                ("W(T)", clock_cap, stored.clock_switched_cap),
                ("W(S)", control_cap, stored.control_switched_cap),
                ("W", total, stored.total_switched_cap),
            ] {
                if (ours - theirs).abs() > CAP_TOL {
                    out.push(Diagnostic::new(
                        ID,
                        Severity::Error,
                        Location::Design,
                        format!(
                            "stored power report claims {name} = {theirs} pF; first-principles \
                             recomputation gives {ours} pF"
                        ),
                    ).with_code("GCR-SC02").with_hint("regenerate the archived PowerReport; the design changed since it was computed"));
                }
            }
        }
    }
}
