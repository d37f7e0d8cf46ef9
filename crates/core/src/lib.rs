//! Gated clock routing minimizing the switched capacitance — the primary
//! contribution of Oh & Pedram, *DATE 1998*.
//!
//! A **gated clock tree** has an AND masking gate on every edge; gate
//! `EN_i` shuts off the subtree of node `v_i` whenever none of its modules
//! is active, so the clock network only burns power where work happens. A
//! central (or distributed, §6) **controller** drives each enable through
//! a dedicated star-routed wire, which itself switches and costs power.
//! The paper's router balances both:
//!
//! * **W(T)** — clock-tree switched capacitance, each edge weighted by the
//!   *signal probability* `P(EN_i)` of its gate;
//! * **W(S)** — controller-tree switched capacitance, each enable wire
//!   weighted by the *transition probability* `P_tr(EN_i)`.
//!
//! [`route_gated`] runs the paper's `GatedClockRouting` procedure: greedy
//! bottom-up merging ordered by the Equation-3 switched-capacitance cost
//! (zero-skew tap lengths from the DME substrate, controller distance
//! estimated from the merging-segment midpoint), followed by top-down
//! placement. [`reduce_gates`] implements the §4.3 gate-reduction
//! heuristic (rules R1–R3 plus forced re-insertion) and
//! [`evaluate`] produces the switched-capacitance / area report behind
//! every figure of the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use gcr_activity::{ActivityTables, CpuModel};
//! use gcr_core::{evaluate, route_gated, ControllerPlan, DeviceRole, RouterConfig};
//! use gcr_cts::Sink;
//! use gcr_geometry::{BBox, Point};
//! use gcr_rctree::Technology;
//!
//! // Four modules in the corners of a 10k x 10k die.
//! let sinks = vec![
//!     Sink::new(Point::new(1000.0, 1000.0), 0.05),
//!     Sink::new(Point::new(9000.0, 1000.0), 0.05),
//!     Sink::new(Point::new(1000.0, 9000.0), 0.05),
//!     Sink::new(Point::new(9000.0, 9000.0), 0.05),
//! ];
//! let model = CpuModel::builder(4).instructions(8).seed(1).build()?;
//! let stream = model.generate_stream(2_000);
//! let tables = ActivityTables::scan(model.rtl(), &stream);
//!
//! let die = BBox::new(Point::new(0.0, 0.0), Point::new(10_000.0, 10_000.0));
//! let config = RouterConfig::new(Technology::default(), die);
//! let routing = route_gated(&sinks, &tables, &config)?;
//!
//! // Zero skew by construction…
//! assert!(routing.tree.verify_skew(config.tech()) < 1e-6);
//! // …and the full power/area report of the evaluation section.
//! let report = evaluate(
//!     &routing.tree,
//!     &routing.node_stats,
//!     config.controller(),
//!     config.tech(),
//!     DeviceRole::Gate,
//! );
//! assert!(report.total_switched_cap > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod corners;
mod cost;
mod eco;
mod error;
mod evaluate;
mod optimal;
mod reduction;
mod router;
mod simulate;
mod tellez;

pub use controller::ControllerPlan;
pub use corners::{corner_analysis, CornerResult};
pub use cost::merge_switched_cap;
pub use eco::{route_gated_eco, GatedEcoResult};
pub use error::RouteError;
pub use evaluate::{
    evaluate, evaluate_breakdown, evaluate_buffered, evaluate_switched_cap, evaluate_with_mask,
    DeviceRole, LevelBreakdown, PowerReport, SwitchedCap,
};
pub use optimal::reduce_gates_optimal;
pub use reduction::{reduce_gates, reduce_gates_untied, ReductionParams};
pub use router::{
    gated_region_factory, gated_routing_for_topology, gated_routing_for_topology_mapped,
    node_activity, route_gated, route_gated_coarsened, route_gated_mapped,
    route_gated_with_scratch, GatedObjective, GatedRouting, RouterConfig,
};
pub use simulate::{simulate_stream, SimulationReport, WINDOW};
pub use tellez::{route_activity_driven, ActivityDrivenObjective};
