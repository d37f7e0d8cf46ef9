//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§5–§6) from the substrates in this workspace.
//!
//! Each experiment is a library function returning structured rows —
//! [`run_experiment`] prints them as ASCII tables (`gcr experiment
//! <name>` on the command line), and the integration tests assert the
//! paper's qualitative shapes on them:
//!
//! | paper artifact | function | command |
//! |---|---|---|
//! | Table 4 (benchmark characteristics) | [`table4`] | `gcr experiment table4` |
//! | Fig. 3 (buffered vs gated vs gate-reduced, r1–r5) | [`fig3`] | `gcr experiment fig3` |
//! | Fig. 4 (module activity vs switched capacitance) | [`fig4`] | `gcr experiment fig4` |
//! | Fig. 5 (gate reduction vs switched capacitance/area) | [`fig5`] | `gcr experiment fig5` |
//! | Fig. 6 / §6 (distributed controllers) | [`fig6`] | `gcr experiment fig6` |
//!
//! [`Experiment`] lists the extension studies too; `gcr experiment all`
//! runs the table and the four figures in one go.
//!
//! The pipeline shared by all of them lives in [`run_pipeline`]: generate
//! a workload, build the buffered baseline, run the gated router, apply
//! gate reduction, and evaluate each tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;
mod svg;
mod table;

pub use experiments::ext::{
    corner_study, optimal_vs_heuristic, seeded_workload, skew_tradeoff_study, tech_scaling_study,
    variance_study, CornerRow, OptimalRow, ScalingRow, SkewTradeoffRow, Stats1d, VarianceSummary,
};
pub use experiments::fig3::{
    fig3, render_area as render_fig3_area, render_switched_cap as render_fig3_switched_cap, Fig3Row,
};
pub use experiments::fig4::{fig4, render as render_fig4, Fig4Row};
pub use experiments::fig5::{fig5, render as render_fig5, Fig5Row};
pub use experiments::fig6::{fig6, render as render_fig6, Fig6Row};
pub use experiments::pipeline::{run_pipeline, PipelineResult, DEFAULT_STRENGTHS};
pub use experiments::run::{run_experiment, Experiment, ExperimentOptions};
pub use experiments::table4::{render as render_table4, table4, Table4Row};
pub use svg::{render_svg, SvgOptions};
pub use table::TextTable;
