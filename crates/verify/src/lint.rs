//! The `Lint` trait and the pass registry that runs lints over a design.

use crate::diag::{Diagnostic, SkippedPass, VerifyReport};
use crate::input::VerifyInput;
use crate::passes;

/// One static-analysis pass over a design.
///
/// A lint inspects the [`VerifyInput`] and appends [`Diagnostic`]s; it
/// must not mutate anything and must tolerate missing optional context by
/// checking less (not by erroring).
///
/// # Scoped runs
///
/// When `input.scope` is a partial [`Scope`](crate::Scope), the
/// [`Verifier`] filters each pass's findings down to locations the scope
/// covers, so a pass is always *correct* without scope-awareness. A pass
/// may additionally restrict its own iteration to
/// `input.scope.nodes_in(..)` to make scoped runs cheap, as long as every
/// in-scope finding is still produced. Passes whose invariants are
/// inherently whole-design (their findings anchor at `Design`/`Table`
/// locations a partial scope never covers) should return `true` from
/// [`Lint::whole_design_only`]; the verifier then skips them under a
/// partial scope and records the skip in the report.
pub trait Lint {
    /// Stable machine-readable id, also used as the diagnostic `lint_id`
    /// (e.g. `"zero-skew"`).
    fn id(&self) -> &'static str;

    /// One-line human description of what the pass checks.
    fn description(&self) -> &'static str;

    /// Whether the pass only produces whole-design findings, making it
    /// pointless (and skippable) under a partial scope.
    fn whole_design_only(&self) -> bool {
        false
    }

    /// Runs the pass, appending findings to `out`.
    fn run(&self, input: &VerifyInput<'_>, out: &mut Vec<Diagnostic>);
}

/// An ordered registry of lints — the verifier itself.
#[derive(Default)]
pub struct Verifier {
    lints: Vec<Box<dyn Lint>>,
}

impl Verifier {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Verifier::default()
    }

    /// The registry with every built-in pass, in dependency-friendly
    /// order (structure first — later passes assume a sane tree shape).
    #[must_use]
    pub fn with_default_lints() -> Self {
        let mut v = Verifier::new();
        v.register(Box::new(passes::TreeStructureLint));
        v.register(Box::new(passes::GeometryLint));
        v.register(Box::new(passes::ZeroSkewLint));
        v.register(Box::new(passes::ActivityTablesLint));
        v.register(Box::new(passes::GatingLint));
        v.register(Box::new(passes::SwitchedCapLint));
        v.register(Box::new(passes::DeterminismLint));
        v
    }

    /// Appends a lint to the run order.
    pub fn register(&mut self, lint: Box<dyn Lint>) {
        self.lints.push(lint);
    }

    /// The registered lints, in run order.
    #[must_use]
    pub fn lints(&self) -> &[Box<dyn Lint>] {
        &self.lints
    }

    /// Runs every pass over `input`.
    ///
    /// Structural damage makes electrical recomputation meaningless (and
    /// possibly non-terminating), so when the tree-structure pass reports
    /// an Error, passes that traverse parent/child links (zero-skew,
    /// switched-cap) are skipped; their ids still appear in
    /// [`VerifyReport::passes_run`] only if they actually ran, and every
    /// skip is recorded with its reason in [`VerifyReport::skipped`].
    ///
    /// Under a partial `input.scope`, whole-design-only passes are
    /// likewise skipped (and recorded), and every finding is filtered to
    /// locations the scope covers — the scoped-oracle contract: the
    /// report equals a full run's report restricted to the scope.
    ///
    /// Records a span per pass (named by the lint id) under a
    /// `verify.run` parent, plus diagnostic counters, on
    /// [`Tracer::current`](gcr_trace::Tracer::current). Skipped passes
    /// emit a `verify.skipped` warn event.
    #[must_use]
    pub fn run(&self, input: &VerifyInput<'_>) -> VerifyReport {
        let tracer = gcr_trace::Tracer::current();
        let _run = tracer.span("verify.run");
        let partial_scope = !input.scope.is_full();
        let mut diagnostics = Vec::new();
        let mut passes_run = Vec::new();
        let mut skipped = Vec::new();
        let mut structure_broken = false;
        for lint in &self.lints {
            let reason = if structure_broken && matches!(lint.id(), "zero-skew" | "switched-cap") {
                Some("tree structure is broken".to_string())
            } else if partial_scope && lint.whole_design_only() {
                Some(format!(
                    "whole-design pass under partial scope {}",
                    input.scope
                ))
            } else {
                None
            };
            if let Some(reason) = reason {
                if tracer.enabled() {
                    tracer.warn(
                        "verify.skipped",
                        &format!("skipping {} pass: {reason}", lint.id()),
                    );
                }
                skipped.push(SkippedPass {
                    id: lint.id(),
                    reason,
                });
                continue;
            }
            let before = diagnostics.len();
            {
                let _pass = tracer.span(lint.id());
                lint.run(input, &mut diagnostics);
            }
            passes_run.push(lint.id());
            // Structure health is judged on the *unfiltered* output: a
            // break outside the scope still poisons delay recomputation
            // inside it.
            if lint.id() == "tree-structure"
                && diagnostics[before..]
                    .iter()
                    .any(|d| d.severity == crate::Severity::Error)
            {
                structure_broken = true;
            }
            if partial_scope {
                let scope = &input.scope;
                let mut keep = before;
                for i in before..diagnostics.len() {
                    if scope.covers(&diagnostics[i].location) {
                        diagnostics.swap(keep, i);
                        keep += 1;
                    }
                }
                diagnostics.truncate(keep);
            }
        }
        tracer.counter("verify.passes_run", passes_run.len() as f64);
        tracer.counter("verify.diagnostics", diagnostics.len() as f64);
        VerifyReport::new(diagnostics, passes_run, skipped)
    }
}
