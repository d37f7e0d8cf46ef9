//! The diagnostics data model: severities, locations, diagnostics and the
//! report they are collected into, renderable as human text,
//! machine-readable JSON, or SARIF 2.1.0.

use std::fmt;

use gcr_trace::json::escape_into;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth surfacing, not a defect.
    Info,
    /// Suspicious but not provably wrong (e.g. a statistical bound that
    /// finite sampling can graze).
    Warn,
    /// A violated invariant: the design is not what it claims to be.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// Where in the design a diagnostic points.
#[derive(Clone, Debug, PartialEq)]
pub enum Location {
    /// A whole-design property with no sharper anchor.
    Design,
    /// Tree node `v_i` (its dense topology index).
    Node(usize),
    /// The edge between node `child` and its parent.
    Edge {
        /// The node at the bottom of the edge.
        child: usize,
    },
    /// Sink `i` (the paper's `s_i`).
    Sink(usize),
    /// A whole activity table.
    Table(&'static str),
    /// One cell of an activity table.
    TableCell {
        /// Which table (`"IFT"`, `"ITMATT"`).
        table: &'static str,
        /// Row index.
        row: usize,
        /// Column index.
        col: usize,
    },
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Design => f.write_str("design"),
            Location::Node(i) => write!(f, "v{i}"),
            Location::Edge { child } => write!(f, "edge(v{child})"),
            Location::Sink(i) => write!(f, "s{i}"),
            Location::Table(t) => f.write_str(t),
            Location::TableCell { table, row, col } => write!(f, "{table}[{row}][{col}]"),
        }
    }
}

/// One finding of one lint pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// The id of the lint that produced this (e.g. `"zero-skew"`).
    pub lint_id: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Where it points.
    pub location: Location,
    /// Human-readable description of the violation.
    pub message: String,
    /// Stable diagnostic code (e.g. `"GCR-ZS01"`); `None` falls back to
    /// the lint id in renderings. Codes never change meaning between
    /// releases — tooling may key on them.
    pub code: Option<&'static str>,
    /// Optional fix-it hint: what a user would do about this finding.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Shorthand constructor.
    #[must_use]
    pub fn new(
        lint_id: &'static str,
        severity: Severity,
        location: Location,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            lint_id,
            severity,
            location,
            message: message.into(),
            code: None,
            hint: None,
        }
    }

    /// Attaches a stable diagnostic code (builder style).
    #[must_use]
    pub fn with_code(mut self, code: &'static str) -> Self {
        self.code = Some(code);
        self
    }

    /// Attaches a fix-it hint (builder style).
    #[must_use]
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// The stable code, falling back to the lint id when none was set.
    #[must_use]
    pub fn code(&self) -> &'static str {
        self.code.unwrap_or(self.lint_id)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}: {}",
            self.severity,
            self.code(),
            self.location,
            self.message
        )?;
        if let Some(hint) = &self.hint {
            write!(f, " (hint: {hint})")?;
        }
        Ok(())
    }
}

/// A pass the verifier decided not to run, and why.
#[derive(Clone, Debug, PartialEq)]
pub struct SkippedPass {
    /// The id of the pass that was skipped.
    pub id: &'static str,
    /// Why it was skipped (e.g. broken tree structure upstream, or a
    /// whole-design pass under a partial scope).
    pub reason: String,
}

/// Every diagnostic produced by one verifier run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VerifyReport {
    diagnostics: Vec<Diagnostic>,
    passes_run: Vec<&'static str>,
    skipped: Vec<SkippedPass>,
}

impl VerifyReport {
    pub(crate) fn new(
        diagnostics: Vec<Diagnostic>,
        passes_run: Vec<&'static str>,
        skipped: Vec<SkippedPass>,
    ) -> Self {
        VerifyReport {
            diagnostics,
            passes_run,
            skipped,
        }
    }

    /// All diagnostics, in pass-registration order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The ids of the passes that ran (including clean ones).
    #[must_use]
    pub fn passes_run(&self) -> &[&'static str] {
        &self.passes_run
    }

    /// Passes the verifier skipped this run, with reasons — e.g.
    /// delay-dependent passes after the tree structure proved broken, or
    /// whole-design passes under a partial [`Scope`](crate::Scope).
    #[must_use]
    pub fn skipped(&self) -> &[SkippedPass] {
        &self.skipped
    }

    /// Number of diagnostics at `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any Error-severity diagnostic exists.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Diagnostics produced by the lint with `id`.
    pub fn by_lint<'a>(&'a self, id: &'a str) -> impl Iterator<Item = &'a Diagnostic> + 'a {
        self.diagnostics.iter().filter(move |d| d.lint_id == id)
    }

    /// Human-readable multi-line rendering.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        for s in &self.skipped {
            let _ = writeln!(out, "skipped: [{}] {}", s.id, s.reason);
        }
        let _ = write!(
            out,
            "{} passes, {} errors, {} warnings, {} notes",
            self.passes_run.len(),
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        );
        if !self.skipped.is_empty() {
            let _ = write!(out, ", {} skipped", self.skipped.len());
        }
        out.push('\n');
        out
    }

    /// Machine-readable JSON rendering (no external dependencies, hence
    /// hand-built; the shape is stable: `{"passes": [...], "diagnostics":
    /// [{"lint", "code", "severity", "location", "message", "hint"?}],
    /// "skipped": [{"pass", "reason"}], "errors": N}`).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"passes\":[");
        for (i, p) in self.passes_run.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(p);
            out.push('"');
        }
        out.push_str("],\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"lint\":\"");
            out.push_str(d.lint_id);
            out.push_str("\",\"code\":\"");
            out.push_str(d.code());
            out.push_str("\",\"severity\":\"");
            out.push_str(&d.severity.to_string());
            out.push_str("\",\"location\":\"");
            escape_into(&mut out, &d.location.to_string());
            out.push_str("\",\"message\":\"");
            escape_into(&mut out, &d.message);
            out.push('"');
            if let Some(hint) = &d.hint {
                out.push_str(",\"hint\":\"");
                escape_into(&mut out, hint);
                out.push('"');
            }
            out.push('}');
        }
        out.push_str("],\"skipped\":[");
        for (i, s) in self.skipped.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"pass\":\"");
            out.push_str(s.id);
            out.push_str("\",\"reason\":\"");
            escape_into(&mut out, &s.reason);
            out.push_str("\"}");
        }
        out.push_str("],\"errors\":");
        out.push_str(&self.count(Severity::Error).to_string());
        out.push('}');
        out
    }

    /// SARIF 2.1.0 rendering — the static-analysis interchange format
    /// GitHub code scanning and most SARIF viewers ingest. One run, one
    /// `tool.driver` named `gcr-verify`; each unique diagnostic code
    /// becomes a reporting rule, each diagnostic a result anchored at a
    /// logical location (the design has no source files, so tree nodes,
    /// sinks and tables are logical locations).
    #[must_use]
    pub fn render_sarif(&self) -> String {
        let mut out = String::from(concat!(
            "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",",
            "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{",
            "\"name\":\"gcr-verify\",\"informationUri\":",
            "\"https://github.com/gcr/gcr\",\"rules\":["
        ));
        let mut rules: Vec<(&'static str, &'static str)> = Vec::new();
        for d in &self.diagnostics {
            if !rules.iter().any(|(code, _)| *code == d.code()) {
                rules.push((d.code(), d.lint_id));
            }
        }
        for (i, (code, lint_id)) in rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":\"");
            out.push_str(code);
            out.push_str("\",\"shortDescription\":{\"text\":\"");
            escape_into(&mut out, lint_id);
            out.push_str("\"}}");
        }
        out.push_str("]}},\"results\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"ruleId\":\"");
            out.push_str(d.code());
            out.push_str("\",\"level\":\"");
            out.push_str(match d.severity {
                Severity::Error => "error",
                Severity::Warn => "warning",
                Severity::Info => "note",
            });
            out.push_str("\",\"message\":{\"text\":\"");
            escape_into(&mut out, &d.message);
            if let Some(hint) = &d.hint {
                escape_into(&mut out, &format!(" (hint: {hint})"));
            }
            out.push_str("\"},\"locations\":[{\"logicalLocations\":[{\"name\":\"");
            escape_into(&mut out, &d.location.to_string());
            out.push_str("\"}]}]}");
        }
        out.push_str("]}]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_displays() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn report_counts_and_filters() {
        let report = VerifyReport::new(
            vec![
                Diagnostic::new("a", Severity::Error, Location::Node(3), "bad"),
                Diagnostic::new("b", Severity::Warn, Location::Design, "meh"),
                Diagnostic::new("a", Severity::Info, Location::Sink(0), "fyi"),
            ],
            vec!["a", "b"],
            Vec::new(),
        );
        assert!(report.has_errors());
        assert_eq!(report.count(Severity::Error), 1);
        assert_eq!(report.by_lint("a").count(), 2);
        let text = report.render_text();
        assert!(text.contains("error: [a] v3: bad"));
        assert!(text.contains("2 passes, 1 errors, 1 warnings, 1 notes"));
        assert!(!text.contains("skipped"));
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let report = VerifyReport::new(
            vec![Diagnostic::new(
                "x",
                Severity::Error,
                Location::TableCell {
                    table: "IFT",
                    row: 1,
                    col: 2,
                },
                "say \"no\"\n",
            )],
            vec!["x"],
            Vec::new(),
        );
        let json = report.render_json();
        assert!(json.contains("\"lint\":\"x\""));
        assert!(json.contains("\"code\":\"x\""));
        assert!(json.contains("IFT[1][2]"));
        assert!(json.contains("say \\\"no\\\"\\n"));
        assert!(json.contains("\"skipped\":[]"));
        assert!(json.ends_with("\"errors\":1}"));
    }

    #[test]
    fn codes_and_hints_flow_through_every_rendering() {
        let d = Diagnostic::new(
            "zero-skew",
            Severity::Error,
            Location::Node(7),
            "late arrival",
        )
        .with_code("GCR-ZS01")
        .with_hint("re-run embed() after the topology change");
        assert_eq!(d.code(), "GCR-ZS01");
        assert_eq!(
            d.to_string(),
            "error: [GCR-ZS01] v7: late arrival \
             (hint: re-run embed() after the topology change)"
        );
        let report = VerifyReport::new(vec![d], vec!["zero-skew"], Vec::new());
        let json = report.render_json();
        assert!(json.contains("\"code\":\"GCR-ZS01\""));
        assert!(json.contains("\"hint\":\"re-run embed()"));
        let sarif = report.render_sarif();
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"name\":\"gcr-verify\""));
        assert!(sarif.contains("{\"id\":\"GCR-ZS01\""));
        assert!(sarif.contains("\"ruleId\":\"GCR-ZS01\",\"level\":\"error\""));
        assert!(sarif.contains("\"logicalLocations\":[{\"name\":\"v7\"}]"));
    }

    #[test]
    fn skipped_passes_surface_in_text_and_json() {
        let report = VerifyReport::new(
            Vec::new(),
            vec!["tree-structure"],
            vec![SkippedPass {
                id: "zero-skew",
                reason: "tree structure is broken".into(),
            }],
        );
        let text = report.render_text();
        assert!(text.contains("skipped: [zero-skew] tree structure is broken"));
        assert!(text.contains("1 passes, 0 errors, 0 warnings, 0 notes, 1 skipped"));
        let json = report.render_json();
        assert!(json.contains(
            "\"skipped\":[{\"pass\":\"zero-skew\",\"reason\":\"tree structure is broken\"}]"
        ));
    }

    #[test]
    fn sarif_dedupes_rules_and_maps_levels() {
        let report = VerifyReport::new(
            vec![
                Diagnostic::new("g", Severity::Warn, Location::Sink(1), "w1").with_code("GCR-G01"),
                Diagnostic::new("g", Severity::Info, Location::Sink(2), "w2").with_code("GCR-G01"),
            ],
            vec!["g"],
            Vec::new(),
        );
        let sarif = report.render_sarif();
        assert_eq!(sarif.matches("{\"id\":\"GCR-G01\"").count(), 1);
        assert!(sarif.contains("\"level\":\"warning\""));
        assert!(sarif.contains("\"level\":\"note\""));
    }
}
