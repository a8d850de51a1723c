//! Shared diagnostics infrastructure for the OASYS static analyzers.
//!
//! Two analysis prongs emit these diagnostics: the plan dataflow
//! analyzer (`oasys-plan`, codes `OL0xx`) and the netlist
//! electrical-rule checker (`oasys-netlist`, codes `OL1xx`). Codes are
//! stable — tools and tests match on them — and each carries a default
//! severity. A [`Report`] aggregates diagnostics and renders them for
//! humans or as JSON for machine consumption (`oasys lint --format
//! json`).

use oasys_telemetry::json::string;
use std::fmt;

/// Stable diagnostic codes. The numeric part never changes meaning;
/// retired codes are not reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum Code {
    /// OL001: a step reads a state variable no earlier step (or plan
    /// input) definitely wrote on some path reaching it.
    UseBeforeDef,
    /// OL002: a step no control-flow path can reach.
    UnreachableStep,
    /// OL003: a patch rule restarts from a step name the plan lacks.
    DanglingRestartTarget,
    /// OL004: a rule an earlier unguarded rule on the same failure
    /// codes always preempts.
    ShadowedRule,
    /// OL005: a retry/restart rule that modifies no state — the same
    /// failure recurs until the budget exhausts.
    NonProgressRule,
    /// OL006: a rule whose failure codes no step emits.
    RuleNeverFires,
    /// OL007: a failure code a step emits that no rule handles.
    UnhandledFailureCode,
    /// OL101: a MOS gate node driven by nothing (only gates touch it).
    FloatingGate,
    /// OL102: a node with no DC-conducting path to any supply rail.
    NoDcPathToRail,
    /// OL103: a device drawn below the process minimum W or L.
    SubMinimumGeometry,
    /// OL104: a mirror-looking device pair whose channel lengths differ.
    MirrorLengthMismatch,
    /// OL105: a component value outside any physically plausible range.
    ImplausibleValue,
    /// OL201: a divisor's derived interval contains zero, so the plan
    /// may divide by zero at runtime.
    PossibleDivideByZero,
    /// OL202: an arithmetic result derived from bounded operands is
    /// unbounded (overflow to ±∞) on some input in the declared domain.
    PossiblyNonFinite,
    /// OL203: a geometric quantity (length/area) whose derived interval
    /// is entirely negative — statically impossible silicon.
    NegativeGeometry,
    /// OL204: an addition or subtraction mixes operands of different
    /// physical dimensions (e.g. volts + amps).
    UnitMismatch,
    /// OL205: a step requirement's interval provably cannot intersect
    /// the variable's derived interval — the plan is infeasible for the
    /// whole declared input domain.
    InfeasibleInterval,
}

impl Code {
    /// The stable `OLnnn` identifier.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UseBeforeDef => "OL001",
            Code::UnreachableStep => "OL002",
            Code::DanglingRestartTarget => "OL003",
            Code::ShadowedRule => "OL004",
            Code::NonProgressRule => "OL005",
            Code::RuleNeverFires => "OL006",
            Code::UnhandledFailureCode => "OL007",
            Code::FloatingGate => "OL101",
            Code::NoDcPathToRail => "OL102",
            Code::SubMinimumGeometry => "OL103",
            Code::MirrorLengthMismatch => "OL104",
            Code::ImplausibleValue => "OL105",
            Code::PossibleDivideByZero => "OL201",
            Code::PossiblyNonFinite => "OL202",
            Code::NegativeGeometry => "OL203",
            Code::UnitMismatch => "OL204",
            Code::InfeasibleInterval => "OL205",
        }
    }

    /// Short human title.
    #[must_use]
    pub fn title(self) -> &'static str {
        match self {
            Code::UseBeforeDef => "use before definition",
            Code::UnreachableStep => "unreachable step",
            Code::DanglingRestartTarget => "dangling restart target",
            Code::ShadowedRule => "shadowed rule",
            Code::NonProgressRule => "patch rule cannot make progress",
            Code::RuleNeverFires => "rule can never fire",
            Code::UnhandledFailureCode => "unhandled failure code",
            Code::FloatingGate => "floating MOS gate",
            Code::NoDcPathToRail => "no DC path to a rail",
            Code::SubMinimumGeometry => "below process minimum geometry",
            Code::MirrorLengthMismatch => "mirror length mismatch",
            Code::ImplausibleValue => "implausible component value",
            Code::PossibleDivideByZero => "possible division by zero",
            Code::PossiblyNonFinite => "possibly non-finite result",
            Code::NegativeGeometry => "provably negative geometry",
            Code::UnitMismatch => "unit dimension mismatch",
            Code::InfeasibleInterval => "requirement provably infeasible",
        }
    }

    /// The severity this code carries by default. Conditions that make
    /// the synthesized artifact or plan *certainly* wrong at runtime
    /// are errors; heuristics and style checks are warnings.
    #[must_use]
    pub fn default_severity(self) -> Severity {
        match self {
            Code::UseBeforeDef
            | Code::DanglingRestartTarget
            | Code::NegativeGeometry
            | Code::UnitMismatch
            | Code::InfeasibleInterval => Severity::Error,
            _ => Severity::Warning,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Suspicious but possibly intended; fails only `--deny-warnings`.
    Warning,
    /// Certainly wrong; always fails the lint gate.
    Error,
}

impl Severity {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding from an analyzer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (usually the code's default).
    pub severity: Severity,
    /// What was analyzed: a plan or circuit name.
    pub scope: String,
    /// The offending item inside the scope: a step, rule, node, or
    /// device name. Empty when the finding is scope-wide.
    pub subject: String,
    /// Human explanation with the concrete values involved.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic at the code's default severity.
    #[must_use]
    pub fn new(
        code: Code,
        scope: impl Into<String>,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            code,
            severity: code.default_severity(),
            scope: scope.into(),
            subject: subject.into(),
            message: message.into(),
        }
    }

    /// Overrides the severity.
    #[must_use]
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// `scope: subject` or just `scope` when there is no subject.
    #[must_use]
    pub fn location(&self) -> String {
        if self.subject.is_empty() {
            self.scope.clone()
        } else {
            format!("{}: {}", self.scope, self.subject)
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} ({}): {}",
            self.severity,
            self.code,
            self.code.title(),
            self.location(),
            self.message
        )
    }
}

/// An ordered collection of diagnostics from one or more analyzers.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Appends every diagnostic of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// True when any diagnostic is an error.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// True when the report contains `code`.
    #[must_use]
    pub fn contains(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// All diagnostics carrying `code`.
    #[must_use]
    pub fn with_code(&self, code: Code) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Whether the lint gate passes: no errors, and under
    /// `deny_warnings` no warnings either.
    #[must_use]
    pub fn passes(&self, deny_warnings: bool) -> bool {
        if deny_warnings {
            self.is_empty()
        } else {
            !self.has_errors()
        }
    }

    /// One line per diagnostic plus a summary line.
    #[must_use]
    pub fn render_human(&self) -> String {
        if self.is_empty() {
            return "no diagnostics\n".to_string();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let errors = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = self.diagnostics.len() - errors;
        out.push_str(&format!(
            "{} diagnostic(s): {errors} error(s), {warnings} warning(s)\n",
            self.diagnostics.len()
        ));
        out
    }

    /// Sorts diagnostics into the stable report order — by code, then
    /// scope, then subject, then message — and removes exact
    /// duplicates. Analyzers that merge findings from several passes
    /// (or several plans) call this so the rendered report is
    /// byte-identical regardless of pass order.
    pub fn normalize(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (
                a.code.as_str(),
                &a.scope,
                &a.subject,
                &a.message,
                a.severity,
            )
                .cmp(&(
                    b.code.as_str(),
                    &b.scope,
                    &b.subject,
                    &b.message,
                    b.severity,
                ))
        });
        self.diagnostics.dedup();
    }

    /// A JSON array of diagnostic objects, one per finding.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (k, d) in self.diagnostics.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":{},\"severity\":{},\"title\":{},\"scope\":{},\"subject\":{},\"message\":{}}}",
                string(d.code.as_str()),
                string(d.severity.as_str()),
                string(d.code.title()),
                string(&d.scope),
                string(&d.subject),
                string(&d.message),
            ));
        }
        out.push_str("]\n");
        out
    }

    /// The report as a SARIF 2.1.0 log with a single `oasys-lint` run.
    ///
    /// Each diagnostic becomes a `result` whose `ruleId` is the stable
    /// `OLnnn` code and whose location is the logical `scope: subject`
    /// pair (plans have no files, so physical locations are omitted).
    /// The driver's `rules` array describes exactly the codes that
    /// appear in the report, in first-appearance order.
    #[must_use]
    pub fn render_sarif(&self) -> String {
        let mut rule_ids: Vec<Code> = Vec::new();
        for d in &self.diagnostics {
            if !rule_ids.contains(&d.code) {
                rule_ids.push(d.code);
            }
        }
        let rules = rule_ids
            .iter()
            .map(|code| {
                format!(
                    "{{\"id\":{},\"name\":{},\"shortDescription\":{{\"text\":{}}},\
                     \"defaultConfiguration\":{{\"level\":{}}}}}",
                    string(code.as_str()),
                    string(code.title()),
                    string(code.title()),
                    string(sarif_level(code.default_severity())),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let results = self
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    "{{\"ruleId\":{},\"level\":{},\"message\":{{\"text\":{}}},\
                     \"locations\":[{{\"logicalLocations\":[{{\"fullyQualifiedName\":{}}}]}}]}}",
                    string(d.code.as_str()),
                    string(sarif_level(d.severity)),
                    string(&d.message),
                    string(&d.location()),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"$schema\":{},\"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":\
             {{\"name\":\"oasys-lint\",\"informationUri\":{},\"rules\":[{rules}]}}}},\
             \"results\":[{results}]}}]}}\n",
            string("https://json.schemastore.org/sarif-2.1.0.json"),
            string("https://github.com/oasys/oasys"),
        )
    }
}

/// SARIF `level` for a severity.
fn sarif_level(severity: Severity) -> &'static str {
    match severity {
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

impl FromIterator<Diagnostic> for Report {
    fn from_iter<I: IntoIterator<Item = Diagnostic>>(iter: I) -> Self {
        Self {
            diagnostics: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::UseBeforeDef.as_str(), "OL001");
        assert_eq!(Code::UnhandledFailureCode.as_str(), "OL007");
        assert_eq!(Code::FloatingGate.as_str(), "OL101");
        assert_eq!(Code::ImplausibleValue.as_str(), "OL105");
        assert_eq!(Code::PossibleDivideByZero.as_str(), "OL201");
        assert_eq!(Code::PossiblyNonFinite.as_str(), "OL202");
        assert_eq!(Code::NegativeGeometry.as_str(), "OL203");
        assert_eq!(Code::UnitMismatch.as_str(), "OL204");
        assert_eq!(Code::InfeasibleInterval.as_str(), "OL205");
    }

    #[test]
    fn interval_codes_carry_expected_severities() {
        assert_eq!(
            Code::PossibleDivideByZero.default_severity(),
            Severity::Warning
        );
        assert_eq!(
            Code::PossiblyNonFinite.default_severity(),
            Severity::Warning
        );
        assert_eq!(Code::NegativeGeometry.default_severity(), Severity::Error);
        assert_eq!(Code::UnitMismatch.default_severity(), Severity::Error);
        assert_eq!(Code::InfeasibleInterval.default_severity(), Severity::Error);
    }

    #[test]
    fn normalize_orders_by_code_then_site_and_dedups() {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            Code::UnitMismatch,
            "plan b",
            "step s2",
            "m",
        ));
        r.push(Diagnostic::new(
            Code::PossibleDivideByZero,
            "plan b",
            "step s9",
            "m",
        ));
        r.push(Diagnostic::new(
            Code::UnitMismatch,
            "plan a",
            "step s1",
            "m",
        ));
        r.push(Diagnostic::new(
            Code::UnitMismatch,
            "plan b",
            "step s2",
            "m",
        ));
        r.normalize();
        assert_eq!(r.len(), 3, "exact duplicate removed");
        let codes: Vec<&str> = r.diagnostics().iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, ["OL201", "OL204", "OL204"]);
        assert_eq!(r.diagnostics()[1].scope, "plan a");
        assert_eq!(r.diagnostics()[2].scope, "plan b");
    }

    #[test]
    fn sarif_rendering_is_valid_json_with_required_shape() {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            Code::InfeasibleInterval,
            "plan one-stage",
            "step gain-budget",
            "gain ∈ [80, 80] dB but ceiling is [0, 76.5]",
        ));
        r.push(Diagnostic::new(
            Code::PossibleDivideByZero,
            "plan one-stage",
            "step design-load",
            "divisor vov1 spans zero: [0, 0.5]",
        ));
        let sarif = r.render_sarif();
        let doc = oasys_telemetry::json::parse(&sarif).expect("sarif parses");
        assert_eq!(doc.get("version").and_then(|v| v.as_str()), Some("2.1.0"));
        let runs = doc.get("runs").and_then(|r| r.as_arr()).expect("runs");
        assert_eq!(runs.len(), 1);
        let results = runs[0]
            .get("results")
            .and_then(|r| r.as_arr())
            .expect("results");
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("ruleId").and_then(|v| v.as_str()),
            Some("OL205")
        );
        assert_eq!(
            results[0].get("level").and_then(|v| v.as_str()),
            Some("error")
        );
        let rules = runs[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(|r| r.as_arr())
            .expect("rules");
        assert_eq!(rules.len(), 2, "one rule per distinct code");
    }

    #[test]
    fn empty_sarif_report_has_empty_results() {
        let sarif = Report::new().render_sarif();
        let doc = oasys_telemetry::json::parse(&sarif).expect("sarif parses");
        let runs = doc.get("runs").and_then(|r| r.as_arr()).expect("runs");
        let results = runs[0]
            .get("results")
            .and_then(|r| r.as_arr())
            .expect("results");
        assert!(results.is_empty());
    }

    #[test]
    fn severity_ordering_puts_error_above_warning() {
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn gate_logic() {
        let mut r = Report::new();
        assert!(r.passes(true));
        r.push(Diagnostic::new(
            Code::FloatingGate,
            "c",
            "n1",
            "gate floats",
        ));
        assert!(r.passes(false), "warnings pass by default");
        assert!(!r.passes(true), "warnings fail under deny-warnings");
        r.push(Diagnostic::new(Code::UseBeforeDef, "p", "s", "read of x"));
        assert!(!r.passes(false), "errors always fail");
        assert!(r.has_errors());
        assert!(r.contains(Code::FloatingGate));
        assert_eq!(r.with_code(Code::UseBeforeDef).len(), 1);
    }

    #[test]
    fn human_rendering_includes_code_and_counts() {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            Code::ShadowedRule,
            "plan two-stage",
            "rule give-up",
            "earlier rule covers all codes",
        ));
        let text = r.render_human();
        assert!(text.contains("OL004"), "{text}");
        assert!(text.contains("shadowed rule"), "{text}");
        assert!(
            text.contains("1 diagnostic(s): 0 error(s), 1 warning(s)"),
            "{text}"
        );
    }

    #[test]
    fn json_rendering_escapes_and_structures() {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            Code::ImplausibleValue,
            "c",
            "R\"1\"",
            "value 1e30 Ω\nline two",
        ));
        let json = r.render_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"code\":\"OL105\""), "{json}");
        assert!(json.contains("R\\\"1\\\""), "{json}");
        assert!(json.contains("\\n"), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
    }

    #[test]
    fn empty_report_renders() {
        assert_eq!(Report::new().render_json(), "[]\n");
        assert_eq!(Report::new().render_human(), "no diagnostics\n");
    }

    #[test]
    fn merge_and_from_iter() {
        let mut a: Report = vec![Diagnostic::new(Code::RuleNeverFires, "p", "r", "m")]
            .into_iter()
            .collect();
        let b: Report = vec![Diagnostic::new(Code::NoDcPathToRail, "c", "n", "m")]
            .into_iter()
            .collect();
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.diagnostics()[1].code, Code::NoDcPathToRail);
    }
}
