//! Structured diagnostics and the machine-readable report.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing; never fails a build.
    Info,
    /// A performance or hygiene problem; fails under `--deny warnings`.
    Warning,
    /// A correctness violation: the directive claims something false.
    Error,
}

impl Severity {
    /// Lower-case label used in text and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The rule a diagnostic was produced by, one per checkable directive
/// claim or lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `independent` asserted on a loop with a provable cross-iteration
    /// dependence (Banerjee/GCD test on the affine access descriptors).
    IndependentRace,
    /// A kernel referenced an array never `copyin`/`create`'d.
    UseNotMapped,
    /// `present` clause on data that is not on the device.
    PresentOnAbsent,
    /// `update host`/`update device` on an unmapped array.
    UpdateOnAbsent,
    /// Host read of data whose last write was on the device with no
    /// `update host` in between.
    StaleHostRead,
    /// Kernel read of data whose last write was on the host with no
    /// `update device` in between.
    StaleDeviceRead,
    /// `enter data` never paired with `exit data`.
    LeakedEnterData,
    /// `exit data delete` on data already deleted (or never mapped).
    DoubleDelete,
    /// RAW/WAR/WAW between launches on different async queues touching
    /// overlapping elements without an intervening `wait`.
    AsyncHazard,
    /// A `wait` with nothing pending (doubled barrier).
    RedundantWait,
    /// Non-unit innermost stride: vector lanes hit non-consecutive
    /// addresses (the Figure 13 uncoalesced-access situation).
    UncoalescedAccess,
    /// A deep nest that would gridify better with `collapse` or
    /// `independent` (the Section 5.2 PGI finding).
    CollapseOpportunity,
    /// Register demand exceeds the cap: spills to local memory
    /// (Figures 10/12), or occupancy starves the memory pipeline.
    RegisterPressure,
    /// A `vector(N)` mapping with a carried dependence of distance < N:
    /// two iterations of the same SIMD chunk touch one element.
    VectorLaneDependence,
    /// Vectorizing a declared FP reduction reassociates the combine tree;
    /// results differ from the scalar chain within a documented ULP bound.
    VectorReassociation,
    /// A vector loop's store stream starts at a base whose alignment
    /// residue is nonzero: every vector store straddles an alignment
    /// boundary (unaligned-access penalty, or a scalar prologue).
    VectorMisalignment,
    /// A loop declared dependent (hence sequential) whose affine accesses
    /// the solver proves independent: vectorization legal but unused.
    VectorizableSequential,
}

impl Rule {
    /// Kebab-case rule id, stable across releases (what CI greps for).
    pub fn id(&self) -> &'static str {
        match self {
            Rule::IndependentRace => "independent-race",
            Rule::UseNotMapped => "use-not-mapped",
            Rule::PresentOnAbsent => "present-on-absent",
            Rule::UpdateOnAbsent => "update-on-absent",
            Rule::StaleHostRead => "stale-host-read",
            Rule::StaleDeviceRead => "stale-device-read",
            Rule::LeakedEnterData => "leaked-enter-data",
            Rule::DoubleDelete => "double-delete",
            Rule::AsyncHazard => "async-hazard",
            Rule::RedundantWait => "redundant-wait",
            Rule::UncoalescedAccess => "uncoalesced-access",
            Rule::CollapseOpportunity => "collapse-opportunity",
            Rule::RegisterPressure => "register-pressure",
            Rule::VectorLaneDependence => "vector-lane-dependence",
            Rule::VectorReassociation => "vector-reassociation",
            Rule::VectorMisalignment => "vector-misalignment",
            Rule::VectorizableSequential => "vectorizable-sequential",
        }
    }

    /// The five acceptance rule classes: dependence/race, data
    /// environment, async hazard, coalescing/perf lint, vectorization.
    pub fn class(&self) -> &'static str {
        match self {
            Rule::IndependentRace => "dependence",
            Rule::UseNotMapped
            | Rule::PresentOnAbsent
            | Rule::UpdateOnAbsent
            | Rule::StaleHostRead
            | Rule::StaleDeviceRead
            | Rule::LeakedEnterData
            | Rule::DoubleDelete => "data-environment",
            Rule::AsyncHazard | Rule::RedundantWait => "async-hazard",
            Rule::UncoalescedAccess | Rule::CollapseOpportunity | Rule::RegisterPressure => {
                "performance-lint"
            }
            Rule::VectorLaneDependence
            | Rule::VectorReassociation
            | Rule::VectorMisalignment
            | Rule::VectorizableSequential => "vectorization",
        }
    }
}

/// Where in the directive program a diagnostic points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Span {
    /// Index of the offending op in the program's op list.
    pub op: usize,
    /// Kernel name, when the op is a launch.
    pub kernel: Option<String>,
    /// Array involved, when one is.
    pub array: Option<String>,
}

impl Span {
    /// Span pointing at op `op`.
    pub fn at(op: usize) -> Self {
        Span {
            op,
            ..Span::default()
        }
    }

    /// Builder: attach the kernel name.
    pub fn kernel(mut self, name: impl Into<String>) -> Self {
        self.kernel = Some(name.into());
        self
    }

    /// Builder: attach the array name.
    pub fn array(mut self, name: impl Into<String>) -> Self {
        self.array = Some(name.into());
        self
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op {}", self.op)?;
        if let Some(k) = &self.kernel {
            write!(f, " kernel `{k}`")?;
        }
        if let Some(a) = &self.array {
            write!(f, " array `{a}`")?;
        }
        Ok(())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity level.
    pub severity: Severity,
    /// Rule that fired.
    pub rule: Rule,
    /// Program location.
    pub span: Span,
    /// Human-readable explanation with the concrete evidence.
    pub message: String,
}

impl Diagnostic {
    /// A new diagnostic.
    pub fn new(severity: Severity, rule: Rule, span: Span, message: impl Into<String>) -> Self {
        Self {
            severity,
            rule,
            span,
            message: message.into(),
        }
    }

    /// `error[independent-race] op 3 kernel `x`: message` — the text form.
    pub fn render(&self) -> String {
        format!(
            "{}[{}] {}: {}",
            self.severity.label(),
            self.rule.id(),
            self.span,
            self.message
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize one diagnostic as a JSON object.
pub fn diagnostic_json(d: &Diagnostic) -> String {
    let kernel = match &d.span.kernel {
        Some(k) => format!("\"{}\"", json_escape(k)),
        None => "null".to_string(),
    };
    let array = match &d.span.array {
        Some(a) => format!("\"{}\"", json_escape(a)),
        None => "null".to_string(),
    };
    format!(
        "{{\"severity\":\"{}\",\"rule\":\"{}\",\"class\":\"{}\",\"op\":{},\"kernel\":{},\"array\":{},\"message\":\"{}\"}}",
        d.severity.label(),
        d.rule.id(),
        d.rule.class(),
        d.span.op,
        kernel,
        array,
        json_escape(&d.message)
    )
}

/// Serialize a named diagnostic list as a JSON report object.
pub fn report_json(program: &str, diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(diagnostic_json).collect();
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    format!(
        "{{\"program\":\"{}\",\"errors\":{},\"warnings\":{},\"diagnostics\":[{}]}}",
        json_escape(program),
        errors,
        warnings,
        items.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_labels() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::Error.label(), "error");
    }

    #[test]
    fn rule_ids_unique_and_kebab() {
        let all = [
            Rule::IndependentRace,
            Rule::UseNotMapped,
            Rule::PresentOnAbsent,
            Rule::UpdateOnAbsent,
            Rule::StaleHostRead,
            Rule::StaleDeviceRead,
            Rule::LeakedEnterData,
            Rule::DoubleDelete,
            Rule::AsyncHazard,
            Rule::RedundantWait,
            Rule::UncoalescedAccess,
            Rule::CollapseOpportunity,
            Rule::RegisterPressure,
            Rule::VectorLaneDependence,
            Rule::VectorReassociation,
            Rule::VectorMisalignment,
            Rule::VectorizableSequential,
        ];
        let ids: std::collections::HashSet<_> = all.iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), all.len());
        assert!(ids
            .iter()
            .all(|i| i.chars().all(|c| c.is_ascii_lowercase() || c == '-')));
        // All five acceptance classes are populated.
        let classes: std::collections::HashSet<_> = all.iter().map(|r| r.class()).collect();
        assert_eq!(classes.len(), 5);
    }

    #[test]
    fn render_and_json_carry_the_span() {
        let d = Diagnostic::new(
            Severity::Error,
            Rule::IndependentRace,
            Span::at(3).kernel("iso_kernel_2d").array("fields"),
            "iterations 4 and 5 both touch element 9",
        );
        let r = d.render();
        assert!(r.contains("error[independent-race]"));
        assert!(r.contains("op 3"));
        assert!(r.contains("iso_kernel_2d"));
        let j = diagnostic_json(&d);
        assert!(j.contains("\"rule\":\"independent-race\""));
        assert!(j.contains("\"class\":\"dependence\""));
        assert!(j.contains("\"op\":3"));
    }

    #[test]
    fn json_escapes_specials() {
        let d = Diagnostic::new(
            Severity::Info,
            Rule::UncoalescedAccess,
            Span::at(0),
            "quote \" backslash \\ newline \n done",
        );
        let j = diagnostic_json(&d);
        assert!(j.contains("quote \\\" backslash \\\\ newline \\n done"));
        let r = report_json("case", &[d]);
        assert!(r.contains("\"errors\":0"));
        assert!(r.contains("\"warnings\":0"));
    }
}
