//! The fault-injection matrix: failpoint specs against real queries,
//! asserting graceful degradation.
//!
//! "Graceful" means four things, all checked per case: (1) the query
//! fails with one of the *expected* typed error codes — injected faults
//! must ride the same error paths real faults take; (2) no panic escapes
//! the pipeline; (3) the store holds no partially-built fragments
//! afterwards; (4) the session stays usable — the same query succeeds
//! once the failpoints are disarmed.

use exrquy::algebra::Op;
use exrquy::diag::{ErrorCode, Failpoints};
use exrquy::{QueryOptions, Session};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One cell of the fault matrix.
#[derive(Debug, Clone)]
pub struct FaultCase {
    /// Short label for reports.
    pub name: String,
    /// Failpoint spec (the `--inject` grammar).
    pub spec: String,
    /// Query to run with the failpoints armed.
    pub query: String,
    /// Error codes that count as graceful degradation.
    pub expected: Vec<ErrorCode>,
    /// Run under the order-aware baseline configuration instead of the
    /// order-indifferent one (needed when the targeted operator — e.g.
    /// `%` — only survives in unoptimized plans).
    pub baseline: bool,
}

impl FaultCase {
    pub fn new(
        name: &str,
        spec: &str,
        query: &str,
        expected: Vec<ErrorCode>,
        baseline: bool,
    ) -> Self {
        FaultCase {
            name: name.to_string(),
            spec: spec.to_string(),
            query: query.to_string(),
            expected,
            baseline,
        }
    }
}

/// Outcome of one case.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    pub name: String,
    /// Observed error code, when the query failed with a typed error.
    pub code: Option<ErrorCode>,
    /// `None` when the case degraded gracefully; otherwise what went
    /// wrong (wrong code, unexpected success, state leak, panic, …).
    pub problem: Option<String>,
}

/// Outcome of a matrix run.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    pub outcomes: Vec<FaultOutcome>,
}

impl FaultReport {
    pub fn failures(&self) -> Vec<&FaultOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.problem.is_some())
            .collect()
    }

    pub fn all_graceful(&self) -> bool {
        self.outcomes.iter().all(|o| o.problem.is_none())
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fails = self.failures();
        write!(
            f,
            "fault matrix: {}/{} cases degraded gracefully",
            self.outcomes.len() - fails.len(),
            self.outcomes.len()
        )?;
        for o in fails {
            write!(f, "\n  {}: {}", o.name, o.problem.as_deref().unwrap_or(""))?;
        }
        Ok(())
    }
}

/// Two small documents every case can rely on: `d.xml` and `e.xml`, each
/// with two `x` descendants.
const DOC_D: &str = "<site><a><x/></a><b><x/></b></site>";
const DOC_E: &str = "<other><x/><c><x/></c></other>";

/// The standard grid: every failpoint kind, over queries guaranteed to
/// reach the targeted operator.
pub fn default_cases() -> Vec<FaultCase> {
    vec![
        FaultCase::new(
            "doc-io-first-access",
            "doc-io:1",
            r#"doc("d.xml")//x"#,
            vec![ErrorCode::FODC0002],
            false,
        ),
        FaultCase::new(
            "doc-io-second-access",
            "doc-io:2",
            r#"(doc("d.xml")//x, doc("e.xml")//x)"#,
            vec![ErrorCode::FODC0002],
            false,
        ),
        FaultCase::new(
            "doc-parse-on-load",
            "doc-parse:1",
            r#"fn:count(doc("d.xml")//x)"#,
            vec![ErrorCode::FODC0006],
            false,
        ),
        FaultCase::new(
            "budget-trip-step",
            "budget-trip:step",
            r#"doc("d.xml")//x"#,
            vec![ErrorCode::EXRQ0001],
            false,
        ),
        FaultCase::new(
            "budget-trip-rownum",
            "budget-trip:rownum",
            // The baseline plan numbers the step result with a sorting %.
            r#"doc("d.xml")//x"#,
            vec![ErrorCode::EXRQ0001],
            true,
        ),
        FaultCase::new(
            "budget-trip-serialize",
            "budget-trip:serialize",
            r#"doc("d.xml")//x"#,
            vec![ErrorCode::EXRQ0001],
            false,
        ),
        FaultCase::new(
            "cancel-at-first-boundary",
            "cancel-after:0",
            r#"doc("d.xml")//x"#,
            vec![ErrorCode::EXRQ0002],
            false,
        ),
        FaultCase::new(
            "cancel-mid-plan",
            "cancel-after:3",
            r#"for $x in doc("d.xml")//x return <hit>{ $x }</hit>"#,
            vec![ErrorCode::EXRQ0002],
            false,
        ),
    ]
}

/// Run one case; any panic inside counts as a failed case, not a failed
/// harness.
fn run_case(case: &FaultCase) -> FaultOutcome {
    let result = catch_unwind(AssertUnwindSafe(|| check_case(case)));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            FaultOutcome {
                name: case.name.clone(),
                code: None,
                problem: Some(format!("PANIC: {msg}")),
            }
        }
    }
}

fn check_case(case: &FaultCase) -> FaultOutcome {
    let fail = |code: Option<ErrorCode>, problem: String| FaultOutcome {
        name: case.name.clone(),
        code,
        problem: Some(problem),
    };
    let fp = match Failpoints::parse(&case.spec) {
        Ok(fp) => fp,
        Err(e) => return fail(None, format!("spec rejected: {e}")),
    };
    let base_opts = if case.baseline {
        QueryOptions::baseline()
    } else {
        QueryOptions::order_indifferent()
    };

    let mut session = Session::new();
    session.set_failpoints(fp.clone());
    let load = session
        .load_document("d.xml", DOC_D)
        .and_then(|()| session.load_document("e.xml", DOC_E));
    let observed = match load {
        Err(e) => {
            // Load-time fault (doc-parse). Nothing may have been
            // registered for the failed document.
            if session.catalog().frag_count() >= 2 {
                return fail(
                    Some(e.code()),
                    format!(
                        "malformed load left {} fragments behind",
                        session.catalog().frag_count()
                    ),
                );
            }
            e.code()
        }
        Ok(()) => {
            let frags_before = session.catalog().frag_count();
            let opts = base_opts.clone().with_failpoints(fp);
            match session.query_with(&case.query, &opts) {
                Ok(_) => {
                    return fail(
                        None,
                        "expected an injected failure, query succeeded".to_string(),
                    )
                }
                Err(e) => {
                    if session.catalog().frag_count() != frags_before {
                        return fail(
                            Some(e.code()),
                            format!(
                                "catalog leaked fragments: {} before, {} after",
                                frags_before,
                                session.catalog().frag_count()
                            ),
                        );
                    }
                    e.code()
                }
            }
        }
    };
    if !case.expected.contains(&observed) {
        return fail(
            Some(observed),
            format!("unexpected code {observed} (expected {:?})", case.expected),
        );
    }
    // The session must remain usable once the failpoints are disarmed.
    session.set_failpoints(Failpoints::none());
    if let Err(e) = session
        .load_document("d.xml", DOC_D)
        .and_then(|()| session.load_document("e.xml", DOC_E))
    {
        return fail(
            Some(observed),
            format!("session not reusable after fault: reload failed: {e}"),
        );
    }
    if let Err(e) = session.query_with(&case.query, &base_opts) {
        return fail(
            Some(observed),
            format!("session not reusable after fault: rerun failed: {e}"),
        );
    }
    FaultOutcome {
        name: case.name.clone(),
        code: Some(observed),
        problem: None,
    }
}

/// Run a fault matrix (use [`default_cases`] for the standard grid).
pub fn run_fault_matrix(cases: &[FaultCase]) -> FaultReport {
    FaultReport {
        outcomes: cases.iter().map(run_case).collect(),
    }
}

/// Where an operator kind was observed: a coverage-corpus query whose
/// final plan contains at least one operator of that kind.
#[derive(Debug, Clone)]
pub struct KindExemplar {
    /// Corpus entry name.
    pub corpus: String,
    /// The query whose plan exhibits the kind.
    pub query: String,
    /// Configuration the plan was prepared under (`true` = order-aware
    /// baseline; some kinds, notably `%`, only survive there).
    pub baseline: bool,
}

/// The failpoint coverage map: which operator kinds real plans contain,
/// which of them the default fault grid's `budget-trip` cells exercise,
/// and an auto-generated trip matrix for all of them.
#[derive(Debug, Clone, Default)]
pub struct CoverageReport {
    /// Kind → exemplar plan, for every kind the corpus reaches.
    pub present: BTreeMap<&'static str, KindExemplar>,
    /// Kinds the default grid's `budget-trip` specs would trip.
    pub default_exercised: BTreeSet<&'static str>,
    /// Kinds present in corpus plans that the default grid never trips —
    /// the blind spots the generated matrix exists to close.
    pub unexercised: Vec<&'static str>,
    /// One generated `budget-trip` case per present kind, each targeting
    /// the exemplar query under the exemplar configuration.
    pub generated: Vec<FaultCase>,
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "failpoint coverage: {}/{} operator kinds reached, {} exercised by the default grid",
            self.present.len(),
            Op::KIND_NAMES.len(),
            self.default_exercised.len(),
        )?;
        if !self.unexercised.is_empty() {
            write!(
                f,
                "\n  default-grid blind spots: {}",
                self.unexercised.join(" ")
            )?;
        }
        let missing: Vec<&str> = Op::KIND_NAMES
            .iter()
            .copied()
            .filter(|k| !self.present.contains_key(k))
            .collect();
        if !missing.is_empty() {
            write!(
                f,
                "\n  kinds no corpus plan contains: {}",
                missing.join(" ")
            )?;
        }
        Ok(())
    }
}

/// The coverage corpus: a handful of queries whose plans jointly contain
/// every operator kind the compiler can emit (checked by test against
/// [`Op::KIND_NAMES`]). Censused under both configurations — the
/// order-indifferent plan first, so generated cases target optimized
/// plans wherever the kind survives optimization.
pub fn coverage_corpus() -> Vec<(&'static str, &'static str)> {
    vec![
        ("paths", r#"doc("d.xml")//x"#),
        (
            "construct",
            r#"for $x in doc("d.xml")//x return <hit n="1">t{ $x }</hit>"#,
        ),
        (
            "theta-join",
            r#"for $a in doc("d.xml")//x for $b in doc("e.xml")//x where fn:count($a/child::*) < fn:count($b/child::*) return $a"#,
        ),
        ("intersect", r#"doc("d.xml")//x intersect doc("d.xml")//x"#),
        // The whole-catalog scan: one `collection` leaf.
        ("collection", r#"fn:collection()//x"#),
        ("range", r#"1 to 3"#),
        (
            "text",
            r#"for $x in doc("d.xml")//x return text { fn:count($x/child::*) }"#,
        ),
    ]
}

/// Build the failpoint coverage map: census the corpus plans, compare
/// against the default grid, and generate a `budget-trip` case for every
/// operator kind any plan contains.
pub fn failpoint_coverage() -> CoverageReport {
    let mut present: BTreeMap<&'static str, KindExemplar> = BTreeMap::new();
    for (name, query) in coverage_corpus() {
        for baseline in [false, true] {
            let opts = if baseline {
                QueryOptions::baseline()
            } else {
                QueryOptions::order_indifferent()
            };
            let mut session = Session::new();
            if session
                .load_document("d.xml", DOC_D)
                .and_then(|()| session.load_document("e.xml", DOC_E))
                .is_err()
            {
                continue;
            }
            let Ok(plan) = session.prepare(query, &opts) else {
                continue;
            };
            for &kind in plan.stats_final.by_kind.keys() {
                present.entry(kind).or_insert_with(|| KindExemplar {
                    corpus: name.to_string(),
                    query: query.to_string(),
                    baseline,
                });
            }
        }
    }
    // Which of these kinds would the default grid's specs trip? Asking
    // the parsed failpoints themselves keeps this in sync with the alias
    // table instead of duplicating it.
    let mut default_exercised: BTreeSet<&'static str> = BTreeSet::new();
    for case in default_cases() {
        let Ok(fp) = Failpoints::parse(&case.spec) else {
            continue;
        };
        for &kind in present.keys() {
            if fp.trips_budget(kind) {
                default_exercised.insert(kind);
            }
        }
    }
    let unexercised: Vec<&'static str> = present
        .keys()
        .copied()
        .filter(|k| !default_exercised.contains(k))
        .collect();
    let generated = present
        .iter()
        .map(|(kind, ex)| {
            FaultCase::new(
                &format!("auto-budget-trip-{kind}"),
                &format!("budget-trip:{kind}"),
                &ex.query,
                vec![ErrorCode::EXRQ0001],
                ex.baseline,
            )
        })
        .collect();
    CoverageReport {
        present,
        default_exercised,
        unexercised,
        generated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matrix_degrades_gracefully() {
        let report = run_fault_matrix(&default_cases());
        assert!(report.all_graceful(), "{report}");
        assert_eq!(report.outcomes.len(), default_cases().len());
    }

    #[test]
    fn coverage_corpus_reaches_every_operator_kind() {
        let report = failpoint_coverage();
        for &kind in Op::KIND_NAMES {
            assert!(
                report.present.contains_key(kind),
                "no corpus plan contains `{kind}`: {report}"
            );
        }
    }

    #[test]
    fn default_grid_has_known_blind_spots() {
        // The default grid trips steps, rownums, and serialization only.
        // These kinds exist in real plans but are never budget-tripped by
        // it — exactly the gap the generated matrix closes.
        let report = failpoint_coverage();
        for kind in ["aggr", "attach", "elem", "⋈θ"] {
            assert!(
                report.unexercised.contains(&kind),
                "expected `{kind}` to be a default-grid blind spot: {report}"
            );
        }
        for kind in ["⬡", "%", "serialize"] {
            assert!(
                report.default_exercised.contains(kind),
                "default grid should exercise `{kind}`: {report}"
            );
        }
    }

    #[test]
    fn generated_trip_matrix_degrades_gracefully() {
        // Every auto-generated budget-trip case — one per operator kind
        // any corpus plan contains — must fail with EXRQ0001, leak no
        // state, and leave the session reusable.
        let coverage = failpoint_coverage();
        assert_eq!(coverage.generated.len(), coverage.present.len());
        let report = run_fault_matrix(&coverage.generated);
        assert!(report.all_graceful(), "{report}");
    }

    #[test]
    fn wrong_expectation_is_reported_not_panicked() {
        // A case that expects the wrong code must come back as a problem.
        let case = FaultCase::new(
            "mislabeled",
            "cancel-after:0",
            r#"doc("d.xml")//x"#,
            vec![ErrorCode::FODC0002],
            false,
        );
        let report = run_fault_matrix(&[case]);
        assert!(!report.all_graceful());
        assert_eq!(report.outcomes[0].code, Some(ErrorCode::EXRQ0002));
        assert!(report.to_string().contains("mislabeled"));
    }
}
