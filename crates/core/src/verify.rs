//! The three-way differential oracle: `Session::verify`.
//!
//! The paper's claim is that trading the sorting row-numberer `%` for the
//! arbitrary numberer `#` (plus column dependency analysis) preserves
//! every *admissible* result. The oracle checks this mechanically for one
//! query by executing it three ways —
//!
//! 1. **baseline** — the unoptimized, fully order-aware reference
//!    (exploitation off, `ordered` mode, optimizer disabled);
//! 2. **optimized** — the plan under the caller's requested options;
//! 3. **noweaken** — the requested options with `%`-weakening disabled
//!    (isolates the order-sensitive rewrites from the rest of the
//!    optimizer);
//!
//! — and comparing the three result sequences under the equivalence the
//! effective ordering mode grants: **sequence** equality when the
//! optimized arm ran in `ordered` mode (no order freedom was taken), and
//! **bag** (multiset) equality when it ran `unordered` (the admissible
//! results are exactly the permutations of the reference). A divergence
//! is a typed [`EXRQ0004`](exrquy_diag::ErrorCode::EXRQ0004) error
//! carrying a minimized plan diff between the reference and the
//! divergent arm.

use crate::result::ResultItem;
use crate::session::{Error, QueryOptions, Session};
use exrquy_algebra::{plan_diff, PlanStats};
use exrquy_diag::{ErrorCode, OracleArm};
use exrquy_frontend::OrderingMode;
use std::fmt;

/// Verification failure: the oracle observed a divergence (EXRQ0004).
#[derive(Debug, Clone)]
pub struct VerifyError {
    /// Always a `Verification`-class code (currently [`ErrorCode::EXRQ0004`]).
    pub code: ErrorCode,
    /// Which arm diverged from the baseline reference.
    pub arm: OracleArm,
    /// Divergence description + minimized plan diff.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "differential oracle divergence in `{}` arm: {}",
            self.arm, self.message
        )
    }
}

impl std::error::Error for VerifyError {}

/// The equivalence relation under which two arms' results are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Equivalence {
    /// Exact sequence equality — ordered context, no order freedom.
    Sequence,
    /// Multiset equality — `#`-weakening granted order freedom.
    Bag,
}

impl Equivalence {
    pub fn as_str(self) -> &'static str {
        match self {
            Equivalence::Sequence => "sequence",
            Equivalence::Bag => "bag",
        }
    }
}

impl fmt::Display for Equivalence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One oracle arm's outcome.
#[derive(Debug, Clone)]
pub struct ArmReport {
    pub arm: OracleArm,
    /// Census of the plan this arm executed.
    pub stats: PlanStats,
    /// Rendered result items, in the order this arm produced them.
    pub rendered: Vec<String>,
}

/// Successful three-way verification.
#[derive(Debug)]
pub struct VerifyReport {
    /// Equivalence relation the arms were compared under.
    pub equivalence: Equivalence,
    /// Effective ordering mode of the optimized arm.
    pub ordering: OrderingMode,
    /// Per-arm outcomes (baseline, optimized, noweaken).
    pub arms: Vec<ArmReport>,
    /// The optimized arm's result items — what a `--verify` run returns
    /// to the caller as the query answer.
    pub items: Vec<ResultItem>,
}

impl VerifyReport {
    /// One-line per-arm summary for diagnostics output.
    pub fn summary(&self) -> String {
        let mut s = format!("oracle: {} equivalence, 3 arms agree", self.equivalence);
        for a in &self.arms {
            s.push_str(&format!(
                "\n  {:<9} {} items, plan {}",
                a.arm,
                a.rendered.len(),
                a.stats
            ));
        }
        s
    }
}

/// Options for the `noweaken` arm: the caller's configuration with the
/// §7 `%`-weakening rules switched off.
fn noweaken_opts(opts: &QueryOptions) -> QueryOptions {
    let mut o = opts.clone();
    o.opt = o
        .opt
        .without_rule("weaken-criteria")
        .without_rule("weaken-rownum-to-rowid");
    o
}

/// Options for the `baseline` arm: the fully order-aware reference, but
/// carrying the caller's budget/cancel/failpoints so injected faults and
/// ceilings govern every arm alike.
fn baseline_opts(opts: &QueryOptions) -> QueryOptions {
    let mut o = QueryOptions::baseline();
    o.budget = opts.budget.clone();
    o.cancel = opts.cancel.clone();
    o.failpoints = opts.failpoints.clone();
    o
}

/// Multiset compare: sorted copies plus a description of the first
/// imbalance when they differ.
fn bag_mismatch(reference: &[String], other: &[String]) -> Option<String> {
    let mut a = reference.to_vec();
    let mut b = other.to_vec();
    a.sort();
    b.sort();
    if a == b {
        return None;
    }
    if a.len() != b.len() {
        return Some(format!(
            "item count differs: reference has {}, arm has {}",
            a.len(),
            b.len()
        ));
    }
    let idx = a.iter().zip(&b).position(|(x, y)| x != y).unwrap_or(0);
    Some(format!(
        "multisets differ (first difference after sorting at rank {idx}: \
         reference `{}` vs arm `{}`)",
        a[idx], b[idx]
    ))
}

/// Sequence compare: the index and values of the first position that
/// differs, when any.
fn seq_mismatch(reference: &[String], other: &[String]) -> Option<String> {
    if reference == other {
        return None;
    }
    let idx = reference
        .iter()
        .zip(other)
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| reference.len().min(other.len()));
    Some(format!(
        "sequences differ at position {idx}: reference `{}` vs arm `{}` \
         (lengths {} vs {})",
        reference.get(idx).map(String::as_str).unwrap_or("<end>"),
        other.get(idx).map(String::as_str).unwrap_or("<end>"),
        reference.len(),
        other.len()
    ))
}

impl Session {
    /// Run the three-way differential oracle on `query`.
    ///
    /// Returns the [`VerifyReport`] when all arms agree under the
    /// applicable equivalence; returns [`Error::Verify`] (EXRQ0004, exit
    /// class `Verification`) on any divergence, with a minimized plan
    /// diff against the baseline reference in the message. Pipeline
    /// errors in any arm (including injected faults) surface as the
    /// corresponding typed error, exactly as a plain execution would.
    ///
    /// ```
    /// use exrquy::{QueryOptions, Session};
    /// let mut s = Session::new();
    /// s.load_document("d.xml", "<r><x/><x/></r>").unwrap();
    /// let report = s
    ///     .verify(r#"fn:count(doc("d.xml")//x)"#, &QueryOptions::order_indifferent())
    ///     .unwrap();
    /// assert_eq!(report.items.len(), 1);
    /// ```
    pub fn verify(&self, query: &str, opts: &QueryOptions) -> Result<VerifyReport, Error> {
        let arm_configs = [
            (OracleArm::Baseline, baseline_opts(opts)),
            (OracleArm::Optimized, opts.clone()),
            (OracleArm::NoWeaken, noweaken_opts(opts)),
        ];
        let mut arms: Vec<ArmReport> = Vec::with_capacity(3);
        let mut plans = Vec::with_capacity(3);
        let mut optimized_items: Vec<ResultItem> = Vec::new();
        let mut ordering = OrderingMode::Ordered;
        for (arm, arm_opts) in &arm_configs {
            let plan = self.prepare(query, arm_opts)?;
            let out = self.execute(&plan)?;
            let mut rendered: Vec<String> = out.items.iter().map(ResultItem::render).collect();
            if arm_opts.failpoints.perturbs_arm(*arm) {
                // Deterministic, detectable corruption under either
                // equivalence: drop the last item, or invent one when the
                // result is empty.
                if rendered.pop().is_none() {
                    rendered.push("<injected-divergence/>".to_string());
                }
            }
            if *arm == OracleArm::Optimized {
                ordering = plan.ordering;
                optimized_items = out.items;
            }
            arms.push(ArmReport {
                arm: *arm,
                stats: plan.stats_final.clone(),
                rendered,
            });
            plans.push(plan);
        }
        // The reference ran fully ordered; an arm whose effective mode was
        // `unordered` may legitimately permute, so it is compared as a bag.
        // In `ordered` mode no order freedom exists and the comparison is
        // exact.
        let equivalence = match ordering {
            OrderingMode::Ordered => Equivalence::Sequence,
            OrderingMode::Unordered => Equivalence::Bag,
        };
        let reference = &arms[0];
        for arm in &arms[1..] {
            let mismatch = match equivalence {
                Equivalence::Sequence => seq_mismatch(&reference.rendered, &arm.rendered),
                Equivalence::Bag => bag_mismatch(&reference.rendered, &arm.rendered),
            };
            if let Some(why) = mismatch {
                let which = match arm.arm {
                    OracleArm::Optimized => 1,
                    _ => 2,
                };
                let diff = plan_diff(
                    &plans[0].dag,
                    plans[0].root,
                    &plans[which].dag,
                    plans[which].root,
                );
                return Err(Error::Verify(VerifyError {
                    code: ErrorCode::EXRQ0004,
                    arm: arm.arm,
                    message: format!(
                        "{why} ({equivalence} equivalence, {} mode)\nplan diff vs baseline:\n{diff}",
                        match ordering {
                            OrderingMode::Ordered => "ordered",
                            OrderingMode::Unordered => "unordered",
                        }
                    ),
                }));
            }
        }
        Ok(VerifyReport {
            equivalence,
            ordering,
            arms,
            items: optimized_items,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrquy_diag::Failpoints;

    fn session() -> Session {
        let mut s = Session::new();
        s.load_document("t.xml", "<a><b><c/><d/></b><c/></a>")
            .unwrap();
        s
    }

    #[test]
    fn oracle_passes_on_agreeing_arms() {
        let s = session();
        let report = s
            .verify(r#"doc("t.xml")//(c|d)"#, &QueryOptions::order_indifferent())
            .unwrap();
        assert_eq!(report.equivalence, Equivalence::Bag);
        assert_eq!(report.arms.len(), 3);
        assert_eq!(report.items.len(), 3);
        assert!(report.summary().contains("3 arms agree"));
    }

    #[test]
    fn ordered_mode_uses_sequence_equivalence() {
        let s = session();
        let report = s
            .verify(r#"doc("t.xml")//(c|d)"#, &QueryOptions::baseline())
            .unwrap();
        assert_eq!(report.equivalence, Equivalence::Sequence);
    }

    #[test]
    fn injected_perturbation_is_caught_with_exrq0004() {
        let s = session();
        let opts = QueryOptions::order_indifferent()
            .with_failpoints(Failpoints::parse("oracle-perturb:optimized").unwrap());
        let err = s.verify(r#"doc("t.xml")//(c|d)"#, &opts).unwrap_err();
        assert_eq!(err.code(), ErrorCode::EXRQ0004);
        assert_eq!(err.stage(), exrquy_diag::Stage::Verify);
        assert_eq!(err.class().exit_code(), 5);
        let msg = err.to_string();
        assert!(msg.contains("optimized"), "{msg}");
        assert!(msg.contains("plan diff"), "{msg}");
    }

    #[test]
    fn perturbing_the_baseline_is_also_caught() {
        let s = session();
        let opts = QueryOptions::order_indifferent()
            .with_failpoints(Failpoints::parse("oracle-perturb:baseline").unwrap());
        let err = s.verify(r#"fn:count(doc("t.xml")//c)"#, &opts).unwrap_err();
        assert_eq!(err.code(), ErrorCode::EXRQ0004);
    }

    #[test]
    fn empty_results_still_verify() {
        let s = session();
        let report = s
            .verify(r#"doc("t.xml")//z"#, &QueryOptions::order_indifferent())
            .unwrap();
        assert!(report.items.is_empty());
        // …and a perturbed empty result still diverges (synthetic item).
        let opts = QueryOptions::order_indifferent()
            .with_failpoints(Failpoints::parse("oracle-perturb:noweaken").unwrap());
        let err = s.verify(r#"doc("t.xml")//z"#, &opts).unwrap_err();
        assert_eq!(err.code(), ErrorCode::EXRQ0004);
    }
}
