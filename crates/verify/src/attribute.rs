//! Per-rule divergence attribution: name the rewrite that breaks a query.
//!
//! When the oracle rejects a query, the interesting question is *which*
//! optimizer rewrite is responsible. Every rewrite carries a name (see
//! [`exrquy::opt::RULE_NAMES`]) and [`OptOptions`] can disable rules
//! individually, so attribution is a search over the rules the optimized
//! arm's trace actually fired:
//!
//! 1. Re-prepare the query to read the rewrite trace
//!    ([`OptReport::trace`](exrquy::opt::OptReport::trace)) and the cost
//!    pass's; collect the distinct fired rules ([`fired_rules`]).
//! 2. Disable *all* of them. Still diverging? Then no rewrite is to blame
//!    — the fault is engine- or oracle-side ([`Attribution::EngineSide`];
//!    this is what a planted `oracle-perturb` failpoint reports).
//! 3. Otherwise bisect: halve the disabled set while the divergence keeps
//!    vanishing, then confirm the last rule standing alone suffices —
//!    [`Attribution::Rule`]. When no single rule suffices (rules conspire),
//!    the minimal set found is reported as [`Attribution::Rules`].
//!
//! The search itself ([`attribute`]) takes "does disabling this set cure
//! it?" as a closure, so the configuration lattice reuses it with its own
//! notion of divergence. For the oracle, a probe "vanishes" only when
//! the oracle fully *passes*; probes that
//! fail with non-verification errors count as not-vanished, so attribution
//! can never mistake a crash for a cure. Attribution probes vary
//! `OptOptions::disabled_rules`, which feeds the plan-cache fingerprint —
//! no probe can poison or reuse another configuration's cached plan.

use crate::fuzz::{load_corpus, oracle_outcome, Corpus, OracleOutcome};
use exrquy::opt::RuleSet;
use exrquy::{Prepared, QueryOptions, Session};
use std::fmt;

/// Who is responsible for an oracle divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Attribution {
    /// Disabling exactly this rewrite makes the divergence vanish.
    Rule(String),
    /// No single rule suffices; disabling this (minimal found) set does.
    Rules(Vec<String>),
    /// The divergence survives with every fired rewrite disabled: the
    /// fault is in the engine, the oracle, or injected at result level.
    EngineSide,
    /// The query did not diverge when attribution re-ran it.
    NotReproduced,
}

impl fmt::Display for Attribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attribution::Rule(r) => write!(f, "rule `{r}`"),
            Attribution::Rules(rs) => write!(f, "rule interaction {{{}}}", rs.join(", ")),
            Attribution::EngineSide => f.write_str("engine-side (no rewrite responsible)"),
            Attribution::NotReproduced => f.write_str("divergence did not reproduce"),
        }
    }
}

/// Name the rewrite responsible for a reproduced divergence: `fired`
/// are the candidate rules (first-fired order), `cured(set)` answers
/// "does the divergence vanish with `set` disabled?". Shared by the
/// oracle fuzzer below and the configuration lattice, which differ only
/// in what "diverges" means.
pub fn attribute(fired: Vec<&'static str>, mut cured: impl FnMut(RuleSet) -> bool) -> Attribution {
    if fired.is_empty() {
        return Attribution::EngineSide;
    }
    let ruleset = |names: &[&'static str]| {
        RuleSet::from_names(names.iter().copied()).unwrap_or_else(|e| panic!("{e}"))
    };
    if !cured(ruleset(&fired)) {
        return Attribution::EngineSide;
    }
    // Bisect: keep the half whose disabling alone still cures it.
    let mut set = fired;
    while set.len() > 1 {
        let (a, b) = set.split_at(set.len() / 2);
        let (a, b) = (a.to_vec(), b.to_vec());
        if cured(ruleset(&a)) {
            set = a;
        } else if cured(ruleset(&b)) {
            set = b;
        } else {
            // The halves conspire. Fall back to a linear single-rule scan
            // before reporting an interaction.
            for &r in &set {
                if cured(ruleset(&[r])) {
                    return Attribution::Rule(r.to_string());
                }
            }
            return Attribution::Rules(set.iter().map(|r| r.to_string()).collect());
        }
    }
    Attribution::Rule(set[0].to_string())
}

/// Distinct rules a prepared plan's rewrite and cost traces fired, in
/// first-fired order.
pub fn fired_rules(plan: &Prepared) -> Vec<&'static str> {
    let mut seen = Vec::new();
    for app in plan.opt_report.trace.iter().chain(&plan.cost_report.trace) {
        if !seen.contains(&app.rule) {
            seen.push(app.rule);
        }
    }
    seen
}

/// Attribute an oracle divergence of `query` over `corpus` under `opts`
/// to a named rewrite rule (or to the engine side).
pub fn attribute_divergence(corpus: &Corpus, query: &str, opts: &QueryOptions) -> Attribution {
    match oracle_outcome(corpus, query, opts) {
        OracleOutcome::Diverged(_) => {}
        _ => return Attribution::NotReproduced,
    }
    // The candidate set: rules the *optimized* arm actually fired.
    // `opts` is exactly that arm's options.
    let mut session = Session::new();
    let fired = load_corpus(&mut session, corpus)
        .and_then(|()| session.prepare(query, opts))
        .map(|plan| fired_rules(&plan))
        .unwrap_or_default();
    // A probe "vanishes" only when the oracle fully passes;
    // non-verification errors are not a pass.
    attribute(fired, |disabled| {
        let mut probe = opts.clone();
        probe.opt.disabled_rules = probe.opt.disabled_rules.union(disabled);
        matches!(oracle_outcome(corpus, query, &probe), OracleOutcome::Agreed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::FuzzProfile;
    use exrquy::diag::Failpoints;

    fn doc() -> Corpus {
        Corpus::single(r#"<r><a id="3"/><a id="1"/><a id="2"/></r>"#)
    }
    const ORDERED_QUERY: &str = r#"for $x in doc("f.xml")//a order by $x/attribute::id descending return fn:string($x/attribute::id)"#;

    #[test]
    fn planted_rule_perturbation_is_attributed_to_its_rule() {
        // `rule-perturb:weaken-criteria` makes the weakening pass drop
        // *real* order criteria; under sequence equivalence the descending
        // sort comes back in document order and the oracle trips. The
        // culprit must be named — and disabling it must be the cure.
        let opts = FuzzProfile::Ordered
            .options()
            .with_failpoints(Failpoints::parse("rule-perturb:weaken-criteria").unwrap());
        assert!(
            crate::fuzz::oracle_diverges(&doc(), ORDERED_QUERY, &opts),
            "planted perturbation must diverge"
        );
        assert_eq!(
            attribute_divergence(&doc(), ORDERED_QUERY, &opts),
            Attribution::Rule("weaken-criteria".to_string())
        );
    }

    #[test]
    fn oracle_perturbation_is_engine_side() {
        let opts = FuzzProfile::Unordered
            .options()
            .with_failpoints(Failpoints::parse("oracle-perturb:optimized").unwrap());
        assert_eq!(
            attribute_divergence(&doc(), r#"doc("f.xml")//a"#, &opts),
            Attribution::EngineSide
        );
    }

    #[test]
    fn every_single_rule_disable_yields_a_valid_plan() {
        // Attribution probes by disabling one rule at a time, so every
        // rule must be individually severable: the remaining rewrites may
        // not assume it ran. (Regression: disabling `project-prune` alone
        // used to break plan validation, because the required-columns
        // analysis assumed projections get pruned while `cda-bypass-*`
        // deleted the producers the unpruned projections still read.)
        let query = r#"for $x in doc("f.xml")//a order by $x/attribute::id return <out>{ fn:string($x/attribute::id) }</out>"#;
        for &rule in exrquy::opt::RULE_NAMES {
            let mut opts = FuzzProfile::Ordered.options();
            opts.opt.disabled_rules = RuleSet::from_names([rule]).unwrap();
            assert!(
                matches!(oracle_outcome(&doc(), query, &opts), OracleOutcome::Agreed),
                "oracle not clean with `{rule}` disabled"
            );
        }
    }

    #[test]
    fn healthy_query_does_not_reproduce() {
        let opts = FuzzProfile::Unordered.options();
        assert_eq!(
            attribute_divergence(&doc(), r#"doc("f.xml")//a"#, &opts),
            Attribution::NotReproduced
        );
    }
}
