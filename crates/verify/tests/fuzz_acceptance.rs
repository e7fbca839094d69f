//! Acceptance criteria of the fuzz/shrink/attribute loop:
//!
//! * determinism — same seed, same query stream, same verdicts;
//! * a planted oracle corruption (`oracle-perturb`) is detected on every
//!   cell, shrunk to the documented bound (weight ≤ 2, i.e. `()`), and
//!   reported engine-side;
//! * a planted optimizer bug (`rule-perturb:weaken-criteria`,
//!   `rule-perturb:join-elim-key-domain`) is *found* by the random hunt,
//!   minimized, and attributed to exactly that rule.

use exrquy::diag::Failpoints;
use exrquy_verify::fuzz::{run_fuzz, FuzzConfig, FuzzProfile};
use exrquy_verify::Attribution;

#[test]
fn same_seed_same_stream_same_verdicts() {
    // Use a planted corruption so the comparison also covers the shrink
    // and attribution stages, not just generation.
    let cfg = FuzzConfig {
        seed: 1234,
        iters: 4,
        failpoints: Failpoints::parse("oracle-perturb:optimized").unwrap(),
        ..FuzzConfig::default()
    };
    let a = run_fuzz(&cfg);
    let b = run_fuzz(&cfg);
    assert_eq!(a.to_string(), b.to_string());
    assert_eq!(a.divergences.len(), b.divergences.len());
    for (x, y) in a.divergences.iter().zip(&b.divergences) {
        assert_eq!(x.query, y.query);
        assert_eq!(x.minimized, y.minimized);
        assert_eq!(x.attribution, y.attribution);
    }
}

#[test]
fn planted_oracle_perturbation_detected_shrunk_and_attributed() {
    let cfg = FuzzConfig {
        seed: 5,
        iters: 3,
        failpoints: Failpoints::parse("oracle-perturb:optimized").unwrap(),
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&cfg);
    // The corruption drops an item from (or invents one in) every
    // optimized-arm result: every cell must diverge.
    assert_eq!(report.divergences.len(), report.cells, "{report}");
    for d in &report.divergences {
        // Documented shrink bound for a query-independent divergence: the
        // minimizer reaches the unit query `()` (weight 1; ≤ 2 leaves
        // headroom for a future pretty-printing change).
        assert!(
            d.minimized_weight <= 2,
            "not minimal: `{}` (weight {})",
            d.minimized,
            d.minimized_weight
        );
        // No rewrite is responsible — the fault is planted result-side.
        assert_eq!(d.attribution, Attribution::EngineSide, "{report}");
    }
}

/// A planted optimizer bug must be caught by the random hunt, minimized,
/// and attributed to exactly `rule`; a healthy rule set on the very same
/// stream stays green.
fn hunt_planted_rule(rule: &str, cfg: FuzzConfig) {
    let report = run_fuzz(&cfg);
    assert!(
        !report.divergences.is_empty(),
        "the hunt missed the planted optimizer bug: {report}"
    );
    for d in &report.divergences {
        assert!(
            d.minimized_weight <= d.original_weight,
            "shrinker grew the query: {report}"
        );
        assert_eq!(
            d.attribution,
            Attribution::Rule(rule.to_string()),
            "misattributed: {report}"
        );
    }
    let clean = run_fuzz(&FuzzConfig {
        failpoints: Failpoints::none(),
        ..cfg
    });
    assert!(clean.clean(), "{clean}");
}

#[test]
fn planted_rule_perturbation_is_hunted_and_named() {
    // `rule-perturb:weaken-criteria` makes the §7 weakening drop *real*
    // sort criteria. Under the ordered profile (sequence equivalence) the
    // random hunt must catch it; seed 1 does within 30 iterations.
    hunt_planted_rule(
        "weaken-criteria",
        FuzzConfig {
            seed: 1,
            iters: 30,
            profiles: vec![FuzzProfile::Ordered],
            failpoints: Failpoints::parse("rule-perturb:weaken-criteria").unwrap(),
            ..FuzzConfig::default()
        },
    );
}

#[test]
fn planted_join_elimination_is_hunted_and_named() {
    // `rule-perturb:join-elim-key-domain` removes map joins against a
    // *filtered* loop key: the rows a path predicate dropped come back,
    // under either profile. Seed 3 (the CI self-check's) draws three such
    // predicates within 10 iterations, each shrunk to `…[()]`.
    hunt_planted_rule(
        "join-elim-key-domain",
        FuzzConfig {
            seed: 3,
            iters: 10,
            failpoints: Failpoints::parse("rule-perturb:join-elim-key-domain").unwrap(),
            ..FuzzConfig::default()
        },
    );
}
