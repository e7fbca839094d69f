//! Acceptance of the configuration lattice at full breadth.
//!
//! One run replaces the vectorized, costed and serve differentials:
//! XMark Q1–Q20 and the 10-query collection matrix under both compiler
//! profiles, 100×2 single-document and 100×2 multi-document fuzz cells,
//! and 801 authored join queries, each cell under the
//! reference point and all eleven rows of the covering table. The
//! floors below are what keeps a green run from being a vacuous one.
//! Two more tests prove the lattice can go red and that a seed fixes the
//! report.

use exrquy_verify::lattice::{Config, TABLE};
use exrquy_verify::{run_lattice, Attribution, Lattice};

#[test]
fn full_lattice_is_byte_identical_and_meets_every_floor() {
    let report = run_lattice(&Lattice {
        scale: 0.0025,
        fuzz_iters: 100,
        queries: (1..=20).collect(),
        ..Lattice::default()
    });
    assert!(report.passed(), "{report}");
    println!("{report}");
    // 20×2 XMark + 10×2 collection matrix + 100×2 single-document fuzz
    // + 100×2 × (grammar + 4 joins) multi-document fuzz + the chain join.
    assert_eq!(report.cells, 40 + 20 + 200 + 1000 + 1);
    assert_eq!(report.inexpressible, 0);
    // Exercised by real results, not error-vs-error cells.
    assert!(report.error_cells * 2 < report.cells, "{report}");
    let floor = |witness: &str, min: u64| {
        assert!(
            report.witnesses[witness] >= min,
            "{witness} < {min}: {report}"
        )
    };
    floor("join_queries", 200);
    floor("reordered_plans", 1);
    floor("perturbed_cells", 1);
    floor("fused_chains", 1);
    floor("served_cells", 1);
    // Q10, Q20 and the fuzz grammar's nested constructors, on the six
    // unnested rows.
    floor("unnested_cells", 100);
    floor("chaos_retries", 1);
}

/// Arm `rule-perturb:<rule>` on one row only: the row must part from the
/// reference on a cell whose label ends in `cell`, every divergence must
/// be minimised, blamed on the `failpoints` axis and attributed to `rule`
/// — and the same stream without the fault must stay green.
fn planted_rewrite_fault(failpoints: &'static str, rule: &str, seed: u64, cell: &str) {
    let planted = Config {
        failpoints,
        ..TABLE[1]
    };
    let report = run_lattice(&Lattice {
        seed,
        fuzz_iters: 3,
        queries: Vec::new(),
        rows: vec![planted],
        ..Lattice::default()
    });
    assert!(
        report.divergences.iter().any(|d| d.cell.ends_with(cell)),
        "the lattice missed the planted fault: {report}"
    );
    for d in &report.divergences {
        let (_, before, after) = d.minimized.as_ref().expect("fuzz cells are minimised");
        assert!(after <= before, "shrinker grew the query: {report}");
        assert_eq!(d.axis, Some("failpoints"), "{report}");
        assert_eq!(
            d.attribution,
            Some(Attribution::Rule(rule.to_string())),
            "{report}"
        );
    }
    let clean = run_lattice(&Lattice {
        seed,
        fuzz_iters: 3,
        queries: Vec::new(),
        rows: vec![TABLE[1]],
        ..Lattice::default()
    });
    assert!(clean.passed(), "{clean}");
}

#[test]
fn planted_weakening_fault_goes_red_is_minimised_and_names_its_axis() {
    // `rule-perturb:weaken-criteria` makes the §7 weakening drop *real*
    // sort criteria; seed 1 draws ordered cells that show it within three
    // iterations.
    planted_rewrite_fault(
        "rule-perturb:weaken-criteria",
        "weaken-criteria",
        1,
        "[ordered]",
    );
}

#[test]
fn planted_join_elimination_fault_goes_red_is_minimised_and_names_its_axis() {
    // `rule-perturb:join-elim-key-domain` removes map joins against a
    // *filtered* loop key, so rows a predicate dropped come back. Any
    // path predicate shows it, under either profile. Seeds 1–3 were
    // re-hunted for this rule at three iterations: seed 1 draws such
    // cells, seeds 2 and 3 do not.
    planted_rewrite_fault(
        "rule-perturb:join-elim-key-domain",
        "join-elim-key-domain",
        1,
        "]",
    );
}

#[test]
fn a_seed_fixes_the_report_chaos_rows_included() {
    let cfg = Lattice {
        seed: 7,
        fuzz_iters: 2,
        ..Lattice::default()
    };
    let (a, b) = (run_lattice(&cfg), run_lattice(&cfg));
    assert!(a.witnesses["chaos_retries"] >= 1, "{a}");
    assert_eq!(a.to_string(), b.to_string());
}
