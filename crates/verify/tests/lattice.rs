//! Acceptance of the configuration lattice at full breadth.
//!
//! One run replaces the vectorized, parallel, sharded, costed and serve
//! differentials: XMark Q1–Q20 and the 10-query shard matrix under both
//! compiler profiles, 100×2 single-document and 100×2 multi-document
//! fuzz cells, and 401 authored join queries, each cell under the
//! reference point and all sixteen rows of the covering table. The
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
    // 20×2 XMark + 10×2 shard matrix + 100×2 single-document fuzz
    // + 100×2 × (grammar + 2 joins) multi-document fuzz + the chain join.
    assert_eq!(report.cells, 40 + 20 + 200 + 600 + 1);
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
    floor("shards_materialized", 1);
    floor("served_cells", 1);
    floor("chaos_retries", 1);
}

#[test]
fn planted_rewrite_fault_goes_red_is_minimised_and_names_its_axis() {
    // `rule-perturb:weaken-criteria` makes the §7 weakening drop *real*
    // sort criteria. Armed on one row only, the row must part from the
    // reference; seed 1 draws ordered cells that show it within three
    // iterations.
    let planted = Config {
        failpoints: "rule-perturb:weaken-criteria",
        ..TABLE[1]
    };
    let report = run_lattice(&Lattice {
        seed: 1,
        fuzz_iters: 3,
        queries: Vec::new(),
        rows: vec![planted],
        ..Lattice::default()
    });
    assert!(
        report
            .divergences
            .iter()
            .any(|d| d.cell.ends_with("[ordered]")),
        "the lattice missed the planted fault: {report}"
    );
    for d in &report.divergences {
        let (_, before, after) = d.minimized.as_ref().expect("fuzz cells are minimised");
        assert!(after <= before, "shrinker grew the query: {report}");
        assert_eq!(d.axis, Some("failpoints"), "{report}");
        assert_eq!(
            d.attribution,
            Some(Attribution::Rule("weaken-criteria".to_string())),
            "{report}"
        );
    }
    // The same stream without the fault stays green.
    let clean = run_lattice(&Lattice {
        seed: 1,
        fuzz_iters: 3,
        queries: Vec::new(),
        rows: vec![TABLE[1]],
        ..Lattice::default()
    });
    assert!(clean.passed(), "{clean}");
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
