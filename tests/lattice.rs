//! Tier-1 configuration lattice: every execution axis must be invisible
//! in the output.
//!
//! The default lattice runs a handful of cells of every corpus (XMark
//! whole and split, both fuzz streams) under the reference point and
//! every row of the covering table — cost pass, vectorization, served
//! transport, nested constructors as written or unnested — and each row
//! must serialize *byte-identically* to the reference. The full-breadth
//! run with the count floors is `crates/verify/tests/lattice.rs`.

use exrquy_verify::{run_lattice, Lattice};

#[test]
fn default_lattice_serializes_identically_under_every_row() {
    let report = run_lattice(&Lattice::default());
    assert!(report.passed(), "{report}");
    assert!(report.cells > 0 && report.witnesses["served_cells"] > 0);
    assert!(report.witnesses["unnested_cells"] > 0, "{report}");
    // Some cell's shipped plan rebuilds a join cluster whose order no one
    // observes, and every row must still match it byte for byte.
    assert!(report.witnesses["reordered_plans"] >= 1, "{report}");
    println!("{report}");
}
