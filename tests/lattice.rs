//! Tier-1 configuration lattice: every execution axis must be invisible
//! in the output.
//!
//! The default lattice runs a handful of cells of every corpus (XMark
//! whole and split, both fuzz streams) under the reference point and
//! every row of the covering table — cost pass, vectorization, worker
//! threads, served transport, nested constructors as
//! written or unnested — and each row must serialize
//! *byte-identically* to the reference. The full-breadth run with the
//! count floors is `crates/verify/tests/lattice.rs`.

use exrquy::{QueryOptions, ResultItem, Session};
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
    // The `threads` axis is not vacuous: some direct run really ran
    // independent operators concurrently.
    assert!(report.witnesses["parallel_regions"] >= 1, "{report}");
    println!("{report}");
}

/// Node construction inside a parallel run: fragment ids and interned
/// names are assigned on the owning thread in serial topological order,
/// so even freshly built elements render byte-identically.
#[test]
fn constructed_nodes_render_identically() {
    let mut s = Session::new();
    s.load_document(
        "d.xml",
        "<site><a n='1'><b>x</b><b>y</b></a><a n='2'><b>z</b></a></site>",
    )
    .unwrap();
    let query = "for $a in doc(\"d.xml\")//a \
                 return <hit n=\"{fn:string($a/@n)}\">{$a/b}</hit>";
    let render = |out: &[ResultItem]| out.iter().map(ResultItem::render).collect::<Vec<_>>();
    let serial = s
        .query_with(query, &QueryOptions::order_indifferent().with_threads(1))
        .unwrap();
    for threads in [2, 4, 8] {
        let par = s
            .query_with(
                query,
                &QueryOptions::order_indifferent().with_threads(threads),
            )
            .unwrap();
        assert_eq!(
            render(&serial.items),
            render(&par.items),
            "threads={threads} diverged from serial"
        );
    }
}
