//! Larger-scale XMark consistency runs at scale 0.05, 20× the oracle
//! suite's: the baseline against the order-indifferent compiler over all
//! twenty queries, and the batch kernels against the reference arm where
//! the dense-key joins and the presorted `%` do the work. Both run in a
//! few seconds in a debug build.

use exrquy::{QueryOptions, Session};
use exrquy_xmark::{generate, query, XmarkConfig};

#[test]
fn all_queries_agree_at_scale_0_05() {
    let cfg = XmarkConfig::at_scale(0.05);
    let xml = generate(&cfg);
    let mut s = Session::new();
    s.load_document("auction.xml", &xml).unwrap();
    for n in 1..=20 {
        let base = s
            .query_with(query(n), &QueryOptions::baseline())
            .unwrap_or_else(|e| panic!("Q{n} baseline: {e}"));
        let oi = s
            .query_with(query(n), &QueryOptions::order_indifferent())
            .unwrap_or_else(|e| panic!("Q{n} unordered: {e}"));
        let mut a: Vec<String> = base.items.iter().map(|i| i.render()).collect();
        let mut b: Vec<String> = oi.items.iter().map(|i| i.render()).collect();
        a.sort();
        b.sort();
        assert_eq!(a.len(), b.len(), "Q{n} cardinality");
        assert_eq!(a, b, "Q{n} multiset");
    }
}

/// Q11/Q12 under the order-aware baseline are where the band join and
/// the dense-key join arms do the work: the band join writes the value
/// join's pairs in the order `%` asks for, `%` numbers them in one pass,
/// and two bookkeeping joins re-attach columns over that rank, each a
/// gather over a unique key. Q6, Q7, Q14 and Q19 number presorted rows
/// the same way. At this scale those operators exceed 10⁴ rows, far
/// past the kernels' small-input regimes; the batch arm must serialize
/// byte-identically to the row-at-a-time reference bodies.
#[test]
fn dense_key_kernels_match_the_reference_arm_on_q6_q7_q11_q12_q14_q19() {
    let xml = generate(&XmarkConfig::at_scale(0.05));
    let mut s = Session::new();
    s.load_document("auction.xml", &xml).unwrap();
    let reference = QueryOptions::baseline().with_vectorized(false);
    for n in [6, 7, 11, 12, 14, 19] {
        let batch = s.query_with(query(n), &QueryOptions::baseline()).unwrap();
        let scalar = s.query_with(query(n), &reference).unwrap();
        assert_eq!(batch.to_xml(), scalar.to_xml(), "Q{n}");
        assert!(!batch.items.is_empty(), "Q{n} is empty");
        if n != 11 && n != 12 {
            continue;
        }
        // Each result element holds fn:count of its person's matches:
        // their sum is (Q11) or bounds from below (Q12, which keeps only
        // some persons) the row count of the joins under test.
        let pairs: usize = batch
            .items
            .iter()
            .map(|i| {
                let x = i.render();
                let count = &x[x.find('>').unwrap() + 1..x.rfind("</").unwrap()];
                count.parse::<usize>().unwrap()
            })
            .sum();
        assert!(pairs > 10_000, "Q{n} joined only {pairs} pairs");
    }
}
