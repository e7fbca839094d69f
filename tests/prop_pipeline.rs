//! Pipeline-level property tests: on random documents, every compiler /
//! optimizer / engine configuration must produce the same result
//! *multiset* for a battery of queries, and order-determined queries must
//! agree exactly. Driven by the in-repo deterministic PRNG so the suite
//! builds offline.

use exrquy::{QueryOptions, Session};
use exrquy_opt::OptOptions;
use exrquy_xml::rng::SmallRng;

/// Random small document: nested `a`/`b`/`c` elements with `v` attributes
/// and numeric text.
fn random_doc(rng: &mut SmallRng) -> String {
    fn node(rng: &mut SmallRng, depth: u32) -> String {
        let leaf = |rng: &mut SmallRng| {
            let n = rng.gen_range(0u32..100);
            format!("<c v=\"{n}\">{n}</c>")
        };
        if depth == 0 || rng.gen_bool(0.4) {
            leaf(rng)
        } else {
            let tag = if rng.gen_bool(0.5) { "a" } else { "b" };
            let n = rng.gen_range(0usize..4);
            let kids: String = (0..n).map(|_| node(rng, depth - 1)).collect();
            format!("<{tag}>{kids}</{tag}>")
        }
    }
    let n = rng.gen_range(1usize..5);
    let kids: String = (0..n).map(|_| node(rng, 3)).collect();
    format!("<root>{kids}</root>")
}

/// Queries whose results are fully order-determined (they must agree
/// exactly under every configuration).
const DETERMINED: &[&str] = &[
    r#"fn:count(doc("d.xml")//c)"#,
    r#"fn:sum(doc("d.xml")//c/@v)"#,
    r#"fn:max(doc("d.xml")//c)"#,
    r#"fn:count(doc("d.xml")//a/c | doc("d.xml")//b/c)"#,
    r#"fn:exists(doc("d.xml")//b)"#,
    r#"some $c in doc("d.xml")//c satisfies $c/@v > 50"#,
    r#"every $c in doc("d.xml")//c satisfies $c/@v >= 0"#,
    r#"fn:count(for $x in doc("d.xml")//a return fn:count($x//c))"#,
    r#"fn:count(doc("d.xml")//c[@v > 20])"#,
    r#"for $v in doc("d.xml")//c/@v order by fn:number($v) return fn:data($v)"#,
    r#"<e x="{ for $v in doc("d.xml")//c/@v order by fn:number($v) return fn:data($v) }"/>"#,
];

/// Queries whose sequence order may legitimately differ between the
/// configurations (multiset equality required).
const MULTISET: &[&str] = &[
    r#"doc("d.xml")//(a|c)"#,
    r#"for $x in doc("d.xml")//c return $x/@v"#,
    r#"for $x in doc("d.xml")//a for $y in $x//c return fn:data($y/@v)"#,
    r#"fn:distinct-values(doc("d.xml")//c/@v)"#,
    r#"for $x in doc("d.xml")//c where $x/@v > 10 return <hit>{ fn:data($x/@v) }</hit>"#,
];

fn configs() -> Vec<(&'static str, QueryOptions)> {
    let mut no_weaken = QueryOptions::order_indifferent();
    no_weaken.opt = no_weaken
        .opt
        .without_rule("weaken-criteria")
        .without_rule("weaken-rownum-to-rowid");
    let mut no_merge = QueryOptions::order_indifferent();
    no_merge.opt = no_merge.opt.without_rule("merge-steps");
    let mut no_cda = QueryOptions::order_indifferent();
    no_cda.opt = OptOptions::disabled();
    let mut ordered_opt = QueryOptions::baseline();
    ordered_opt.exploit = true;
    ordered_opt.opt = OptOptions::default();
    vec![
        ("baseline", QueryOptions::baseline()),
        ("ordered+analysis", ordered_opt),
        ("unordered", QueryOptions::order_indifferent()),
        ("unordered-no-weaken", no_weaken),
        ("unordered-no-merge", no_merge),
        ("unordered-no-analysis", no_cda),
    ]
}

#[test]
fn all_configurations_agree() {
    let mut rng = SmallRng::seed_from_u64(0x1b1b);
    for _case in 0..24 {
        let xml = random_doc(&mut rng);
        let mut session = Session::new();
        session.load_document("d.xml", &xml).unwrap();
        let configs = configs();
        for q in DETERMINED {
            let reference: Vec<String> = session
                .query_with(q, &configs[0].1)
                .unwrap_or_else(|e| panic!("{q} failed on {xml}: {e}"))
                .items
                .iter()
                .map(|i| i.render())
                .collect();
            for (name, opts) in &configs[1..] {
                let got: Vec<String> = session
                    .query_with(q, opts)
                    .unwrap_or_else(|e| panic!("{q} under {name} failed: {e}"))
                    .items
                    .iter()
                    .map(|i| i.render())
                    .collect();
                assert_eq!(
                    &reference, &got,
                    "query {} differs under {} on {}",
                    q, name, &xml
                );
            }
        }
        for q in MULTISET {
            let mut reference: Vec<String> = session
                .query_with(q, &configs[0].1)
                .unwrap()
                .items
                .iter()
                .map(|i| i.render())
                .collect();
            reference.sort();
            for (name, opts) in &configs[1..] {
                let mut got: Vec<String> = session
                    .query_with(q, opts)
                    .unwrap_or_else(|e| panic!("{q} under {name} failed: {e}"))
                    .items
                    .iter()
                    .map(|i| i.render())
                    .collect();
                got.sort();
                assert_eq!(
                    &reference, &got,
                    "multiset of {} differs under {} on {}",
                    q, name, &xml
                );
            }
        }
    }
}

#[test]
fn baseline_results_are_document_ordered() {
    let mut rng = SmallRng::seed_from_u64(0xD0C);
    for _case in 0..24 {
        let xml = random_doc(&mut rng);
        let mut session = Session::new();
        session.load_document("d.xml", &xml).unwrap();
        // Path results under the baseline must be in document order: the
        // serialization of //c equals the document-order scan.
        let out = session
            .query_with(r#"doc("d.xml")//c/@v"#, &QueryOptions::baseline())
            .unwrap();
        let got: Vec<String> = out.items.iter().map(|i| i.render()).collect();
        // Reference: extract v="…" left to right from the serialized doc.
        let expect: Vec<String> = xml
            .match_indices("v=\"")
            .map(|(i, _)| {
                let rest = &xml[i + 3..];
                let end = rest.find('"').unwrap();
                format!("v=\"{}\"", &rest[..end])
            })
            .collect();
        assert_eq!(got, expect);
    }
}
