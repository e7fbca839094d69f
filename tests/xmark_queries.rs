//! End-to-end integration: all 20 XMark queries, run against a generated
//! auction document under both compiler configurations.
//!
//! The key invariant of the paper: the order-indifferent configuration may
//! permute result sequences (only where order is unobservable!) but never
//! changes the result *multiset*; queries whose result order is fully
//! determined (aggregates, single constructors) must agree exactly.

use exrquy::{QueryOptions, ResultItem, Session};
use exrquy_xmark::{generate, query, XmarkConfig};

fn session() -> Session {
    // ≈64 persons, 54 items, 30 open auctions, 24 closed auctions.
    let cfg = XmarkConfig::at_scale(0.0025);
    let xml = generate(&cfg);
    let mut s = Session::new();
    s.load_document("auction.xml", &xml).unwrap();
    s
}

fn render(items: &[ResultItem]) -> Vec<String> {
    items.iter().map(|i| i.render()).collect()
}

/// Run Qn in both configurations; return (baseline, order-indifferent).
fn run_both(s: &mut Session, n: usize) -> (Vec<String>, Vec<String>) {
    let base = s
        .query_with(query(n), &QueryOptions::baseline())
        .unwrap_or_else(|e| panic!("Q{n} baseline failed: {e}"));
    let oi = s
        .query_with(query(n), &QueryOptions::order_indifferent())
        .unwrap_or_else(|e| panic!("Q{n} order-indifferent failed: {e}"));
    (render(&base.items), render(&oi.items))
}

#[test]
fn all_twenty_queries_agree_as_multisets() {
    let mut s = session();
    for n in 1..=20 {
        let (mut base, mut oi) = run_both(&mut s, n);
        assert_eq!(
            base.len(),
            oi.len(),
            "Q{n}: cardinality differs (baseline {} vs unordered {})",
            base.len(),
            oi.len()
        );
        base.sort();
        oi.sort();
        assert_eq!(base, oi, "Q{n}: result multiset differs");
    }
}

#[test]
fn aggregate_queries_agree_exactly() {
    // Q5, Q6, Q7, Q20 produce order-determined results: the two
    // configurations must agree without sorting.
    let mut s = session();
    for n in [5, 6, 7, 20] {
        let (base, oi) = run_both(&mut s, n);
        assert_eq!(base, oi, "Q{n}: exact results differ");
    }
}

#[test]
fn q1_returns_person0_name() {
    let s = session();
    let out = s.query(query(1)).unwrap();
    assert_eq!(out.items.len(), 1);
    // person0's <name> text: a "First Last" string.
    let name = out.items[0].render();
    assert!(name.contains(' '), "unexpected name {name:?}");
}

#[test]
fn q5_counts_expensive_closed_auctions() {
    let s = session();
    let out = s.query(query(5)).unwrap();
    assert_eq!(out.items.len(), 1);
    let ResultItem::Int(n) = out.items[0] else {
        panic!("Q5 must return an integer, got {:?}", out.items[0]);
    };
    // price ∈ [5, 200) uniform → around 80 % of 24 closed auctions.
    assert!(n > 0 && n <= 24, "implausible Q5 count {n}");
}

#[test]
fn q6_counts_all_items() {
    let s = session();
    let out = s.query(query(6)).unwrap();
    // One count per regions element (exactly one in the document).
    assert_eq!(out.items.len(), 1);
    let cfg = XmarkConfig::at_scale(0.0025);
    assert_eq!(out.items[0], ResultItem::Int(cfg.items() as i64));
}

#[test]
fn q10_produces_one_element_per_category_used() {
    let s = session();
    let out = s.query(query(10)).unwrap();
    assert!(!out.items.is_empty());
    for item in &out.items {
        let x = item.render();
        assert!(x.starts_with("<categorie>"), "bad Q10 item: {x}");
    }
}

#[test]
fn q11_counts_match_a_reference_computation() {
    let s = session();
    let out = s.query(query(11)).unwrap();
    let cfg = XmarkConfig::at_scale(0.0025);
    assert_eq!(out.items.len(), cfg.persons());
    // Each result is <items name="…">N</items>; N must never exceed the
    // number of open auctions.
    for item in &out.items {
        let x = item.render();
        let inner: String = x
            .chars()
            .skip_while(|&c| c != '>')
            .skip(1)
            .take_while(|&c| c != '<')
            .collect();
        let n: i64 = inner.parse().unwrap_or_else(|_| panic!("bad Q11 item {x}"));
        assert!((0..=cfg.open_auctions() as i64).contains(&n));
    }
}

#[test]
fn q17_complements_homepage_presence() {
    let s = session();
    let q17 = s.query(query(17)).unwrap();
    let with_homepage = s
        .query(
            r#"let $auction := doc("auction.xml") return
               fn:count(for $p in $auction/site/people/person
                        where fn:exists($p/homepage/text()) return $p)"#,
        )
        .unwrap();
    let ResultItem::Int(with) = with_homepage.items[0] else {
        panic!()
    };
    let cfg = XmarkConfig::at_scale(0.0025);
    assert_eq!(q17.items.len() + with as usize, cfg.persons());
}

#[test]
fn q19_is_sorted_by_location() {
    let s = session();
    let out = s.query(query(19)).unwrap();
    let cfg = XmarkConfig::at_scale(0.0025);
    assert_eq!(out.items.len(), cfg.items());
    // Extract the location text (element content) and check it ascends.
    let locations: Vec<String> = out
        .items
        .iter()
        .map(|i| {
            let x = i.render();
            x.chars()
                .skip_while(|&c| c != '>')
                .skip(1)
                .take_while(|&c| c != '<')
                .collect()
        })
        .collect();
    let mut sorted = locations.clone();
    sorted.sort();
    assert_eq!(locations, sorted, "Q19 output not sorted by location");
}

#[test]
fn unordered_plans_have_fewer_costly_rownums() {
    let s = session();
    for n in 1..=20 {
        let base = s.prepare(query(n), &QueryOptions::baseline()).unwrap();
        let oi = s
            .prepare(query(n), &QueryOptions::order_indifferent())
            .unwrap();
        let base_rn = exrquy::algebra::stats::costly_rownums(&base.dag, base.root);
        let oi_rn = exrquy::algebra::stats::costly_rownums(&oi.dag, oi.root);
        assert!(
            oi_rn <= base_rn,
            "Q{n}: unordered plan has MORE costly %: {oi_rn} vs {base_rn}"
        );
    }
}

/// Q11/Q12: loop-lifting's map joins between the value join and the
/// count are identities over `#` keys — `Count‖iter` must read the `⋈θ`
/// pairs through projections only, with no `⋈` and no `#` in between.
#[test]
fn q11_q12_count_reads_the_theta_join_directly() {
    use exrquy::algebra::{AggrKind, Op};
    let s = session();
    for n in [11, 12] {
        let plan = s
            .prepare(query(n), &QueryOptions::order_indifferent())
            .unwrap();
        let dag = &plan.dag;
        let mut counts = 0;
        for id in dag.reachable(plan.root) {
            let Op::Aggr {
                input,
                kind: AggrKind::Count,
                ..
            } = dag.op(id)
            else {
                continue;
            };
            counts += 1;
            let mut at = *input;
            while !matches!(dag.op(at), Op::ThetaJoin { .. }) {
                let op = dag.op(at);
                assert!(
                    matches!(op, Op::Project { .. }),
                    "Q{n}: `{}` between Count and ⋈θ",
                    op.kind_name()
                );
                at = op.children()[0];
            }
        }
        assert_eq!(counts, 1, "Q{n} has one fn:count");
    }
}

/// Q10: `<personne>`'s fifteen nested direct constructors are one twig —
/// one `elem` writing the whole tree — beside `<id>` and `<categorie>`,
/// under either compiler; and no `%` renumbers a constructor's content.
#[test]
fn q10_constructs_with_three_twigs() {
    use exrquy::algebra::Op;
    let s = session();
    for opts in [QueryOptions::order_indifferent(), QueryOptions::baseline()] {
        let plan = s.prepare(query(10), &opts).unwrap();
        let dag = &plan.dag;
        let mut twigs: Vec<String> = dag
            .reachable(plan.root)
            .into_iter()
            .filter_map(|id| match dag.op(id) {
                Op::Element { twig, content, .. } => {
                    let feed = dag.op(*content).kind_name();
                    assert!(matches!(feed, "∪̇" | "attach"), "content is a `{feed}`");
                    Some(twig.label())
                }
                _ => None,
            })
            .collect();
        twigs.sort();
        assert_eq!(twigs, ["categorie", "id", "personne·15"]);
    }
}

/// Q6/Q7/Q14 under the baseline: §5's unmerged step pair stays unmerged.
/// `descendant-or-self::node()` is still its own `⬡`, a `%` still ranks
/// its output, and a `child::` step still consumes that — making each
/// operator faster must never turn into quietly merging them, which is
/// the order-indifferent compiler's job and what Figure 12 measures.
#[test]
fn baseline_keeps_descendant_or_self_step_and_its_rownum() {
    use exrquy::algebra::Op;
    use exrquy::xml::{Axis, NodeTest};
    let s = session();
    for n in [6, 7, 14] {
        let plan = s.prepare(query(n), &QueryOptions::baseline()).unwrap();
        let dag = &plan.dag;
        let ops: Vec<_> = dag.reachable(plan.root).into_iter().collect();
        let dos: Vec<_> = ops
            .iter()
            .copied()
            .filter(|&id| {
                matches!(
                    dag.op(id),
                    Op::Step {
                        axis: Axis::DescendantOrSelf,
                        test: NodeTest::AnyKind,
                        ..
                    }
                )
            })
            .collect();
        assert!(!dos.is_empty(), "Q{n}: no descendant-or-self::node() step");
        for step in dos {
            let ranked = ops.iter().copied().find(|&id| {
                matches!(dag.op(id), Op::RowNum { input, order, .. }
                    if *input == step && !order.is_empty())
            });
            let ranked = ranked.unwrap_or_else(|| panic!("Q{n}: no % over ⬡ {step}"));
            // Through projections only, a child step reads the ranked rows.
            let feeds_child_step = ops.iter().any(|&id| {
                let Op::Step {
                    input,
                    axis: Axis::Child,
                    ..
                } = dag.op(id)
                else {
                    return false;
                };
                let mut at = *input;
                while let Op::Project { input, .. } = dag.op(at) {
                    at = *input;
                }
                at == ranked
            });
            assert!(feeds_child_step, "Q{n}: no child step over % {ranked}");
        }
    }
}
