//! Structural tests of the SQL emission: the Table 1 ↔ SQL:1999
//! correspondences the paper calls out must be visible in the output.

use crate::{to_sql, SqlOptions};
use exrquy_algebra::{AValue, Col, Dag, Op, OpId, SortKey};
use exrquy_compiler::Compiler;
use exrquy_frontend::{normalize_opts, parse_module, OrderingMode};
use exrquy_opt::{try_optimize, OptOptions};
use exrquy_xml::Catalog;

fn compile_to_sql(q: &str, unordered: bool) -> String {
    let mut m = parse_module(q).unwrap();
    m.ordering = if unordered {
        OrderingMode::Unordered
    } else {
        OrderingMode::Ordered
    };
    let m = normalize_opts(&m, unordered);
    let catalog = Catalog::new();
    let plan = Compiler::new(&catalog).compile_module(&m).unwrap();
    let mut dag = plan.dag;
    let root = if unordered {
        try_optimize(&mut dag, plan.root, &OptOptions::default())
            .unwrap()
            .0
    } else {
        plan.root
    };
    to_sql(&dag, root, &SqlOptions::default())
}

#[test]
fn rownum_maps_to_partitioned_row_number() {
    // Rule LOC's % pos:⟨item⟩‖iter — the paper's "exactly mimics
    // ROW_NUMBER() OVER (PARTITION BY c ORDER BY b)".
    let sql = compile_to_sql(r#"doc("a.xml")/site"#, false);
    assert!(
        sql.contains("ROW_NUMBER() OVER (PARTITION BY iter ORDER BY item) AS pos"),
        "{sql}"
    );
}

#[test]
fn rowid_maps_to_orderless_row_number() {
    // Rule LOC#'s # pos — a free ROW_NUMBER() OVER ().
    let sql = compile_to_sql(r#"doc("a.xml")/site"#, true);
    assert!(sql.contains("ROW_NUMBER() OVER () AS pos"), "{sql}");
    assert!(
        !sql.contains("PARTITION BY iter ORDER BY item"),
        "unordered plan still sorts: {sql}"
    );
}

#[test]
fn steps_emit_staircase_predicates() {
    let sql = compile_to_sql(r#"doc("a.xml")//item"#, false);
    // descendant window arithmetic + name test
    assert!(
        sql.contains("d.pre > v.pre AND d.pre <= v.pre + v.size")
            || sql.contains("d.pre >= v.pre AND d.pre <= v.pre + v.size"),
        "{sql}"
    );
    assert!(sql.contains("d.kind = 'elem' AND d.name ="), "{sql}");
    assert!(sql.contains("FROM doc_nodes d"), "{sql}");
}

#[test]
fn aggregates_emit_group_by() {
    let sql = compile_to_sql(
        r#"for $x in doc("a.xml")//item return fn:count($x/bold)"#,
        true,
    );
    assert!(sql.contains("COUNT(*)"), "{sql}");
    assert!(sql.contains("GROUP BY iter"), "{sql}");
}

#[test]
fn whole_query_is_one_with_chain() {
    let sql = compile_to_sql(r#"fn:count(doc("a.xml")//item)"#, true);
    assert!(sql.starts_with("WITH\n"), "{sql}");
    assert!(sql.trim_end().ends_with("ORDER BY pos"), "{sql}");
    // Every CTE reference resolves (opN AS … precedes any FROM opN).
    for (i, _) in sql.match_indices("FROM op") {
        let rest = &sql[i + 5..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        assert!(
            sql.find(&format!("{name} AS (")).unwrap() < i,
            "forward reference to {name}"
        );
    }
}

#[test]
fn theta_join_emits_inequality_join() {
    let sql = compile_to_sql(
        r#"let $auction := doc("auction.xml")
           for $p in $auction/site/people/person
           let $l := for $i in $auction/site/open_auctions/open_auction/initial
                     where $p/profile/@income > 5000 * $i
                     return $i
           return fn:count($l)"#,
        true,
    );
    assert!(
        sql.contains("JOIN") && sql.contains("ON l.item1 > r.item2"),
        "{sql}"
    );
}

#[test]
fn literals_and_unions() {
    let mut dag = Dag::new();
    let a = dag.add(Op::Lit {
        cols: vec![Col::ITER, Col::ITEM],
        rows: vec![
            vec![AValue::Int(1), AValue::str("x")],
            vec![AValue::Int(2), AValue::str("it's")],
        ],
    });
    let b = dag.add(Op::Lit {
        cols: vec![Col::ITER, Col::ITEM],
        rows: vec![],
    });
    let u = dag.add(Op::Union { l: a, r: b });
    let rn = dag.add(Op::RowNum {
        input: u,
        new: Col::POS,
        order: vec![SortKey::asc(Col::ITER)],
        part: None,
    });
    let root = dag.add(Op::Serialize { input: rn });
    let sql = to_sql(&dag, root, &SqlOptions::default());
    assert!(sql.contains("SELECT 1 AS iter, 'x' AS item"), "{sql}");
    assert!(sql.contains("'it''s'"), "string quoting: {sql}");
    assert!(sql.contains("WHERE 1 = 0"), "empty literal: {sql}");
    assert!(sql.contains("UNION ALL"), "{sql}");
    assert!(sql.contains("ROW_NUMBER() OVER (ORDER BY iter)"), "{sql}");
}

#[test]
fn nested_constructors_emit_one_element_call_with_its_skeleton() {
    let sql = compile_to_sql(r#"<a x="1"><b>{ 1, 2 }</b>t{ 3 }</a>"#, false);
    assert_eq!(sql.matches("xq_element(").count(), 1, "{sql}");
    assert!(
        sql.contains("xq_element(n.item, 'a($1,b($2),$3,$4)',")
            && sql.contains("xq_content_agg(c.item, c.ord ORDER BY c.ord, c.pos)"),
        "{sql}"
    );
}

#[test]
fn difference_emits_anti_join() {
    let mut dag = Dag::new();
    let a = dag.add(Op::Lit {
        cols: vec![Col::ITER, Col::POS, Col::ITEM],
        rows: vec![],
    });
    let b = dag.add(Op::Lit {
        cols: vec![Col::ITER1],
        rows: vec![],
    });
    let d = dag.add(Op::Difference {
        l: a,
        r: b,
        on: vec![(Col::ITER, Col::ITER1)],
    });
    let root = dag.add(Op::Serialize { input: d });
    let sql = to_sql(&dag, root, &SqlOptions::default());
    assert!(sql.contains("NOT EXISTS"), "{sql}");
    assert!(sql.contains("r.iter1 = l.iter"), "{sql}");
}

fn roots_of(dag: &Dag, root: OpId) -> usize {
    dag.reachable(root).len()
}

#[test]
fn cte_count_matches_plan_size() {
    let mut m = parse_module(r#"fn:count(doc("a.xml")//x)"#).unwrap();
    m.ordering = OrderingMode::Unordered;
    let m = normalize_opts(&m, true);
    let catalog = Catalog::new();
    let plan = Compiler::new(&catalog).compile_module(&m).unwrap();
    let mut dag = plan.dag;
    let (root, _) = try_optimize(&mut dag, plan.root, &OptOptions::default()).unwrap();
    let sql = to_sql(&dag, root, &SqlOptions::default());
    let ctes = sql.matches(" AS (").count();
    assert_eq!(ctes, roots_of(&dag, root), "{sql}");
}
