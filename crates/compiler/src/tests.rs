//! Compiler unit tests: plan shapes (these check the paper's *rules*;
//! end-to-end result correctness is covered by the integration tests in
//! the workspace root, which run the plans through the engine).

use crate::{CompiledPlan, Compiler};
use exrquy_algebra::{stats, Col, Op, PlanStats};
use exrquy_frontend::{normalize, parse_module};
use exrquy_xml::Catalog;

fn compile(q: &str) -> CompiledPlan {
    let m = parse_module(q).unwrap_or_else(|e| panic!("parse: {e}"));
    let m = normalize(&m);
    let catalog = Catalog::new();
    Compiler::new(&catalog)
        .compile_module(&m)
        .unwrap_or_else(|e| panic!("compile `{q}`: {e}"))
}

fn stats_of(p: &CompiledPlan) -> PlanStats {
    PlanStats::of(&p.dag, p.root)
}

#[test]
fn literal_compiles_to_attached_constants() {
    let p = compile("42");
    let s = stats_of(&p);
    assert!(s.count("attach") >= 2); // pos and item
    assert_eq!(s.rownums(), 0);
}

#[test]
fn loc_rule_ordered_vs_unordered() {
    // Rule LOC: under ordered the step carries % pos:⟨item⟩‖iter;
    // Rule LOC#: under unordered it carries # pos.
    let ordered = compile(r#"doc("x.xml")/site"#);
    let s = stats_of(&ordered);
    assert_eq!(s.steps(), 1);
    assert_eq!(s.rownums(), 1);
    assert_eq!(s.rowids(), 0);

    let unordered = compile(r#"declare ordering unordered; doc("x.xml")/site"#);
    let s = stats_of(&unordered);
    assert_eq!(s.steps(), 1);
    assert_eq!(s.rownums(), 0);
    assert_eq!(s.rowids(), 1);
}

#[test]
fn unordered_scope_switches_rules_locally() {
    // ordered outside, unordered inside the scope.
    let p = compile(r#"(doc("x.xml")/a, unordered { doc("x.xml")/b })"#);
    let s = stats_of(&p);
    // a-step gets %, b-step gets #, plus the sequence-concat %.
    assert_eq!(s.steps(), 2);
    assert!(s.rownums() >= 2); // LOC% for /a + concat %
    assert!(s.rowids() >= 1); // LOC# for /b
}

#[test]
fn bind_rule_ordered_vs_unordered() {
    let ordered = compile("for $x in (1,2,3) return $x");
    // BIND: % bind:⟨iter,pos⟩ appears; plus the iter→seq map-back %.
    let has_bind_rownum = ordered
        .dag
        .reachable(ordered.root)
        .iter()
        .any(|&id| matches!(ordered.dag.op(id), Op::RowNum { new, .. } if *new == exrquy_algebra::Col::BIND));
    assert!(has_bind_rownum);

    let unordered = compile("declare ordering unordered; for $x in (1,2,3) return $x");
    let has_bind_rowid = unordered
        .dag
        .reachable(unordered.root)
        .iter()
        .any(|&id| matches!(unordered.dag.op(id), Op::RowId { new, .. } if *new == exrquy_algebra::Col::BIND));
    assert!(has_bind_rowid);
    // The iter→seq map-back % persists even under unordered (Fig. 6b).
    assert!(stats_of(&unordered).rownums() >= 1);
}

#[test]
fn fn_unordered_rule_inserts_rowid() {
    let p = compile("fn:unordered((1,2,3))");
    let s = stats_of(&p);
    assert!(s.rowids() >= 1);
}

#[test]
fn fn_count_gets_unordered_argument() {
    // Normalization wraps the argument; compilation turns that into #pos.
    let p = compile(r#"fn:count(doc("x.xml")//item)"#);
    let s = stats_of(&p);
    assert!(s.rowids() >= 1, "{s}");
    assert!(s.count("aggr") >= 1);
}

#[test]
fn join_recognition_produces_theta_join() {
    // The Q11 pattern: inner for + where with a comparison splitting into
    // an $i-dependent side and an $i-free side.
    let q = r#"
        let $auction := doc("auction.xml")
        for $p in $auction/site/people/person
        let $l := for $i in $auction/site/open_auctions/open_auction/initial
                  where $p/profile/@income > 5000 * $i
                  return $i
        return fn:count($l)"#;
    let p = compile(q);
    let s = stats_of(&p);
    assert_eq!(s.count("⋈θ"), 1, "{s}");
    // No Cartesian blow-up of the two iteration spaces: the only crosses
    // allowed are the doc-constant ones.
    assert!(s.count("×") <= 1, "{s}");
}

#[test]
fn join_recognition_fuses_one_conjunct() {
    // `where a ◦ b and <residual>`: the comparison fuses into a theta
    // join; the residual survives as a selection.
    let q = r#"
        let $auction := doc("auction.xml")
        for $p in $auction/site/people/person
        let $l := for $t in $auction/site/closed_auctions/closed_auction
                  where $t/buyer/@person = $p/@id and $t/price > 100
                  return $t
        return fn:count($l)"#;
    let p = compile(q);
    let s = stats_of(&p);
    assert_eq!(s.count("⋈θ"), 1, "{s}");
    assert!(s.count("×") <= 1, "{s}");
}

#[test]
fn quantifier_and_general_comparison_compile() {
    let p = compile("some $x in (1,2,3) satisfies $x = 2");
    let s = stats_of(&p);
    assert!(s.count("⋈") >= 1);
    let p = compile("every $x in (1,2) satisfies $x < 3");
    assert!(stats_of(&p).count("\\") >= 1);
}

#[test]
fn node_set_ops_ordered_vs_unordered() {
    // §4.2: under unordered the union's doc-order % becomes a free #.
    let ordered = compile(r#"doc("x.xml")//c | doc("x.xml")//d"#);
    let u = compile(r#"declare ordering unordered; doc("x.xml")//c | doc("x.xml")//d"#);
    assert!(stats_of(&ordered).rownums() > stats_of(&u).rownums());
    assert!(stats_of(&u).rowids() > 0);
}

#[test]
fn order_by_uses_unordered_bindings() {
    let p = compile("for $x in (3,1,2) order by $x descending return $x");
    // BIND# for the binding (reordered flag), one % for the sort.
    let has_bind_rowid = p.dag.reachable(p.root).iter().any(
        |&id| matches!(p.dag.op(id), Op::RowId { new, .. } if *new == exrquy_algebra::Col::BIND),
    );
    assert!(has_bind_rowid);
    assert!(stats_of(&p).rownums() >= 1);
}

#[test]
fn constructors_compile() {
    let p = compile(r#"for $x at $p in ("a","b") return <e pos="{ $p }">{ $x }</e>"#);
    let s = stats_of(&p);
    assert!(s.count("elem") == 1);
    assert!(s.count("attr") == 1);
}

#[test]
fn nested_direct_constructors_compile_to_one_twig() {
    // One `elem` for the whole tree, slots numbered in DFS order, run once
    // per row of the loop relation itself (every name is in the twig).
    let p = compile(r#"<a x="1"><b>{ 1, 2 }</b>t{ 3 }</a>"#);
    let elems: Vec<_> = (p.dag.reachable(p.root).into_iter())
        .filter_map(|id| match p.dag.op(id) {
            Op::Element { iters, twig, .. } => Some((p.dag.schema(*iters), twig.to_string())),
            _ => None,
        })
        .collect();
    assert_eq!(elems, [(&[Col::ITER][..], "a($1,b($2),$3,$4)".into())]);
}

#[test]
fn xmark_like_queries_compile() {
    for q in [
        r#"let $a := doc("auction.xml") return for $b in $a/site/people/person[@id = "person0"] return $b/name/text()"#,
        r#"let $a := doc("auction.xml") return fn:count($a/site/regions//item)"#,
        r#"let $a := doc("auction.xml") for $p in $a/site/people/person
           let $c := for $t in $a/site/closed_auctions/closed_auction
                     where $t/buyer/@person = $p/@id return $t
           return <item person="{ $p/name/text() }">{ fn:count($c) }</item>"#,
        r#"for $x in doc("a.xml")//item where $x/@id = "i1" return ($x, $x)"#,
        r#"if (fn:empty(doc("a.xml")//z)) then "none" else "some""#,
    ] {
        let _ = compile(q);
    }
}

#[test]
fn unbound_variable_is_an_error() {
    let m = normalize(&parse_module("$nope").unwrap());
    let catalog = Catalog::new();
    let err = Compiler::new(&catalog).compile_module(&m).unwrap_err();
    assert!(err.message.contains("unbound variable"));
    assert_eq!(err.code, exrquy_diag::ErrorCode::XPST0008);
}

#[test]
fn costly_rownum_census() {
    let ordered = compile(r#"doc("x.xml")/a/b/c"#);
    let unordered = compile(r#"declare ordering unordered; doc("x.xml")/a/b/c"#);
    assert!(
        stats::costly_rownums(&ordered.dag, ordered.root)
            > stats::costly_rownums(&unordered.dag, unordered.root)
    );
}

#[test]
fn compiled_plans_lower_to_flattened_programs() {
    // A where-clause produces a fun→σ(→π) run: the lowered program must
    // fuse it, keep slots topologically ordered, and publish the root in
    // the last slot.
    let p = compile(r#"for $x in (1, 2, 3, 4) where $x > 2 return $x"#);
    let fused = p.lower(true);
    assert_eq!(fused.root as usize, fused.len() - 1);
    assert!(fused.fused_chains >= 1, "{:?}", fused.ops);
    for (i, op) in fused.ops.iter().enumerate() {
        let args = op.args();
        assert!(args.iter().all(|&a| (a as usize) < i), "slot {i} operands");
    }
    // The unfused lowering covers the same operators, one slot each.
    let flat = p.lower(false);
    assert_eq!(flat.fused_chains, 0);
    assert_eq!(
        flat.len(),
        fused.len() + fused.fused_ops - fused.fused_chains
    );
    assert_eq!(
        flat.ops.last().unwrap().out_id(),
        fused.ops.last().unwrap().out_id()
    );
}
