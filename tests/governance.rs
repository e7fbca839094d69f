//! Execution budgets and cooperative cancellation: resource-governed
//! queries must return typed `EXRQ*` errors — never panic, never
//! materialize unbounded results — and the session must stay usable.

use exrquy::diag::{CancellationToken, ErrorClass, ErrorCode, ExecutionBudget};
use exrquy::{QueryOptions, Session};
use std::time::Duration;

fn session() -> Session {
    let mut s = Session::new();
    s.load_document("d.xml", "<r><a>1</a><a>2</a><a>3</a></r>")
        .unwrap();
    s
}

fn with_budget(budget: ExecutionBudget) -> QueryOptions {
    QueryOptions::honor_prolog().with_budget(budget)
}

#[test]
fn row_budget_stops_range_explosion() {
    let s = session();
    // 10^12 rows would exhaust memory; the cap must trip incrementally.
    let opts = with_budget(ExecutionBudget::default().with_max_rows_per_op(10_000));
    let err = s
        .query_with("fn:count((1 to 1000000000000))", &opts)
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::EXRQ0001, "{err}");
    assert_eq!(err.class(), ErrorClass::Resource);
    assert_eq!(err.class().exit_code(), 3);
}

#[test]
fn row_budget_stops_cross_product() {
    let s = session();
    let opts = with_budget(ExecutionBudget::default().with_max_rows_per_op(50));
    // Nested for-loops compile to a cross product: 20 × 20 = 400 > 50.
    let err = s
        .query_with(
            "for $x in (1 to 20) for $y in (1 to 20) return $x + $y",
            &opts,
        )
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::EXRQ0001, "{err}");
    // Under the cap the same shape succeeds.
    let opts = with_budget(ExecutionBudget::default().with_max_rows_per_op(1000));
    assert!(s
        .query_with(
            "fn:count(for $x in (1 to 20) for $y in (1 to 20) return $x + $y)",
            &opts,
        )
        .is_ok());
}

#[test]
fn total_row_budget_spans_operators() {
    let s = session();
    // Each operator stays small, but the plan as a whole crosses the
    // total-row ceiling.
    let opts = with_budget(ExecutionBudget::default().with_max_rows_total(10));
    let err = s
        .query_with("for $x in (1 to 8) return $x + 1", &opts)
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::EXRQ0001, "{err}");
}

#[test]
fn node_budget_stops_construction() {
    let s = session();
    let opts = with_budget(ExecutionBudget::default().with_max_nodes(10));
    // Content depends on $i, so every element is constructed at runtime
    // (a constant constructor would be materialized at compile time).
    let err = s
        .query_with("for $i in (1 to 50) return <e>{ $i }</e>", &opts)
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::EXRQ0001, "{err}");
    assert!(err.to_string().contains("nodes"), "{err}");
}

/// A nested constructor is one operator writing every level, so it polls
/// the node ceiling itself: the overshoot is a few thousand trees, not
/// the operator's whole output.
#[test]
fn node_budget_stops_a_deep_twig_midway() {
    let s = session();
    let opts = with_budget(ExecutionBudget::default().with_max_nodes(1_000));
    let q = "for $i in (1 to 20000) return <a><b><c><d><e>{ $i }</e></d></c></b></a>";
    let err = s.query_with(q, &opts).unwrap_err();
    assert_eq!(err.code(), ErrorCode::EXRQ0001, "{err}");
    let text = err.to_string();
    let built: usize = text
        .split_whitespace()
        .find_map(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("no node count in {text}"));
    // 120 000 nodes in all; the trip comes within one poll stride.
    assert!((1_000..20_000).contains(&built), "{text}");
}

#[test]
fn zero_timeout_trips_immediately() {
    let s = session();
    let opts = with_budget(ExecutionBudget::default().with_max_wall(Duration::ZERO));
    let err = s.query_with(r#"doc("d.xml")//a"#, &opts).unwrap_err();
    assert_eq!(err.code(), ErrorCode::EXRQ0001, "{err}");
    assert!(err.to_string().contains("wall-clock"), "{err}");
}

#[test]
fn generous_budget_is_invisible() {
    let s = session();
    let opts = with_budget(
        ExecutionBudget::default()
            .with_max_rows_per_op(1_000_000)
            .with_max_rows_total(10_000_000)
            .with_max_wall(Duration::from_secs(60))
            .with_max_nodes(1_000_000)
            .with_max_depth(64),
    );
    assert_eq!(
        s.query_with(r#"fn:sum(doc("d.xml")//a)"#, &opts)
            .unwrap()
            .to_xml(),
        "6"
    );
}

#[test]
fn cancelled_token_aborts_execution() {
    let s = session();
    let token = CancellationToken::new();
    token.cancel();
    let opts = QueryOptions::honor_prolog().with_cancel(token);
    let err = s.query_with(r#"doc("d.xml")//a"#, &opts).unwrap_err();
    assert_eq!(err.code(), ErrorCode::EXRQ0002, "{err}");
    assert_eq!(err.class(), ErrorClass::Resource);
    assert!(err.to_string().contains("cancelled"), "{err}");
}

#[test]
fn uncancelled_token_is_invisible() {
    let s = session();
    let token = CancellationToken::new();
    let opts = QueryOptions::honor_prolog().with_cancel(token.clone());
    assert_eq!(
        s.query_with(r#"fn:count(doc("d.xml")//a)"#, &opts)
            .unwrap()
            .to_xml(),
        "3"
    );
    // A clone cancelled from "another thread" is seen by the session's copy.
    token.cancel();
    assert!(s.query_with("1 + 1", &opts).is_err());
}

#[test]
fn depth_budget_overrides_default() {
    let s = session();
    // 32 nested parens exceed an explicit depth budget of 16 …
    let q = format!("{}1{}", "(".repeat(32), ")".repeat(32));
    let opts = with_budget(ExecutionBudget::default().with_max_depth(16));
    let err = s.query_with(&q, &opts).unwrap_err();
    assert_eq!(err.code(), ErrorCode::EXRQ0003, "{err}");
    // … but pass under the built-in default.
    assert!(s.query(&q).is_ok());
}

#[test]
fn session_survives_budget_trips_without_leaking() {
    let s = session();
    let before = s.catalog().frag_count();
    let opts = with_budget(ExecutionBudget::default().with_max_nodes(5));
    let _ = s
        .query_with("for $i in (1 to 50) return <e>{ $i }</e>", &opts)
        .unwrap_err();
    // Partially constructed fragments were released …
    assert_eq!(s.catalog().frag_count(), before);
    // … and the session still answers queries.
    assert_eq!(
        s.query(r#"fn:count(doc("d.xml")//a)"#).unwrap().to_xml(),
        "3"
    );
}
