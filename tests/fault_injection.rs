//! Tier-1 fault-injection suite: the default matrix from
//! `exrquy-verify`, plus direct end-to-end checks that each injected
//! fault surfaces as its typed error with no residual session damage.

use exrquy::diag::{ErrorClass, ErrorCode, Failpoints};
use exrquy::{QueryOptions, RunOptions, Session};
use exrquy_verify::{default_cases, run_fault_matrix, FaultCase};

fn session_with_doc() -> Session {
    let mut s = Session::new();
    s.load_document("d.xml", "<r><x>1</x><y><x>2</x></y></r>")
        .expect("load");
    s
}

fn opts_with(spec: &str) -> QueryOptions {
    QueryOptions::order_indifferent().with_failpoints(Failpoints::parse(spec).expect("spec"))
}

#[test]
fn default_fault_matrix_degrades_gracefully() {
    let report = run_fault_matrix(&default_cases());
    assert!(report.all_graceful(), "{report}");
}

#[test]
fn injected_doc_io_fault_is_a_retrieval_error() {
    let s = session_with_doc();
    let err = s
        .query_with(r#"doc("d.xml")//x"#, &opts_with("doc-io:1"))
        .expect_err("doc-io:1 must fail the first access");
    assert_eq!(err.code(), ErrorCode::FODC0002);
    assert!(err.to_string().contains("d.xml"), "{err}");
    // The same query succeeds once the failpoint is disarmed.
    let out = s
        .query_with(r#"doc("d.xml")//x"#, &QueryOptions::order_indifferent())
        .expect("rerun");
    assert_eq!(out.items.len(), 2);
}

#[test]
fn injected_parse_fault_is_malformed_content_and_leaves_no_fragment() {
    let mut s = Session::new();
    s.set_failpoints(Failpoints::parse("doc-parse:1").expect("spec"));
    let frags_before = s.catalog().frag_count();
    let err = s
        .load_document("bad.xml", "<ok/>")
        .expect_err("doc-parse:1 must reject the first load");
    assert_eq!(err.code(), ErrorCode::FODC0006);
    assert_eq!(
        s.catalog().frag_count(),
        frags_before,
        "a failed load must not register a fragment"
    );
    // Disarmed, the same document loads and queries fine.
    s.set_failpoints(Failpoints::none());
    s.load_document("bad.xml", "<ok/>").expect("reload");
    let out = s
        .query_with(r#"doc("bad.xml")"#, &QueryOptions::order_indifferent())
        .expect("query");
    assert_eq!(out.items.len(), 1);
}

#[test]
fn doc_parse_failpoint_counts_each_corpus_document_as_one_load() {
    let corpus: Vec<(String, String)> = (0..5)
        .map(|i| (format!("d{i}.xml"), format!("<r><x>{i}</x></r>")))
        .collect();
    let docs = || corpus.iter().map(|(u, x)| (u.as_str(), x.as_str()));
    let mut s = Session::new();
    s.set_failpoints(Failpoints::parse("doc-parse:4").expect("spec"));
    let err = s.load_corpus_sharded(docs(), 2).unwrap_err();
    assert_eq!(err.code(), ErrorCode::FODC0006);
    assert!(err.to_string().contains("d3.xml"), "{err}");
    assert_eq!((s.catalog().frag_count(), s.store_nodes()), (0, 0));
    // The failpoint fired once; the retry loads the whole corpus.
    s.load_corpus_sharded(docs(), 2).expect("reload");
    let out = s.query("fn:collection()//x").expect("query");
    assert_eq!(out.to_xml(), "<x>0</x><x>1</x><x>2</x><x>3</x><x>4</x>");
}

#[test]
fn injected_budget_trip_is_a_resource_error() {
    let s = session_with_doc();
    let err = s
        .query_with(r#"doc("d.xml")//x"#, &opts_with("budget-trip:step"))
        .expect_err("budget-trip:step must trip in the step operator");
    assert_eq!(err.code(), ErrorCode::EXRQ0001);
    assert_eq!(err.code().class(), ErrorClass::Resource);
    assert!(err.to_string().contains("injected"), "{err}");
}

#[test]
fn injected_cancellation_is_a_cancellation_error() {
    let s = session_with_doc();
    for spec in ["cancel-after:0", "cancel-after:2"] {
        let err = s
            .query_with(r#"doc("d.xml")//x"#, &opts_with(spec))
            .expect_err("injected cancellation must abort the query");
        assert_eq!(err.code(), ErrorCode::EXRQ0002, "{spec}");
    }
    // Store untouched by the aborted runs.
    let out = s
        .query_with(r#"doc("d.xml")//x"#, &QueryOptions::order_indifferent())
        .expect("rerun");
    assert_eq!(out.items.len(), 2);
}

#[test]
fn run_failpoints_on_a_cached_fused_plan_trip_like_prepare_time_ones() {
    // A failpoint armed per run on a plan-cache *hit* of a fused plan
    // must fail with the same rendered line — code, operator id,
    // boundary number — as the same failpoint armed at prepare time on
    // a fresh executor: both run the one-operator-per-slot schedule.
    let q = r#"for $x in doc("d.xml")//x where $x > 1 return <a>{$x}</a>"#;
    let opts = QueryOptions::order_indifferent();
    for spec in [
        "budget-trip:fun",
        "budget-trip:project",
        "budget-trip:step",
        "budget-trip:elem",
        "cancel-after:0",
        "cancel-after:9",
    ] {
        let at_prepare = session_with_doc()
            .query_with(q, &opts_with(spec))
            .expect_err(spec);
        let s = session_with_doc();
        let cold = s.prepare(q, &opts).expect("prepare");
        assert!(cold.phys.fused_chains > 0, "the cached plan must be fused");
        let hit = s.prepare(q, &opts).expect("prepare again");
        assert_eq!(s.cache_stats().hits, 1);
        let run = RunOptions {
            failpoints: Some(Failpoints::parse(spec).expect("spec")),
            ..RunOptions::default()
        };
        let per_run = s.execute_with(&hit, &run).expect_err(spec);
        assert_eq!(per_run.render_line(), at_prepare.render_line(), "{spec}");
        // Disarmed, the same cached plan still answers.
        assert_eq!(s.execute(&hit).expect("rerun").items.len(), 1);
    }
}

#[test]
fn matrix_rejects_silent_success_as_non_graceful() {
    // `cancel-after:1000000` never fires: the query succeeds, which the
    // harness must flag (an armed failpoint that cannot fire is a hole in
    // the matrix, not a pass).
    let case = FaultCase::new(
        "cancel-never-fires",
        "cancel-after:1000000",
        r#"doc("d.xml")//x"#,
        vec![ErrorCode::EXRQ0002],
        false,
    );
    let report = run_fault_matrix(&[case]);
    assert!(!report.all_graceful());
    assert!(report.to_string().contains("query succeeded"), "{report}");
}

#[test]
fn malformed_inject_specs_are_rejected_with_context() {
    // (`budget-trip:<anything>` is accepted — unknown aliases pass through
    // as canonical kind names — so it is not in this list.)
    for bad in [
        "doc-io",
        "doc-io:x",
        "unknown:1",
        "oracle-perturb:sideways",
        "rule-perturb:merge-steps",
        "rule-perturb:bogus",
    ] {
        let err = Failpoints::parse(bad).expect_err(bad);
        assert!(
            err.to_string().contains(bad.split(':').next().unwrap()),
            "{err}"
        );
    }
}
