//! Plan-cache semantics: hits return the shared plan, anything that
//! changes the compiled plan misses, run-specific state bypasses the
//! cache, and loading a document invalidates wholesale.

use exrquy::diag::{CancellationToken, Failpoints};
use exrquy::frontend::OrderingMode;
use exrquy::opt::{OptOptions, RuleSet};
use exrquy::{QueryOptions, Session};
use std::sync::Arc;

const QUERY: &str = "for $a in doc(\"d.xml\")//a return fn:string($a)";

fn session() -> Session {
    let mut s = Session::new();
    s.load_document("d.xml", "<r><a>1</a><a>2</a></r>").unwrap();
    s
}

#[test]
fn identical_options_hit_and_share_the_plan() {
    let s = session();
    let opts = QueryOptions::order_indifferent();
    let first = s.prepare(QUERY, &opts).unwrap();
    let second = s.prepare(QUERY, &opts).unwrap();
    assert!(
        Arc::ptr_eq(&first, &second),
        "a cache hit must return the same Arc<Prepared>"
    );
    let stats = s.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    assert!(stats.hit_rate() > 0.0);
}

#[test]
fn different_query_text_misses() {
    let s = session();
    let opts = QueryOptions::order_indifferent();
    let a = s.prepare(QUERY, &opts).unwrap();
    let b = s.prepare("fn:count(doc(\"d.xml\")//a)", &opts).unwrap();
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(s.cache_stats().misses, 2);
}

#[test]
fn ordering_override_misses() {
    let s = session();
    let a = s
        .prepare(QUERY, &QueryOptions::order_indifferent())
        .unwrap();
    let mut forced = QueryOptions::order_indifferent();
    forced.ordering = Some(OrderingMode::Ordered);
    let b = s.prepare(QUERY, &forced).unwrap();
    assert!(!Arc::ptr_eq(&a, &b));
    let stats = s.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 2));
}

#[test]
fn optimizer_toggles_miss() {
    let s = session();
    let a = s
        .prepare(QUERY, &QueryOptions::order_indifferent())
        .unwrap();
    let mut rules_off = QueryOptions::order_indifferent();
    rules_off.opt = OptOptions::disabled();
    let b = s.prepare(QUERY, &rules_off).unwrap();
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(s.cache_stats().misses, 2);
}

#[test]
fn individually_disabled_rules_miss() {
    // Attribution bisects by disabling single rewrite rules; every
    // distinct disabled-rule set must get its own cache entry, and the
    // same set must hit its own.
    let s = session();
    let all = s
        .prepare(QUERY, &QueryOptions::order_indifferent())
        .unwrap();
    let disable = |names: &[&str]| {
        let mut opts = QueryOptions::order_indifferent();
        opts.opt.disabled_rules = RuleSet::from_names(names.iter().copied()).unwrap();
        opts
    };
    let no_weaken = s.prepare(QUERY, &disable(&["weaken-criteria"])).unwrap();
    let no_prune = s.prepare(QUERY, &disable(&["project-prune"])).unwrap();
    let no_both = s
        .prepare(QUERY, &disable(&["weaken-criteria", "project-prune"]))
        .unwrap();
    assert!(!Arc::ptr_eq(&all, &no_weaken));
    assert!(!Arc::ptr_eq(&all, &no_prune));
    assert!(!Arc::ptr_eq(&no_weaken, &no_prune));
    assert!(!Arc::ptr_eq(&no_weaken, &no_both));
    assert_eq!(s.cache_stats().misses, 4);
    // The same disabled set is the same plan.
    assert!(Arc::ptr_eq(
        &no_weaken,
        &s.prepare(QUERY, &disable(&["weaken-criteria"])).unwrap()
    ));
    assert_eq!(s.cache_stats().hits, 1);
}

#[test]
fn baseline_and_exploiting_modes_cache_separately() {
    let s = session();
    let a = s.prepare(QUERY, &QueryOptions::baseline()).unwrap();
    let b = s
        .prepare(QUERY, &QueryOptions::order_indifferent())
        .unwrap();
    assert!(!Arc::ptr_eq(&a, &b));
    // Re-preparing each mode hits its own entry.
    assert!(Arc::ptr_eq(
        &a,
        &s.prepare(QUERY, &QueryOptions::baseline()).unwrap()
    ));
    assert!(Arc::ptr_eq(
        &b,
        &s.prepare(QUERY, &QueryOptions::order_indifferent())
            .unwrap()
    ));
    let stats = s.cache_stats();
    assert_eq!((stats.hits, stats.misses), (2, 2));
}

#[test]
fn document_load_invalidates_the_cache() {
    let mut s = session();
    let opts = QueryOptions::order_indifferent();
    let stale = s.prepare(QUERY, &opts).unwrap();
    s.load_document("d.xml", "<r><a>changed</a></r>").unwrap();
    let fresh = s.prepare(QUERY, &opts).unwrap();
    assert!(
        !Arc::ptr_eq(&stale, &fresh),
        "a (re)load must not serve plans compiled against the old catalog"
    );
    // The new executor starts with zeroed counters: this prepare was a miss.
    let stats = s.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 1));
    // And the fresh plan sees the new content.
    let out = s.execute(&fresh).unwrap();
    assert_eq!(out.items.len(), 1);
}

#[test]
fn cancellation_token_bypasses_the_cache() {
    let s = session();
    let opts = QueryOptions::order_indifferent().with_cancel(CancellationToken::new());
    let a = s.prepare(QUERY, &opts).unwrap();
    let b = s.prepare(QUERY, &opts).unwrap();
    assert!(
        !Arc::ptr_eq(&a, &b),
        "run-specific plans must not be shared"
    );
    let stats = s.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.uncacheable), (0, 0, 2));
}

#[test]
fn armed_failpoints_bypass_the_cache() {
    let s = session();
    let opts = QueryOptions::order_indifferent()
        .with_failpoints(Failpoints::parse("cancel-after:5").unwrap());
    let a = s.prepare(QUERY, &opts).unwrap();
    let b = s.prepare(QUERY, &opts).unwrap();
    assert!(!Arc::ptr_eq(&a, &b));
    let stats = s.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.uncacheable), (0, 0, 2));
}

/// `with_threads` is a no-op kept for the benchmark ledger: a plan
/// prepared with it is the plan prepared without it, so the ledger's
/// `engine.par2_ratio` arm times the very same plan as its serial arm.
#[test]
fn a_thread_count_hits_the_plan_prepared_without_it() {
    let s = session();
    let serial = s
        .prepare(QUERY, &QueryOptions::order_indifferent())
        .unwrap();
    let threaded = s
        .prepare(QUERY, &QueryOptions::order_indifferent().with_threads(4))
        .unwrap();
    assert!(Arc::ptr_eq(&serial, &threaded));
    let stats = s.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

#[test]
fn lru_eviction_drops_the_least_recently_used_plan() {
    let mut s = session();
    s.set_plan_cache_capacity(2);
    let opts = QueryOptions::order_indifferent();
    let queries = [
        "fn:count(doc(\"d.xml\")//a)",
        "fn:exists(doc(\"d.xml\")//a)",
        "fn:empty(doc(\"d.xml\")//a)",
    ];
    let q0 = s.prepare(queries[0], &opts).unwrap();
    let _q1 = s.prepare(queries[1], &opts).unwrap();
    // Refresh q0 so q1 is now the least recently used entry…
    assert!(Arc::ptr_eq(&q0, &s.prepare(queries[0], &opts).unwrap()));
    // …then overflow the capacity of 2: q1 must be the eviction victim.
    let _q2 = s.prepare(queries[2], &opts).unwrap();
    assert_eq!(s.cache_stats().evictions, 1);
    assert!(
        Arc::ptr_eq(&q0, &s.prepare(queries[0], &opts).unwrap()),
        "the recently used plan must survive the eviction"
    );
    // q1 was evicted, so re-preparing it recompiles (a miss)…
    let before = s.cache_stats().misses;
    let _q1_again = s.prepare(queries[1], &opts).unwrap();
    assert_eq!(s.cache_stats().misses, before + 1);
    // …which in turn evicts the next victim to stay within capacity.
    assert_eq!(s.cache_stats().evictions, 2);
}

#[test]
fn evicted_plans_remain_executable() {
    let mut s = session();
    s.set_plan_cache_capacity(1);
    let opts = QueryOptions::order_indifferent();
    let plan = s.prepare(QUERY, &opts).unwrap();
    // Force the eviction of `plan` while we still hold its Arc.
    let _other = s.prepare("fn:count(doc(\"d.xml\")//a)", &opts).unwrap();
    assert_eq!(s.cache_stats().evictions, 1);
    let out = s.execute(&plan).unwrap();
    assert_eq!(out.items.len(), 2);
}

#[test]
fn cached_plans_still_execute_correctly() {
    let s = session();
    let opts = QueryOptions::order_indifferent();
    let plan = s.prepare(QUERY, &opts).unwrap();
    let first = s.execute(&plan).unwrap();
    let again = s.prepare(QUERY, &opts).unwrap();
    let second = s.execute(&again).unwrap();
    let render = |items: &[exrquy::ResultItem]| {
        let mut v: Vec<String> = items.iter().map(|i| i.render()).collect();
        v.sort();
        v
    };
    assert_eq!(render(&first.items), render(&second.items));
}

#[test]
fn a_corpus_reload_never_reuses_a_stale_collection_plan() {
    // Same query text before and after a second corpus load: if a plan
    // cached against the first catalog survived the swap, the second run
    // would still see only the first two documents.
    const COLLECT: &str = "fn:collection()//x";
    let docs: Vec<(String, String)> = (0..5)
        .map(|i| (format!("d{i}.xml"), format!("<r><x>{i}</x></r>")))
        .collect();
    let pairs = |r: std::ops::Range<usize>| {
        docs[r]
            .iter()
            .map(|(u, x)| (u.as_str(), x.as_str()))
            .collect::<Vec<_>>()
    };
    let mut s = Session::new();
    s.load_corpus(pairs(0..2)).unwrap();
    let opts = QueryOptions::order_indifferent();
    assert_eq!(
        s.query_with(COLLECT, &opts).unwrap().to_xml(),
        "<x>0</x><x>1</x>"
    );
    s.load_corpus(pairs(2..5)).unwrap();
    assert_eq!(
        s.query_with(COLLECT, &opts).unwrap().to_xml(),
        "<x>0</x><x>1</x><x>2</x><x>3</x><x>4</x>"
    );
}
