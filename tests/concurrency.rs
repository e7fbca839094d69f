//! Concurrency smoke suite for the Catalog/Executor split.
//!
//! The thread-safety contract under test: a catalog snapshot is immutable
//! and shareable (`Arc<Catalog>`), a prepared plan may be executed from
//! any number of threads at once, and every execution writes only into
//! its private fragment overlay — so concurrent runs are bag-equal to a
//! serial run and the catalog is byte-identical afterwards. The query
//! sets are a small hand-written document and XMark Q1–Q20.

use exrquy::diag::{ErrorCode, Failpoints};
use exrquy::frontend::pretty;
use exrquy::{Prepared, QueryOptions, ResultItem, Session};
use exrquy_verify::fuzz::{cell_rng, FUZZ_DOC_URL};
use exrquy_verify::{gen_doc, gen_query, FuzzProfile};
use exrquy_xmark::{generate, query, XmarkConfig, ALL_QUERIES};
use std::sync::Arc;

const THREADS: usize = 8;

fn session() -> Session {
    let mut s = Session::new();
    s.load_document(
        "d.xml",
        "<site><a n='1'><b>x</b><b>y</b></a><a n='2'><b>z</b></a>\
         <a n='3'/><a n='4'><b>w</b><c>q</c></a></site>",
    )
    .unwrap();
    s
}

/// Results as a sorted multiset — the equivalence `unordered` grants.
fn bag(items: &[ResultItem]) -> Vec<String> {
    let mut v: Vec<String> = items.iter().map(ResultItem::render).collect();
    v.sort();
    v
}

/// The same `Arc<Prepared>` executed from 8 threads at once against one
/// shared executor must agree with the serial answer in every thread.
#[test]
fn one_prepared_plan_shared_across_threads() {
    let s = session();
    let opts = QueryOptions::order_indifferent();
    let plan = s
        .prepare("for $b in doc(\"d.xml\")//b return <hit>{$b}</hit>", &opts)
        .unwrap();
    let expect = bag(&s.execute(&plan).unwrap().items);
    assert!(!expect.is_empty(), "smoke query must produce results");

    let executor = s.executor().clone();
    let nodes_before = s.catalog().total_nodes();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let plan: &Prepared = &plan;
            let executor = &executor;
            let expect = &expect;
            scope.spawn(move || {
                for _ in 0..4 {
                    let out = executor.execute(plan).unwrap();
                    assert_eq!(&bag(&out.items), expect);
                }
            });
        }
    });
    assert_eq!(
        s.catalog().total_nodes(),
        nodes_before,
        "concurrent construction must stay in per-execution overlays"
    );
}

/// Distinct plans (element construction, aggregation, reverse axes,
/// positional predicates) executed concurrently against one catalog.
#[test]
fn distinct_plans_share_one_catalog() {
    let queries = [
        "fn:count(doc(\"d.xml\")//b)",
        "for $a in doc(\"d.xml\")//a return <n>{fn:count($a/b)}</n>",
        "unordered { for $b in doc(\"d.xml\")//b return $b/.. }",
        "(doc(\"d.xml\")//b)[2]",
        "for $a in doc(\"d.xml\")/site/a return fn:string($a/@n)",
    ];
    let s = session();
    let opts = QueryOptions::order_indifferent();
    let serial: Vec<(Arc<Prepared>, Vec<String>)> = queries
        .iter()
        .map(|q| {
            let plan = s.prepare(q, &opts).unwrap();
            let expect = bag(&s.execute(&plan).unwrap().items);
            (plan, expect)
        })
        .collect();

    let executor = s.executor().clone();
    let nodes_before = s.catalog().total_nodes();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let serial = &serial;
            let executor = &executor;
            scope.spawn(move || {
                // Stagger starting offsets so threads overlap on
                // different plans at any instant.
                for i in 0..serial.len() {
                    let (plan, expect) = &serial[(t + i) % serial.len()];
                    let out = executor.execute(plan).unwrap();
                    assert_eq!(&bag(&out.items), expect);
                }
            });
        }
    });
    assert_eq!(s.catalog().total_nodes(), nodes_before);
}

/// Threads that prepare for themselves hit the plan cache primed by the
/// serial pass and get pointer-identical plans.
#[test]
fn concurrent_prepare_hits_shared_cache() {
    let s = session();
    let opts = QueryOptions::order_indifferent();
    let query = "for $b in doc(\"d.xml\")//b return fn:string($b)";
    let primed = s.prepare(query, &opts).unwrap();
    let expect = bag(&s.execute(&primed).unwrap().items);

    let executor = s.executor().clone();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let executor = &executor;
            let opts = &opts;
            let primed = &primed;
            let expect = &expect;
            scope.spawn(move || {
                let plan = executor.prepare(query, opts).unwrap();
                assert!(
                    Arc::ptr_eq(&plan, primed),
                    "cache hit must return the shared prepared plan"
                );
                assert_eq!(&bag(&executor.execute(&plan).unwrap().items), expect);
            });
        }
    });
    let stats = executor.cache_stats();
    assert!(
        stats.hits >= THREADS as u64,
        "expected >= {THREADS} cache hits, got {}",
        stats.hits
    );
}

/// XMark Q1–Q20 over one generated document, every thread preparing for
/// itself: each prepare hits the plan cache the serial pass primed, each
/// result is bag-equal to the serial answer, and the catalog is untouched.
#[test]
fn xmark_queries_agree_across_threads() {
    let xml = generate(&XmarkConfig {
        scale: 0.0025,
        seed: 42,
    });
    let mut s = Session::new();
    s.load_document("auction.xml", &xml).unwrap();
    let opts = QueryOptions::order_indifferent();
    let serial: Vec<(usize, Vec<String>)> = (1..=ALL_QUERIES.len())
        .map(|q| (q, bag(&s.query_with(query(q), &opts).unwrap().items)))
        .collect();

    let executor = s.executor().clone();
    let nodes_before = s.catalog().total_nodes();
    let hits_before = executor.cache_stats().hits;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (serial, executor, opts) = (&serial, &executor, &opts);
            scope.spawn(move || {
                for i in 0..serial.len() {
                    let (q, expect) = &serial[(t + i) % serial.len()];
                    let plan = executor.prepare(query(*q), opts).unwrap();
                    let out = executor.execute(&plan).unwrap();
                    assert_eq!(&bag(&out.items), expect, "thread {t} Q{q}");
                }
            });
        }
    });
    assert_eq!(s.catalog().total_nodes(), nodes_before);
    let hits = executor.cache_stats().hits - hits_before;
    assert_eq!(hits, (THREADS * serial.len()) as u64, "every prepare hits");
}

/// Fuzz-generated queries executed with 4 worker threads under armed
/// budget-trip and cancel-after failpoints must degrade gracefully: a
/// typed budget (EXRQ0001) or cancellation (EXRQ0002) error — or clean
/// success when the failpoint is never reached — with no panic, no
/// poisoned scheduler state, no constructed-node leak into the shared
/// catalog, and a session that keeps answering afterwards.
#[test]
fn parallel_execution_degrades_gracefully_under_failpoints() {
    let specs = [
        "budget-trip:step",
        "budget-trip:rownum",
        "cancel-after:0",
        "cancel-after:3",
        "cancel-after:7",
    ];
    for i in 0..8 {
        for profile in [FuzzProfile::Ordered, FuzzProfile::Unordered] {
            let mut rng = cell_rng(2024, i, profile);
            let doc = gen_doc(&mut rng);
            let query = pretty(&gen_query(&mut rng, profile));
            let mut s = Session::new();
            s.load_document(FUZZ_DOC_URL, &doc).unwrap();
            let parallel = profile.options().with_threads(4);
            // A query that errors without failpoints exercises an engine
            // limit; its injected runs could surface that error instead
            // of the fault's, so only clean cells assert the code.
            let Ok(clean) = s.query_with(&query, &parallel) else {
                continue;
            };
            let nodes_before = s.catalog().total_nodes();
            for spec in specs {
                let opts = parallel
                    .clone()
                    .with_failpoints(Failpoints::parse(spec).unwrap());
                match s.query_with(&query, &opts) {
                    Ok(_) => {} // the plan never hits the failpoint
                    Err(e) => assert!(
                        matches!(e.code(), ErrorCode::EXRQ0001 | ErrorCode::EXRQ0002),
                        "iter {i} [{profile}] `{spec}`: expected a typed \
                         budget/cancel error, got {}\nquery: {query}",
                        e.render_line()
                    ),
                }
            }
            assert_eq!(
                s.catalog().total_nodes(),
                nodes_before,
                "aborted parallel runs must not leak nodes into the catalog"
            );
            // The session is not poisoned: the same query still answers
            // identically after every injected abort.
            let after = s.query_with(&query, &parallel).unwrap();
            let render =
                |items: &[ResultItem]| items.iter().map(ResultItem::render).collect::<Vec<_>>();
            assert_eq!(render(&clean.items), render(&after.items));
        }
    }
}

/// Drain contract under every failpoint kind in the registry: with a
/// slow query in flight, [`ServerHandle::shutdown`] must complete
/// within a small multiple of the grace period — the in-flight run
/// either finishes or is cancelled at its next operator boundary — and
/// the client still receives a typed response, never silence.
#[test]
fn drain_resolves_inflight_work_under_every_failpoint() {
    use exrquy_xqd::{spawn, ServerConfig};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    // One spec per failpoint kind in the registry. The oracle/rule
    // perturbations only bite the verification path, which the serving
    // loop never takes — drain must be a no-op-grade event for them.
    let specs = [
        "",
        "doc-io:1",
        "doc-parse:2",
        "budget-trip:step",
        "cancel-after:3",
        "oracle-perturb:optimized",
        "rule-perturb:weaken-criteria",
    ];
    for spec in specs {
        let grace = Duration::from_millis(400);
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 8,
            drain_grace: grace,
            failpoints: if spec.is_empty() {
                Failpoints::none()
            } else {
                Failpoints::parse(spec).unwrap()
            },
            ..ServerConfig::default()
        };
        let handle = spawn(cfg, session()).unwrap();

        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // Slow enough to still be running when the drain starts; the
        // engine polls its meter at operator boundaries, so drain's
        // cancellation lands quickly.
        writer
            .write_all(
                br#"{"id":1,"op":"query","query":"fn:count((1 to 80000000))"}
"#,
            )
            .unwrap();
        writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));

        let started = Instant::now();
        let stats = handle.shutdown();
        let took = started.elapsed();
        assert!(
            took < grace * 2 + Duration::from_secs(3),
            "[{spec}] drain took {took:?}, far beyond the grace period"
        );
        assert_eq!(stats.queue_depth, 0, "[{spec}] drain left work queued");
        assert_eq!(
            stats.admitted,
            stats.completed + stats.failed + stats.shed(),
            "[{spec}] admitted work vanished without a typed resolution"
        );

        // The client got an answer: success, cancellation, or a typed
        // injected fault — anything but silence.
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap();
        assert!(n > 0, "[{spec}] no response for the in-flight query");
        assert!(
            line.contains("\"ok\":true") || line.contains("EXRQ000") || line.contains("FODC"),
            "[{spec}] unexpected response: {line}"
        );
    }
}
