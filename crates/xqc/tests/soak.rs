//! The self-healing soak: one daemon with panics and every network
//! fault armed *simultaneously*, under concurrent query
//! load, poison requests, and hot reloads. The daemon must never die,
//! the client must recover every retry-safe failure, and every
//! successful answer must be byte-identical to direct execution.

use exrquy::Session;
use exrquy_diag::{ErrorCode, Failpoints};
use exrquy_xqc::{Client, ClientError, Config, QueryOpts};
use exrquy_xqd::{spawn, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DOC: &str = "<a><b><c/><d/></b><c/></a>";

/// Order-indifferent queries whose plans are rownum-free, so the armed
/// `panic:rownum` failpoint never fires for them (asserted below).
const POOL: &[&str] = &[
    r#"fn:count(doc("t.xml")//c)"#,
    r#"fn:sum(for $c in doc("t.xml")//c return 1)"#,
    r#"for $c in doc("t.xml")//c return <hit/>"#,
    r#"doc("t.xml")//c"#,
    r#"fn:count(doc("t.xml")//c[fn:count(./d) = 0])"#,
];

fn soak_client(addr: &str, seed: u64) -> Client {
    Client::connect(Config {
        max_retries: 6,
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(50),
        read_timeout: Duration::from_secs(30),
        jitter_seed: seed,
        ..Config::new(addr)
    })
}

#[test]
fn daemon_survives_simultaneous_panics_net_chaos_and_reloads() {
    let mut session = Session::new();
    session.load_document("t.xml", DOC).unwrap();
    let expected: Vec<String> = POOL
        .iter()
        .map(|q| {
            let plan = session
                .prepare(q, &exrquy::QueryOptions::order_indifferent())
                .unwrap();
            assert!(
                !plan.plan_text().contains('%'),
                "soak pool query must be rownum-free: {q}"
            );
            session.query(q).unwrap().to_xml()
        })
        .collect();

    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 3,
        queue_capacity: 64,
        max_inflight_per_client: 2,
        drain_grace: Duration::from_millis(2_000),
        failpoints: Failpoints::parse(
            "panic:rownum,net-disconnect:23,net-torn-write:5,net-trickle:11,\
             net-slow-read:13",
        )
        .unwrap(),
        ..ServerConfig::default()
    };
    let handle = spawn(cfg, session).expect("spawn daemon");
    let addr = handle.addr().to_string();

    // EXRQ0009s seen by the *healthy* traffic: only the poison requests
    // can panic, so none may land here.
    let stray_crash_replies = Arc::new(AtomicU64::new(0));
    let total_retries = Arc::new(AtomicU64::new(0));

    let mut threads = Vec::new();
    for t in 0..3u64 {
        let addr = addr.clone();
        let expected = expected.clone();
        let strays = Arc::clone(&stray_crash_replies);
        let retries = Arc::clone(&total_retries);
        threads.push(std::thread::spawn(move || {
            let mut client = soak_client(&addr, 1000 + t);
            for i in 0..40usize {
                let k = (i + t as usize) % POOL.len();
                match client.query(POOL[k]) {
                    Ok(result) => assert_eq!(
                        result, expected[k],
                        "thread {t} request {i} diverged from direct execution"
                    ),
                    Err(ClientError::Server {
                        code: ErrorCode::EXRQ0009,
                        ..
                    }) => {
                        strays.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(other) => panic!("thread {t} request {i}: unrecovered failure {other}"),
                }
            }
            retries.fetch_add(client.stats().retries, Ordering::SeqCst);
            assert!(
                client.stats().retries >= 1,
                "thread {t}: 40 frames through a disconnect-every-23rd \
                 transport must have needed at least one retry"
            );
        }));
    }

    // Poison traffic: baseline ordering materializes rownum, so every
    // execution trips `panic:rownum` — each request must come back as
    // a contained EXRQ0009, never kill the daemon, never be retried as
    // if it could succeed.
    {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = soak_client(&addr, 9999);
            let opts = QueryOpts {
                baseline: true,
                ..QueryOpts::default()
            };
            for i in 0..5 {
                match client.query_with(r#"doc("t.xml")//(c|d)"#, &opts) {
                    Err(ClientError::Server {
                        code: ErrorCode::EXRQ0009,
                        ..
                    }) => {}
                    Err(ClientError::Server {
                        code: ErrorCode::EXRQ0008,
                        ..
                    }) => panic!("poison {i}: daemon started draining mid-soak"),
                    other => panic!("poison {i}: wanted contained EXRQ0009, got {other:?}"),
                }
            }
        }));
    }

    // Hot reloads of the *same* content race the query traffic; results
    // stay stable while the catalog pointer churns.
    {
        let addr = addr.clone();
        let strays = Arc::clone(&stray_crash_replies);
        threads.push(std::thread::spawn(move || {
            let mut client = soak_client(&addr, 777);
            for i in 0..25 {
                match client.load("t.xml", DOC) {
                    Ok(()) => {}
                    Err(ClientError::Server {
                        code: ErrorCode::EXRQ0009,
                        ..
                    }) => {
                        strays.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(other) => panic!("reload {i}: {other}"),
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }));
    }

    for t in threads {
        t.join().expect("soak thread panicked");
    }

    // Zero daemon deaths: it still answers.
    let mut probe = soak_client(&addr, 1);
    probe.ping().expect("daemon alive after the soak");
    probe.health().expect("health probe");
    assert!(probe.ready().expect("ready probe"), "not draining");

    assert_eq!(
        stray_crash_replies.load(Ordering::SeqCst),
        0,
        "only the poison traffic may surface EXRQ0009"
    );
    assert!(total_retries.load(Ordering::SeqCst) >= 3);

    let stats = handle.shutdown();
    assert!(stats.reconciles(), "admission ledger: {stats:?}");
    assert!(stats.crashed >= 5, "five poison executions: {stats:?}");
    assert_eq!(stats.shed_overload, 0, "queue never overflowed: {stats:?}");
}
