//! Crash containment and self-healing: injected panics poison exactly
//! one request and release its accounting, probes answer under
//! pressure, and the memory watermark defers without deadlocking.

use exrquy::Session;
use exrquy_diag::Failpoints;
use exrquy_xqd::json::{parse, Value};
use exrquy_xqd::{spawn, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn roundtrip(&mut self, line: &str) -> Value {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed connection unexpectedly");
        parse(line.trim_end()).expect("response is valid json")
    }

    fn query(&mut self, id: usize, q: &str) -> Value {
        let escaped = q.replace('\\', "\\\\").replace('"', "\\\"");
        self.roundtrip(&format!(
            r#"{{"id":{id},"op":"query","query":"{escaped}"}}"#
        ))
    }
}

fn test_session() -> Session {
    let mut s = Session::new();
    s.load_document("t.xml", "<a><b><c/><d/></b><c/></a>")
        .unwrap();
    s
}

fn cfg_with(inject: &str) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 32,
        max_inflight_per_client: 2,
        drain_grace: Duration::from_millis(2_000),
        failpoints: Failpoints::parse(inject).expect("valid failpoint spec"),
        ..ServerConfig::default()
    }
}

/// The acceptance criterion from the fault-containment work: with
/// `panic:rownum` armed, a baseline-ordering query (whose plan
/// materializes `%`) panics mid-execution and answers `EXRQ0009`; the
/// next 100 order-indifferent requests (rownum-free plans — asserted,
/// not assumed) are byte-identical to direct in-process execution, and
/// the admission ledger reconciles with exactly one crash.
///
/// The client is capped at one request in flight, so a slot the panic
/// failed to release would wedge its very next request, and a leaked
/// `inflight_total` would hold shutdown for both grace periods.
#[test]
fn injected_panic_poisons_one_request_and_the_rest_stay_byte_identical() {
    let cfg = ServerConfig {
        max_inflight_per_client: 1,
        ..cfg_with("panic:rownum")
    };
    let drain_grace = cfg.drain_grace;
    let handle = spawn(cfg, test_session()).expect("spawn");
    let mut c = Client::connect(&handle);

    // Baseline ordering forces rownum materialization -> trips the
    // failpoint -> contained panic.
    let r = c.roundtrip(
        r#"{"id":0,"op":"query","query":"doc(\"t.xml\")//(c|d)","ordering":"baseline"}"#,
    );
    assert_eq!(r.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(r.get("code").and_then(Value::as_str), Some("EXRQ0009"));
    assert!(
        r.get("message")
            .and_then(Value::as_str)
            .unwrap()
            .contains("panicked"),
        "EXRQ0009 message should say the request panicked: {r:?}"
    );

    // Order-indifferent follow-ups whose plans carry no rownum operator.
    let followups = [
        r#"fn:count(doc("t.xml")//c)"#,
        r#"fn:sum(for $c in doc("t.xml")//c return 1)"#,
        r#"for $c in doc("t.xml")//c return <hit/>"#,
        r#"doc("t.xml")//c"#,
        r#"fn:count(doc("t.xml")//c[fn:count(./d) = 0])"#,
    ];
    let session = test_session();
    for q in &followups {
        let plan = session
            .prepare(q, &exrquy::QueryOptions::order_indifferent())
            .unwrap();
        assert!(
            !plan.plan_text().contains('%'),
            "follow-up query must compile rownum-free or it would trip \
             the same failpoint: {q}\n{}",
            plan.plan_text()
        );
    }
    for i in 0..100 {
        let q = followups[i % followups.len()];
        let expected = session.query(q).unwrap().to_xml();
        let r = c.query(i + 1, q);
        assert_eq!(
            r.get("ok"),
            Some(&Value::Bool(true)),
            "post-panic request {i} failed: {r:?}"
        );
        assert_eq!(
            r.get("result").and_then(Value::as_str),
            Some(expected.as_str()),
            "post-panic request {i} diverged from direct execution ({q})"
        );
    }

    let started = Instant::now();
    let stats = handle.shutdown();
    assert!(
        started.elapsed() < drain_grace,
        "shutdown waited {:?}: the crashed job leaked its in-flight slot",
        started.elapsed()
    );
    assert_eq!(stats.crashed, 1, "exactly the poisoned request crashed");
    assert_eq!(stats.completed, 100);
    assert!(
        stats.reconciles(),
        "admission ledger must balance: {stats:?}"
    );
}

#[test]
fn health_and_ready_probes_answer_and_ready_flips_during_drain() {
    let handle = spawn(cfg_with(""), test_session()).expect("spawn");
    let mut c = Client::connect(&handle);

    let h = c.roundtrip(r#"{"id":1,"op":"health"}"#);
    assert_eq!(h.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(h.get("alive"), Some(&Value::Bool(true)));
    assert_eq!(h.get("workers").and_then(Value::as_i64), Some(2));
    assert_eq!(h.get("crashed").and_then(Value::as_i64), Some(0));
    assert!(h.get("uptime_ms").and_then(Value::as_i64).is_some());

    let r = c.roundtrip(r#"{"id":2,"op":"ready"}"#);
    assert_eq!(r.get("ready"), Some(&Value::Bool(true)));
    assert_eq!(r.get("draining"), Some(&Value::Bool(false)));

    // A shutdown op starts the drain; readiness flips false while the
    // probe itself still answers (ok:true).
    let r = c.roundtrip(r#"{"id":3,"op":"shutdown"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(true)));
    let r = c.roundtrip(r#"{"id":4,"op":"ready"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(r.get("ready"), Some(&Value::Bool(false)));
    assert_eq!(r.get("draining"), Some(&Value::Bool(true)));
    // Work is refused during drain, but probes keep answering.
    let r = c.query(5, "1");
    assert_eq!(r.get("code").and_then(Value::as_str), Some("EXRQ0008"));
    let h = c.roundtrip(r#"{"id":6,"op":"health"}"#);
    assert_eq!(h.get("alive"), Some(&Value::Bool(true)));

    handle.shutdown();
}

/// With the watermark at zero every in-flight execution holds the gate
/// shut for the next one, so this doubles as a deadlock check: the
/// deferral must release when trackers drop, never wedge the pool.
#[test]
fn memory_watermark_defers_admissions_without_deadlock() {
    let mut cfg = cfg_with("");
    cfg.mem_watermark = Some(0);
    let handle = spawn(cfg, test_session()).expect("spawn");

    let constructing = r#"for $c in doc("t.xml")//c return <hit>{ fn:count($c) }</hit>"#;
    let mut clients: Vec<Client> = (0..3).map(|_| Client::connect(&handle)).collect();
    let threads: Vec<_> = clients
        .drain(..)
        .map(|mut c| {
            let q = constructing.to_string();
            std::thread::spawn(move || {
                for i in 0..8 {
                    let r = c.query(i, &q);
                    assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "{r:?}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    let stats = handle.shutdown();
    assert_eq!(stats.completed, 24, "every request completed: {stats:?}");
    assert!(
        stats.mem_peak_bytes > 0,
        "constructed nodes should register against the gauge: {stats:?}"
    );
    assert!(stats.reconciles(), "{stats:?}");
}

#[test]
fn stats_report_per_connection_keepalive_metrics() {
    let handle = spawn(cfg_with(""), test_session()).expect("spawn");
    let mut a = Client::connect(&handle);
    let mut b = Client::connect(&handle);

    for i in 0..3 {
        a.query(i, "1");
    }
    // The stats request itself is this connection's 4th request.
    let s = a.roundtrip(r#"{"id":9,"op":"stats"}"#);
    assert_eq!(s.get("conn_requests").and_then(Value::as_i64), Some(4));
    assert!(s.get("conn_lifetime_ms").and_then(Value::as_i64).is_some());
    assert!(s.get("active_connections").and_then(Value::as_i64).unwrap() >= 2);
    assert!(s.get("connections").and_then(Value::as_i64).unwrap() >= 2);

    // The second connection's counter is independent of the first's.
    let s = b.roundtrip(r#"{"id":1,"op":"stats"}"#);
    assert_eq!(s.get("conn_requests").and_then(Value::as_i64), Some(1));

    handle.shutdown();
}

/// Torn and trickled writes mangle frame *timing*, never frame
/// *content*: a line-buffered client must still parse every response.
#[test]
fn torn_and_trickled_frames_reassemble_into_valid_lines() {
    let handle = spawn(
        cfg_with("net-torn-write:2,net-trickle:3,net-slow-read:4"),
        test_session(),
    )
    .expect("spawn");
    let session = test_session();
    let q = r#"for $c in doc("t.xml")//c return <hit/>"#;
    let expected = session.query(q).unwrap().to_xml();

    let mut c = Client::connect(&handle);
    for i in 0..12 {
        let r = c.query(i, q);
        assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "frame {i}: {r:?}");
        assert_eq!(
            r.get("result").and_then(Value::as_str),
            Some(expected.as_str()),
            "frame {i} content survived the fault injection"
        );
    }

    let stats = handle.shutdown();
    assert_eq!(stats.completed, 12);
    assert!(stats.reconciles(), "{stats:?}");
}
