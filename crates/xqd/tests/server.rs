//! Functional coverage for the serving core: protocol round-trips,
//! admission control, deadline shedding, hot reload, drain.

use exrquy::Session;
use exrquy_diag::Failpoints;
use exrquy_xqd::json::{parse, Value};
use exrquy_xqd::{spawn, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Line-protocol client for tests: writes a request, reads one line.
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

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed connection unexpectedly");
        parse(line.trim_end()).expect("response is valid json")
    }

    fn roundtrip(&mut self, line: &str) -> Value {
        self.send(line);
        self.recv()
    }
}

fn test_session() -> Session {
    let mut s = Session::new();
    s.load_document("t.xml", "<a><b><c/><d/></b><c/></a>")
        .unwrap();
    s
}

fn small_server(cfg: ServerConfig) -> ServerHandle {
    spawn(cfg, test_session()).expect("spawn server")
}

fn default_cfg() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 16,
        max_inflight_per_client: 2,
        drain_grace: Duration::from_millis(1_000),
        ..ServerConfig::default()
    }
}

#[test]
fn query_ping_stats_roundtrip() {
    let handle = small_server(default_cfg());
    let mut c = Client::connect(&handle);

    let r = c.roundtrip(r#"{"id":1,"op":"query","query":"fn:count(doc(\"t.xml\")//c)"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(r.get("id"), Some(&Value::Int(1)));
    assert_eq!(r.get("result").and_then(Value::as_str), Some("2"));

    let r = c.roundtrip(r#"{"id":"p","op":"ping"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(r.get("id").and_then(Value::as_str), Some("p"));

    let r = c.roundtrip(r#"{"id":2,"op":"stats"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(true)));
    assert!(r.get("completed").and_then(Value::as_i64).unwrap() >= 1);

    let stats = handle.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.proto_errors, 0);
}

/// A request or response line written as two segments (text, then the
/// newline) on a socket with Nagle on waits out the peer's delayed ACK:
/// ≈ 88 ms a round trip with under 2 ms of work in it.
#[test]
fn sequential_requests_do_not_stall_on_delayed_acks() {
    let handle = small_server(default_cfg());
    let mut c = Client::connect(&handle);
    c.writer.set_nodelay(true).unwrap();
    let started = std::time::Instant::now();
    for id in 0..20 {
        let mut frame =
            format!(r#"{{"id":{id},"op":"query","query":"fn:count(doc(\"t.xml\")//c)"}}"#);
        frame.push('\n');
        c.writer.write_all(frame.as_bytes()).unwrap();
        let r = c.recv();
        assert_eq!(r.get("result").and_then(Value::as_str), Some("2"));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(800),
        "20 round trips took {elapsed:?}"
    );
    let r = c.roundtrip(r#"{"id":"s","op":"stats"}"#);
    assert_eq!(r.get("conn_nodelay"), Some(&Value::Bool(true)));
    handle.shutdown();
}

#[test]
fn server_result_matches_serial_execution_byte_for_byte() {
    let handle = small_server(default_cfg());
    let queries = [
        r#"for $c in doc("t.xml")//c return <hit>{ $c }</hit>"#,
        r#"fn:count(doc("t.xml")//c)"#,
        r#"1 + 1"#,
    ];
    let session = test_session();
    let mut c = Client::connect(&handle);
    for (i, q) in queries.iter().enumerate() {
        let expected = session.query(q).unwrap().to_xml();
        let escaped = q.replace('\\', "\\\\").replace('"', "\\\"");
        let r = c.roundtrip(&format!(r#"{{"id":{i},"op":"query","query":"{escaped}"}}"#));
        assert_eq!(
            r.get("result").and_then(Value::as_str),
            Some(expected.as_str()),
            "query {q} diverged from serial xq"
        );
    }
    handle.shutdown();
}

#[test]
fn malformed_lines_get_eproto_and_the_connection_survives() {
    let handle = small_server(default_cfg());
    let mut c = Client::connect(&handle);

    for bad in [
        "this is not json",
        "[1,2,3]",
        r#"{"id":5,"op":"wat"}"#,
        r#"{"id":6,"op":"query"}"#,
    ] {
        let r = c.roundtrip(bad);
        assert_eq!(r.get("ok"), Some(&Value::Bool(false)), "line: {bad}");
        assert_eq!(r.get("code").and_then(Value::as_str), Some("EPROTO"));
    }
    // Connection still works after every protocol error.
    let r = c.roundtrip(r#"{"id":7,"op":"query","query":"1+1"}"#);
    assert_eq!(r.get("result").and_then(Value::as_str), Some("2"));

    let stats = handle.shutdown();
    assert_eq!(stats.proto_errors, 4);
}

#[test]
fn oversized_line_is_rejected_without_buffering_it() {
    let handle = small_server(default_cfg());
    let mut c = Client::connect(&handle);
    // ~5 MiB of garbage on one line: over MAX_LINE_BYTES.
    let big = "x".repeat(5 * 1024 * 1024);
    c.send(&big);
    let r = c.recv();
    assert_eq!(r.get("code").and_then(Value::as_str), Some("EPROTO"));
    // And the next request parses fine.
    let r = c.roundtrip(r#"{"id":1,"op":"ping"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(true)));
    handle.shutdown();
}

#[test]
fn expired_deadline_sheds_with_exrq0007() {
    let handle = small_server(default_cfg());
    let mut c = Client::connect(&handle);
    let r = c.roundtrip(r#"{"id":1,"op":"query","query":"1+1","deadline_ms":0}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(r.get("code").and_then(Value::as_str), Some("EXRQ0007"));
    let stats = handle.shutdown();
    assert_eq!(stats.shed_deadline, 1);
    assert_eq!(stats.completed, 0);
}

#[test]
fn hot_reload_swaps_the_catalog_without_restart() {
    let handle = small_server(default_cfg());
    let mut c = Client::connect(&handle);

    let r = c.roundtrip(r#"{"id":1,"op":"query","query":"fn:count(doc(\"t.xml\")//c)"}"#);
    assert_eq!(r.get("result").and_then(Value::as_str), Some("2"));

    let r = c.roundtrip(r#"{"id":2,"op":"load","url":"t.xml","xml":"<a><c/><c/><c/></a>"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "load failed: {r:?}");

    let r = c.roundtrip(r#"{"id":3,"op":"query","query":"fn:count(doc(\"t.xml\")//c)"}"#);
    assert_eq!(r.get("result").and_then(Value::as_str), Some("3"));

    // A bad reload leaves the previous catalog intact.
    let r = c.roundtrip(r#"{"id":4,"op":"load","url":"t.xml","xml":"<unclosed>"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(false)));
    let r = c.roundtrip(r#"{"id":5,"op":"query","query":"fn:count(doc(\"t.xml\")//c)"}"#);
    assert_eq!(r.get("result").and_then(Value::as_str), Some("3"));

    let stats = handle.shutdown();
    assert_eq!(stats.loads, 1);
}

#[test]
fn full_queue_sheds_with_exrq0006_instead_of_hanging() {
    // One worker, tiny queue, slow queries: floods must shed fast.
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 2,
        max_inflight_per_client: 1,
        drain_grace: Duration::from_millis(500),
        ..default_cfg()
    };
    let handle = small_server(cfg);
    let mut c = Client::connect(&handle);
    // A query that takes a while: big cartesian-ish count.
    let slow = r#"fn:count(for $a in doc("t.xml")//* for $b in doc("t.xml")//* for $c in doc("t.xml")//* for $d in doc("t.xml")//* for $e in doc("t.xml")//* return 1)"#;
    let escaped = slow.replace('"', "\\\"");
    for i in 0..12 {
        c.send(&format!(r#"{{"id":{i},"op":"query","query":"{escaped}"}}"#));
    }
    let mut ok = 0u32;
    let mut overloaded = 0u32;
    for _ in 0..12 {
        let r = c.recv();
        if r.get("ok") == Some(&Value::Bool(true)) {
            ok += 1;
        } else {
            assert_eq!(r.get("code").and_then(Value::as_str), Some("EXRQ0006"));
            overloaded += 1;
        }
    }
    assert!(overloaded > 0, "flood never tripped admission control");
    assert!(ok > 0, "admission control rejected everything");
    let stats = handle.shutdown();
    assert_eq!(stats.shed_overload as u32, overloaded);
}

#[test]
fn shutdown_op_drains_and_refuses_new_work() {
    let handle = small_server(default_cfg());
    let mut c = Client::connect(&handle);
    let r = c.roundtrip(r#"{"id":1,"op":"shutdown"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(true)));
    // The ok response is written just before the drain flag flips;
    // give the reader thread a beat to get there.
    let patience = std::time::Instant::now() + Duration::from_secs(2);
    while !handle.shutdown_requested() && std::time::Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.shutdown_requested());

    let r = c.roundtrip(r#"{"id":2,"op":"query","query":"1+1"}"#);
    assert_eq!(r.get("code").and_then(Value::as_str), Some("EXRQ0008"));

    let stats = handle.shutdown();
    assert_eq!(stats.shed_draining, 1);
}

#[test]
fn injected_doc_faults_surface_as_typed_errors_not_hangs() {
    // The staging session already performed one load (the seed
    // document), so doc-parse:2 targets the first load issued over the
    // wire.
    let cfg = ServerConfig {
        failpoints: Failpoints::parse("doc-parse:2").unwrap(),
        ..default_cfg()
    };
    // Build the initial session *without* failpoints so setup succeeds.
    let handle = spawn(cfg, test_session()).unwrap();
    let mut c = Client::connect(&handle);

    let r = c.roundtrip(r#"{"id":1,"op":"load","url":"u.xml","xml":"<ok/>"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(false)), "{r:?}");
    assert_eq!(r.get("code").and_then(Value::as_str), Some("FODC0006"));

    // Queries still answer; the failpoint only bites the load path it
    // was armed for.
    let r = c.roundtrip(r#"{"id":2,"op":"query","query":"1+1"}"#);
    assert_eq!(r.get("result").and_then(Value::as_str), Some("2"));

    // A named catalog's staging session is armed the same way, counting
    // its own loads: its first load succeeds, its second is malformed.
    let r = c.roundtrip(r#"{"id":3,"op":"load","url":"n.xml","xml":"<ok/>","catalog":"named"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "{r:?}");
    let r = c.roundtrip(r#"{"id":4,"op":"load","url":"m.xml","xml":"<ok/>","catalog":"named"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(false)), "{r:?}");
    assert_eq!(r.get("code").and_then(Value::as_str), Some("FODC0006"));
    handle.shutdown();
}

/// `default_deadline` applies only to requests that carry no
/// `deadline_ms` of their own.
#[test]
fn default_deadline_sheds_requests_without_their_own() {
    let handle = small_server(ServerConfig {
        default_deadline: Some(Duration::ZERO),
        ..default_cfg()
    });
    let mut c = Client::connect(&handle);
    let r = c.roundtrip(r#"{"id":1,"op":"query","query":"1+1"}"#);
    assert_eq!(
        r.get("code").and_then(Value::as_str),
        Some("EXRQ0007"),
        "{r:?}"
    );
    let r = c.roundtrip(r#"{"id":2,"op":"query","query":"1+1","deadline_ms":60000}"#);
    assert_eq!(r.get("result").and_then(Value::as_str), Some("2"), "{r:?}");
    let stats = handle.shutdown();
    assert_eq!((stats.shed_deadline, stats.completed), (1, 1));
}

/// `plan_cache` sizes the served plan cache: two queries alternating
/// through one slot evict each other on every request.
#[test]
fn plan_cache_capacity_bounds_the_served_cache() {
    let misses = |plan_cache: Option<usize>| {
        let handle = small_server(ServerConfig {
            plan_cache,
            ..default_cfg()
        });
        let mut c = Client::connect(&handle);
        for i in 0..4 {
            let q = if i % 2 == 0 { "1+1" } else { "2+2" };
            let r = c.roundtrip(&format!(r#"{{"id":{i},"op":"query","query":"{q}"}}"#));
            assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "{r:?}");
        }
        let s = c.roundtrip(r#"{"id":"s","op":"stats"}"#);
        handle.shutdown();
        s.get("plan_cache_misses").and_then(Value::as_i64)
    };
    assert_eq!(misses(Some(1)), Some(4));
    assert_eq!(misses(None), Some(2));
}

#[test]
fn per_client_fairness_lets_a_second_client_through_a_flood() {
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 32,
        max_inflight_per_client: 1,
        ..default_cfg()
    };
    let handle = small_server(cfg);
    let mut flooder = Client::connect(&handle);
    let slow = r#"fn:count(for $a in doc("t.xml")//* for $b in doc("t.xml")//* for $c in doc("t.xml")//* return 1)"#
        .replace('"', "\\\"");
    for i in 0..8 {
        flooder.send(&format!(r#"{{"id":{i},"op":"query","query":"{slow}"}}"#));
    }
    // The polite client's single request must not wait behind all 8.
    let mut polite = Client::connect(&handle);
    let r = polite.roundtrip(r#"{"id":100,"op":"query","query":"1+1"}"#);
    assert_eq!(r.get("result").and_then(Value::as_str), Some("2"));
    for _ in 0..8 {
        flooder.recv();
    }
    handle.shutdown();
}

#[test]
fn abrupt_disconnect_does_not_wedge_the_server() {
    let handle = small_server(default_cfg());
    for i in 0..5 {
        let mut c = Client::connect(&handle);
        c.send(&format!(
            r#"{{"id":{i},"op":"query","query":"fn:count(doc(\"t.xml\")//*)"}}"#
        ));
        drop(c); // vanish before reading the response
    }
    // Server still answers a well-behaved client.
    let mut c = Client::connect(&handle);
    let r = c.roundtrip(r#"{"id":9,"op":"ping"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(true)));
    let stats = handle.shutdown();
    assert_eq!(stats.active_connections, 0, "connection leak");
}

#[test]
fn a_load_reply_reports_only_the_node_count() {
    let handle = small_server(default_cfg());
    let mut c = Client::connect(&handle);
    // An older client may still send `shards`; the load succeeds and the
    // reply reports only the node count.
    let r = c.roundtrip(r#"{"id":1,"op":"load","url":"n.xml","xml":"<n/>","shards":8}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "{r:?}");
    assert!(r.get("nodes").and_then(Value::as_i64).is_some(), "{r:?}");
    assert_eq!(r.get("shards"), None, "{r:?}");
    handle.shutdown();
}

#[test]
fn named_catalogs_route_queries_over_their_corpus() {
    let handle = small_server(default_cfg());
    let mut c = Client::connect(&handle);

    // Build a 3-document corpus in catalog "corpus". Named loads parse at
    // load time, so the last one reports every node: 3 documents ×
    // (doc, r, x, text).
    for i in 0..3 {
        let r = c.roundtrip(&format!(
            r#"{{"id":{i},"op":"load","url":"d{i}.xml","xml":"<r><x>{i}</x></r>","catalog":"corpus"}}"#
        ));
        assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "{r:?}");
        assert_eq!(r.get("nodes").and_then(Value::as_i64), Some(4 * (i + 1)));
    }

    // A routed collection() scan sees all three documents in load
    // order, byte-identical to what a local session produces.
    let r = c.roundtrip(r#"{"id":3,"op":"query","query":"fn:collection()//x","catalog":"corpus"}"#);
    assert_eq!(
        r.get("result").and_then(Value::as_str),
        Some("<x>0</x><x>1</x><x>2</x>"),
        "{r:?}"
    );

    // A malformed named load is refused at the load op, and the catalog
    // keeps serving what it held before.
    let r =
        c.roundtrip(r#"{"id":7,"op":"load","url":"d3.xml","xml":"<broken","catalog":"corpus"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(false)), "{r:?}");
    assert_eq!(r.get("code").and_then(Value::as_str), Some("FODC0006"));
    let r = c.roundtrip(r#"{"id":8,"op":"query","query":"fn:collection()//x","catalog":"corpus"}"#);
    assert_eq!(
        r.get("result").and_then(Value::as_str),
        Some("<x>0</x><x>1</x><x>2</x>"),
        "{r:?}"
    );

    // The default catalog is untouched by named loads: t.xml is still
    // there, and the corpus documents are not.
    let r = c.roundtrip(r#"{"id":4,"op":"query","query":"fn:count(doc(\"t.xml\")//c)"}"#);
    assert_eq!(r.get("result").and_then(Value::as_str), Some("2"));
    let r = c.roundtrip(r#"{"id":5,"op":"query","query":"fn:count(doc(\"d0.xml\"))"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(false)));

    // Routing at a catalog nobody loaded is a typed error, not a hang.
    let r = c.roundtrip(r#"{"id":6,"op":"query","query":"1+1","catalog":"nope"}"#);
    assert_eq!(r.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(r.get("code").and_then(Value::as_str), Some("FODC0002"));

    let stats = handle.shutdown();
    assert_eq!(stats.loads, 3);
    assert_eq!(
        stats.failed, 3,
        "malformed load + missing doc + unknown catalog"
    );
}
