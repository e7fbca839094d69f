//! Chaos soak: mixed hostile and well-behaved load against one daemon.
//!
//! The invariants under test are the serving contract, not query
//! semantics (covered elsewhere):
//!
//! 1. every request gets exactly one typed response — no hangs, no
//!    silently dropped lines;
//! 2. successful responses are byte-identical to serial in-process
//!    execution of the same query;
//! 3. malformed, oversized, and mid-request-disconnect traffic never
//!    takes the server down or wedges other clients;
//! 4. with failpoints armed, faults surface as typed errors and the
//!    drain at the end still completes;
//! 5. hot reloads racing the traffic are all answered and change no
//!    response byte.
//!
//! The soak is deterministic (fixed xorshift seeds per client), so a
//! failure reproduces.

use exrquy::Session;
use exrquy_diag::Failpoints;
use exrquy_xqd::json::{obj, parse, Value};
use exrquy_xqd::{spawn, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const DOC: &str = "<a><b><c>1</c><d>2</d></b><c>3</c><e><c>4</c></e></a>";

/// The well-formed query mix; answers are precomputed serially.
const QUERIES: &[&str] = &[
    r#"fn:count(doc("t.xml")//c)"#,
    r#"for $c in doc("t.xml")//c return <hit>{ $c }</hit>"#,
    r#"fn:sum((1 to 100))"#,
    r#"unordered { doc("t.xml")//c }"#,
    r#"1 + 1"#,
];

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn serial_answers() -> HashMap<&'static str, String> {
    let mut s = Session::new();
    s.load_document("t.xml", DOC).unwrap();
    QUERIES
        .iter()
        .map(|&q| (q, s.query(q).unwrap().to_xml()))
        .collect()
}

fn chaos_server(cfg: ServerConfig) -> ServerHandle {
    let mut s = Session::new();
    s.load_document("t.xml", DOC).unwrap();
    spawn(cfg, s).expect("spawn chaos server")
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Conn {
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
        assert!(n > 0, "server closed connection mid-soak");
        parse(line.trim_end()).expect("server emitted invalid json")
    }
}

fn query_line(id: i64, q: &str, deadline_ms: Option<i64>) -> String {
    let mut req = vec![
        ("id", Value::Int(id)),
        ("op", Value::Str("query".into())),
        ("query", Value::Str(q.to_string())),
    ];
    if let Some(ms) = deadline_ms {
        req.push(("deadline_ms", Value::Int(ms)));
    }
    obj(req).render()
}

fn load_line(id: i64, url: &str, xml: &str) -> String {
    obj(vec![
        ("id", Value::Int(id)),
        ("op", Value::Str("load".into())),
        ("url", Value::Str(url.to_string())),
        ("xml", Value::Str(xml.to_string())),
    ])
    .render()
}

/// One soak client: a deterministic stream of valid queries, protocol
/// garbage, deadline pressure, and abrupt reconnects.
fn soak_client(
    addr: std::net::SocketAddr,
    seed: u64,
    iterations: usize,
    answers: &HashMap<&'static str, String>,
) -> (u64, u64) {
    let mut rng = seed;
    let mut conn = Conn::open(addr);
    let mut ok = 0u64;
    let mut shed = 0u64;
    for i in 0..iterations {
        match xorshift(&mut rng) % 10 {
            // Mostly: a valid query whose answer we can check.
            0..=4 => {
                let q = QUERIES[(xorshift(&mut rng) as usize) % QUERIES.len()];
                conn.send(&query_line(i as i64, q, Some(30_000)));
                let r = conn.recv();
                if r.get("ok") == Some(&Value::Bool(true)) {
                    assert_eq!(
                        r.get("result").and_then(Value::as_str),
                        Some(answers[q].as_str()),
                        "server response diverged from serial execution for {q}"
                    );
                    ok += 1;
                } else {
                    // The only acceptable failures for a valid query are
                    // the overload/deadline/drain sheds.
                    let code = r.get("code").and_then(Value::as_str).unwrap_or("?");
                    assert!(
                        code.starts_with("EXRQ000"),
                        "valid query failed with unexpected code {code}"
                    );
                    shed += 1;
                }
            }
            // Protocol garbage: typed EPROTO, connection survives.
            5 => {
                conn.send("this is { not json");
                let r = conn.recv();
                assert_eq!(r.get("code").and_then(Value::as_str), Some("EPROTO"));
            }
            // A query with a static error: typed W3C code, not a hang.
            6 => {
                conn.send(&query_line(i as i64, "$unbound_variable", None));
                let r = conn.recv();
                assert_eq!(r.get("ok"), Some(&Value::Bool(false)));
                let code = r.get("code").and_then(Value::as_str).unwrap_or("?");
                assert!(code.starts_with('X'), "expected a static code, got {code}");
            }
            // Impossible deadline: shed or (rarely) a win, never a hang.
            7 => {
                conn.send(&query_line(i as i64, QUERIES[1], Some(0)));
                let r = conn.recv();
                if r.get("ok") != Some(&Value::Bool(true)) {
                    assert_eq!(r.get("code").and_then(Value::as_str), Some("EXRQ0007"));
                    shed += 1;
                } else {
                    ok += 1;
                }
            }
            // Vanish mid-request and come back: the orphaned response
            // must not wedge a worker or leak the connection.
            8 => {
                conn.send(&query_line(i as i64, QUERIES[0], None));
                conn = Conn::open(addr);
            }
            // Empty lines are ignored, not answered.
            _ => {
                conn.send("");
                conn.send(&query_line(i as i64, "1+1", None));
                let r = conn.recv();
                assert_eq!(r.get("result").and_then(Value::as_str), Some("2"));
                ok += 1;
            }
        }
    }
    (ok, shed)
}

#[test]
fn chaos_soak_mixed_load_never_wedges() {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 3,
        queue_capacity: 8,
        max_inflight_per_client: 2,
        drain_grace: Duration::from_millis(1_000),
        ..ServerConfig::default()
    };
    let handle = chaos_server(cfg);
    let answers = serial_answers();
    let addr = handle.addr();

    let clients = 4;
    let iterations = 60;
    // A reloader hot-swaps the identical document for the whole soak:
    // every load gets a typed response, and the clients' byte-identity
    // checks hold across the catalog swaps.
    let stop_reloader = AtomicBool::new(false);
    let (results, reloads) = std::thread::scope(|scope| {
        let (answers, stop) = (&answers, &stop_reloader);
        let reloader = scope.spawn(move || {
            let mut conn = Conn::open(addr);
            let mut reloads = 0u64;
            while !stop.load(Ordering::SeqCst) {
                conn.send(&load_line(reloads as i64, "t.xml", DOC));
                let r = conn.recv();
                if r.get("ok") == Some(&Value::Bool(true)) {
                    reloads += 1;
                } else {
                    let code = r.get("code").and_then(Value::as_str);
                    assert_eq!(code, Some("EXRQ0006"), "hot reload failed: {r:?}");
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            reloads
        });
        let results: Vec<(u64, u64)> = (0..clients)
            .map(|c| {
                scope.spawn(move || soak_client(addr, 0x9E3779B9 + c as u64, iterations, answers))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("soak client panicked"))
            .collect();
        stop.store(true, Ordering::SeqCst);
        (results, reloader.join().expect("reloader panicked"))
    });
    let ok: u64 = results.iter().map(|(o, _)| o).sum();
    assert!(ok > 0, "soak never completed a single query");
    assert!(reloads > 0, "soak never completed a hot reload");

    // One oversized line on a fresh connection: rejected, bounded.
    let mut big = Conn::open(addr);
    big.send(&"x".repeat(5 * 1024 * 1024));
    let r = big.recv();
    assert_eq!(r.get("code").and_then(Value::as_str), Some("EPROTO"));
    drop(big);

    // Drain must complete with nothing in flight and nothing leaked.
    let stats = handle.shutdown();
    assert_eq!(stats.queue_depth, 0, "drain left work queued");
    assert!(
        stats.completed >= ok,
        "server counted fewer completions than clients saw"
    );
    assert_eq!(stats.active_connections, 0, "connection leak after soak");
    assert_eq!(
        stats.loads, reloads,
        "server and reloader disagree on loads"
    );
}

#[test]
fn chaos_soak_under_injected_faults_stays_typed_and_drains() {
    // Every fault-injection spec in the registry that bites the query
    // path: responses stay typed, the server stays up, drain completes.
    for spec in ["budget-trip:rownum", "cancel-after:3", "doc-io:1"] {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 8,
            drain_grace: Duration::from_millis(500),
            failpoints: Failpoints::parse(spec).unwrap(),
            ..ServerConfig::default()
        };
        let handle = chaos_server(cfg);
        let mut conn = Conn::open(handle.addr());
        for i in 0..6 {
            let q = QUERIES[i % QUERIES.len()];
            conn.send(&query_line(i as i64, q, Some(10_000)));
            let r = conn.recv();
            if r.get("ok") != Some(&Value::Bool(true)) {
                let code = r.get("code").and_then(Value::as_str).unwrap_or("?");
                assert!(
                    code.starts_with("EXRQ") || code.starts_with('F'),
                    "injected fault {spec} produced untyped failure {code}"
                );
            }
        }
        let stats = handle.shutdown();
        assert_eq!(stats.queue_depth, 0, "drain under {spec} left work queued");
    }
}
