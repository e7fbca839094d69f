//! xqc — the retrying client for the xqd line protocol.
//!
//! A thin, std-only client that makes the daemon's failure modes
//! survivable instead of fatal: connection loss, torn and trickled
//! response frames, overload sheds, and deadline sheds are all retried
//! with bounded exponential backoff and *deterministic* jitter, while
//! failures that would repeat verbatim — protocol errors, contained
//! panics — are surfaced immediately.
//!
//! ## Retry-safety classification
//!
//! Whether a failure is worth retrying is a property of the **error
//! code**, not of the caller's mood:
//!
//! | failure | retried? | why |
//! |---|---|---|
//! | connect refused / reset / EOF | yes, after reconnect | transient network or a restarting server |
//! | read timeout, truncated line | yes, after reconnect | the response is gone; the op is re-issued |
//! | `EXRQ0006` (overloaded) | yes, same connection | the server asked for backoff |
//! | `EXRQ0007` (deadline shed) | yes, same connection | a fresh attempt gets a fresh deadline |
//! | `EXRQ0008` (draining) | no | the server is going away; retrying races the drain |
//! | `EXRQ0009` (contained panic) | no | deterministic: the same input panics again |
//! | `EPROTO` | no | the request itself is malformed |
//! | any engine/type error | no | deterministic result of the query |
//! | complete-but-unparseable line | no ([`ClientError::Proto`]) | the transport works; the peer is confused |
//!
//! Retrying a *query* is always safe (queries are reads); retrying a
//! *load* is safe because loads are idempotent swaps keyed by URL.
//!
//! ## Determinism
//!
//! Backoff jitter comes from a seeded xorshift generator
//! ([`Config::jitter_seed`]), so a client's retry schedule is a pure
//! function of its config and failure history — the chaos soak and the
//! differential harness stay reproducible end to end.

use exrquy_diag::ErrorCode;
use exrquy_xqd::json::{obj, parse, Value};
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client configuration. `Default` is not provided on purpose: the
/// address is mandatory, so construction goes through [`Config::new`].
#[derive(Debug, Clone)]
pub struct Config {
    /// `host:port` of the xqd daemon.
    pub addr: String,
    pub connect_timeout: Duration,
    /// Per-read timeout; a response slower than this counts as a
    /// transport failure (and is retried).
    pub read_timeout: Duration,
    /// Retry budget *per request* (0 = fail fast on first error).
    pub max_retries: u32,
    /// First backoff step; doubles per attempt up to `backoff_max`.
    pub backoff_base: Duration,
    pub backoff_max: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Config {
    pub fn new(addr: impl Into<String>) -> Config {
        Config {
            addr: addr.into(),
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(30),
            max_retries: 4,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            jitter_seed: 0x5eed_cafe,
        }
    }
}

/// Why a request ultimately failed, after any retries.
#[derive(Debug)]
pub enum ClientError {
    /// Connection-level failure (refused, reset, EOF mid-response,
    /// timeout) that survived the whole retry budget.
    Transport(String),
    /// The server delivered a complete line that is not a valid
    /// response (bad JSON, unknown code, mismatched id). Never retried:
    /// the transport works, so a retry would reproduce the confusion.
    Proto(String),
    /// The server answered `ok:false` with a typed, non-retryable code
    /// — or a retryable one after the budget ran out.
    Server { code: ErrorCode, message: String },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport(m) => write!(f, "transport: {m}"),
            ClientError::Proto(m) => write!(f, "protocol: {m}"),
            ClientError::Server { code, message } => write!(f, "[{}] {message}", code.as_str()),
        }
    }
}

impl std::error::Error for ClientError {}

/// Is an `ok:false` response with this code worth retrying?
///
/// Only the two *load-dependent* sheds qualify: overload
/// (`EXRQ0006`) and deadline (`EXRQ0007`) depend on what else the
/// server was doing, so a later attempt can succeed. Everything else —
/// engine errors, protocol errors, drain refusals, contained panics —
/// is a deterministic function of the request or a sign the server is
/// leaving, and must surface immediately.
pub fn retry_safe(code: ErrorCode) -> bool {
    matches!(code, ErrorCode::EXRQ0006 | ErrorCode::EXRQ0007)
}

/// Exponential backoff with deterministic jitter: attempt `n` (1-based)
/// waits `base * 2^(n-1)` capped at `max`, then jittered into the upper
/// half of that window (`[cap/2, cap]`) by an xorshift draw from
/// `rng_state`. Pure function of its inputs — two clients with the same
/// seed and failure history sleep identically.
pub fn backoff_delay(cfg: &Config, attempt: u32, rng_state: &mut u64) -> Duration {
    let shift = attempt.saturating_sub(1).min(16);
    let cap = cfg
        .backoff_base
        .saturating_mul(1u32 << shift)
        .min(cfg.backoff_max);
    let mut x = rng_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng_state = x;
    let cap_us = cap.as_micros() as u64;
    let half = cap_us / 2;
    let jitter = if half == 0 { 0 } else { x % (half + 1) };
    Duration::from_micros(half + jitter)
}

/// Client-side counters, exposed for benchmarks and tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientStats {
    /// Attempts beyond the first, across all requests.
    pub retries: u64,
    /// Connections established after the first one.
    pub reconnects: u64,
}

/// Options for [`Client::query_with`].
#[derive(Debug, Default, Clone)]
pub struct QueryOpts {
    pub deadline_ms: Option<u64>,
    /// Request the order-aware baseline instead of the default
    /// order-indifferent execution.
    pub baseline: bool,
    /// Route the query at a named server catalog instead of the
    /// default one (see the xqd `catalog` request field).
    pub catalog: Option<String>,
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A lazily-connecting, reconnecting xqd client. Not thread-safe by
/// design (one connection, sequential requests); spawn one per thread.
pub struct Client {
    cfg: Config,
    conn: Option<Conn>,
    ever_connected: bool,
    rng: u64,
    next_id: i64,
    stats: ClientStats,
}

/// One transport attempt's outcome, before retry policy is applied.
enum Once {
    Reply(Value),
    /// Complete line, but not a usable response — never retried.
    Garbage(String),
    /// Connection-level failure — retried after reconnect.
    Gone(String),
}

impl Client {
    /// Create a client. No I/O happens here; the first request
    /// connects (and a dropped connection reconnects on the next one).
    pub fn connect(cfg: Config) -> Client {
        let rng = cfg.jitter_seed;
        Client {
            cfg,
            conn: None,
            ever_connected: false,
            rng,
            next_id: 0,
            stats: ClientStats::default(),
        }
    }

    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Run a query with default options; returns the serialized result.
    pub fn query(&mut self, query: &str) -> Result<String, ClientError> {
        self.query_with(query, &QueryOpts::default())
    }

    pub fn query_with(&mut self, query: &str, opts: &QueryOpts) -> Result<String, ClientError> {
        let mut fields = vec![
            ("op", Value::Str("query".into())),
            ("query", Value::Str(query.into())),
        ];
        if let Some(ms) = opts.deadline_ms {
            fields.push(("deadline_ms", Value::Int(ms as i64)));
        }
        if opts.baseline {
            fields.push(("ordering", Value::Str("baseline".into())));
        }
        if let Some(c) = &opts.catalog {
            fields.push(("catalog", Value::Str(c.clone())));
        }
        let resp = self.request(fields)?;
        match resp.get("result").and_then(Value::as_str) {
            Some(r) => Ok(r.to_string()),
            None => Err(ClientError::Proto(format!(
                "ok response without 'result': {resp:?}"
            ))),
        }
    }

    /// Stage a document and swap it into the server catalog.
    pub fn load(&mut self, url: &str, xml: &str) -> Result<(), ClientError> {
        self.load_into(url, xml, None, None)
    }

    /// Stage a document into a *named* catalog (created by the server on
    /// first load; `None` targets the default), optionally
    /// re-partitioning it into `shards` shards afterwards.
    pub fn load_into(
        &mut self,
        url: &str,
        xml: &str,
        catalog: Option<&str>,
        shards: Option<usize>,
    ) -> Result<(), ClientError> {
        let mut fields = vec![
            ("op", Value::Str("load".into())),
            ("url", Value::Str(url.into())),
            ("xml", Value::Str(xml.into())),
        ];
        if let Some(c) = catalog {
            fields.push(("catalog", Value::Str(c.into())));
        }
        if let Some(n) = shards {
            fields.push(("shards", Value::Int(n as i64)));
        }
        self.request(fields).map(|_| ())
    }

    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(vec![("op", Value::Str("ping".into()))])
            .map(|_| ())
    }

    /// Server-side counters as a JSON object.
    pub fn server_stats(&mut self) -> Result<Value, ClientError> {
        self.request(vec![("op", Value::Str("stats".into()))])
    }

    /// Liveness probe payload (worker-pool state).
    pub fn health(&mut self) -> Result<Value, ClientError> {
        self.request(vec![("op", Value::Str("health".into()))])
    }

    /// Readiness probe: `Ok(true)` iff the server is accepting work.
    pub fn ready(&mut self) -> Result<bool, ClientError> {
        let resp = self.request(vec![("op", Value::Str("ready".into()))])?;
        Ok(resp.get("ready") == Some(&Value::Bool(true)))
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(vec![("op", Value::Str("shutdown".into()))])
            .map(|_| ())
    }

    fn request(&mut self, mut fields: Vec<(&str, Value)>) -> Result<Value, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        fields.insert(0, ("id", Value::Int(id)));
        let line = obj(fields).render();
        let mut attempt: u32 = 0;
        loop {
            match self.roundtrip_once(&line, id) {
                Once::Reply(resp) => {
                    if resp.get("ok") == Some(&Value::Bool(true)) {
                        return Ok(resp);
                    }
                    let code_str = resp.get("code").and_then(Value::as_str).unwrap_or("");
                    let Some(code) = ErrorCode::parse(code_str) else {
                        return Err(ClientError::Proto(format!(
                            "error response with unknown code '{code_str}'"
                        )));
                    };
                    let message = resp
                        .get("message")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string();
                    if retry_safe(code) && attempt < self.cfg.max_retries {
                        // The transport answered; back off on the same
                        // connection and re-issue.
                        attempt += 1;
                        self.stats.retries += 1;
                        std::thread::sleep(backoff_delay(&self.cfg, attempt, &mut self.rng));
                        continue;
                    }
                    return Err(ClientError::Server { code, message });
                }
                Once::Garbage(m) => return Err(ClientError::Proto(m)),
                Once::Gone(m) => {
                    // Connection state is unknown; drop it so the next
                    // attempt reconnects from scratch.
                    self.conn = None;
                    if attempt < self.cfg.max_retries {
                        attempt += 1;
                        self.stats.retries += 1;
                        std::thread::sleep(backoff_delay(&self.cfg, attempt, &mut self.rng));
                        continue;
                    }
                    return Err(ClientError::Transport(m));
                }
            }
        }
    }

    fn roundtrip_once(&mut self, line: &str, id: i64) -> Once {
        let conn = match self.ensure_conn() {
            Ok(c) => c,
            Err(m) => return Once::Gone(m),
        };
        // One frame, one write (see `ConnWriter::send` in xqd).
        let frame = format!("{line}\n");
        if let Err(e) = conn
            .writer
            .write_all(frame.as_bytes())
            .and_then(|()| conn.writer.flush())
        {
            return Once::Gone(format!("write failed: {e}"));
        }
        let mut resp = String::new();
        match conn.reader.read_line(&mut resp) {
            Ok(0) => return Once::Gone("server closed the connection".into()),
            Ok(_) if !resp.ends_with('\n') => {
                // EOF mid-line: a torn frame the peer never finished.
                return Once::Gone("truncated response line".into());
            }
            Ok(_) => {}
            Err(e) => return Once::Gone(format!("read failed: {e}")),
        }
        let v = match parse(resp.trim_end()) {
            Ok(v) => v,
            Err(e) => return Once::Garbage(format!("unparseable response line: {e}")),
        };
        if v.get("id") != Some(&Value::Int(id)) {
            return Once::Garbage(format!("response id mismatch (want {id}): {v:?}"));
        }
        Once::Reply(v)
    }

    fn ensure_conn(&mut self) -> Result<&mut Conn, String> {
        if self.conn.is_none() {
            let addr = self
                .cfg
                .addr
                .to_socket_addrs()
                .map_err(|e| format!("resolve {}: {e}", self.cfg.addr))?
                .next()
                .ok_or_else(|| format!("resolve {}: no addresses", self.cfg.addr))?;
            let stream = TcpStream::connect_timeout(&addr, self.cfg.connect_timeout)
                .map_err(|e| format!("connect {}: {e}", self.cfg.addr))?;
            stream
                .set_read_timeout(Some(self.cfg.read_timeout))
                .map_err(|e| format!("set timeout: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("set nodelay: {e}"))?;
            let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
            if self.ever_connected {
                self.stats.reconnects += 1;
            }
            self.ever_connected = true;
            self.conn = Some(Conn {
                writer,
                reader: BufReader::new(stream),
            });
        }
        // Invariant: just populated above when absent.
        Ok(self.conn.as_mut().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_safety_is_exactly_the_two_load_dependent_sheds() {
        for &code in ErrorCode::ALL {
            let expected = matches!(code, ErrorCode::EXRQ0006 | ErrorCode::EXRQ0007);
            assert_eq!(
                retry_safe(code),
                expected,
                "{} retry classification",
                code.as_str()
            );
        }
        // The two headline non-retryables, spelled out.
        assert!(!retry_safe(ErrorCode::EXRQ0009));
        assert!(!retry_safe(ErrorCode::EPROTO));
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_into_the_upper_half() {
        let cfg = Config {
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(80),
            ..Config::new("x")
        };
        let mut rng = 7;
        for (attempt, cap_ms) in [(1u32, 10u64), (2, 20), (3, 40), (4, 80), (5, 80), (6, 80)] {
            let d = backoff_delay(&cfg, attempt, &mut rng);
            let cap = Duration::from_millis(cap_ms);
            assert!(d >= cap / 2 && d <= cap, "attempt {attempt}: {d:?}");
        }
    }

    #[test]
    fn backoff_schedule_is_deterministic_in_the_seed() {
        let cfg = Config::new("x");
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut rng = seed;
            (1..=8).map(|a| backoff_delay(&cfg, a, &mut rng)).collect()
        };
        assert_eq!(schedule(42), schedule(42));
        assert_ne!(schedule(42), schedule(43));
    }
}
