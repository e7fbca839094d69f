//! The xqd line protocol: one JSON object per line, in both directions.
//!
//! Requests:
//!
//! ```json
//! {"id": 1, "op": "query", "query": "1 + 1", "deadline_ms": 500}
//! {"id": 2, "op": "query", "query": "...", "ordering": "baseline"}
//! {"id": 3, "op": "load", "url": "new.xml", "xml": "<a/>"}
//! {"id": 4, "op": "load", "url": "d1.xml", "xml": "<a/>", "catalog": "corpus"}
//! {"id": 5, "op": "query", "query": "fn:collection()//x", "catalog": "corpus"}
//! {"id": 6, "op": "stats"}
//! {"id": 7, "op": "ping"}
//! {"id": 8, "op": "health"}
//! {"id": 9, "op": "ready"}
//! {"id": 10, "op": "shutdown"}
//! ```
//!
//! The optional `catalog` field routes a query or load at a *named*
//! catalog instead of the default one; named catalogs are created by
//! the first load that mentions them, parse each document at its load
//! like the default catalog, and a query naming an unknown catalog gets
//! `FODC0002`. Keys a request does not use are ignored, so a `load` from
//! an older client that still carries `"shards"` parses unchanged.
//!
//! Responses echo `id` and carry either `"ok": true` plus op-specific
//! fields (`result` for queries) or `"ok": false` with `code` /
//! `message`. Engine errors surface their `EXRQ`/W3C code; requests the
//! server could not even parse get [`exrquy_diag::ErrorCode::EPROTO`]
//! and an `id` of `null` when the id itself was unreadable.
//!
//! `health` and `ready` are the probe ops: both answer inline on the
//! reader thread (never queued), so they respond even when the worker
//! pool is saturated or the server is draining. `health` reports
//! liveness plus worker-pool state; `ready` reports `"ready": false`
//! (still with `"ok": true` — the probe itself succeeded) while the
//! server drains or a catalog reload is staging.

use crate::json::{obj, parse, Value};

/// Upper bound on a single request line. Longer lines are rejected with
/// `EPROTO` *without* buffering the whole line — the connection reader
/// discards the excess so one hostile client cannot balloon memory.
pub const MAX_LINE_BYTES: usize = 4 * 1024 * 1024;

/// What a client asked for, after validation.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: Value,
    pub op: Op,
}

#[derive(Debug, Clone)]
pub enum Op {
    Query {
        query: String,
        /// Absolute per-request deadline, in milliseconds from receipt.
        deadline_ms: Option<u64>,
        /// `"indifferent"` (default) or `"baseline"`.
        baseline: bool,
        /// Named catalog to run against; `None` routes to the default.
        catalog: Option<String>,
    },
    /// Stage a document and atomically swap it into the shared catalog.
    Load {
        url: String,
        xml: String,
        /// Named catalog to load into; created on first load. `None`
        /// targets the default catalog.
        catalog: Option<String>,
    },
    Stats,
    Ping,
    /// Liveness probe: worker-pool state, answered inline.
    Health,
    /// Readiness probe: flips false during drain and catalog reload.
    Ready,
    Shutdown,
}

/// A protocol-level failure: the line was not a valid request.
#[derive(Debug, Clone)]
pub struct ProtoError {
    /// The request id if we got far enough to read one.
    pub id: Value,
    pub message: String,
}

impl ProtoError {
    fn new(id: Value, message: impl Into<String>) -> Self {
        ProtoError {
            id,
            message: message.into(),
        }
    }
}

/// Shared `catalog` field of query/load ops: an optional non-empty
/// string naming a catalog other than the default.
fn parse_catalog(
    map: &std::collections::BTreeMap<String, Value>,
    id: &Value,
) -> Result<Option<String>, ProtoError> {
    match map.get("catalog") {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) if !s.is_empty() => Ok(Some(s.clone())),
        Some(_) => Err(ProtoError::new(
            id.clone(),
            "catalog must be a non-empty string",
        )),
    }
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let v = parse(line).map_err(|e| ProtoError::new(Value::Null, format!("invalid json: {e}")))?;
    let Some(map) = v.as_object() else {
        return Err(ProtoError::new(
            Value::Null,
            "request must be a json object",
        ));
    };
    let id = map.get("id").cloned().unwrap_or(Value::Null);
    match &id {
        Value::Null | Value::Int(_) | Value::Str(_) => {}
        _ => {
            return Err(ProtoError::new(
                Value::Null,
                "id must be an integer, string, or absent",
            ))
        }
    }
    let op_name = map
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| ProtoError::new(id.clone(), "missing or non-string 'op'"))?;
    let op = match op_name {
        "query" => {
            let query = map
                .get("query")
                .and_then(Value::as_str)
                .ok_or_else(|| ProtoError::new(id.clone(), "query op requires 'query'"))?
                .to_string();
            let deadline_ms = match map.get("deadline_ms") {
                None | Some(Value::Null) => None,
                Some(v) => Some(v.as_i64().filter(|n| *n >= 0).ok_or_else(|| {
                    ProtoError::new(id.clone(), "deadline_ms must be a non-negative integer")
                })? as u64),
            };
            let baseline = match map.get("ordering").and_then(Value::as_str) {
                None | Some("indifferent") => false,
                Some("baseline") => true,
                Some(other) => {
                    return Err(ProtoError::new(
                        id.clone(),
                        format!("unknown ordering '{other}' (want indifferent|baseline)"),
                    ))
                }
            };
            let catalog = parse_catalog(map, &id)?;
            Op::Query {
                query,
                deadline_ms,
                baseline,
                catalog,
            }
        }
        "load" => {
            let url = map
                .get("url")
                .and_then(Value::as_str)
                .ok_or_else(|| ProtoError::new(id.clone(), "load op requires 'url'"))?
                .to_string();
            let xml = map
                .get("xml")
                .and_then(Value::as_str)
                .ok_or_else(|| ProtoError::new(id.clone(), "load op requires 'xml'"))?
                .to_string();
            let catalog = parse_catalog(map, &id)?;
            Op::Load { url, xml, catalog }
        }
        "stats" => Op::Stats,
        "ping" => Op::Ping,
        "health" => Op::Health,
        "ready" => Op::Ready,
        "shutdown" => Op::Shutdown,
        other => return Err(ProtoError::new(id.clone(), format!("unknown op '{other}'"))),
    };
    Ok(Request { id, op })
}

/// Success response with op-specific extras.
pub fn ok_response(id: &Value, extras: Vec<(&str, Value)>) -> String {
    let mut pairs = vec![("id", id.clone()), ("ok", Value::Bool(true))];
    pairs.extend(extras);
    obj(pairs).render()
}

/// Error response carrying a typed code.
pub fn err_response(id: &Value, code: &str, message: &str) -> String {
    obj(vec![
        ("id", id.clone()),
        ("ok", Value::Bool(false)),
        ("code", Value::Str(code.to_string())),
        ("message", Value::Str(message.to_string())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_query_request() {
        let r = parse_request(
            r#"{"id": 7, "op": "query", "query": "1+1", "deadline_ms": 250, "ordering": "baseline"}"#,
        )
        .unwrap();
        assert_eq!(r.id, Value::Int(7));
        match r.op {
            Op::Query {
                query,
                deadline_ms,
                baseline,
                catalog,
            } => {
                assert_eq!(query, "1+1");
                assert_eq!(deadline_ms, Some(250));
                assert!(baseline);
                assert_eq!(catalog, None);
            }
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn parses_catalog_routing_and_named_loads() {
        let r =
            parse_request(r#"{"id":1,"op":"query","query":"fn:collection()","catalog":"corpus"}"#)
                .unwrap();
        match r.op {
            Op::Query { catalog, .. } => assert_eq!(catalog.as_deref(), Some("corpus")),
            other => panic!("wrong op: {other:?}"),
        }
        let r =
            parse_request(r#"{"id":2,"op":"load","url":"d.xml","xml":"<a/>","catalog":"corpus"}"#)
                .unwrap();
        match r.op {
            Op::Load { url, catalog, .. } => {
                assert_eq!(url, "d.xml");
                assert_eq!(catalog.as_deref(), Some("corpus"));
            }
            other => panic!("wrong op: {other:?}"),
        }
        // Absent fields keep the single-catalog wire format working.
        let r = parse_request(r#"{"id":3,"op":"load","url":"d.xml","xml":"<a/>"}"#).unwrap();
        match r.op {
            Op::Load { catalog, .. } => assert_eq!(catalog, None),
            other => panic!("wrong op: {other:?}"),
        }
        for (line, needle) in [
            (
                r#"{"id":1,"op":"query","query":"1","catalog":""}"#,
                "catalog must be",
            ),
            (
                r#"{"id":1,"op":"query","query":"1","catalog":7}"#,
                "catalog must be",
            ),
        ] {
            let e = parse_request(line).unwrap_err();
            assert!(e.message.contains(needle), "{line}: {}", e.message);
        }
    }

    #[test]
    fn a_load_from_an_older_client_still_parses() {
        // The `shards` key is no longer part of the protocol; like any
        // unknown key it is ignored, whatever its value.
        for extra in ["8", "0", r#""two""#] {
            let line = format!(
                r#"{{"id":4,"op":"load","url":"d.xml","xml":"<a/>","catalog":"corpus","shards":{extra}}}"#
            );
            let r = parse_request(&line).unwrap();
            match r.op {
                Op::Load { url, xml, catalog } => {
                    assert_eq!((url.as_str(), xml.as_str()), ("d.xml", "<a/>"));
                    assert_eq!(catalog.as_deref(), Some("corpus"));
                }
                other => panic!("wrong op: {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_malformed_requests_with_eproto_details() {
        for (line, needle) in [
            ("not json", "invalid json"),
            ("[1,2]", "must be a json object"),
            (r#"{"id":1}"#, "'op'"),
            (r#"{"id":1,"op":"query"}"#, "requires 'query'"),
            (r#"{"id":1,"op":"nope"}"#, "unknown op"),
            (
                r#"{"id":1,"op":"query","query":"1","deadline_ms":-5}"#,
                "deadline_ms",
            ),
            (r#"{"id":{},"op":"ping"}"#, "id must be"),
            (
                r#"{"id":1,"op":"query","query":"1","ordering":"x"}"#,
                "unknown ordering",
            ),
        ] {
            let e = parse_request(line).unwrap_err();
            assert!(
                e.message.contains(needle),
                "{line}: {} should mention {needle}",
                e.message
            );
        }
    }

    #[test]
    fn parses_probe_ops() {
        for (name, want) in [("health", "Health"), ("ready", "Ready")] {
            let r = parse_request(&format!(r#"{{"id":1,"op":"{name}"}}"#)).unwrap();
            assert_eq!(format!("{:?}", r.op), want);
        }
    }

    #[test]
    fn responses_echo_ids_verbatim() {
        let ok = ok_response(
            &Value::Str("abc".into()),
            vec![("result", Value::Str("2".into()))],
        );
        assert_eq!(ok, r#"{"id":"abc","ok":true,"result":"2"}"#);
        let err = err_response(&Value::Int(3), "EXRQ0006", "overloaded");
        assert_eq!(
            err,
            r#"{"code":"EXRQ0006","id":3,"message":"overloaded","ok":false}"#
        );
    }
}
