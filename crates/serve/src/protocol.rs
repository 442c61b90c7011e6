//! Layer 1: the wire protocol.
//!
//! Both directions carry one JSON document per `\n`-terminated line. A
//! request is an object with an `"op"` field naming the operation, an
//! optional numeric `"id"` echoed back in the response (required for
//! `run`, whose id doubles as the cancellation target), and op-specific
//! fields. A response is an object with the echoed `"id"`, an `"ok"`
//! boolean, and either result fields or an `"error"` object
//! (`{"code", "message"}`), optionally alongside `"diagnostics"` rendered
//! with [`Diagnostic::to_json`].
//!
//! This module is pure data — parsing and building [`Value`] trees, no
//! I/O — so every shape is unit-testable without a socket.

use assess_core::diag::Diagnostic;
use assess_core::plan::Strategy;
use serde::Value;

/// Version stamped into the server's hello line; bump on breaking changes.
pub const PROTOCOL_VERSION: u64 = 1;

/// How a `run` response carries the assessed cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunFormat {
    /// A JSON array of cell objects, truncated to the row limit.
    Cells,
    /// The full result as one CSV string (no truncation) — the format the
    /// concurrency tests compare byte-for-byte against serial execution.
    Csv,
}

/// Parsed fields of a `run` request.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub statement: String,
    /// Pin one strategy (no fallback ladder) instead of `run_auto`.
    pub strategy: Option<Strategy>,
    pub format: RunFormat,
    /// Row cap for [`RunFormat::Cells`] responses; `None` = server default.
    pub limit: Option<usize>,
    /// Whether the shared result cache may serve / store this run.
    pub cache: bool,
    /// Whether the response should carry the execution trace tree
    /// (`"trace": true` on the request).
    pub trace: bool,
}

/// Parsed fields of a `batch` request: a group of statements executed as
/// one unit with shared-scan scheduling.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    pub statements: Vec<String>,
    pub format: RunFormat,
    /// Row cap for [`RunFormat::Cells`] per-statement results.
    pub limit: Option<usize>,
    /// Whether the response carries per-statement traces plus the
    /// batch-level `shared_scan` spans.
    pub trace: bool,
}

/// Upper bound on statements per batch, to bound planning memory.
pub const MAX_BATCH_STATEMENTS: usize = 256;

/// Parsed fields of a `partial` request — the shard-node side of
/// scatter-gather execution. The coordinator sends the planned cube query
/// (encoded by [`crate::shard::encode_query`]) plus its *remaining* budget;
/// the node runs the scan/aggregate stage and answers with the raw
/// pre-finalize accumulator state.
#[derive(Debug, Clone)]
pub struct PartialOptions {
    /// The encoded cube query, decoded by [`crate::shard::decode_query`].
    pub query: Value,
    /// Rows this node may still scan (the coordinator's remaining budget).
    pub max_rows: Option<u64>,
    /// Milliseconds until the coordinator's deadline.
    pub deadline_ms: Option<u64>,
}

/// One protocol operation.
#[derive(Debug, Clone)]
pub enum Op {
    Ping,
    /// Binds the session to a tenant: `{"op":"auth","key":"..."}`. Omitting
    /// the key (or the op altogether) leaves the session anonymous.
    Auth {
        key: Option<String>,
    },
    Check {
        statement: String,
    },
    Run(RunOptions),
    /// Executes a group of statements with shared-scan scheduling:
    /// fingerprint-equal scans run once and fan out to every consumer.
    Batch(BatchOptions),
    Explain {
        statement: String,
    },
    Stats,
    /// Registry snapshots as one Prometheus-style text exposition.
    Metrics,
    SetPolicy {
        deadline_ms: Option<u64>,
        max_rows_scanned: Option<u64>,
        max_output_cells: Option<u64>,
        max_threads: Option<u64>,
    },
    Cancel {
        target: u64,
    },
    /// Appends a fact batch: `{"op":"append","id":N,"cube":"SSB",
    /// "rows":{"col":[...], ...}}`. The rows object maps column names to
    /// equal-length arrays of numbers; the server types them against the
    /// cube's fact table. Requires an id: appends mutate shared state, so
    /// the response must be correlatable.
    Append {
        cube: String,
        /// Raw column map, typed later against the target table's schema.
        rows: Value,
    },
    /// Registers a live assessment: the statement is evaluated now (the
    /// response carries the full initial cells) and re-evaluated after
    /// every subsequent append, pushing `{"event":"diff", ...}` frames
    /// with only the changed cells. Requires an id like `run`.
    Subscribe {
        statement: String,
    },
    /// Drops a subscription by the id `subscribe` returned.
    Unsubscribe {
        target: u64,
    },
    /// Runs the scan/aggregate stage of one planned cube query and answers
    /// with the raw partial aggregate — the shard-node side of
    /// scatter-gather execution. Requires an id: the coordinator cancels a
    /// fan-out by cancelling every in-flight partial.
    Partial(PartialOptions),
    /// Current row count of one table: `{"op":"rows","table":"lineorder"}`.
    /// A quick op (answered inline) the coordinator uses for cost
    /// estimation across remote shards.
    Rows {
        table: String,
    },
}

impl Op {
    /// Stable op name, used for per-op counters and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Auth { .. } => "auth",
            Op::Check { .. } => "check",
            Op::Run(_) => "run",
            Op::Batch(_) => "batch",
            Op::Explain { .. } => "explain",
            Op::Stats => "stats",
            Op::Metrics => "metrics",
            Op::SetPolicy { .. } => "set_policy",
            Op::Cancel { .. } => "cancel",
            Op::Append { .. } => "append",
            Op::Subscribe { .. } => "subscribe",
            Op::Unsubscribe { .. } => "unsubscribe",
            Op::Partial(_) => "partial",
            Op::Rows { .. } => "rows",
        }
    }
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: Option<u64>,
    pub op: Op,
}

/// A request the server must reject, with the machine-readable code the
/// error response carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    pub code: &'static str,
    pub message: String,
}

impl ProtoError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        ProtoError { code, message: message.into() }
    }
}

// ---------------------------------------------------------------- helpers

/// Builds an object [`Value`] from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A string [`Value`].
pub fn s(text: impl Into<String>) -> Value {
    Value::String(text.into())
}

/// A numeric [`Value`] from an unsigned integer. Ids and counters stay
/// well under 2^53, so the f64 carrier is exact.
pub fn n(value: u64) -> Value {
    Value::Number(value as f64)
}

/// Reads an optional non-negative integer field.
pub fn get_u64(value: &Value, key: &str) -> Option<u64> {
    let x = value.get(key)?.as_f64()?;
    (x >= 0.0 && x.fract() == 0.0 && x <= 9.0e15).then_some(x as u64)
}

/// Reads an optional string field.
pub fn get_str<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    value.get(key)?.as_str()
}

/// Reads an optional boolean field.
pub fn get_bool(value: &Value, key: &str) -> Option<bool> {
    value.get(key)?.as_bool()
}

// ---------------------------------------------------------------- parsing

/// Parses one request line. Errors carry the code the error response
/// reports (`bad_request` for malformed JSON or field problems,
/// `unknown_op` for an unrecognized operation).
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let value: Value = serde_json::from_str(line.trim())
        .map_err(|e| ProtoError::new("bad_request", format!("invalid JSON: {e}")))?;
    if !matches!(value, Value::Object(_)) {
        return Err(ProtoError::new("bad_request", "request must be a JSON object"));
    }
    let id = get_u64(&value, "id");
    if value.get("id").is_some() && id.is_none() {
        return Err(ProtoError::new("bad_request", "`id` must be a non-negative integer"));
    }
    let op_name = get_str(&value, "op")
        .ok_or_else(|| ProtoError::new("bad_request", "missing string field `op`"))?;
    let statement = |value: &Value| -> Result<String, ProtoError> {
        get_str(value, "statement")
            .map(str::to_string)
            .ok_or_else(|| ProtoError::new("bad_request", "missing string field `statement`"))
    };
    let run_format = |value: &Value| -> Result<RunFormat, ProtoError> {
        match get_str(value, "format") {
            None | Some("cells") => Ok(RunFormat::Cells),
            Some("csv") => Ok(RunFormat::Csv),
            Some(other) => Err(ProtoError::new(
                "bad_request",
                format!("`format` must be cells|csv, got `{other}`"),
            )),
        }
    };
    let op = match op_name {
        "ping" => Op::Ping,
        "auth" => {
            if value.get("key").is_some() && get_str(&value, "key").is_none() {
                return Err(ProtoError::new("bad_request", "`key` must be a string"));
            }
            Op::Auth { key: get_str(&value, "key").map(str::to_string) }
        }
        "check" => Op::Check { statement: statement(&value)? },
        "explain" => Op::Explain { statement: statement(&value)? },
        "stats" => Op::Stats,
        "metrics" => Op::Metrics,
        "set_policy" => Op::SetPolicy {
            deadline_ms: get_u64(&value, "deadline_ms"),
            max_rows_scanned: get_u64(&value, "max_rows_scanned"),
            max_output_cells: get_u64(&value, "max_output_cells"),
            max_threads: get_u64(&value, "max_threads"),
        },
        "cancel" => Op::Cancel {
            target: get_u64(&value, "target")
                .ok_or_else(|| ProtoError::new("bad_request", "`cancel` needs integer `target`"))?,
        },
        "run" => {
            if id.is_none() {
                // The id is the cancellation handle, so a run without one
                // would be unabortable; require it up front.
                return Err(ProtoError::new("bad_request", "`run` requires an `id`"));
            }
            let strategy = match get_str(&value, "strategy") {
                None => None,
                Some(text) => Some(parse_strategy(text)?),
            };
            Op::Run(RunOptions {
                statement: statement(&value)?,
                strategy,
                format: run_format(&value)?,
                limit: get_u64(&value, "limit").map(|x| x as usize),
                cache: get_bool(&value, "cache").unwrap_or(true),
                trace: get_bool(&value, "trace").unwrap_or(false),
            })
        }
        "batch" => {
            if id.is_none() {
                // Like `run`: the id is the cancellation handle.
                return Err(ProtoError::new("bad_request", "`batch` requires an `id`"));
            }
            let statements = match value.get("statements") {
                Some(Value::Array(items)) => {
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        match item.as_str() {
                            Some(text) if !text.trim().is_empty() => out.push(text.to_string()),
                            _ => {
                                return Err(ProtoError::new(
                                    "bad_request",
                                    "`statements` must hold non-empty strings",
                                ))
                            }
                        }
                    }
                    out
                }
                _ => {
                    return Err(ProtoError::new(
                        "bad_request",
                        "`batch` needs a `statements` array",
                    ))
                }
            };
            if statements.is_empty() {
                return Err(ProtoError::new("bad_request", "`statements` must not be empty"));
            }
            if statements.len() > MAX_BATCH_STATEMENTS {
                return Err(ProtoError::new(
                    "bad_request",
                    format!("`batch` holds at most {MAX_BATCH_STATEMENTS} statements"),
                ));
            }
            Op::Batch(BatchOptions {
                statements,
                format: run_format(&value)?,
                limit: get_u64(&value, "limit").map(|x| x as usize),
                trace: get_bool(&value, "trace").unwrap_or(false),
            })
        }
        "append" => {
            if id.is_none() {
                // Appends mutate shared state; the response must be
                // correlatable to the mutation that produced it.
                return Err(ProtoError::new("bad_request", "`append` requires an `id`"));
            }
            let cube = get_str(&value, "cube")
                .map(str::to_string)
                .ok_or_else(|| ProtoError::new("bad_request", "missing string field `cube`"))?;
            let rows = match value.get("rows") {
                Some(rows @ Value::Object(fields)) if !fields.is_empty() => rows.clone(),
                _ => {
                    return Err(ProtoError::new(
                        "bad_request",
                        "`append` needs a non-empty `rows` object of column arrays",
                    ))
                }
            };
            Op::Append { cube, rows }
        }
        "subscribe" => {
            if id.is_none() {
                // The id doubles as the unsubscribe handle.
                return Err(ProtoError::new("bad_request", "`subscribe` requires an `id`"));
            }
            Op::Subscribe { statement: statement(&value)? }
        }
        "unsubscribe" => Op::Unsubscribe {
            target: get_u64(&value, "target").ok_or_else(|| {
                ProtoError::new("bad_request", "`unsubscribe` needs integer `target`")
            })?,
        },
        "partial" => {
            if id.is_none() {
                // Like `run`: the id is the cancellation handle of the
                // shard-side scan.
                return Err(ProtoError::new("bad_request", "`partial` requires an `id`"));
            }
            let query = match value.get("query") {
                Some(query @ Value::Object(_)) => query.clone(),
                _ => {
                    return Err(ProtoError::new("bad_request", "`partial` needs a `query` object"))
                }
            };
            Op::Partial(PartialOptions {
                query,
                max_rows: get_u64(&value, "max_rows"),
                deadline_ms: get_u64(&value, "deadline_ms"),
            })
        }
        "rows" => Op::Rows {
            table: get_str(&value, "table")
                .map(str::to_string)
                .ok_or_else(|| ProtoError::new("bad_request", "missing string field `table`"))?,
        },
        other => return Err(ProtoError::new("unknown_op", format!("unknown op `{other}`"))),
    };
    Ok(Request { id, op })
}

fn parse_strategy(text: &str) -> Result<Strategy, ProtoError> {
    match text.to_ascii_lowercase().as_str() {
        "np" | "naive" => Ok(Strategy::Naive),
        "jop" => Ok(Strategy::JoinOptimized),
        "pop" => Ok(Strategy::PivotOptimized),
        other => Err(ProtoError::new(
            "bad_request",
            format!("`strategy` must be np|jop|pop, got `{other}`"),
        )),
    }
}

// --------------------------------------------------------------- building

fn id_field(id: Option<u64>) -> Value {
    match id {
        Some(id) => n(id),
        None => Value::Null,
    }
}

/// A success response: `{"id", "ok": true, …fields}`.
pub fn ok_response(id: Option<u64>, fields: Vec<(&str, Value)>) -> Value {
    let mut all = vec![("id", id_field(id)), ("ok", Value::Bool(true))];
    all.extend(fields);
    obj(all)
}

/// An error response: `{"id", "ok": false, "error": {"code", "message"}}`.
pub fn error_response(id: Option<u64>, code: &str, message: &str) -> Value {
    error_response_with(id, code, message, Vec::new())
}

/// An [`error_response`] whose error object also carries structured
/// `extra` fields, after `code` and `message`.
pub(crate) fn error_response_with(
    id: Option<u64>,
    code: &str,
    message: &str,
    extra: Vec<(&str, Value)>,
) -> Value {
    let mut error = vec![("code", s(code)), ("message", s(message))];
    error.extend(extra);
    obj(vec![("id", id_field(id)), ("ok", Value::Bool(false)), ("error", obj(error))])
}

/// An overload refusal: an [`error_response`] whose error object also
/// carries the backoff hint — `{"error": {"code", "message",
/// "retry_after_ms"}}`. Clients must not retry sooner than the hint.
pub fn overload_response(id: Option<u64>, code: &str, message: &str, retry_after_ms: u64) -> Value {
    error_response_with(id, code, message, vec![("retry_after_ms", n(retry_after_ms))])
}

/// Renders diagnostics as a JSON array via [`Diagnostic::to_json`].
pub fn diagnostics_json(diagnostics: &[Diagnostic], source: Option<&str>) -> Value {
    Value::Array(diagnostics.iter().map(|d| d.to_json(source)).collect())
}

/// Serializes one response as a single line (no interior newlines: the
/// compact writer never emits them, and strings escape `\n`).
pub fn to_line(value: &Value) -> String {
    let mut line = serde_json::to_string(value).unwrap_or_else(|_| {
        // The shim's compact writer is total over `Value`; keep a valid
        // JSON fallback anyway so a client never reads a broken line.
        r#"{"ok":false,"error":{"code":"internal","message":"serialization failed"}}"#.to_string()
    });
    line.push('\n');
    line
}

/// One response line whose members are `head`'s, then those of `body` (an
/// encoded object, as a cache entry keeps its cells), then `tail`'s: byte
/// for byte the [`to_line`] of one object holding all three in that order.
pub(crate) fn spliced_line(head: &Value, body: &str, tail: &Value) -> String {
    let tail = to_line(tail);
    let mut line = to_line(head);
    line.truncate(line.trim_end().len() - 1);
    line.reserve(body.len() + tail.len());
    for encoded in [body, &tail] {
        let members = encoded.trim_end();
        let members = members.get(1..members.len().saturating_sub(1)).unwrap_or("");
        if !members.is_empty() {
            if line.len() > 1 {
                line.push(',');
            }
            line.push_str(members);
        }
    }
    line.push_str("}\n");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert!(matches!(parse_request(r#"{"op":"ping"}"#).unwrap().op, Op::Ping));
        assert!(matches!(parse_request(r#"{"op":"stats","id":3}"#).unwrap().op, Op::Stats));
        assert!(matches!(parse_request(r#"{"op":"metrics"}"#).unwrap().op, Op::Metrics));
        let check = parse_request(r#"{"op":"check","statement":"with s by x assess m"}"#).unwrap();
        assert!(matches!(check.op, Op::Check { .. }));
        let cancel = parse_request(r#"{"op":"cancel","target":7}"#).unwrap();
        assert!(matches!(cancel.op, Op::Cancel { target: 7 }));
        let policy =
            parse_request(r#"{"op":"set_policy","deadline_ms":100,"max_threads":2}"#).unwrap();
        match policy.op {
            Op::SetPolicy { deadline_ms, max_rows_scanned, max_output_cells, max_threads } => {
                assert_eq!(deadline_ms, Some(100));
                assert_eq!(max_rows_scanned, None);
                assert_eq!(max_output_cells, None);
                assert_eq!(max_threads, Some(2));
            }
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn parses_run_options() {
        let req = parse_request(
            r#"{"op":"run","id":5,"statement":"s","strategy":"POP","format":"csv","cache":false,"trace":true}"#,
        )
        .unwrap();
        assert_eq!(req.id, Some(5));
        match req.op {
            Op::Run(opts) => {
                assert_eq!(opts.statement, "s");
                assert_eq!(opts.strategy, Some(Strategy::PivotOptimized));
                assert_eq!(opts.format, RunFormat::Csv);
                assert!(!opts.cache);
                assert!(opts.trace);
                assert_eq!(opts.limit, None);
            }
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn parses_batch_options() {
        let req = parse_request(
            r#"{"op":"batch","id":8,"statements":["a","b"],"format":"csv","trace":true}"#,
        )
        .unwrap();
        assert_eq!(req.id, Some(8));
        match req.op {
            Op::Batch(opts) => {
                assert_eq!(opts.statements, vec!["a".to_string(), "b".to_string()]);
                assert_eq!(opts.format, RunFormat::Csv);
                assert!(opts.trace);
                assert_eq!(opts.limit, None);
            }
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_batches() {
        // No id: the id doubles as the cancellation handle.
        let err = parse_request(r#"{"op":"batch","statements":["a"]}"#).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.message.contains("id"));
        // Missing, empty, or non-string statement lists.
        for bad in [
            r#"{"op":"batch","id":1}"#,
            r#"{"op":"batch","id":1,"statements":[]}"#,
            r#"{"op":"batch","id":1,"statements":"a"}"#,
            r#"{"op":"batch","id":1,"statements":[1,2]}"#,
            r#"{"op":"batch","id":1,"statements":["a",""]}"#,
        ] {
            assert_eq!(parse_request(bad).unwrap_err().code, "bad_request", "{bad}");
        }
    }

    #[test]
    fn parses_auth() {
        let with_key = parse_request(r#"{"op":"auth","id":1,"key":"secret"}"#).unwrap();
        match with_key.op {
            Op::Auth { key } => assert_eq!(key.as_deref(), Some("secret")),
            other => panic!("wrong op: {other:?}"),
        }
        let bare = parse_request(r#"{"op":"auth"}"#).unwrap();
        assert!(matches!(bare.op, Op::Auth { key: None }));
        assert_eq!(parse_request(r#"{"op":"auth","key":7}"#).unwrap_err().code, "bad_request");
    }

    #[test]
    fn parses_append_subscribe_unsubscribe() {
        let append =
            parse_request(r#"{"op":"append","id":4,"cube":"SSB","rows":{"ckey":[1,2]}}"#).unwrap();
        match append.op {
            Op::Append { cube, rows } => {
                assert_eq!(cube, "SSB");
                assert!(rows.get("ckey").is_some());
            }
            other => panic!("wrong op: {other:?}"),
        }
        let sub = parse_request(r#"{"op":"subscribe","id":6,"statement":"s"}"#).unwrap();
        assert!(matches!(sub.op, Op::Subscribe { .. }));
        let unsub = parse_request(r#"{"op":"unsubscribe","target":6}"#).unwrap();
        assert!(matches!(unsub.op, Op::Unsubscribe { target: 6 }));
    }

    #[test]
    fn rejects_malformed_ingest_requests() {
        for bad in [
            // No id: both ops need a correlatable response.
            r#"{"op":"append","cube":"SSB","rows":{"c":[1]}}"#,
            r#"{"op":"subscribe","statement":"s"}"#,
            // Missing or malformed payloads.
            r#"{"op":"append","id":1,"rows":{"c":[1]}}"#,
            r#"{"op":"append","id":1,"cube":"SSB"}"#,
            r#"{"op":"append","id":1,"cube":"SSB","rows":{}}"#,
            r#"{"op":"append","id":1,"cube":"SSB","rows":[1,2]}"#,
            r#"{"op":"subscribe","id":1}"#,
            r#"{"op":"unsubscribe"}"#,
        ] {
            assert_eq!(parse_request(bad).unwrap_err().code, "bad_request", "{bad}");
        }
    }

    #[test]
    fn parses_partial_and_rows() {
        let req = parse_request(
            r#"{"op":"partial","id":2,"query":{"cube":"SSB"},"max_rows":500,"deadline_ms":100}"#,
        )
        .unwrap();
        match req.op {
            Op::Partial(opts) => {
                assert_eq!(get_str(&opts.query, "cube"), Some("SSB"));
                assert_eq!(opts.max_rows, Some(500));
                assert_eq!(opts.deadline_ms, Some(100));
            }
            other => panic!("wrong op: {other:?}"),
        }
        // The budget fields are optional (absent = unlimited).
        let bare = parse_request(r#"{"op":"partial","id":3,"query":{"cube":"SSB"}}"#).unwrap();
        match bare.op {
            Op::Partial(opts) => {
                assert_eq!(opts.max_rows, None);
                assert_eq!(opts.deadline_ms, None);
            }
            other => panic!("wrong op: {other:?}"),
        }
        let rows = parse_request(r#"{"op":"rows","table":"lineorder"}"#).unwrap();
        match rows.op {
            Op::Rows { table } => assert_eq!(table, "lineorder"),
            other => panic!("wrong op: {other:?}"),
        }
        // No id / missing or malformed query / missing table.
        for bad in [
            r#"{"op":"partial","query":{"cube":"SSB"}}"#,
            r#"{"op":"partial","id":1}"#,
            r#"{"op":"partial","id":1,"query":[1]}"#,
            r#"{"op":"rows"}"#,
        ] {
            assert_eq!(parse_request(bad).unwrap_err().code, "bad_request", "{bad}");
        }
    }

    #[test]
    fn overload_responses_carry_the_backoff_hint() {
        let refusal = overload_response(Some(4), "overloaded", "tenant quota exhausted", 250);
        let back: Value = serde_json::from_str(to_line(&refusal).trim()).unwrap();
        assert_eq!(get_bool(&back, "ok"), Some(false));
        let error = back.get("error").unwrap();
        assert_eq!(get_str(error, "code"), Some("overloaded"));
        assert_eq!(get_u64(error, "retry_after_ms"), Some(250));
    }

    #[test]
    fn run_requires_an_id() {
        let err = parse_request(r#"{"op":"run","statement":"s"}"#).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.message.contains("id"));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert_eq!(parse_request("not json").unwrap_err().code, "bad_request");
        assert_eq!(parse_request("[1,2]").unwrap_err().code, "bad_request");
        assert_eq!(parse_request(r#"{"id":1}"#).unwrap_err().code, "bad_request");
        assert_eq!(parse_request(r#"{"op":"warp"}"#).unwrap_err().code, "unknown_op");
        assert_eq!(parse_request(r#"{"op":"ping","id":-1}"#).unwrap_err().code, "bad_request");
        assert_eq!(parse_request(r#"{"op":"ping","id":1.5}"#).unwrap_err().code, "bad_request");
        assert_eq!(
            parse_request(r#"{"op":"run","id":1,"statement":"s","strategy":"zzz"}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
        assert_eq!(
            parse_request(r#"{"op":"run","id":1,"statement":"s","format":"xml"}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
    }

    #[test]
    fn responses_round_trip_as_lines() {
        let ok = ok_response(Some(9), vec![("pong", Value::Bool(true))]);
        let line = to_line(&ok);
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1);
        let back: Value = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(get_u64(&back, "id"), Some(9));
        assert_eq!(get_bool(&back, "ok"), Some(true));
        assert_eq!(get_bool(&back, "pong"), Some(true));

        let err = error_response(None, "queue_full", "too many pending runs");
        let back: Value = serde_json::from_str(to_line(&err).trim()).unwrap();
        assert_eq!(get_bool(&back, "ok"), Some(false));
        let error = back.get("error").unwrap();
        assert_eq!(get_str(error, "code"), Some("queue_full"));
    }

    #[test]
    fn a_spliced_line_is_the_line_of_the_whole_object() {
        let head = || vec![("cells", n(2)), ("labels", obj(vec![("low", n(1))]))];
        let body =
            || vec![("rows", Value::Array(vec![s("a\n\"b\"")])), ("truncated", Value::Bool(true))];
        let tail = || vec![("shed", s("light"))];
        let encoded = to_line(&obj(body()));
        for with_tail in [false, true] {
            let tail = if with_tail { tail() } else { Vec::new() };
            let whole = [head(), body(), tail.clone()].concat();
            assert_eq!(
                spliced_line(&ok_response(Some(3), head()), &encoded, &obj(tail)),
                to_line(&ok_response(Some(3), whole))
            );
        }
        assert_eq!(spliced_line(&obj(vec![]), "{}", &obj(vec![])), "{}\n");
    }
}
