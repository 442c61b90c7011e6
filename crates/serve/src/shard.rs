//! Scatter-gather over the wire: the serve layer's [`ShardTransport`].
//!
//! A frontend `assess-serve` holds an [`Engine`](olap_engine::Engine) with
//! a [`ShardSet`](olap_engine::ShardSet) whose remote shards are
//! [`RemoteShard`]s — each one a lazy connection to another `assess-serve`
//! process started with `--shard-of` (a *shard node*: a plain server over
//! that shard's catalog slice). The exchange rides the existing
//! newline-delimited JSON protocol:
//!
//! * `partial` — the coordinator sends the planned [`CubeQuery`] (encoded
//!   by [`encode_query`]) plus its remaining budget; the node runs the
//!   scan/aggregate stage and answers with the **pre-finalize** accumulator
//!   state (Avg stays a sum+count pair), so the coordinator's merge is
//!   exact. Packed group keys are `u64` and may exceed 2^53, so they travel
//!   as decimal strings; accumulator values are `f64` and travel as plain
//!   JSON numbers (the writer emits shortest-round-trip decimals, so the
//!   bits survive).
//! * `append` — sharded ingest reuses the ordinary `append` operation.
//! * `rows` — a quick row-count probe for the coordinator's cost model.
//!
//! ## Failure and retry semantics
//!
//! Every call is failure-atomic: an I/O error (killed node, stalled read —
//! the transport installs a read timeout before it ever reads) drops the
//! cached connection and surfaces as
//! [`EngineError::ShardUnavailable`], which aborts the whole fan-out —
//! never a torn cube. The *next* call reconnects from scratch, which is
//! the coordinator's retry path once the node returns. A node's own
//! budget/cancellation errors are reconstructed as the matching
//! [`EngineError`] so the coordinator's fallback ladder treats remote
//! shards exactly like local ones.

use std::sync::Mutex;
use std::time::Duration;

use olap_engine::aggregate::{Accumulator, Partial};
use olap_engine::{EngineError, ResourceKind, ShardBudget, ShardPartial, ShardTransport};
use olap_model::{CubeQuery, GroupBySet, MemberId, Predicate, PredicateOp};
use olap_storage::Column;
use serde::Value;

use crate::client::LineClient;
use crate::protocol::{get_bool, get_str, get_u64, n, obj, s};

/// Default per-call read timeout of a [`RemoteShard`]: long enough for any
/// healthy scan, short enough that a wedged node fails the query instead
/// of hanging the coordinator.
pub const DEFAULT_SHARD_TIMEOUT: Duration = Duration::from_secs(30);

// ------------------------------------------------------------ query codec

/// Encodes a planned cube query for the `partial` operation. Everything is
/// already resolved to indices and member ids, so no names beyond the cube
/// and measure names travel.
pub fn encode_query(q: &CubeQuery) -> Value {
    let group_by: Vec<Value> = q
        .group_by
        .slots()
        .iter()
        .map(|slot| match slot {
            Some(level) => n(*level as u64),
            None => Value::Null,
        })
        .collect();
    let predicates: Vec<Value> = q
        .predicates
        .iter()
        .map(|p| {
            let (eq, members) = match &p.op {
                PredicateOp::Eq(m) => (true, vec![*m]),
                PredicateOp::In(ms) => (false, ms.clone()),
            };
            obj(vec![
                ("hierarchy", n(p.hierarchy as u64)),
                ("level", n(p.level as u64)),
                ("eq", Value::Bool(eq)),
                ("members", Value::Array(members.iter().map(|m| n(u64::from(m.0))).collect())),
            ])
        })
        .collect();
    obj(vec![
        ("cube", s(q.cube.clone())),
        ("group_by", Value::Array(group_by)),
        ("predicates", Value::Array(predicates)),
        ("measures", Value::Array(q.measures.iter().map(|m| s(m.clone())).collect())),
    ])
}

/// Decodes a `partial` request's query object back into a [`CubeQuery`].
/// Validation against the node's schema happens in the engine; this layer
/// only checks shape.
pub fn decode_query(value: &Value) -> Result<CubeQuery, String> {
    let cube =
        get_str(value, "cube").ok_or("query is missing the string field `cube`")?.to_string();
    let slots = match value.get("group_by") {
        Some(Value::Array(items)) => {
            let mut slots = Vec::with_capacity(items.len());
            for item in items {
                slots.push(match item {
                    Value::Null => None,
                    other => Some(
                        other
                            .as_f64()
                            .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                            .ok_or("`group_by` slots must be levels or null")?
                            as usize,
                    ),
                });
            }
            slots
        }
        _ => return Err("query needs a `group_by` array".to_string()),
    };
    let mut predicates = Vec::new();
    if let Some(Value::Array(items)) = value.get("predicates") {
        for item in items {
            let hierarchy =
                get_u64(item, "hierarchy").ok_or("predicate needs integer `hierarchy`")? as usize;
            let level = get_u64(item, "level").ok_or("predicate needs integer `level`")? as usize;
            let members: Vec<MemberId> = match item.get("members") {
                Some(Value::Array(ms)) => ms
                    .iter()
                    .map(|m| {
                        m.as_f64()
                            .filter(|x| *x >= 0.0 && x.fract() == 0.0 && *x <= f64::from(u32::MAX))
                            .map(|x| MemberId(x as u32))
                            .ok_or("predicate members must be non-negative integers")
                    })
                    .collect::<Result<_, _>>()?,
                _ => return Err("predicate needs a `members` array".to_string()),
            };
            let op = if get_bool(item, "eq").unwrap_or(false) {
                match members.as_slice() {
                    [one] => PredicateOp::Eq(*one),
                    _ => return Err("`eq` predicates carry exactly one member".to_string()),
                }
            } else {
                PredicateOp::In(members)
            };
            predicates.push(Predicate { hierarchy, level, op });
        }
    }
    let measures = match value.get("measures") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|m| m.as_str().map(str::to_string).ok_or("measures must be strings"))
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("query needs a `measures` array".to_string()),
    };
    Ok(CubeQuery::new(cube, GroupBySet::from_slots(slots), predicates, measures))
}

// ---------------------------------------------------------- partial codec

fn numbers(values: &[f64]) -> Value {
    Value::Array(values.iter().copied().map(Value::Number).collect())
}

fn acc_json(acc: &Accumulator) -> Value {
    match acc {
        Accumulator::Sum(v) => obj(vec![("op", s("sum")), ("values", numbers(v))]),
        Accumulator::Min(v) => obj(vec![("op", s("min")), ("values", numbers(v))]),
        Accumulator::Max(v) => obj(vec![("op", s("max")), ("values", numbers(v))]),
        Accumulator::Count(v) => obj(vec![("op", s("count")), ("values", numbers(v))]),
        Accumulator::Avg { sums, counts } => {
            obj(vec![("op", s("avg")), ("sums", numbers(sums)), ("counts", numbers(counts))])
        }
    }
}

fn f64_array(value: &Value, key: &str) -> Result<Vec<f64>, String> {
    match value.get(key) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|x| x.as_f64().ok_or_else(|| format!("`{key}` must hold numbers")))
            .collect(),
        _ => Err(format!("accumulator needs a `{key}` array")),
    }
}

fn acc_from_json(value: &Value) -> Result<Accumulator, String> {
    match get_str(value, "op") {
        Some("sum") => Ok(Accumulator::Sum(f64_array(value, "values")?)),
        Some("min") => Ok(Accumulator::Min(f64_array(value, "values")?)),
        Some("max") => Ok(Accumulator::Max(f64_array(value, "values")?)),
        Some("count") => Ok(Accumulator::Count(f64_array(value, "values")?)),
        Some("avg") => Ok(Accumulator::Avg {
            sums: f64_array(value, "sums")?,
            counts: f64_array(value, "counts")?,
        }),
        other => Err(format!("unknown accumulator op {other:?}")),
    }
}

/// Response fields of a successful `partial`, for
/// [`ok_response`](crate::protocol::ok_response). Keys travel as decimal
/// strings — packed `u64` keys can exceed the 2^53 JSON numbers carry.
pub fn partial_fields(partial: &ShardPartial) -> Vec<(&'static str, Value)> {
    let keys: Vec<Value> = partial.partial.keys().iter().map(|k| s(k.to_string())).collect();
    let accs: Vec<Value> = partial.partial.accs().iter().map(acc_json).collect();
    let mut fields = vec![
        ("keys", Value::Array(keys)),
        ("accs", Value::Array(accs)),
        ("rows_scanned", n(partial.rows_scanned as u64)),
        ("parallelism", n(partial.parallelism as u64)),
        ("morsels", n(partial.morsels as u64)),
    ];
    if let Some(view) = &partial.used_view {
        fields.push(("used_view", s(view.clone())));
    }
    fields
}

/// Decodes a `partial` response back into the coordinator's
/// [`ShardPartial`].
pub fn decode_partial(value: &Value) -> Result<ShardPartial, String> {
    let keys: Vec<u64> = match value.get("keys") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|k| {
                k.as_str()
                    .and_then(|text| text.parse::<u64>().ok())
                    .ok_or("`keys` must hold decimal strings")
            })
            .collect::<Result<_, _>>()?,
        _ => return Err("partial response needs a `keys` array".to_string()),
    };
    let accs: Vec<Accumulator> = match value.get("accs") {
        Some(Value::Array(items)) => items.iter().map(acc_from_json).collect::<Result<_, _>>()?,
        _ => return Err("partial response needs an `accs` array".to_string()),
    };
    Ok(ShardPartial {
        partial: Partial::from_parts(keys, accs)?,
        used_view: get_str(value, "used_view").map(str::to_string),
        rows_scanned: get_u64(value, "rows_scanned").unwrap_or(0) as usize,
        parallelism: get_u64(value, "parallelism").unwrap_or(1).max(1) as usize,
        morsels: get_u64(value, "morsels").unwrap_or(0) as usize,
    })
}

// ----------------------------------------------------------- error codec

/// Structured error fields of a shard-side engine failure, attached to the
/// error object so the coordinator can reconstruct the exact
/// [`EngineError`] (budget errors must survive the hop: the coordinator's
/// fallback ladder reacts to them).
pub fn engine_error_fields(e: &EngineError) -> (&'static str, Vec<(&'static str, Value)>) {
    match e {
        EngineError::Cancelled => ("cancelled", Vec::new()),
        EngineError::BudgetExceeded { resource, limit, used } => {
            let kind = match resource {
                ResourceKind::WallClock => "wall_clock",
                ResourceKind::RowsScanned => "rows_scanned",
                ResourceKind::OutputCells => "output_cells",
            };
            (
                "budget_exceeded",
                vec![("resource", s(kind)), ("limit", n(*limit)), ("used", n(*used))],
            )
        }
        EngineError::ShardUnavailable { .. } => ("shard_unavailable", Vec::new()),
        _ => ("execution_error", Vec::new()),
    }
}

/// The full error response a shard node sends for an engine failure: the
/// mapped code plus the structured fields [`decode_engine_error`] needs
/// to reconstruct the exact error on the coordinator.
pub fn engine_error_response(id: Option<u64>, e: &EngineError) -> Value {
    let (code, fields) = engine_error_fields(e);
    crate::protocol::error_response_with(id, code, &e.to_string(), fields)
}

/// Reconstructs the [`EngineError`] a shard node reported. Unknown or
/// unstructured codes collapse into `ShardUnavailable` carrying the code
/// and message, attributed to `shard`.
pub fn decode_engine_error(shard: &str, response: &Value) -> EngineError {
    let error = response.get("error");
    let code = error.and_then(|e| get_str(e, "code")).unwrap_or("unknown");
    match (code, error) {
        ("cancelled", _) => EngineError::Cancelled,
        ("budget_exceeded", Some(e)) => {
            let resource = match get_str(e, "resource") {
                Some("wall_clock") => ResourceKind::WallClock,
                Some("output_cells") => ResourceKind::OutputCells,
                _ => ResourceKind::RowsScanned,
            };
            EngineError::BudgetExceeded {
                resource,
                limit: get_u64(e, "limit").unwrap_or(0),
                used: get_u64(e, "used").unwrap_or(0),
            }
        }
        _ => {
            let message = error.and_then(|e| get_str(e, "message")).unwrap_or("no message");
            EngineError::ShardUnavailable {
                shard: shard.to_string(),
                reason: format!("{code}: {message}"),
            }
        }
    }
}

// -------------------------------------------------------------- transport

/// Serializes an append batch as the `append` operation's `rows` object.
/// Sharded batches are plain `i64`/`f64` columns (the coordinator slices
/// the client's numeric batch before routing), so every value fits a JSON
/// number exactly.
pub fn batch_rows_json(batch: &[Column]) -> Result<Value, EngineError> {
    let mut fields = Vec::with_capacity(batch.len());
    for column in batch {
        let values = if let Some(ints) = column.i64_iter() {
            let mut out = Vec::new();
            for x in ints {
                if x.abs() > 9_000_000_000_000_000 {
                    return Err(EngineError::Unsupported(format!(
                        "column `{}` holds {x}, beyond the wire format's exact integer range",
                        column.name
                    )));
                }
                out.push(Value::Number(x as f64));
            }
            Value::Array(out)
        } else if let Some(floats) = column.as_f64() {
            Value::Array(floats.iter().copied().map(Value::Number).collect())
        } else {
            return Err(EngineError::Unsupported(format!(
                "column `{}` is not numeric; sharded appends carry numbers only",
                column.name
            )));
        };
        fields.push((column.name.clone(), values));
    }
    Ok(Value::Object(fields))
}

/// A remote shard node behind a lazy, self-healing protocol connection.
///
/// The connection is established on first use and dropped on any I/O
/// error; the next call reconnects. A read timeout bounds every exchange,
/// so a node that stalls mid-response (instead of dying cleanly) still
/// yields a structured error.
pub struct RemoteShard {
    addr: String,
    timeout: Duration,
    conn: Mutex<Option<LineClient>>,
}

impl RemoteShard {
    pub fn new(addr: impl Into<String>) -> Self {
        RemoteShard::with_timeout(addr, DEFAULT_SHARD_TIMEOUT)
    }

    pub fn with_timeout(addr: impl Into<String>, timeout: Duration) -> Self {
        RemoteShard { addr: addr.into(), timeout, conn: Mutex::new(None) }
    }

    fn unavailable(&self, reason: impl Into<String>) -> EngineError {
        EngineError::ShardUnavailable { shard: self.addr.clone(), reason: reason.into() }
    }

    /// One request/response exchange. Transport failures drop the cached
    /// connection (reconnect on next call); protocol-level errors keep it.
    fn call(&self, fields: Vec<(&str, Value)>) -> Result<Value, EngineError> {
        let mut guard = self.conn.lock().unwrap_or_else(|poison| poison.into_inner());
        if guard.is_none() {
            let client = LineClient::connect_with_read_timeout(&self.addr, Some(self.timeout))
                .map_err(|e| self.unavailable(format!("connect: {e}")))?;
            *guard = Some(client);
        }
        let client = guard.as_mut().expect("connection ensured above");
        match client.send(fields).and_then(|id| client.wait_for(id)) {
            Ok(response) => {
                if get_bool(&response, "ok") == Some(true) {
                    Ok(response)
                } else {
                    Err(decode_engine_error(&self.addr, &response))
                }
            }
            Err(e) => {
                *guard = None;
                Err(self.unavailable(e.to_string()))
            }
        }
    }
}

impl ShardTransport for RemoteShard {
    fn label(&self) -> String {
        self.addr.clone()
    }

    fn partial(&self, q: &CubeQuery, budget: ShardBudget) -> Result<ShardPartial, EngineError> {
        let mut fields = vec![("op", s("partial")), ("query", encode_query(q))];
        if let Some(rows) = budget.max_rows {
            fields.push(("max_rows", n(rows)));
        }
        if let Some(ms) = budget.deadline_ms {
            fields.push(("deadline_ms", n(ms)));
        }
        let response = self.call(fields)?;
        decode_partial(&response).map_err(|reason| self.unavailable(reason))
    }

    fn append(&self, cube: &str, batch: &[Column]) -> Result<usize, EngineError> {
        let rows = batch_rows_json(batch)?;
        let response = self.call(vec![("op", s("append")), ("cube", s(cube)), ("rows", rows)])?;
        get_u64(&response, "appended")
            .map(|x| x as usize)
            .ok_or_else(|| self.unavailable("append response carries no `appended` count"))
    }

    fn rows(&self, table: &str) -> Result<usize, EngineError> {
        let response = self.call(vec![("op", s("rows")), ("table", s(table))])?;
        get_u64(&response, "rows")
            .map(|x| x as usize)
            .ok_or_else(|| self.unavailable("rows response carries no `rows` count"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ok_response;

    #[test]
    fn queries_round_trip() {
        let q = CubeQuery::new(
            "SSB",
            GroupBySet::from_slots(vec![Some(0), None, Some(2), None]),
            vec![
                Predicate { hierarchy: 1, level: 2, op: PredicateOp::Eq(MemberId(7)) },
                Predicate {
                    hierarchy: 3,
                    level: 0,
                    op: PredicateOp::In(vec![MemberId(1), MemberId(4), MemberId(2)]),
                },
            ],
            vec!["revenue".into(), "quantity".into()],
        );
        let line = serde_json::to_string(&encode_query(&q)).unwrap();
        let back = decode_query(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(back.cube, q.cube);
        assert_eq!(back.group_by.slots(), q.group_by.slots());
        assert_eq!(back.predicates, q.predicates);
        assert_eq!(back.measures, q.measures);
    }

    #[test]
    fn partials_round_trip_exactly() {
        // A key beyond 2^53 and f64 values that need full precision: the
        // codec must not lose a bit of either.
        let accs = vec![
            Accumulator::Sum(vec![0.1 + 0.2, -1.0e300, 42.0]),
            Accumulator::Avg { sums: vec![1.0 / 3.0, 7.5, 0.0], counts: vec![3.0, 2.0, 0.0] },
        ];
        let partial = ShardPartial {
            partial: Partial::from_parts(vec![u64::MAX - 1, 0, 1 << 60], accs).unwrap(),
            used_view: Some("mv_customer_year".into()),
            rows_scanned: 1234,
            parallelism: 4,
            morsels: 9,
        };
        let response = ok_response(Some(1), partial_fields(&partial));
        let line = serde_json::to_string(&response).unwrap();
        let back = decode_partial(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(back.partial.keys(), partial.partial.keys());
        assert_eq!(back.used_view, partial.used_view);
        assert_eq!(back.rows_scanned, 1234);
        assert_eq!(back.parallelism, 4);
        assert_eq!(back.morsels, 9);
        match (&back.partial.accs()[0], &partial.partial.accs()[0]) {
            (Accumulator::Sum(a), Accumulator::Sum(b)) => {
                assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
            other => panic!("wrong accumulator shape: {other:?}"),
        }
        match &back.partial.accs()[1] {
            Accumulator::Avg { sums, counts } => {
                assert_eq!(sums[0].to_bits(), (1.0f64 / 3.0).to_bits());
                assert_eq!(counts, &vec![3.0, 2.0, 0.0]);
            }
            other => panic!("wrong accumulator shape: {other:?}"),
        }
    }

    #[test]
    fn length_mismatches_are_rejected() {
        let sums = obj(vec![("op", s("sum")), ("values", numbers(&[1.0]))]);
        let response = ok_response(
            Some(1),
            vec![("keys", Value::Array(vec![s("1"), s("2")])), ("accs", Value::Array(vec![sums]))],
        );
        assert!(decode_partial(&response).is_err());
    }

    #[test]
    fn budget_errors_survive_the_hop() {
        let e =
            EngineError::BudgetExceeded { resource: ResourceKind::WallClock, limit: 50, used: 61 };
        let response = engine_error_response(Some(1), &e);
        assert_eq!(get_str(response.get("error").unwrap(), "code"), Some("budget_exceeded"));
        assert_eq!(decode_engine_error("n1", &response), e);
        // Cancellation round-trips; anything else becomes ShardUnavailable.
        let cancelled = crate::protocol::error_response(Some(1), "cancelled", "cancelled");
        assert_eq!(decode_engine_error("n1", &cancelled), EngineError::Cancelled);
        let odd = crate::protocol::error_response(Some(1), "weird", "boom");
        match decode_engine_error("n2", &odd) {
            EngineError::ShardUnavailable { shard, reason } => {
                assert_eq!(shard, "n2");
                assert!(reason.contains("weird") && reason.contains("boom"));
            }
            other => panic!("expected ShardUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn batches_serialize_as_append_rows() {
        let batch = vec![
            Column::i64("dkey", vec![3, 5, 7]),
            Column::f64("revenue", vec![10.5, 20.0, 0.25]),
        ];
        let rows = batch_rows_json(&batch).unwrap();
        let dkey = rows.get("dkey").and_then(Value::as_array).unwrap();
        assert_eq!(dkey.len(), 3);
        assert_eq!(dkey[2].as_f64(), Some(7.0));
        let revenue = rows.get("revenue").and_then(Value::as_array).unwrap();
        assert_eq!(revenue[0].as_f64(), Some(10.5));
    }
}
