//! Live re-assessment: subscriptions and cell-level diff frames.
//!
//! A `subscribe` request registers an assess statement with the server and
//! receives the full initial result. Every committed append then re-runs
//! the statement (through the normal admission path) and pushes a **diff
//! frame** — only the cells whose content changed, plus the coordinates of
//! cells that vanished — so a client maintaining a local copy of the cube
//! applies the frame instead of re-reading everything. Frames are tagged
//! `"event": "diff"` and carry no `"id"`, which is how clients tell pushed
//! events from request responses on the shared line protocol.
//!
//! A subscription keeps its previous evaluation as the cube itself.
//! [`AssessedCube::diff`] compares the two cubes column by column — member
//! ids, the numeric columns, label codes through their tables — and only
//! the rows it reports are decoded into wire cells: the changed cells of
//! the new evaluation and the coordinates of the removed ones. A full
//! re-send, which decodes every cell, is left for recovery from a lag.
//!
//! The wire algebra here — frame encoding and [`apply_diff`] — is pure, so
//! its exactness (*baseline + frame = re-evaluation*) is unit-testable and
//! proptestable in isolation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use assess_core::result::AssessedCell;
use assess_core::AssessedCube;
use serde::Value;

use crate::protocol::{n, obj, s};

/// The difference between two evaluations of one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffFrame {
    /// Cells that are new or whose value/benchmark/comparison/label
    /// changed. On a `full` frame this is the entire result.
    pub changed: Vec<AssessedCell>,
    /// Coordinates present before but absent now. Empty on `full` frames.
    pub removed: Vec<Vec<String>>,
    /// Whether the frame is a full re-send (the first frame after a lag)
    /// rather than an incremental diff.
    pub full: bool,
}

/// A full-resend frame carrying the entire evaluation.
pub fn full_frame(next: &[AssessedCell]) -> DiffFrame {
    DiffFrame { changed: next.to_vec(), removed: Vec::new(), full: true }
}

/// Applies a frame to a client-held index: after this, the index equals
/// the evaluation the frame was diffed from. Works on serialized cell
/// [`Value`]s so clients never need to re-parse cells into structs.
pub fn apply_diff(state: &mut BTreeMap<Vec<String>, Value>, frame: &Value) -> Result<(), String> {
    let full = frame.get("full").and_then(Value::as_bool).unwrap_or(false);
    if full {
        state.clear();
    }
    let changed = frame
        .get("changed")
        .and_then(Value::as_array)
        .ok_or_else(|| "frame has no `changed` array".to_string())?;
    for cell in changed {
        let coord = cell
            .get("coordinate")
            .and_then(coordinate_of)
            .ok_or_else(|| "changed cell has no string `coordinate`".to_string())?;
        state.insert(coord, cell.clone());
    }
    if let Some(removed) = frame.get("removed").and_then(Value::as_array) {
        for coord in removed {
            let coord = coordinate_of(coord)
                .ok_or_else(|| "removed entry is not a string array".to_string())?;
            state.remove(&coord);
        }
    }
    Ok(())
}

fn coordinate_of(value: &Value) -> Option<Vec<String>> {
    value.as_array()?.iter().map(|v| v.as_str().map(str::to_string)).collect()
}

/// Serializes a frame as the pushed event object:
/// `{"event":"diff","sub":id,"seq":k,"version":v,"full":bool,
///   "changed":[cells...],"removed":[[coord...]...]}`.
pub fn frame_json(sub: u64, seq: u64, version: u64, frame: &DiffFrame) -> Value {
    let changed: Vec<Value> = frame.changed.iter().map(serde::Serialize::to_value).collect();
    let removed: Vec<Value> = frame
        .removed
        .iter()
        .map(|coord| Value::Array(coord.iter().map(|m| s(m.clone())).collect()))
        .collect();
    obj(vec![
        ("event", s("diff")),
        ("sub", n(sub)),
        ("seq", n(seq)),
        ("version", n(version)),
        ("full", Value::Bool(frame.full)),
        ("changed", Value::Array(changed)),
        ("removed", Value::Array(removed)),
    ])
}

/// The pushed notice that a re-evaluation was refused at admission; the
/// next successful frame will be a full re-send.
pub fn lagged_json(sub: u64, code: &str, retry_after_ms: u64) -> Value {
    obj(vec![
        ("event", s("lagged")),
        ("sub", n(sub)),
        ("code", s(code)),
        ("retry_after_ms", n(retry_after_ms)),
    ])
}

// ----------------------------------------------------------- subscriptions

/// Per-subscription mutable state, behind one lock so re-evaluations for
/// the same subscription serialize.
struct SubState {
    /// The previous evaluation, which the next one is diffed against.
    baseline: AssessedCube,
    seq: u64,
    /// Set when a re-evaluation was skipped (admission refusal): the
    /// baseline is stale, so the next frame must be a full re-send.
    lagged: bool,
}

/// One live subscription. `W` is the push channel — the server uses its
/// shared connection writer, unit tests use `()`.
pub struct Subscription<W> {
    id: u64,
    session: u64,
    tenant: String,
    statement: String,
    writer: W,
    state: Mutex<SubState>,
}

impl<W> Subscription<W> {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn session(&self) -> u64 {
        self.session
    }

    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    pub fn statement(&self) -> &str {
        &self.statement
    }

    pub fn writer(&self) -> &W {
        &self.writer
    }

    /// Folds a re-evaluation into the subscription: computes the frame
    /// against the baseline (a full re-send when a prior refusal left the
    /// baseline stale, or when the group-by changed), makes `next` the
    /// baseline and advances the sequence number. Returns `(seq, frame)`
    /// for the push.
    pub fn advance(&self, next: AssessedCube) -> (u64, DiffFrame) {
        let mut state = self.state.lock().unwrap_or_else(|poison| poison.into_inner());
        let diff = if state.lagged { None } else { state.baseline.diff(&next) };
        let frame = match diff {
            Some(diff) => DiffFrame {
                changed: diff.changed.iter().map(|&row| next.cell(row)).collect(),
                removed: diff
                    .removed
                    .iter()
                    .map(|&row| state.baseline.cell(row).coordinate)
                    .collect(),
                full: false,
            },
            None => full_frame(&next.cells()),
        };
        state.baseline = next;
        state.lagged = false;
        state.seq += 1;
        (state.seq, frame)
    }

    /// Marks a skipped re-evaluation: the next [`advance`](Self::advance)
    /// sends a full frame regardless of the diff.
    pub fn mark_lagged(&self) {
        let mut state = self.state.lock().unwrap_or_else(|poison| poison.into_inner());
        state.lagged = true;
    }
}

/// The registry of live subscriptions: assigns ids, enforces the
/// per-tenant ceiling, and hands out snapshots for notification sweeps.
pub struct SubscriptionManager<W> {
    subs: Mutex<Vec<std::sync::Arc<Subscription<W>>>>,
    next_id: AtomicU64,
    /// Ceiling on live subscriptions per tenant (0 = unlimited).
    per_tenant: usize,
}

impl<W> SubscriptionManager<W> {
    pub fn new(per_tenant: usize) -> Self {
        SubscriptionManager { subs: Mutex::new(Vec::new()), next_id: AtomicU64::new(1), per_tenant }
    }

    fn guard(&self) -> std::sync::MutexGuard<'_, Vec<std::sync::Arc<Subscription<W>>>> {
        self.subs.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Registers a subscription whose baseline is `initial`, returning it
    /// (with its assigned id), or `Err` when the tenant is at its ceiling.
    pub fn register(
        &self,
        session: u64,
        tenant: &str,
        statement: &str,
        initial: AssessedCube,
        writer: W,
    ) -> Result<std::sync::Arc<Subscription<W>>, usize> {
        let mut subs = self.guard();
        if self.per_tenant > 0 {
            let held = subs.iter().filter(|sub| sub.tenant == tenant).count();
            if held >= self.per_tenant {
                return Err(self.per_tenant);
            }
        }
        let sub = std::sync::Arc::new(Subscription {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            session,
            tenant: tenant.to_string(),
            statement: statement.to_string(),
            writer,
            state: Mutex::new(SubState { baseline: initial, seq: 0, lagged: false }),
        });
        subs.push(sub.clone());
        Ok(sub)
    }

    /// Drops a subscription; only its owning session may do so. Returns
    /// whether one was removed.
    pub fn unregister(&self, session: u64, id: u64) -> bool {
        let mut subs = self.guard();
        let before = subs.len();
        subs.retain(|sub| !(sub.id == id && sub.session == session));
        subs.len() < before
    }

    /// Drops every subscription of a closing session.
    pub fn drop_session(&self, session: u64) -> usize {
        let mut subs = self.guard();
        let before = subs.len();
        subs.retain(|sub| sub.session != session);
        before - subs.len()
    }

    /// Live subscriptions, snapshotted for a notification sweep.
    pub fn snapshot(&self) -> Vec<std::sync::Arc<Subscription<W>>> {
        self.guard().clone()
    }

    pub fn active(&self) -> usize {
        self.guard().len()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use olap_model::{
        AggOp, CubeColumn, CubeSchema, DerivedCube, GroupBySet, HierarchyBuilder, LabelColumn,
        MeasureDef, MemberId, NumericColumn,
    };

    use super::*;

    /// One cell: its city, its value (also its comparison; the benchmark
    /// is 1) and its label.
    type Cell<'a> = (&'a str, f64, &'a str);

    const CITIES: [&str; 4] = ["a", "b", "c", "zombie"];

    /// An evaluation by city, its rows in the given order.
    fn cube(cells: &[Cell]) -> AssessedCube {
        let mut city = HierarchyBuilder::new("City", ["city"]);
        for name in CITIES {
            city.add_member_chain(&[name]).unwrap();
        }
        let schema = Arc::new(CubeSchema::new(
            "SALES",
            vec![city.build().unwrap()],
            vec![MeasureDef::new("quantity", AggOp::Sum)],
        ));
        let by_city = GroupBySet::from_level_names(&schema, &["city"]).unwrap();
        let member = |name: &str| MemberId(CITIES.iter().position(|c| *c == name).unwrap() as u32);
        let values: Vec<f64> = cells.iter().map(|c| c.1).collect();
        let mut labels = LabelColumn::new("label");
        for c in cells {
            labels.push(Some(c.2));
        }
        let cube = DerivedCube::from_parts(
            schema,
            by_city,
            vec![cells.iter().map(|c| member(c.0)).collect()],
            vec![
                CubeColumn::Numeric(NumericColumn::dense("quantity", values.clone())),
                CubeColumn::Numeric(NumericColumn::dense(
                    "benchmark.quantity",
                    vec![1.0; cells.len()],
                )),
                CubeColumn::Numeric(NumericColumn::dense("delta", values)),
                CubeColumn::Label(labels),
            ],
        )
        .unwrap();
        AssessedCube::from_parts(cube, "quantity", "benchmark.quantity")
    }

    /// The frame a subscription registered on `before` pushes for `after`.
    fn frame(before: &[Cell], after: &[Cell]) -> DiffFrame {
        let manager: SubscriptionManager<()> = SubscriptionManager::new(0);
        let sub = manager.register(1, "t", "stmt", cube(before), ()).unwrap();
        sub.advance(cube(after)).1
    }

    /// A client's state: serialized cells by coordinate.
    fn state(cells: &[Cell]) -> BTreeMap<Vec<String>, Value> {
        let cells = cube(cells).cells();
        cells.iter().map(|c| (c.coordinate.clone(), serde::Serialize::to_value(c))).collect()
    }

    #[test]
    fn diff_reports_only_changes() {
        let before = [("a", 1.0, "low"), ("b", 2.0, "high")];
        let after = [("a", 1.0, "low"), ("b", 3.0, "high"), ("c", 9.0, "high")];
        let frame = frame(&before, &after);
        assert!(!frame.full);
        let changed: Vec<&str> = frame.changed.iter().map(|c| c.coordinate[0].as_str()).collect();
        assert_eq!(changed, vec!["b", "c"], "unchanged `a` must not travel");
        assert!(frame.removed.is_empty());
    }

    #[test]
    fn diff_reports_removed_coordinates() {
        // Rows out of coordinate order: removed cells leave in row order.
        let before = [("c", 1.0, "low"), ("a", 1.0, "low"), ("b", 2.0, "high")];
        let frame = frame(&before, &[("b", 2.0, "high")]);
        assert!(frame.changed.is_empty());
        assert_eq!(frame.removed, vec![vec!["c".to_string()], vec!["a".to_string()]]);
    }

    #[test]
    fn apply_reproduces_the_next_evaluation() {
        let before = [("a", 1.0, "low"), ("b", 2.0, "high")];
        let after = [("b", 3.0, "par"), ("c", 9.0, "high")];
        // Client side: serialized state, serialized frame.
        let mut client = state(&before);
        apply_diff(&mut client, &frame_json(1, 1, 2, &frame(&before, &after))).unwrap();
        assert_eq!(client, state(&after));
    }

    #[test]
    fn full_frames_replace_the_state_wholesale() {
        let mut client = state(&[("zombie", 0.0, "low")]);
        let after = cube(&[("a", 1.0, "low")]).cells();
        apply_diff(&mut client, &frame_json(1, 1, 2, &full_frame(&after))).unwrap();
        assert_eq!(client.len(), 1);
        assert!(client.contains_key(&vec!["a".to_string()]));
    }

    #[test]
    fn lagged_subscriptions_resend_in_full() {
        let manager: SubscriptionManager<()> = SubscriptionManager::new(0);
        let initial = cube(&[("a", 1.0, "low"), ("b", 2.0, "high")]);
        let sub = manager.register(1, "t", "stmt", initial, ()).unwrap();
        // Normal advance: a one-cell change diffs to one cell.
        let next = [("a", 1.0, "low"), ("b", 5.0, "high")];
        let (seq, frame) = sub.advance(cube(&next));
        assert_eq!(seq, 1);
        assert!(!frame.full);
        assert_eq!(frame.changed.len(), 1);
        // After a lag, even an identical evaluation is a full re-send.
        sub.mark_lagged();
        let (seq, frame) = sub.advance(cube(&next));
        assert_eq!(seq, 2);
        assert!(frame.full);
        assert_eq!(frame.changed.len(), 2);
        // And the lag is consumed: the following advance diffs again.
        let (_, frame) = sub.advance(cube(&next));
        assert!(!frame.full);
        assert!(frame.changed.is_empty());
    }

    #[test]
    fn manager_enforces_the_per_tenant_ceiling() {
        let manager: SubscriptionManager<()> = SubscriptionManager::new(2);
        manager.register(1, "t", "s1", cube(&[]), ()).expect("first fits");
        manager.register(2, "t", "s2", cube(&[]), ()).expect("second fits");
        match manager.register(3, "t", "s3", cube(&[]), ()) {
            Err(ceiling) => assert_eq!(ceiling, 2),
            Ok(_) => panic!("third subscription must hit the ceiling"),
        }
        // A different tenant is unaffected.
        manager.register(3, "u", "s3", cube(&[]), ()).unwrap();
        assert_eq!(manager.active(), 3);
    }

    #[test]
    fn unregister_is_owner_only_and_sessions_drop_their_subs() {
        let manager: SubscriptionManager<()> = SubscriptionManager::new(0);
        let sub = manager.register(7, "t", "s", cube(&[]), ()).unwrap();
        assert!(!manager.unregister(8, sub.id()), "another session must not unsubscribe");
        assert!(manager.unregister(7, sub.id()));
        assert!(!manager.unregister(7, sub.id()), "already gone");
        manager.register(7, "t", "a", cube(&[]), ()).unwrap();
        manager.register(7, "t", "b", cube(&[]), ()).unwrap();
        manager.register(9, "t", "c", cube(&[]), ()).unwrap();
        assert_eq!(manager.drop_session(7), 2);
        assert_eq!(manager.active(), 1);
    }
}
