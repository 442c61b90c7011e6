//! `serve_churn`: writes beside reads. Connection A issues `run`s on a
//! fixed schedule over eight times more statements than the cache holds;
//! connection B holds a subscription and appends fact batches on its own
//! schedule, timing send → diff frame → ack. Both are paced open-loop
//! style: an op's latency runs from when it was *due*, so a stall counts
//! against every op it delays, and how late the generator ran is reported.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use assess_serve::LineClient;
use serde::Value;

use crate::check::{Body, Referee};
use crate::json::{self, text};
use crate::rig::{is_ok, Rig};
use crate::stmts::{ChurnOp, ChurnPlan};
use crate::window::{Generated, Sample, Window};

/// Statements re-run and compared after the writer has stopped.
const SAMPLED_CHECKS: usize = 32;

/// A subscriber's view of its statement: cell JSON by coordinate JSON.
pub type Baseline = BTreeMap<String, String>;

fn insert_cells(baseline: &mut Baseline, cells: &Value) -> usize {
    let cells = cells.as_array().map(Vec::as_slice).unwrap_or_default();
    for cell in cells {
        if let Some(coordinate) = cell.get("coordinate") {
            baseline.insert(json::to_string(coordinate), json::to_string(cell));
        }
    }
    cells.len()
}

/// Patches `baseline` with a pushed diff frame; returns the cells it moved.
pub fn apply_frame(baseline: &mut Baseline, frame: &Value) -> usize {
    if frame.get("full").and_then(Value::as_bool) == Some(true) {
        baseline.clear();
    }
    let changed = frame.get("changed").map_or(0, |cells| insert_cells(baseline, cells));
    let removed = frame.get("removed").and_then(Value::as_array).map_or(0, |coordinates| {
        for coordinate in coordinates {
            baseline.remove(&json::to_string(coordinate));
        }
        coordinates.len()
    });
    changed + removed
}

/// What one `append` cycle observed.
pub struct AppendCycle {
    pub ack: Value,
    /// When the diff frame and the ack arrived; the frame comes first.
    pub diff_at: Option<Instant>,
    pub ack_at: Instant,
    pub diff_cells: usize,
}

/// Sends one `append` and reads until its ack, patching `baseline` with
/// the diff frame the server pushes on the same connection before it.
pub fn append_cycle(
    client: &mut LineClient,
    rows: &Value,
    baseline: &mut Baseline,
) -> Result<AppendCycle, String> {
    let id = client
        .send(vec![("op", text("append")), ("cube", text("SSB")), ("rows", rows.clone())])
        .map_err(|e| format!("append send: {e}"))?;
    let mut diff_at = None;
    let mut diff_cells = 0;
    loop {
        let frame = client.read_response().map_err(|e| format!("append read: {e}"))?;
        match frame.get("event").and_then(Value::as_str) {
            Some("diff") => {
                diff_at = Some(Instant::now());
                diff_cells = apply_frame(baseline, &frame);
            }
            Some(other) => return Err(format!("append: `{other}` event instead of a diff")),
            None if frame.get("id").and_then(Value::as_f64) == Some(id as f64) => {
                return Ok(AppendCycle { ack: frame, diff_at, ack_at: Instant::now(), diff_cells });
            }
            None => {} // an answer to something else on this connection
        }
    }
}

/// Subscribes `client` to `statement`; returns the subscription id and the
/// baseline the server sent.
pub fn subscribe(client: &mut LineClient, statement: &str) -> Result<(u64, Baseline), String> {
    let response = client.subscribe(statement).map_err(|e| format!("subscribe: {e}"))?;
    if !is_ok(&response) {
        return Err(format!("subscribe refused: {}", json::to_string(&response)));
    }
    let sub = response.get("sub").and_then(Value::as_f64).ok_or("subscribe: no sub id")? as u64;
    let mut baseline = Baseline::new();
    insert_cells(&mut baseline, response.get("rows").ok_or("subscribe: no rows")?);
    Ok((sub, baseline))
}

/// A cold, uncached, untruncated `run` of `statement`, indexed like a
/// [`Baseline`].
pub fn cold_rerun(client: &mut LineClient, statement: &str) -> Result<Baseline, String> {
    let response = client
        .request(vec![
            ("op", text("run")),
            ("statement", text(statement)),
            ("cache", Value::Bool(false)),
            ("limit", Value::Number(1e9)),
        ])
        .map_err(|e| format!("cold rerun: {e}"))?;
    if !is_ok(&response) {
        return Err(format!("cold rerun refused: {}", json::to_string(&response)));
    }
    let mut cells = Baseline::new();
    insert_cells(&mut cells, response.get("rows").ok_or("cold rerun: no rows")?);
    Ok(cells)
}

fn due_us(op: &ChurnOp) -> u64 {
    match op {
        ChurnOp::Run { due_us, .. } | ChurnOp::Append { due_us, .. } => *due_us,
    }
}

/// How long before an op is due its generator stops sleeping and spins: a
/// sleep on this host overshoots by 0.1–1 ms, as much as a read takes, and
/// latency runs from the due time.
const SPIN: Duration = Duration::from_millis(2);

/// Waits until `op` is due; returns the due time and the send time.
fn wait_until_due(start: Instant, op: &ChurnOp) -> (Instant, Instant) {
    let due = start + Duration::from_micros(due_us(op));
    if let Some(sleep) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(sleep);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    (due, Instant::now())
}

/// Spans are recorded in every other quarter second of the schedule.
fn traced_at(trace: bool, op: &ChurnOp) -> bool {
    trace && (due_us(op) / 250_000) % 2 == 1
}

fn reader(
    rig: &Rig,
    plan: &ChurnPlan,
    schedule: &[ChurnOp],
    trace: bool,
    epoch: Instant,
    barrier: &Barrier,
) -> Generated {
    let mut out = Generated::new(epoch);
    let connected = rig.connect();
    barrier.wait();
    let start = Instant::now();
    let mut client = match connected {
        Ok(client) => client,
        Err(e) => {
            out.attempted = 1;
            out.failures.push(e);
            return out;
        }
    };
    for op in schedule {
        let ChurnOp::Run { statement, .. } = op else { continue };
        let statement = &plan.statements[*statement];
        let class = statement.class;
        let traced = traced_at(trace, op);
        let op_id = out.attempted * 2;
        out.attempted += 1;
        let (due, sent) = wait_until_due(start, op);
        let sent_ns = out.tracer.now_ns();
        let response = client.run(&statement.text);
        let done = Instant::now();
        if traced {
            let done_ns = out.tracer.now_ns();
            let span = out.tracer.record("op", op_id, class, sent_ns, done_ns, None);
            out.tracer.record("serve.request", op_id, class, sent_ns, done_ns, Some(span));
        }
        match response {
            Ok(response) => {
                out.samples.push(Sample {
                    class,
                    latency_ns: (done - due).as_nanos() as u64,
                    late_ns: (sent - due).as_nanos() as u64,
                    traced,
                });
                if !is_ok(&response) {
                    out.failures.push(format!("{class}: {}", json::to_string(&response)));
                }
            }
            Err(e) => {
                out.failures.push(format!("{class}: {e}"));
                break;
            }
        }
    }
    out
}

/// The writer's connection after the window, for the checks that follow.
struct Writer {
    client: LineClient,
    sub: u64,
    baseline: Baseline,
}

fn writer(
    rig: &Rig,
    plan: &ChurnPlan,
    schedule: &[ChurnOp],
    trace: bool,
    epoch: Instant,
    barrier: &Barrier,
) -> (Generated, Option<Writer>) {
    let mut out = Generated::new(epoch);
    let class = plan.subscribed.class;
    let connected = rig.connect().and_then(|mut client| {
        subscribe(&mut client, &plan.subscribed.text).map(|(sub, baseline)| Writer {
            client,
            sub,
            baseline,
        })
    });
    barrier.wait();
    let start = Instant::now();
    let mut writer = match connected {
        Ok(writer) => writer,
        Err(e) => {
            out.attempted = 1;
            out.failures.push(e);
            return (out, None);
        }
    };
    for op in schedule {
        let ChurnOp::Append { rows, .. } = op else { continue };
        let traced = traced_at(trace, op);
        let op_id = out.attempted * 2 + 1;
        out.attempted += 1;
        let (due, sent) = wait_until_due(start, op);
        let sent_ns = out.tracer.now_ns();
        match append_cycle(&mut writer.client, rows, &mut writer.baseline) {
            Ok(cycle) => {
                if traced {
                    let ack_ns = out.tracer.now_ns();
                    let diff_ns = cycle
                        .diff_at
                        .map_or(ack_ns, |at| ack_ns - (cycle.ack_at - at).as_nanos() as u64);
                    let span = out.tracer.record("op", op_id, class, sent_ns, ack_ns, None);
                    out.tracer.record(
                        "serve.diff_wait",
                        op_id,
                        class,
                        sent_ns,
                        diff_ns,
                        Some(span),
                    );
                    out.tracer.record("serve.ack_wait", op_id, class, diff_ns, ack_ns, Some(span));
                }
                out.samples.push(Sample {
                    class,
                    latency_ns: (cycle.ack_at - due).as_nanos() as u64,
                    late_ns: (sent - due).as_nanos() as u64,
                    traced,
                });
                if !is_ok(&cycle.ack) {
                    out.failures.push(format!("append: {}", json::to_string(&cycle.ack)));
                } else if cycle.diff_at.is_none() {
                    out.failures.push("append: acked without a diff frame".to_string());
                }
            }
            Err(e) => {
                out.failures.push(e);
                return (out, None);
            }
        }
    }
    (out, Some(writer))
}

/// With the writer stopped: the diff-patched baseline must equal a cold
/// rerun, and sampled statements must be served as the in-process runner
/// computes them on the grown catalog. Each mismatch is one failed op.
fn check_after(rig: &Rig, plan: &ChurnPlan, writer: Option<Writer>, window: &mut Window) {
    let Some(mut writer) = writer else {
        return; // the failure that lost the writer is already counted
    };
    window.attempted += 1;
    match cold_rerun(&mut writer.client, &plan.subscribed.text) {
        Ok(cells) if cells == writer.baseline => {}
        Ok(cells) => window.fail(format!(
            "subscriber's patched baseline ({} cells) differs from a cold rerun ({} cells)",
            writer.baseline.len(),
            cells.len()
        )),
        Err(e) => window.fail(e),
    }
    if let Err(e) = writer.client.unsubscribe(writer.sub) {
        window.fail(format!("unsubscribe: {e}"));
    }
    let referee = Referee::new(rig);
    let step = (plan.statements.len() / SAMPLED_CHECKS).max(1);
    for statement in plan.statements.iter().step_by(step).take(SAMPLED_CHECKS) {
        window.attempted += 1;
        let served = writer.client.run(&statement.text).map_err(|e| e.to_string());
        match (served, referee.body(&statement.text)) {
            (Ok(response), Ok(expected)) => {
                if Body::from_response(&response) != Some(expected) {
                    window.fail(format!(
                        "after appends, `{}` is served differently from the in-process result",
                        statement.text
                    ));
                }
            }
            (Err(e), _) | (_, Err(e)) => window.fail(e),
        }
    }
}

/// Plays both schedules for `seconds`, then runs the post-append checks.
pub fn run(rig: &Rig, plan: &ChurnPlan, seconds: f64, trace: bool, epoch: Instant) -> Window {
    let runs = plan.runs(seconds);
    let appends = plan.appends(seconds, rig.domains());
    let barrier = Barrier::new(3);
    let mut window = Window::new(epoch);
    let writer_after = std::thread::scope(|scope| {
        let (runs, appends, barrier) = (&runs, &appends, &barrier);
        let a = scope.spawn(move || reader(rig, plan, runs, trace, epoch, barrier));
        let b = scope.spawn(move || writer(rig, plan, appends, trace, epoch, barrier));
        barrier.wait();
        let (read, (wrote, writer_after)) = window.metered(rig, |_| {
            let read = a.join().expect("reader thread panicked");
            (read, b.join().expect("writer thread panicked"))
        });
        window.absorb(read);
        window.absorb(wrote);
        writer_after
    });
    check_after(rig, plan, writer_after, &mut window);
    window
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(coordinate: &[&str], value: f64) -> Value {
        Value::Object(vec![
            ("coordinate".to_string(), Value::Array(coordinate.iter().map(|c| text(c)).collect())),
            ("value".to_string(), Value::Number(value)),
        ])
    }

    #[test]
    fn frames_patch_the_baseline() {
        let mut baseline = Baseline::new();
        insert_cells(
            &mut baseline,
            &Value::Array(vec![cell(&["a", "1"], 1.0), cell(&["b", "1"], 2.0)]),
        );
        let frame = Value::Object(vec![
            ("full".to_string(), Value::Bool(false)),
            (
                "changed".to_string(),
                Value::Array(vec![cell(&["b", "1"], 5.0), cell(&["c", "1"], 3.0)]),
            ),
            ("removed".to_string(), Value::Array(vec![Value::Array(vec![text("a"), text("1")])])),
        ]);
        assert_eq!(apply_frame(&mut baseline, &frame), 3);
        let mut expected = Baseline::new();
        insert_cells(
            &mut expected,
            &Value::Array(vec![cell(&["b", "1"], 5.0), cell(&["c", "1"], 3.0)]),
        );
        assert_eq!(baseline, expected);

        // A full frame replaces everything.
        let full = Value::Object(vec![
            ("full".to_string(), Value::Bool(true)),
            ("changed".to_string(), Value::Array(vec![cell(&["z", "9"], 9.0)])),
            ("removed".to_string(), Value::Array(vec![])),
        ]);
        apply_frame(&mut baseline, &full);
        assert_eq!(baseline.len(), 1);
    }
}
