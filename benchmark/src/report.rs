//! What a run writes: the one-line result the driver reads from standard
//! output, and the fuller record (provenance, sample counts, landing
//! classes, per-class latencies) kept under `benchmark/out/`.

use std::io::Write;
use std::path::Path;

use serde::Value;

use crate::host::{HostIndex, HostModel};
use crate::json::{self, num, object, text};
use crate::rig::{Rig, SetupTimes};
use crate::spec::Workload;
use crate::stats::{self, Landing};
use crate::sys;
use crate::trace;
use crate::window::Window;

/// Named values in the order they were measured.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// What produced a result: without it a number cannot be compared.
pub fn provenance(
    workload: &Workload,
    rig: &Rig,
    mode: &str,
    seed: u64,
    seconds: f64,
    sf: f64,
    fact_rows: usize,
) -> Value {
    let engine = rig.runner.engine();
    object(vec![
        ("workload", text(workload.name)),
        ("mode", text(mode)),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        ("sf", num(sf)),
        ("fact_rows", num(fact_rows as f64)),
        ("views", Value::Bool(workload.views)),
        ("cores", num(sys::cores() as f64)),
        ("server_workers", num(rig.workers as f64)),
        ("engine_thread_cap", num(engine.parallelism_cap() as f64)),
        ("morsel_rows", num(engine.config().morsel_rows as f64)),
        ("git_commit", text(&sys::git_commit())),
        ("rustc", text(&sys::rustc_version())),
    ])
}

pub fn setup_json(setups: &[SetupTimes]) -> Value {
    let list = |f: fn(&SetupTimes) -> f64| Value::Array(setups.iter().map(|s| num(f(s))).collect());
    object(vec![
        ("generate_s", list(|s| s.generate_s)),
        ("views_s", list(|s| s.views_s)),
        ("boot_s", list(|s| s.boot_s)),
        ("warmup_s", list(|s| s.warmup_s)),
        ("total_s", list(|s| s.total_s)),
    ])
}

fn landing_json(expected: &str, landed: Option<(&'static str, Landing)>) -> Value {
    match landed {
        Some((class, landing)) => object(vec![
            ("expected", text(expected)),
            ("class", text(class)),
            ("margin_points", num(landing.margin_points)),
        ]),
        None => object(vec![("expected", text(expected)), ("class", Value::Null)]),
    }
}

/// Percentile points a percentile must sit inside its class: closer to a
/// class boundary, it would flip between two latency modes from run to run.
pub const MIN_MARGIN_POINTS: f64 = 10.0;

/// Whether both percentiles landed in the class the workload declares, at
/// least [`MIN_MARGIN_POINTS`] inside it.
pub fn landing_ok(workload: &Workload, window: &Window) -> bool {
    let lands = |p: f64, class: &str| {
        window.landing(p).is_some_and(|(c, l)| c == class && l.margin_points >= MIN_MARGIN_POINTS)
    };
    lands(0.50, workload.p50_class) && lands(0.95, workload.p95_class)
}

/// Sample counts, landing classes and per-class latencies of a window.
pub fn window_json(workload: &Workload, window: &Window) -> Value {
    let n = window.samples.len();
    let classes = window
        .per_class()
        .into_iter()
        .map(|(class, count, p50, p95)| {
            object(vec![
                ("class", text(class)),
                ("samples", num(count as f64)),
                ("p50_ms", num(p50)),
                ("p95_ms", num(p95)),
            ])
        })
        .collect();
    object(vec![
        ("samples", num(n as f64)),
        ("supported_percentile", num(stats::supported_percentile(n))),
        ("wall_s", num(window.wall_s)),
        ("cpu_s", num(window.cpu_s)),
        (
            "landing",
            object(vec![
                ("p50", landing_json(workload.p50_class, window.landing(0.50))),
                ("p95", landing_json(workload.p95_class, window.landing(0.95))),
            ]),
        ),
        ("classes", Value::Array(classes)),
        ("failures", Value::Array(window.failures.iter().map(|f| text(f)).collect())),
    ])
}

/// The host probe's model, its median reading over the window and the
/// index the timings were divided by.
pub fn host_json(model: &HostModel, host: &HostIndex) -> Value {
    object(vec![
        ("nominal_ms", num(model.nominal_ms)),
        ("share", num(model.share)),
        ("probe_ms", num(host.probe_ms)),
        ("readings", num(host.readings as f64)),
        ("index", num(host.index)),
    ])
}

/// `{"name": value, …}`.
pub fn values_json(metrics: &Metrics) -> Value {
    Value::Object(metrics.0.iter().map(|(name, value)| (name.to_string(), num(*value))).collect())
}

/// Self time per span name in ms, largest first: where the traced time went.
pub fn layer_budget_json(window: &Window) -> Value {
    Value::Object(
        trace::self_time_by_name(window.tracer.spans())
            .into_iter()
            .map(|(name, ns)| (name.to_string(), num(ns as f64 / 1e6)))
            .collect(),
    )
}

/// `{"name": {"value": v, "unit": u}, …}`.
pub fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (name.to_string(), object(vec![("value", num(*value)), ("unit", text(unit))]))
            })
            .collect(),
    )
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let line = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", metrics),
    ]);
    json::to_string(&line)
}

/// Writes `value` as one line to `path`, replacing the file or appending.
pub fn write_line(path: &Path, value: &Value, append: bool) -> Result<(), String> {
    let describe = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(describe)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)
        .map_err(describe)?;
    let mut line = json::to_string(value);
    line.push('\n');
    file.write_all(line.as_bytes()).map_err(describe)
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::spec::WORKLOADS;
    use crate::window::Sample;

    /// A window of `(class, latency, ops)` groups.
    fn window_of(mix: &[(&'static str, u64, usize)]) -> Window {
        let mut window = Window::new(Instant::now());
        for &(class, latency_ns, ops) in mix {
            let sample = Sample { class, latency_ns, late_ns: 0, traced: false };
            window.samples.extend(std::iter::repeat_n(sample, ops));
        }
        window
    }

    #[test]
    fn landing_is_asserted_on_class_and_margin() {
        let scan_cold = &WORKLOADS[0];
        assert_eq!((scan_cold.p50_class, scan_cold.p95_class), ("rollup_year", "constant"));
        let as_weighted = [("past", 3, 31), ("rollup_year", 10, 46), ("constant", 35, 23)];
        assert!(landing_ok(scan_cold, &window_of(&as_weighted)));
        // p95 still lands in constant, but 7 points from rollup_year.
        let thin_top = [("past", 3, 31), ("rollup_year", 10, 57), ("constant", 35, 12)];
        assert!(!landing_ok(scan_cold, &window_of(&thin_top)));
        // constant got cheaper than rollup_year: both percentiles change class.
        let reordered = [("past", 3, 31), ("rollup_year", 10, 46), ("constant", 8, 23)];
        assert!(!landing_ok(scan_cold, &window_of(&reordered)));
    }
}
