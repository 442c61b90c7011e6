//! The per-layer half of the traced run: after the window, each layer's
//! public entry points are called directly on the workload's own
//! statements and catalog, each call inside a span. These are the only
//! functions besides `run_auto` and `LineClient` the benchmark calls, so
//! they are the surface later changes must keep source-compatible (the
//! list is in README.md).

use std::hint::black_box;
use std::time::Instant;

use assess_core::{cost, plan, stmt};
use assess_serve::{cache_key, protocol};
use olap_storage::Column;
use serde::Value;

use crate::churn;
use crate::json::text;
use crate::report::Metrics;
use crate::rig::{is_ok, Rig};
use crate::rng::Rng;
use crate::stats::median;
use crate::stmts::{append_batch, Statement, Template, APPEND_ROWS};
use crate::trace::Tracer;
use crate::window::ExecSample;

/// Statements of the workload each probe visits.
const SAMPLED_STATEMENTS: usize = 12;
/// Calls per statement of the microsecond-scale functions.
const FAST_REPS: usize = 5;
/// Calls per statement of the millisecond-scale ones.
const SLOW_REPS: usize = 3;
const PINGS: usize = 200;
const INGEST_REPS: usize = 5;
/// Stand-in for the policy fingerprint half of a cache key.
const FINGERPRINT: &str = "d=-;r=-;c=-;fb=1;s=auto";
const KEY_COLUMNS: [&str; 4] = ["ckey", "skey", "pkey", "dkey"];

struct Probe<'a> {
    rig: &'a Rig,
    tracer: &'a mut Tracer,
    /// Span ids continue after the window's op ids.
    next_op: u64,
    /// Samples per metric; each metric reports their median.
    series: Vec<(&'static str, Vec<f64>)>,
}

impl Probe<'_> {
    /// Times `f` inside a root span named `span`; returns its result and
    /// the elapsed microseconds.
    fn timed<T>(
        &mut self,
        span: &'static str,
        class: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let op = self.next_op;
        self.next_op += 1;
        let t = Instant::now();
        let out = self.tracer.within(span, op, class, None, f);
        (out, t.elapsed().as_secs_f64() * 1e6)
    }

    /// Adds one sample of `metric`.
    fn add(&mut self, metric: &'static str, value: f64) {
        match self.series.iter_mut().find(|(name, _)| *name == metric) {
            Some((_, values)) => values.push(value),
            None => self.series.push((metric, vec![value])),
        }
    }

    fn median(&self, metric: &str) -> f64 {
        self.series.iter().find(|(name, _)| *name == metric).map_or(f64::NAN, |(_, v)| median(v))
    }
}

/// Stage times per op, the client-side share, and the scan counts of a set
/// of executions. The stage times are means, not medians: they add up to the
/// mean execution time, and a stage only some shapes have (the forecast of
/// `past`) still shows.
fn exec_metrics(exec: &[ExecSample], m: &mut Metrics) {
    let mean_ms = |f: fn(&ExecSample) -> u64| {
        exec.iter().map(|e| f(e) as f64).sum::<f64>() / exec.len() as f64 / 1e6
    };
    m.set("core.exec.get_ms", mean_ms(|e| e.get_ns));
    m.set("core.exec.transform_ms", mean_ms(|e| e.transform_ns));
    m.set("core.exec.join_ms", mean_ms(|e| e.join_ns));
    m.set("core.exec.compare_ms", mean_ms(|e| e.compare_ns));
    m.set("core.exec.label_ms", mean_ms(|e| e.label_ns));
    let total: u64 = exec.iter().map(ExecSample::total_ns).sum();
    let get: u64 = exec.iter().map(|e| e.get_ns).sum();
    m.set("core.exec.client_share", (total - get) as f64 / total as f64);
    let over =
        |f: fn(&ExecSample) -> usize| median(&exec.iter().map(|e| f(e) as f64).collect::<Vec<_>>());
    m.set("engine.rows_scanned_per_op", over(|e| e.rows_scanned));
    m.set("engine.morsels_per_op", over(|e| e.morsels));
    m.set("engine.dop_max", exec.iter().map(|e| e.dop).max().unwrap_or(0) as f64);
}

/// assess-sql, core and engine: the functions a statement passes through,
/// one at a time. Returns the probe's own executions and each statement's
/// in-process wall time in ms, for the serve probes to subtract.
fn statement_probes(
    p: &mut Probe,
    statements: &[&Statement],
) -> Result<(Vec<ExecSample>, Vec<f64>), String> {
    let rig = p.rig;
    let runner = &rig.runner;
    let engine = runner.engine();
    let serial = engine.clone().with_thread_cap(1);
    let mut exec = Vec::new();
    let mut in_process_ms = Vec::new();
    for statement in statements {
        let class = statement.class;
        let err = |e: &dyn std::fmt::Display| format!("probe of `{}`: {e}", statement.text);
        for _ in 0..FAST_REPS {
            let (parsed, us) = p.timed("sql.parse", class, || assess_sql::parse(&statement.text));
            p.add("sql.parse_us", us);
            let parsed = parsed.map_err(|e| err(&e))?;
            let (_, us) = p.timed("core.check", class, || runner.check(&parsed));
            p.add("core.check_us", us);
            let (resolved, us) = p.timed("core.resolve", class, || runner.resolve(&parsed));
            p.add("core.resolve_us", us);
            let resolved = resolved.map_err(|e| err(&e))?;
            let (chosen, us) = p.timed("core.choose", class, || cost::choose(&resolved, engine));
            p.add("core.choose_us", us);
            let chosen = chosen.map_err(|e| err(&e))?;
            let (planned, us) = p.timed("core.plan", class, || plan::plan(&resolved, chosen));
            p.add("core.plan_us", us);
            planned.map_err(|e| err(&e))?;
        }
        let parsed = assess_sql::parse(&statement.text).map_err(|e| err(&e))?;
        let (ran, us) = p.timed("core.run_auto", class, || runner.run_auto(&parsed));
        let (cube, report) = ran.map_err(|e| err(&e))?;
        in_process_ms.push(us / 1e3);
        exec.push(ExecSample::of(&report));
        let (_, us) = p.timed("core.csv", class, || black_box(cube.to_csv()).len());
        p.add("core.csv_ms", us / 1e3);

        let query = runner.resolve(&parsed).map_err(|e| err(&e))?.target_query;
        for _ in 0..SLOW_REPS {
            let (outcome, us) = p.timed("engine.get", class, || engine.get(&query));
            let outcome = outcome.map_err(|e| err(&e))?;
            p.add("engine.get_ms", us / 1e3);
            p.add("engine.scan_mrows_per_s", outcome.rows_scanned as f64 / us);
            let (outcome, us) = p.timed("engine.get_t1", class, || serial.get(&query));
            outcome.map_err(|e| err(&e))?;
            p.add("engine.get_t1_ms", us / 1e3);
        }
    }
    Ok((exec, in_process_ms))
}

/// One statement of every shape on this catalog, so each class has an
/// execution time on every workload whether or not its mix includes it.
/// Returns the executions.
fn class_probes(p: &mut Probe, seed: u64) -> Result<Vec<ExecSample>, String> {
    const METRICS: [&str; 7] = [
        "core.exec.past.p50_ms",
        "core.exec.nation_sliced.p50_ms",
        "core.exec.external.p50_ms",
        "core.exec.rollup_year.p50_ms",
        "core.exec.sibling.p50_ms",
        "core.exec.constant.p50_ms",
        "core.exec.constant_quartiles.p50_ms",
    ];
    let rig = p.rig;
    let mut rng = Rng::new(seed, "probes.classes");
    let mut exec = Vec::new();
    for (template, metric) in Template::ALL.into_iter().zip(METRICS) {
        let text = template.text(&mut rng);
        let parsed = assess_sql::parse(&text).map_err(|e| format!("{text}: {e}"))?;
        for _ in 0..SLOW_REPS {
            let (ran, _) =
                p.timed("core.run_auto", template.name(), || rig.runner.run_auto(&parsed));
            let (_, report) = ran.map_err(|e| format!("{text}: {e}"))?;
            p.add(metric, report.timings.total().as_secs_f64() * 1e3);
            exec.push(ExecSample::of(&report));
        }
    }
    Ok(exec)
}

/// storage: read cost, write cost and space of the fact table together,
/// because a change that lowers one usually raises another.
fn storage_probes(p: &mut Probe, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let table = p.rig.fact_table();
    let morsel_rows = p.rig.runner.engine().config().morsel_rows;
    let columns: Vec<usize> = KEY_COLUMNS.iter().filter_map(|c| table.column_index(c)).collect();
    if columns.len() != KEY_COLUMNS.len() {
        return Err("lineorder lacks a key column".to_string());
    }
    let mut scratch = Vec::new();
    for _ in 0..SLOW_REPS {
        let (codes, us) = p.timed("storage.decode", "storage", || {
            let mut codes = 0usize;
            for chunk in table.morsels(morsel_rows) {
                for &column in &columns {
                    codes +=
                        black_box(chunk.key_lane(column, &mut scratch)).map_or(0, <[u32]>::len);
                }
            }
            codes
        });
        p.add("storage.decode_ns_per_code", us * 1e3 / codes as f64);
    }

    let mut rng = Rng::new(seed, "probes.append_batch");
    let Value::Object(fields) = append_batch(p.rig.domains(), &mut rng) else {
        return Err("append batch is not an object".to_string());
    };
    let batch: Vec<Column> = fields
        .into_iter()
        .map(|(name, values)| {
            let numbers = values.as_array().map(Vec::as_slice).unwrap_or_default();
            let numbers = numbers.iter().filter_map(Value::as_f64);
            if KEY_COLUMNS.contains(&name.as_str()) {
                Column::i64(name, numbers.map(|x| x as i64).collect())
            } else {
                Column::f64(name, numbers.collect())
            }
        })
        .collect();
    for _ in 0..INGEST_REPS {
        let (grown, us) = p.timed("storage.append_batch", "storage", || table.append_batch(&batch));
        let grown = grown.map_err(|e| format!("append_batch: {e}"))?;
        if grown.n_rows() != table.n_rows() + APPEND_ROWS {
            return Err("append_batch did not add the batch".to_string());
        }
        p.add("storage.append_batch_ms", us / 1e3);
    }

    let key_bytes: usize = table
        .column_stats()
        .iter()
        .filter(|c| KEY_COLUMNS.contains(&c.name.as_str()))
        .map(|c| c.bytes)
        .sum();
    m.set("storage.key_bytes_share", key_bytes as f64 / table.byte_size() as f64);
    Ok(())
}

/// serve, read path: the wire floor, a hit, a miss, and the pure functions
/// of the request path on the frames this workload sends and receives.
fn serve_probes(
    p: &mut Probe,
    statements: &[&Statement],
    in_process_ms: &[f64],
    m: &mut Metrics,
) -> Result<(), String> {
    let mut client = p.rig.connect()?;
    let io = |e: std::io::Error| format!("serve probe: {e}");
    for _ in 0..PINGS {
        let (pong, us) = p.timed("serve.ping", "serve", || client.ping());
        if !is_ok(&pong.map_err(io)?) {
            return Err("ping refused".to_string());
        }
        p.add("serve.ping_rtt_us", us);
    }
    for (statement, in_process) in statements.iter().zip(in_process_ms) {
        let class = statement.class;
        for _ in 0..SLOW_REPS {
            let fields = vec![
                ("op", text("run")),
                ("statement", text(&statement.text)),
                ("cache", Value::Bool(false)),
            ];
            let (response, us) = p.timed("serve.miss", class, || client.request(fields));
            if !is_ok(&response.map_err(io)?) {
                return Err(format!("uncached run of `{}` refused", statement.text));
            }
            p.add("serve.miss_rtt_ms", us / 1e3);
            p.add("serve.miss_overhead_ms", us / 1e3 - in_process);
        }
        client.run(&statement.text).map_err(io)?; // make sure it is cached
        for _ in 0..FAST_REPS {
            let (response, us) = p.timed("serve.hit", class, || client.run(&statement.text));
            let response = response.map_err(io)?;
            if response.get("cached").and_then(Value::as_bool) != Some(true) {
                continue; // evicted under us: not a hit, not a sample
            }
            p.add("serve.hit_rtt_us", us);
            let (line, us) = p.timed("serve.encode", class, || protocol::to_line(&response));
            p.add("serve.encode_us", us);
            p.add("serve.response_bytes", line.len() as f64);
        }
        let request = protocol::to_line(&protocol::obj(vec![
            ("id", Value::Number(1.0)),
            ("op", text("run")),
            ("statement", text(&statement.text)),
        ]));
        for _ in 0..FAST_REPS {
            let (parsed, us) =
                p.timed("serve.parse_request", class, || protocol::parse_request(&request));
            parsed.map_err(|e| format!("parse_request: {e:?}"))?;
            p.add("serve.parse_request_us", us);
            let (key, us) = p.timed("serve.normalize", class, || {
                cache_key(&stmt::normalize(&statement.text), FINGERPRINT)
            });
            black_box(key);
            p.add("serve.normalize_us", us);
        }
    }
    let stats = client.stats().map_err(io)?;
    let refused = stats.get("admission").and_then(|a| a.get("rejected")).and_then(Value::as_f64);
    m.set("serve.admission.refused", refused.ok_or("stats: no admission.rejected")?);
    Ok(())
}

/// serve, write path: appends with a subscriber and without one, so the
/// difference is the re-evaluation. Grows the catalog — runs last.
fn ingest_probes(p: &mut Probe, seed: u64) -> Result<(), String> {
    let mut rng = Rng::new(seed, "probes.ingest");
    let statement = Template::Constant.text(&mut rng);
    let domains = p.rig.domains();
    let mut client = p.rig.connect()?;
    let (sub, mut baseline) = churn::subscribe(&mut client, &statement)?;
    for subscribed in [true, false] {
        for _ in 0..INGEST_REPS {
            let rows = append_batch(domains, &mut rng);
            let sent = Instant::now();
            let (cycle, _) = p.timed("serve.append", "append", || {
                churn::append_cycle(&mut client, &rows, &mut baseline)
            });
            let cycle = cycle?;
            if !is_ok(&cycle.ack) {
                return Err("append refused".to_string());
            }
            let ack_ms = (cycle.ack_at - sent).as_secs_f64() * 1e3;
            if subscribed {
                let diff_at = cycle.diff_at.ok_or("append acked without a diff frame")?;
                p.add("serve.append_ack_ms", ack_ms);
                p.add("serve.diff_lag_ms", (diff_at - sent).as_secs_f64() * 1e3);
                p.add("serve.diff_cells_per_append", cycle.diff_cells as f64);
            } else {
                p.add("serve.append_nosub_ms", ack_ms);
            }
        }
        if subscribed {
            client.unsubscribe(sub).map_err(|e| format!("unsubscribe: {e}"))?;
        }
    }
    Ok(())
}

/// Runs every probe on up to [`SAMPLED_STATEMENTS`] of `statements`.
/// `window_exec` carries the window's own executions when the workload ran
/// in process; the probes' own in-process executions (the sampled served
/// statements and one of each shape) stand in otherwise.
pub fn run(
    rig: &Rig,
    statements: &[Statement],
    window_exec: Option<&[ExecSample]>,
    seed: u64,
    tracer: &mut Tracer,
    first_op: u64,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let mut p = Probe { rig, tracer, next_op: first_op, series: Vec::new() };
    let step = (statements.len() / SAMPLED_STATEMENTS).max(1);
    let sampled: Vec<&Statement> =
        statements.iter().step_by(step).take(SAMPLED_STATEMENTS).collect();

    let (mut probe_exec, in_process_ms) = statement_probes(&mut p, &sampled)?;
    probe_exec.extend(class_probes(&mut p, seed)?);
    exec_metrics(window_exec.unwrap_or(&probe_exec), &mut m);
    storage_probes(&mut p, seed, &mut m)?;
    serve_probes(&mut p, &sampled, &in_process_ms, &mut m)?;
    ingest_probes(&mut p, seed)?;

    m.set("engine.parallel_speedup", p.median("engine.get_t1_ms") / p.median("engine.get_ms"));
    m.set("serve.hit_over_ping_us", p.median("serve.hit_rtt_us") - p.median("serve.ping_rtt_us"));
    for (metric, values) in &p.series {
        m.set(metric, median(values));
    }
    Ok(m)
}
