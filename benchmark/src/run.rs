//! One run of one workload: set-up, the timed window, the output checks,
//! and — traced — the per-layer probes.

use std::path::PathBuf;
use std::time::Instant;

use serde::Value;

use crate::check::{Referee, Reference};
use crate::host::HostIndex;
use crate::json::{num, object, text};
use crate::probes;
use crate::report::{self, Metrics};
use crate::rig::Rig;
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::stmts::{Plan, RoundPlan};
use crate::window::Window;
use crate::{churn, hot, inproc, sys, trace};

/// Set-ups made when set-up time is a reported metric: the one the window
/// runs on and four more after it. `setup_s` reports their median.
const SETUP_REPEATS: usize = 5;

pub struct Options {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// `--smoke`'s scale factor, in place of the workload's; not settable
    /// from the command line, so recorded runs of a workload share one scale.
    pub sf: Option<f64>,
    /// Where the trace and the result record go.
    pub out_dir: PathBuf,
    /// A JSON-lines file the result record is also appended to, for
    /// `benchmark compare`.
    pub record: Option<PathBuf>,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` of every metric of the run's mode.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Whether p50 and p95 landed in the classes the workload declares;
    /// `None` at an overridden scale, where the mix was not weighted for it.
    pub landing_ok: Option<bool>,
}

/// Re-runs every distinct statement of an in-process workload and holds
/// its full CSV against the reference; each mismatch is one failed op.
fn verify_rounds(rig: &Rig, plan: &RoundPlan, references: &[Reference], window: &mut Window) {
    for (statement, reference) in plan.statements.iter().zip(references) {
        window.attempted += 1;
        let result = assess_sql::parse(&statement.text)
            .map_err(|e| e.to_string())
            .and_then(|p| rig.runner.run_auto(&p).map_err(|e| e.to_string()));
        match result {
            Ok((cube, _)) if Reference::of(&cube) == *reference => {}
            Ok(_) => window.fail(format!(
                "`{}`: CSV differs from the one-thread naive-plan reference",
                statement.text
            )),
            Err(e) => window.fail(format!("`{}`: {e}", statement.text)),
        }
    }
}

/// The timed window of `plan`, with its output checks.
fn play(rig: &Rig, plan: &Plan, options: &Options, epoch: Instant) -> Result<Window, String> {
    let referee = Referee::new(rig);
    let (seconds, trace) = (options.seconds, options.trace);
    match plan {
        Plan::Rounds(rounds) => {
            let references = rounds
                .statements
                .iter()
                .map(|s| referee.reference(&s.text))
                .collect::<Result<Vec<_>, _>>()?;
            let mut window = inproc::run(rig, rounds, &references, seconds, trace, epoch);
            verify_rounds(rig, rounds, &references, &mut window);
            Ok(window)
        }
        Plan::Hot(hot_plan) => {
            let expected = hot_plan
                .statements
                .iter()
                .map(|s| referee.body(&s.text))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(hot::run(rig, hot_plan, &expected, seconds, trace, epoch))
        }
        Plan::Churn(churn_plan) => Ok(churn::run(rig, churn_plan, seconds, trace, epoch)),
    }
}

/// The window's timings as the clock gave them.
fn timings(window: &Window) -> Metrics {
    let latencies = window.latencies_ms();
    let ops = latencies.len() as f64;
    let mut m = Metrics::default();
    m.set("op_p50_ms", percentile(&latencies, 0.50));
    m.set("op_p95_ms", percentile(&latencies, 0.95));
    m.set("ops_per_s", ops / window.wall_s);
    m.set("cpu_ms_per_op", window.cpu_s * 1e3 / ops);
    m
}

/// The end-to-end metrics: `measured` at the host probe's nominal pace (see
/// [`crate::host`]), and what no clock measures as it is.
fn end_to_end(
    window: &Window,
    measured: &Metrics,
    host: &HostIndex,
    setups: &[f64],
    fact_bytes_per_row: f64,
    peak_rss_mb: f64,
) -> Metrics {
    let mut m = Metrics::default();
    for &(name, value) in &measured.0 {
        m.set(name, if name == "ops_per_s" { value * host.index } else { value / host.index });
    }
    m.set("ok_share", 1.0 - window.failed as f64 / window.attempted as f64);
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("fact_bytes_per_row", fact_bytes_per_row);
    m.set("setup_s", median(setups));
    m
}

/// The per-layer metrics that come from the window itself: what it added
/// to the engine's and the cache's counters, per timed op — a raw count
/// over a time-boxed window would grow with throughput and read a faster
/// engine as a worse one —, the generator's lateness, and the tracing
/// overhead.
fn window_layer_metrics(rig: &Rig, window: &Window, landing_ok: bool, m: &mut Metrics) {
    m.set("ssb.generate_s", rig.times.generate_s);
    m.set("ssb.views_s", rig.times.views_s);
    let per_op = |count: u64| count as f64 / window.samples.len() as f64;
    m.set("engine.fact_scans", per_op(window.engine.fact_scans));
    m.set("engine.view_scans", per_op(window.engine.view_scans));
    m.set("engine.index_scans", per_op(window.engine.index_scans));
    m.set("engine.wide_scans", per_op(window.engine.wide_scans));
    m.set("engine.mview_delta_merges", per_op(window.engine.mview_delta_merges));
    m.set("engine.mview_rebuilds", per_op(window.engine.mview_rebuilds));
    let [hits, misses, evictions, patches] = window.cache;
    let lookups = hits + misses;
    m.set("serve.cache.hit_share", if lookups > 0 { hits as f64 / lookups as f64 } else { 0.0 });
    m.set("serve.cache.evictions", per_op(evictions));
    m.set("serve.cache.patched", per_op(patches));
    let late_ms: Vec<f64> = window.samples.iter().map(|s| s.late_ns as f64 / 1e6).collect();
    m.set("serve.gen_late_p95_ms", percentile(&late_ms, 0.95));
    m.set("bench.trace_overhead_share", window.trace_overhead_share());
    m.set("bench.span_coverage_share", median(&trace::coverage_shares(window.tracer.spans())));
    m.set("bench.samples", window.samples.len() as f64);
    m.set("bench.class_landing_ok", f64::from(u8::from(landing_ok)));
}

/// Orders `measured` as `names` lists them; a metric the run did not
/// produce is an error, so the driver never sees a partial set.
fn in_declared_order(
    names: impl Iterator<Item = (&'static str, &'static str)>,
    measured: &Metrics,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    names
        .map(|(name, unit)| match measured.get(name) {
            Some(value) if value.is_finite() => Ok((name, value, unit)),
            Some(value) => Err(format!("metric {name} is {value}")),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

pub fn run(workload: &'static Workload, options: &Options) -> Result<Outcome, String> {
    let plan = (workload.plan)(options.seed);
    let sf = options.sf.unwrap_or(workload.sf);

    let rig = Rig::build(workload, sf, options.seed, &plan)?;
    let mut setups = vec![rig.times];
    let fact_rows = rig.fact_rows();
    let mode = if options.trace { "traced" } else { "e2e" };
    let provenance =
        report::provenance(workload, &rig, mode, options.seed, options.seconds, sf, fact_rows);

    let mut window = play(&rig, &plan, options, Instant::now())?;
    if window.samples.is_empty() {
        return Err(format!("no op completed: {:?}", window.failures));
    }
    let landed = report::landing_ok(workload, &window);
    // Asserted at the scale the mix was weighted for, reported at any.
    let landing_ok = options.sf.is_none().then_some(landed);

    let mut record =
        vec![("provenance", provenance), ("window", report::window_json(workload, &window))];
    let metrics = if options.trace {
        let mut m = Metrics::default();
        window_layer_metrics(&rig, &window, landed, &mut m);
        let window_exec = matches!(plan, Plan::Rounds(_)).then_some(window.exec.as_slice());
        let probed = probes::run(
            &rig,
            plan.statements(),
            window_exec,
            options.seed,
            &mut window.tracer,
            window.attempted * 2,
        )?;
        m.0.extend(probed.0);
        record.push(("layer_self_time_ms", report::layer_budget_json(&window)));
        let spans = object(vec![
            ("workload", text(workload.name)),
            ("seed", num(options.seed as f64)),
            ("spans", trace::spans_json(window.tracer.spans())),
        ]);
        let path = options.out_dir.join(format!("{}.trace.json", workload.name));
        report::write_line(&path, &spans, false)?;
        in_declared_order(PER_LAYER.iter().map(|p| (p.name, p.unit)), &m)?
    } else {
        let (fact_bytes_per_row, peak_rss_mb) = (rig.fact_bytes_per_row(), sys::peak_rss_mb());
        // The repeats that make `setup_s` a median come after the memory
        // reading, so that `peak_rss_mb` is the peak of one set-up and the
        // workload, as a user's process would see it; read after them it
        // also held what five set-ups leave behind in the allocator, which
        // differed by a quarter between runs of one commit.
        drop(rig);
        for _ in 1..SETUP_REPEATS {
            setups.push(Rig::build(workload, sf, options.seed, &plan)?.times);
        }
        let totals: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
        let (measured, host) = (timings(&window), workload.host.index(&window.host_ms));
        let m = end_to_end(&window, &measured, &host, &totals, fact_bytes_per_row, peak_rss_mb);
        record.push(("host", report::host_json(&workload.host, &host)));
        record.push(("as_measured", report::values_json(&measured)));
        let counts = Value::Object(
            END_TO_END
                .iter()
                .map(|e| {
                    let n = match e.name {
                        "setup_s" => setups.len(),
                        "op_p50_ms" | "op_p95_ms" | "ops_per_s" | "cpu_ms_per_op" => {
                            window.samples.len()
                        }
                        "ok_share" => window.attempted as usize,
                        _ => 1,
                    };
                    (e.name.to_string(), num(n as f64))
                })
                .collect(),
        );
        record.push(("sample_counts", counts));
        in_declared_order(END_TO_END.iter().map(|e| (e.name, e.unit)), &m)?
    };

    // A percentile outside its declared class is a different latency mode:
    // its value no longer compares with any earlier run's, so the run fails.
    let correct = window.failed == 0 && landing_ok != Some(false);
    record.extend([
        ("setup", report::setup_json(&setups)),
        ("correct", Value::Bool(correct)),
        ("attempted", num(window.attempted as f64)),
        ("failed", num(window.failed as f64)),
        ("metrics", report::metrics_json(&metrics)),
    ]);
    let record = object(record);
    let path = options.out_dir.join(format!("{}.{mode}.json", workload.name));
    report::write_line(&path, &record, false)?;
    if let Some(path) = &options.record {
        report::write_line(path, &record, true)?;
    }
    for failure in &window.failures {
        eprintln!("[{}] failed: {failure}", workload.name);
    }
    if landing_ok == Some(false) {
        let landed = |p| match window.landing(p) {
            Some((class, l)) => format!("{class} ({:.1} points inside)", l.margin_points),
            None => "no class".to_string(),
        };
        eprintln!(
            "[{}] failed: p50/p95 landed in {} / {}; declared are {} / {}, each at least {} points inside",
            workload.name,
            landed(0.50),
            landed(0.95),
            workload.p50_class,
            workload.p95_class,
            report::MIN_MARGIN_POINTS
        );
    }
    Ok(Outcome { correct, attempted: window.attempted, failed: window.failed, metrics, landing_ok })
}
