//! The in-process workloads (`scan_cold`, `assess_views`): one caller,
//! rounds of a fixed op mix. An op is a statement as a user types it —
//! `assess_sql::parse` of the text, then `AssessRunner::run_auto`.

use std::time::{Duration, Instant};

use crate::check::Reference;
use crate::host::HostReadings;
use crate::rig::Rig;
use crate::stmts::RoundPlan;
use crate::trace::Tracer;
use crate::window::{ExecSample, Sample, Window};

/// Stage spans of one execution, laid end to end so that they finish when
/// `run_auto` returns: resolving, choosing and planning come first and stay
/// the run span's self time.
fn record_stages(
    tracer: &mut Tracer,
    op: u64,
    class: &'static str,
    run_span: usize,
    exec: &ExecSample,
) {
    let stages = [
        ("engine.get", exec.get_ns),
        ("core.exec.transform", exec.transform_ns),
        ("core.exec.join", exec.join_ns),
        ("core.exec.compare", exec.compare_ns),
        ("core.exec.label", exec.label_ns),
    ];
    let run = &tracer.spans()[run_span];
    let mut at = run.end_ns.saturating_sub(exec.total_ns()).max(run.start_ns);
    for (name, ns) in stages {
        if ns > 0 {
            tracer.record(name, op, class, at, at + ns, Some(run_span));
            at += ns;
        }
    }
}

/// Plays whole rounds until `seconds` have passed, reading the host probe
/// between rounds. With `trace`, every other round records spans, so
/// traced and untraced ops see the same drift and their mean latencies give
/// the tracing overhead.
pub fn run(
    rig: &Rig,
    plan: &RoundPlan,
    references: &[Reference],
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> Window {
    let mut window = Window::new(epoch);
    let mut host = HostReadings::new();
    window.metered(rig, |window| play(rig, plan, references, seconds, trace, &mut host, window));
    window.host_ms = host.ms;
    window
}

fn play(
    rig: &Rig,
    plan: &RoundPlan,
    references: &[Reference],
    seconds: f64,
    trace: bool,
    host: &mut HostReadings,
    window: &mut Window,
) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut previous_end = start;
    let mut round = 0;
    while Instant::now() < deadline {
        if host.due() {
            host.read();
            previous_end = Instant::now();
        }
        // Alternate by whole cycles of the variants, so traced and untraced
        // ops are the same statements.
        let traced = trace && (round / plan.variants()) % 2 == 1;
        for index in plan.round_range(round) {
            let statement = &plan.statements[index];
            let class = statement.class;
            let op = window.attempted;
            window.attempted += 1;

            let begin = Instant::now();
            let outcome = if traced {
                let tracer = &mut window.tracer;
                let op_span = tracer.begin("op", op, class, None);
                let parsed = tracer.within("sql.parse", op, class, Some(op_span), || {
                    assess_sql::parse(&statement.text)
                });
                let run_span = tracer.begin("core.run_auto", op, class, Some(op_span));
                let result = parsed
                    .map_err(|e| e.to_string())
                    .and_then(|p| rig.runner.run_auto(&p).map_err(|e| e.to_string()));
                tracer.end(run_span);
                tracer.end(op_span);
                result.map(|r| (r, Some(run_span)))
            } else {
                assess_sql::parse(&statement.text)
                    .map_err(|e| e.to_string())
                    .and_then(|p| rig.runner.run_auto(&p).map_err(|e| e.to_string()))
                    .map(|r| (r, None))
            };
            let end = Instant::now();

            match outcome {
                Ok(((cube, report), run_span)) => {
                    let exec = ExecSample::of(&report);
                    if let Some(run_span) = run_span {
                        record_stages(&mut window.tracer, op, class, run_span, &exec);
                    }
                    window.exec.push(exec);
                    window.samples.push(Sample {
                        class,
                        latency_ns: (end - begin).as_nanos() as u64,
                        late_ns: (begin - previous_end).as_nanos() as u64,
                        traced,
                    });
                    // The full CSV comparison runs before and after the
                    // window; here the cell count must match.
                    if cube.len() != references[index].cells {
                        window.fail(format!(
                            "{class}: {} cells, reference has {}",
                            cube.len(),
                            references[index].cells
                        ));
                    }
                }
                Err(e) => window.fail(format!("{class}: {e}")),
            }
            previous_end = Instant::now();
        }
        round += 1;
    }
}
