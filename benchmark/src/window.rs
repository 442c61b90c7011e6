//! What a timed window yields, whichever workload produced it.

use std::time::Instant;

use assess_core::exec::ExecutionReport;
use olap_engine::EngineMetricsSnapshot;

use crate::rig::Rig;
use crate::stats::{self, Landing};
use crate::sys;
use crate::trace::Tracer;

/// One completed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: &'static str,
    /// Closed loop: call to return. Open loop: due time to completion.
    pub latency_ns: u64,
    /// How long after it was due the op was issued. In a closed loop an op
    /// is due when the previous one returns, so this is the generator's own
    /// time between ops.
    pub late_ns: u64,
    /// Whether spans were recorded around this op.
    pub traced: bool,
}

/// The stage timings and scan counts `run_auto` reported for one op.
#[derive(Debug, Clone, Copy)]
pub struct ExecSample {
    pub get_ns: u64,
    pub transform_ns: u64,
    pub join_ns: u64,
    pub compare_ns: u64,
    pub label_ns: u64,
    pub rows_scanned: usize,
    pub morsels: usize,
    pub dop: usize,
}

impl ExecSample {
    pub fn of(report: &ExecutionReport) -> ExecSample {
        let t = &report.timings;
        ExecSample {
            get_ns: (t.get_c + t.get_b + t.get_cb).as_nanos() as u64,
            transform_ns: t.transform.as_nanos() as u64,
            join_ns: t.join.as_nanos() as u64,
            compare_ns: t.comparison.as_nanos() as u64,
            label_ns: t.label.as_nanos() as u64,
            rows_scanned: report.rows_scanned,
            morsels: report.parallelism.total_morsels(),
            dop: report.parallelism.max_parallelism(),
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.get_ns + self.transform_ns + self.join_ns + self.compare_ns + self.label_ns
    }
}

/// What one generator thread of a served workload produced.
pub struct Generated {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// One entry per failed op.
    pub failures: Vec<String>,
    pub tracer: Tracer,
}

impl Generated {
    pub fn new(epoch: Instant) -> Generated {
        Generated {
            samples: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            tracer: Tracer::new(epoch),
        }
    }
}

/// Everything one timed window produced.
pub struct Window {
    pub samples: Vec<Sample>,
    /// Ops issued, and the ones that errored, were refused or gave a wrong
    /// result (a bare client: nothing is retried).
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Process CPU over the window, generator included.
    pub cpu_s: f64,
    /// What the engine's counters, and the result cache's (see
    /// [`Rig::cache_counters`]), moved by between the window's two ends:
    /// references, warm-up and the output checks are outside.
    pub engine: EngineMetricsSnapshot,
    pub cache: [u64; 4],
    /// In-process ops only.
    pub exec: Vec<ExecSample>,
    pub tracer: Tracer,
    /// Host-probe readings taken between rounds, in ms (see [`crate::host`]);
    /// none on the served workloads.
    pub host_ms: Vec<f64>,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
}

impl Window {
    pub fn new(epoch: std::time::Instant) -> Window {
        Window {
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            wall_s: 0.0,
            cpu_s: 0.0,
            engine: EngineMetricsSnapshot::default(),
            cache: [0; 4],
            exec: Vec::new(),
            tracer: Tracer::new(epoch),
            host_ms: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Folds one generator thread's outcome into the window.
    pub fn absorb(&mut self, generated: Generated) {
        self.samples.extend(generated.samples);
        self.attempted += generated.attempted;
        for failure in generated.failures {
            self.fail(failure);
        }
        self.tracer.absorb(generated.tracer);
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Runs `generators` — the whole timed window, and nothing else — and
    /// records its wall time, the process CPU it used and what it added to
    /// the engine's and the cache's counters.
    pub fn metered<T>(&mut self, rig: &Rig, generators: impl FnOnce(&mut Window) -> T) -> T {
        let engine = rig.runner.engine().metrics();
        let (engine0, cache0) = (engine.snapshot(), rig.cache_counters());
        let (start, cpu0) = (Instant::now(), sys::cpu_seconds());
        let out = generators(self);
        self.wall_s = start.elapsed().as_secs_f64();
        self.cpu_s = sys::cpu_seconds() - cpu0;
        self.engine = engine.snapshot().delta(&engine0);
        let cache1 = rig.cache_counters();
        self.cache = std::array::from_fn(|i| cache1[i] - cache0[i]);
        out
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ns as f64 / 1e6).collect()
    }

    /// Where percentile `p` lands among the op classes.
    pub fn landing(&self, p: f64) -> Option<(&'static str, Landing)> {
        let mut classes: Vec<&'static str> = Vec::new();
        let tagged: Vec<(usize, f64)> = self
            .samples
            .iter()
            .map(|s| {
                let id = classes.iter().position(|c| *c == s.class).unwrap_or_else(|| {
                    classes.push(s.class);
                    classes.len() - 1
                });
                (id, s.latency_ns as f64)
            })
            .collect();
        stats::landing(&tagged, p).map(|l| (classes[l.class], l))
    }

    /// `(class, samples, p50 ms, p95 ms)` per op class, in first-seen order.
    pub fn per_class(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut classes: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for s in &self.samples {
            let ms = s.latency_ns as f64 / 1e6;
            match classes.iter_mut().find(|(c, _)| *c == s.class) {
                Some((_, v)) => v.push(ms),
                None => classes.push((s.class, vec![ms])),
            }
        }
        classes
            .into_iter()
            .map(|(c, v)| (c, v.len(), stats::percentile(&v, 0.50), stats::percentile(&v, 0.95)))
            .collect()
    }

    /// How much slower the traced ops were than the untraced ones, as a
    /// share: per op class the two mean latencies, weighted by the class's
    /// op count on both sides so that an uneven split of cheap and costly
    /// ops between traced and untraced blocks does not pass for overhead.
    pub fn trace_overhead_share(&self) -> f64 {
        let mut classes: Vec<(&'static str, [f64; 2], [f64; 2])> = Vec::new();
        for s in &self.samples {
            let side = usize::from(s.traced);
            let entry = match classes.iter_mut().find(|(c, ..)| *c == s.class) {
                Some(entry) => entry,
                None => {
                    classes.push((s.class, [0.0; 2], [0.0; 2]));
                    classes.last_mut().expect("just pushed")
                }
            };
            entry.1[side] += s.latency_ns as f64;
            entry.2[side] += 1.0;
        }
        let (mut untraced, mut traced) = (0.0, 0.0);
        for (_, sum, count) in classes {
            if count[0] > 0.0 && count[1] > 0.0 {
                let weight = count[0] + count[1];
                untraced += weight * sum[0] / count[0];
                traced += weight * sum[1] / count[1];
            }
        }
        traced / untraced - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(class: &'static str, latency_ns: u64, traced: bool) -> Sample {
        Sample { class, latency_ns, late_ns: 0, traced }
    }

    #[test]
    fn trace_overhead_is_adjusted_for_the_class_mix() {
        let mut window = Window::new(Instant::now());
        // Tracing costs 10 % on both classes, but the traced blocks happened
        // to get three of the four slow ops.
        window.samples = vec![
            sample("fast", 100, false),
            sample("fast", 100, false),
            sample("fast", 110, true),
            sample("slow", 10_000, false),
            sample("slow", 11_000, true),
            sample("slow", 11_000, true),
            sample("slow", 11_000, true),
        ];
        assert!((window.trace_overhead_share() - 0.10).abs() < 1e-9);
    }
}
