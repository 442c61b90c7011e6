//! `benchmark compare A B`: holds two sets of recorded end-to-end runs
//! against each other, one row per workload and metric.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use serde::Value;

use crate::json;
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{quartiles, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A's own runs spread wider than the bound: no call can be made.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's runs of one metric against A's. B is *worse* when its median
/// is worse than A's by more than the metric's bound, *better* when it is
/// better by more than the spread of A's own runs, and the comparison is
/// *unresolved* when that spread exceeds the bound.
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (base, other) = (quartiles(a)[1], quartiles(b)[1]);
    let noise = spread(a).abs();
    if noise > metric.bound {
        return Verdict::Unresolved;
    }
    // Positive when B is worse, as a share of A's median.
    let worse_by = match metric.better {
        Better::Lower => (other - base) / base,
        Better::Higher => (base - other) / base,
    };
    if worse_by > metric.bound {
        Verdict::Worse
    } else if -worse_by > noise {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The provenance fields two runs must share for their values to compare.
/// The commit is what differs between the two sides; the seed is held
/// against the other side's, run by run.
const SETTINGS: [&str; 7] =
    ["sf", "seconds", "cores", "server_workers", "engine_thread_cap", "morsel_rows", "rustc"];

/// One side's end-to-end runs of one workload.
#[derive(Debug, Default)]
struct Runs {
    seeds: Vec<u64>,
    /// The distinct [`SETTINGS`] the runs were taken under, as JSON.
    settings: BTreeSet<String>,
    /// metric → one value per run.
    values: BTreeMap<String, Vec<f64>>,
}

/// workload → runs, from the `e2e` records of JSON-lines `content`.
fn parse(content: &str, origin: &str) -> Result<BTreeMap<String, Runs>, String> {
    let mut sides: BTreeMap<String, Runs> = BTreeMap::new();
    for (number, line) in content.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = || format!("{origin}:{}", number + 1);
        let record: Value = serde_json::from_str(line).map_err(|e| format!("{}: {e}", at()))?;
        let provenance =
            record.get("provenance").ok_or_else(|| format!("{}: no provenance", at()))?;
        let field = |key| provenance.get(key).and_then(Value::as_str);
        let (Some(workload), Some("e2e")) = (field("workload"), field("mode")) else {
            continue; // traced records carry no end-to-end metrics
        };
        let Some(Value::Object(metrics)) = record.get("metrics") else { continue };
        let runs = sides.entry(workload.to_string()).or_default();
        let seed = provenance.get("seed").and_then(Value::as_f64);
        runs.seeds.push(seed.ok_or_else(|| format!("{}: no seed", at()))? as u64);
        let settings =
            SETTINGS.map(|key| (key, provenance.get(key).cloned().unwrap_or(Value::Null)));
        runs.settings.insert(json::to_string(&json::object(settings.to_vec())));
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Value::as_f64) {
                runs.values.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(sides)
}

fn load(path: &Path) -> Result<BTreeMap<String, Runs>, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&content, &path.display().to_string())
}

/// Refuses two sides that were not measured alike: every run of both under
/// one scale, window, machine shape and compiler, and on the same seeds.
fn comparable(workload: &str, a: &Runs, b: &Runs) -> Result<(), String> {
    let settings: BTreeSet<&String> = a.settings.union(&b.settings).collect();
    if settings.len() > 1 {
        let list: Vec<&str> = settings.iter().map(|s| s.as_str()).collect();
        return Err(format!(
            "{workload}: runs taken under different settings do not compare:\n  {}",
            list.join("\n  ")
        ));
    }
    let sorted = |seeds: &[u64]| {
        let mut seeds = seeds.to_vec();
        seeds.sort_unstable();
        seeds
    };
    let (seeds_a, seeds_b) = (sorted(&a.seeds), sorted(&b.seeds));
    if seeds_a != seeds_b {
        return Err(format!(
            "{workload}: A ran seeds {seeds_a:?}, B ran {seeds_b:?}; both sides must run the same"
        ));
    }
    Ok(())
}

/// Prints the comparison; `Ok(true)` when some metric got worse.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (sides_a, sides_b) = (load(a)?, load(b)?);
    let mut any_worse = false;
    println!(
        "{:<13} {:<19} {:>11} {:>24} {:>11} {:>24} {:>15}  verdict",
        "workload", "metric", "A median", "A q1..q3 (runs)", "B median", "B q1..q3 (runs)", "B/A"
    );
    for workload in WORKLOADS {
        let (Some(in_a), Some(in_b)) = (sides_a.get(workload.name), sides_b.get(workload.name))
        else {
            continue;
        };
        comparable(workload.name, in_a, in_b)?;
        for metric in END_TO_END {
            let (Some(va), Some(vb)) = (in_a.values.get(metric.name), in_b.values.get(metric.name))
            else {
                continue;
            };
            let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(va), quartiles(vb));
            let verdict = verdict(metric, va, vb);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{:<13} {:<19} {:>11.4} {:>24} {:>11.4} {:>24} {:>15}  {}",
                workload.name,
                metric.name,
                a2,
                format!("{a1:.4}..{a3:.4} ({})", va.len()),
                b2,
                format!("{b1:.4}..{b3:.4} ({})", vb.len()),
                format!("{:.3} of {a2:.4}", b2 / a2),
                verdict.as_str()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: EndToEnd =
        EndToEnd { name: "latency_ms", unit: "ms", better: Better::Lower, bound: 0.10 };
    const THROUGHPUT: EndToEnd =
        EndToEnd { name: "per_s", unit: "1/s", better: Better::Higher, bound: 0.10 };

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let latency = &LATENCY;
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(latency, &a, &[10.2, 10.3, 10.1]), Verdict::Same);
        assert_eq!(verdict(latency, &a, &[11.5, 11.6, 11.4]), Verdict::Worse);
        assert_eq!(verdict(latency, &a, &[8.0, 8.1, 7.9]), Verdict::Better);
        // A spread of its own beyond the bound settles nothing.
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(verdict(latency, &noisy, &[20.0, 21.0]), Verdict::Unresolved);

        let throughput = &THROUGHPUT;
        let a = [100.0, 101.0, 99.0];
        assert_eq!(verdict(throughput, &a, &[80.0, 81.0]), Verdict::Worse);
        assert_eq!(verdict(throughput, &a, &[130.0, 131.0]), Verdict::Better);
        assert_eq!(verdict(throughput, &a, &[97.0, 98.0]), Verdict::Same);
    }

    #[test]
    fn single_runs_compare_without_a_spread() {
        let latency = &LATENCY;
        assert_eq!(verdict(latency, &[10.0], &[10.5]), Verdict::Same);
        assert_eq!(verdict(latency, &[10.0], &[12.0]), Verdict::Worse);
        assert_eq!(verdict(latency, &[10.0], &[9.0]), Verdict::Better);
    }

    fn record(seed: u64, sf: f64, p50: f64) -> String {
        format!(
            r#"{{"provenance":{{"workload":"scan_cold","mode":"e2e","seed":{seed},"seconds":20,"sf":{sf},"cores":2,"server_workers":2,"engine_thread_cap":2,"morsel_rows":65536,"git_commit":"abc","rustc":"rustc 1"}},"metrics":{{"op_p50_ms":{{"value":{p50},"unit":"ms"}}}}}}"#
        )
    }

    #[test]
    fn sides_measured_differently_are_refused() {
        let side = |records: &[String]| {
            let mut sides = parse(&records.join("\n"), "test").expect("records parse");
            sides.remove("scan_cold").expect("a scan_cold side")
        };
        let a = side(&[record(1, 0.2, 10.0), record(2, 0.2, 10.5)]);
        assert_eq!(a.values["op_p50_ms"], vec![10.0, 10.5]);
        // Same settings, same seeds in another order.
        assert!(
            comparable("scan_cold", &a, &side(&[record(2, 0.2, 9.0), record(1, 0.2, 9.5)])).is_ok()
        );
        // Another scale on one run of B; other seeds.
        let mixed = side(&[record(1, 0.2, 9.0), record(2, 0.1, 4.0)]);
        assert!(comparable("scan_cold", &a, &mixed).unwrap_err().contains("different settings"));
        let other_seeds = side(&[record(1, 0.2, 9.0), record(3, 0.2, 9.0)]);
        assert!(comparable("scan_cold", &a, &other_seeds).unwrap_err().contains("same"));
    }
}
