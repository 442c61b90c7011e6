//! The repository benchmark. One binary, three uses:
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! benchmark --smoke [--seed N]                              all four, tiny, checks on
//! benchmark compare A.jsonl B.jsonl                         two sets of recorded runs
//! benchmark manifest                                        BENCHMARK.json, from spec.rs
//! ```
//!
//! See README.md for the workloads, the metrics and what each should move.

mod check;
mod churn;
mod compare;
mod host;
mod hot;
mod inproc;
mod json;
mod probes;
mod report;
mod rig;
mod rng;
mod run;
mod spec;
mod stats;
mod stmts;
mod sys;
mod trace;
mod window;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Options, Outcome};
use spec::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  benchmark --workload <scan_cold|assess_views|serve_hot|serve_churn> --seed <n> --seconds <s>
            --trace <0|1> [--out-dir <dir>] [--record <file.jsonl>]
  benchmark --smoke [--seed <n>]
  benchmark compare <A.jsonl> <B.jsonl>
  benchmark manifest";

/// Scale factor and window of `--smoke`.
const SMOKE_SF: f64 = 0.01;
const SMOKE_SECONDS: f64 = 1.0;

struct Cli {
    workload: Option<&'static Workload>,
    smoke: bool,
    options: Options,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        smoke: false,
        options: Options {
            seed: 1,
            seconds: 10.0,
            trace: false,
            sf: None,
            // Beside the sources, wherever the run is started from.
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
            record: None,
        },
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |what: &str| format!("{flag}: {what}");
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    spec::workload(name).ok_or_else(|| bad(&format!("no workload `{name}`")))?,
                );
            }
            "--seed" => {
                cli.options.seed = value()?.parse().map_err(|_| bad("not a whole number"))?
            }
            "--seconds" => {
                cli.options.seconds = value()?.parse().map_err(|_| bad("not a number"))?;
                if cli.options.seconds.is_nan() || cli.options.seconds <= 0.0 {
                    return Err(bad("must be positive"));
                }
            }
            "--trace" => {
                cli.options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--out-dir" => cli.options.out_dir = PathBuf::from(value()?),
            "--record" => cli.options.record = Some(PathBuf::from(value()?)),
            "--smoke" => cli.smoke = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(cli)
}

fn summarize(workload: &Workload, mode: &str, outcome: &Outcome) {
    eprintln!(
        "[{}] {mode}: {} ops attempted, {} failed, landing {}",
        workload.name,
        outcome.attempted,
        outcome.failed,
        match outcome.landing_ok {
            Some(true) => "as declared",
            Some(false) => "NOT as declared",
            None => "not checked at this scale",
        }
    );
    for (name, value, unit) in &outcome.metrics {
        eprintln!("[{}]   {name:<36} {value:>14.4} {unit}", workload.name);
    }
}

/// One run in the driver's form: the metrics of the mode as the last line
/// of standard output; non-zero exit when an output check failed.
fn run_one(workload: &'static Workload, options: &Options) -> Result<bool, String> {
    let outcome = run::run(workload, options)?;
    summarize(workload, if options.trace { "traced" } else { "e2e" }, &outcome);
    let metrics = report::metrics_json(&outcome.metrics);
    println!(
        "{}",
        report::result_line(outcome.correct, outcome.attempted, outcome.failed, metrics)
    );
    Ok(outcome.correct)
}

/// Every workload at a tiny scale, end to end and traced, checks on.
fn smoke(base: Options) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let options = Options {
                seed: base.seed,
                seconds: SMOKE_SECONDS,
                trace,
                sf: Some(SMOKE_SF),
                out_dir: base.out_dir.join("smoke"),
                record: None,
            };
            let outcome = run::run(workload, &options)?;
            summarize(workload, if trace { "traced" } else { "e2e" }, &outcome);
            all_correct &= outcome.correct;
        }
    }
    println!("smoke: {}", if all_correct { "ok" } else { "FAILED" });
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            compare::compare(args[1].as_ref(), args[2].as_ref()).map(|any_worse| !any_worse)
        }
        Some("compare") => Err(USAGE.to_string()),
        Some("manifest") => {
            let manifest = serde_json::to_string_pretty(&spec::manifest());
            println!("{}", manifest.expect("the writer is total over values"));
            Ok(true)
        }
        _ => parse_cli(&args).and_then(|cli| match (cli.smoke, cli.workload) {
            (true, _) => smoke(cli.options),
            (false, Some(workload)) => run_one(workload, &cli.options),
            (false, None) => Err(USAGE.to_string()),
        }),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use serde::Value;

    use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};

    /// `BENCHMARK.json` is what the driver reads; `spec.rs` is what the
    /// binary reports. The file must be `benchmark manifest`'s output.
    #[test]
    fn manifest_matches_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("BENCHMARK.json parses");
        assert_eq!(on_disk, spec::manifest(), "regenerate with `benchmark manifest`");
    }

    /// The limits the driver puts on the manifest's entries.
    #[test]
    fn manifest_entries_are_within_the_drivers_limits() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for workload in WORKLOADS {
            assert!(name_ok(workload.name));
            assert!(workload.why.chars().count() <= 200, "{}: why too long", workload.name);
            assert!(!workload.why.contains('\n'));
            // The landing classes are declared where the driver's format has room.
            assert!(workload.why.contains(workload.p50_class), "{}", workload.name);
            assert!(workload.why.contains(workload.p95_class), "{}", workload.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        for metric in END_TO_END {
            assert!(name_ok(metric.name) && unit_ok(metric.unit), "{}", metric.name);
            assert!(metric.bound > 0.0 && metric.bound <= 0.25, "{}", metric.name);
        }
        assert!(PER_LAYER.len() <= 128);
        for metric in PER_LAYER {
            assert!(name_ok(metric.name) && unit_ok(metric.unit), "{}", metric.name);
        }
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
    }
}
