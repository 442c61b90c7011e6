//! `assess-check` — batch linter for `.assess` statement files.
//!
//! ```text
//! cargo run --release --bin assess-check -- [options] <file.assess>…
//!
//! options:
//!   --format text|json   output format (default text)
//!   --scale S            SSB scale factor for the checking catalog (default 0.001)
//!   --deny-warnings      exit non-zero on warnings, not just errors
//!   --analyze            additionally execute clean statements and print
//!                        their measured trace trees (`explain analyze`)
//!   --workload           additionally run the cross-statement workload
//!                        analysis per file: duplicate subplans (W107),
//!                        subsumed get targets (W108), cost dominance
//!                        (W109), plus the sharing matrix
//! ```
//!
//! Each file holds one or more statements separated by `;`. `--` starts a
//! line comment (outside strings). Every statement is parsed and run
//! through the static analyzer against a generated SSB catalog, so unknown
//! levels, measures, members and infeasible benchmarks are all caught
//! without executing anything. Exit code: 0 when clean, 1 when any error
//! (or, with `--deny-warnings`, any warning) was reported, 2 on usage or
//! I/O problems.

use std::process::ExitCode;

use assess_olap::assess::diag::{self, Diagnostic};
use assess_olap::assess::exec::AssessRunner;
use assess_olap::assess::explain;
use assess_olap::assess::workload::{WorkloadAnalyzer, WorkloadStatement};
use assess_olap::engine::Engine;
use assess_olap::serde::Value;
use assess_olap::ssb::{generate::generate, views, SsbConfig};

enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = Format::Text;
    let mut scale = 0.001;
    let mut deny_warnings = false;
    let mut analyze = false;
    let mut workload = false;
    let mut files: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                match args.get(i + 1).map(String::as_str) {
                    Some("text") => format = Format::Text,
                    Some("json") => format = Format::Json,
                    other => return usage(&format!("--format expects text|json, got {other:?}")),
                }
                i += 2;
            }
            "--scale" => {
                match args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) {
                    Some(s) if s > 0.0 => scale = s,
                    _ => return usage("--scale expects a positive number"),
                }
                i += 2;
            }
            "--deny-warnings" => {
                deny_warnings = true;
                i += 1;
            }
            "--analyze" => {
                analyze = true;
                i += 1;
            }
            "--workload" => {
                workload = true;
                i += 1;
            }
            "--help" | "-h" => return usage(""),
            flag if flag.starts_with("--") => return usage(&format!("unknown flag `{flag}`")),
            _ => {
                files.push(args[i].clone());
                i += 1;
            }
        }
    }
    if files.is_empty() {
        return usage("no input files");
    }

    eprintln!("assess-check: generating SSB catalog at SF={scale} …");
    let dataset = generate(SsbConfig::with_scale(scale));
    if let Err(e) = views::register_default_views(&dataset.catalog, &dataset.schema) {
        eprintln!("assess-check: cannot materialize default views: {e}");
        return ExitCode::from(2);
    }
    let runner = AssessRunner::new(Engine::new(dataset.catalog.clone()));

    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    let mut analyze_failures = 0usize;
    let mut io_failure = false;
    let mut json_files: Vec<Value> = Vec::new();

    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("assess-check: cannot read `{file}`: {e}");
                io_failure = true;
                continue;
            }
        };
        let diagnostics = check_source(&runner, &source);
        let file_errors = diagnostics.iter().filter(|d| d.is_error()).count();
        total_errors += file_errors;
        total_warnings += diagnostics.iter().filter(|d| !d.is_error()).count();
        // `--workload` runs the cross-statement analysis over the file.
        let sharing = workload.then(|| {
            let statements: Vec<WorkloadStatement> =
                assess_olap::assess::stmt::split_statements(&source)
                    .into_iter()
                    .filter_map(|(offset, text)| {
                        // Unparseable statements were already reported as
                        // E001 by the per-statement pass above.
                        let spanned = assess_olap::sql::parse_spanned(&text).ok()?;
                        Some(WorkloadStatement {
                            text,
                            statement: spanned.statement,
                            spans: Some(spanned.spans),
                            offset,
                        })
                    })
                    .collect();
            let report = WorkloadAnalyzer::new(runner.engine().catalog().as_ref())
                .with_engine(runner.engine())
                .analyze(&statements);
            total_errors += report.diagnostics.iter().filter(|d| d.is_error()).count();
            total_warnings += report.diagnostics.iter().filter(|d| !d.is_error()).count();
            report
        });
        // `--analyze` executes the file's statements (only when its check
        // was clean) and renders their measured trace trees.
        let mut analyses: Vec<(String, Result<_, _>)> = Vec::new();
        if analyze && file_errors == 0 {
            for (_, text) in assess_olap::assess::stmt::split_statements(&source) {
                if let Ok(statement) = assess_olap::sql::parse(&text) {
                    analyses.push((text, explain::explain_analyze(&runner, &statement)));
                }
            }
        }
        match format {
            Format::Text => {
                if !diagnostics.is_empty() {
                    println!("== {file}");
                    println!("{}", diag::render_all(&diagnostics, Some(&source)));
                }
                if let Some(report) = &sharing {
                    println!("== {file}: workload");
                    if !report.diagnostics.is_empty() {
                        println!("{}", diag::render_all(&report.diagnostics, Some(&source)));
                    }
                    print!("{}", report.render_matrix());
                }
                for (text, outcome) in &analyses {
                    println!("== {file}: explain analyze");
                    println!("{}", text.trim());
                    match outcome {
                        Ok((rendered, _, _)) => println!("{rendered}"),
                        Err(e) => {
                            eprintln!("assess-check: execution failed: {e}");
                            analyze_failures += 1;
                        }
                    }
                }
            }
            Format::Json => {
                let rendered: Vec<Value> =
                    diagnostics.iter().map(|d| d.to_json(Some(&source))).collect();
                let mut fields = vec![
                    ("file".to_string(), Value::String(file.clone())),
                    ("diagnostics".to_string(), Value::Array(rendered)),
                ];
                if let Some(report) = &sharing {
                    let lints: Vec<Value> =
                        report.diagnostics.iter().map(|d| d.to_json(Some(&source))).collect();
                    let mut workload_json = report.to_json();
                    if let Value::Object(wf) = &mut workload_json {
                        wf.push(("diagnostics".to_string(), Value::Array(lints)));
                    }
                    fields.push(("workload".to_string(), workload_json));
                }
                if analyze {
                    let traces: Vec<Value> = analyses
                        .iter()
                        .map(|(text, outcome)| match outcome {
                            Ok((_, report, trace)) => Value::Object(vec![
                                ("statement".to_string(), Value::String(text.clone())),
                                (
                                    "strategy".to_string(),
                                    Value::String(report.strategy.acronym().to_string()),
                                ),
                                ("trace".to_string(), trace.to_json()),
                            ]),
                            Err(e) => Value::Object(vec![
                                ("statement".to_string(), Value::String(text.clone())),
                                ("error".to_string(), Value::String(e.to_string())),
                            ]),
                        })
                        .collect();
                    analyze_failures += analyses.iter().filter(|(_, o)| o.is_err()).count();
                    fields.push(("analyze".to_string(), Value::Array(traces)));
                }
                json_files.push(Value::Object(fields));
            }
        }
    }

    match format {
        Format::Text => {
            println!(
                "checked {} file{}: {}",
                files.len(),
                if files.len() == 1 { "" } else { "s" },
                diag::summary_line(total_errors, total_warnings)
            );
        }
        Format::Json => {
            let report = Value::Object(vec![
                ("files".to_string(), Value::Array(json_files)),
                ("errors".to_string(), Value::Number(total_errors as f64)),
                ("warnings".to_string(), Value::Number(total_warnings as f64)),
            ]);
            match assess_olap::serde_json::to_string_pretty(&report) {
                Ok(text) => println!("{text}"),
                Err(e) => {
                    eprintln!("assess-check: cannot serialize report: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    if io_failure {
        ExitCode::from(2)
    } else if total_errors > 0 || analyze_failures > 0 || (deny_warnings && total_warnings > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(problem: &str) -> ExitCode {
    if !problem.is_empty() {
        eprintln!("assess-check: {problem}");
    }
    eprintln!(
        "usage: assess-check [--format text|json] [--scale S] [--deny-warnings] [--analyze] \
         [--workload] <file.assess>…"
    );
    ExitCode::from(2)
}

/// Checks every statement in a file; diagnostic spans are shifted to
/// whole-file offsets so carets and line numbers point into the file.
/// Splitting is the shared comment-aware scanner of `assess_core::stmt`,
/// the same one the REPL and `assess-serve` use.
fn check_source(runner: &AssessRunner, source: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (offset, text) in assess_olap::assess::stmt::split_statements(source) {
        let mut diagnostics = match assess_olap::sql::parse_spanned(&text) {
            Ok(spanned) => runner.check_spanned(&spanned.statement, Some(&spanned.spans)),
            Err(e) => vec![e.diagnostic()],
        };
        for d in &mut diagnostics {
            d.span = d.span.offset(offset);
        }
        out.extend(diagnostics);
    }
    out
}
