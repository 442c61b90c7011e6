//! An interactive assess shell over a generated SSB dataset.
//!
//! ```text
//! cargo run --release --bin assess_repl [-- --scale 0.01]
//! ```
//!
//! Statements use the paper's syntax and end with `;`:
//!
//! ```text
//! assess> with SSB by year, mfgr
//!    ...> assess revenue against 45000000
//!    ...> using ratio(revenue, 45000000)
//!    ...> labels {[0, 0.9): bad, [0.9, 1.1]: acceptable, (1.1, inf]: good};
//! ```
//!
//! Dot-commands: `.help`, `.strategy auto|np|jop|pop`, `.plan` (show the
//! last plan), `.check` (re-run the analyzer on the last statement),
//! `.suggest` (complete the last partial statement), `.schema`, `.quit`.
//! `\check` is accepted as an alias for `.check`. A statement may be
//! prefixed with `explain` (plans/costs only) or `explain analyze`
//! (execute and print the measured trace tree).

use std::io::{BufRead, Write};

use assess_olap::assess::ast::{AssessStatement, StatementSpans};
use assess_olap::assess::diag;
use assess_olap::assess::exec::AssessRunner;
use assess_olap::assess::plan::Strategy;
use assess_olap::assess::{explain, plan, suggest};
use assess_olap::engine::Engine;
use assess_olap::ssb::{generate::generate, views, SsbConfig};

enum Chooser {
    Auto,
    Fixed(Strategy),
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.01;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--scale" && i + 1 < args.len() {
            scale = args[i + 1].parse().unwrap_or(scale);
            i += 2;
        } else {
            i += 1;
        }
    }

    eprintln!("generating SSB at SF={scale} …");
    let dataset = generate(SsbConfig::with_scale(scale));
    views::register_default_views(&dataset.catalog, &dataset.schema)
        .expect("default views materialize");
    let runner = AssessRunner::new(Engine::new(dataset.catalog.clone()));
    eprintln!(
        "ready: cube SSB ({} facts), external cube SSB_EXPECTED. Type .help for help.",
        dataset.counts.lineorders
    );

    let stdin = std::io::stdin();
    let mut chooser = Chooser::Auto;
    let mut buffer = String::new();
    let mut last_statement: Option<AssessStatement> = None;
    let mut last_source: Option<(String, StatementSpans)> = None;
    let mut last_plan: Option<String> = None;

    loop {
        let prompt = if buffer.is_empty() { "assess> " } else { "   ...> " };
        eprint!("{prompt}");
        std::io::stderr().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && (trimmed.starts_with('.') || trimmed.starts_with('\\')) {
            match handle_command(
                trimmed,
                &runner,
                &mut chooser,
                &last_statement,
                &last_source,
                &last_plan,
                &dataset,
            ) {
                Flow::Continue => continue,
                Flow::Quit => break,
            }
        }
        buffer.push_str(&line);
        // Comment-aware termination: a `;` inside a string or after `--`
        // does not end the statement (shared scanner with assess-check).
        if !assess_olap::assess::stmt::is_terminated(&buffer) {
            continue;
        }
        let statements = assess_olap::assess::stmt::split_statements(&buffer);
        buffer.clear();
        for (_, text) in statements {
            // `explain [analyze]` directives prefix a normal statement; the
            // remainder parses as usual.
            let (directive, rest) = assess_olap::sql::strip_directive(&text);
            match assess_olap::sql::parse_spanned(rest) {
                Ok(spanned) => {
                    last_statement = Some(spanned.statement.clone());
                    last_source = Some((rest.to_string(), spanned.spans.clone()));
                    let diagnostics =
                        runner.check_spanned(&spanned.statement, Some(&spanned.spans));
                    if !diagnostics.is_empty() {
                        eprintln!("{}", diag::render_all(&diagnostics, Some(rest)));
                    }
                    if diagnostics.iter().any(|d| d.is_error()) {
                        continue; // refuse to plan a statement with errors
                    }
                    match directive {
                        None => {
                            run_statement(&runner, &spanned.statement, &chooser, &mut last_plan)
                        }
                        Some(assess_olap::sql::Directive::Explain) => {
                            match runner
                                .resolve(&spanned.statement)
                                .and_then(|resolved| explain::explain(&runner, &resolved))
                            {
                                Ok(text) => println!("{text}"),
                                Err(e) => eprintln!("{e}"),
                            }
                        }
                        Some(assess_olap::sql::Directive::ExplainAnalyze) => {
                            match explain::explain_analyze(&runner, &spanned.statement) {
                                Ok((text, report, _trace)) => {
                                    println!("{text}");
                                    last_plan = Some(format!(
                                        "strategy {}\n{}",
                                        report.strategy, report.plan
                                    ));
                                }
                                Err(e) => eprintln!("{e}"),
                            }
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{}", diag::render(&e.diagnostic(), Some(rest)));
                }
            }
        }
    }
}

enum Flow {
    Continue,
    Quit,
}

fn handle_command(
    command: &str,
    runner: &AssessRunner,
    chooser: &mut Chooser,
    last_statement: &Option<AssessStatement>,
    last_source: &Option<(String, StatementSpans)>,
    last_plan: &Option<String>,
    dataset: &assess_olap::ssb::SsbDataset,
) -> Flow {
    match command.split_whitespace().collect::<Vec<_>>().as_slice() {
        [".quit"] | [".exit"] | [".q"] => return Flow::Quit,
        [".help"] => {
            println!(
                ".strategy auto|np|jop|pop  choose the execution strategy\n\
                 .plan                      show the last executed plan\n\
                 .check                     re-run the static analyzer on the last statement\n\
                 .explain                   explain strategies/costs/SQL of the last statement\n\
                 explain [analyze] <stmt>;  explain (or execute and trace) a statement inline\n\
                 .suggest                   complete the last statement without an against clause\n\
                 .schema                    list hierarchies and measures\n\
                 .quit                      leave"
            );
        }
        [".check"] | ["\\check"] => match last_statement {
            Some(statement) => {
                let (source, spans) = match last_source {
                    Some((src, spans)) => (Some(src.as_str()), Some(spans)),
                    None => (None, None),
                };
                let diagnostics = runner.check_spanned(statement, spans);
                if diagnostics.is_empty() {
                    println!("no diagnostics");
                } else {
                    println!("{}", diag::render_all(&diagnostics, source));
                }
            }
            None => println!("no statement entered yet"),
        },
        [".strategy", which] => {
            *chooser = match *which {
                "auto" => Chooser::Auto,
                "np" => Chooser::Fixed(Strategy::Naive),
                "jop" => Chooser::Fixed(Strategy::JoinOptimized),
                "pop" => Chooser::Fixed(Strategy::PivotOptimized),
                other => {
                    eprintln!("unknown strategy `{other}` (use auto|np|jop|pop)");
                    return Flow::Continue;
                }
            };
            println!("ok");
        }
        [".plan"] => match last_plan {
            Some(p) => println!("{p}"),
            None => println!("no statement executed yet"),
        },
        [".explain"] => match last_statement {
            Some(statement) => match runner
                .resolve(statement)
                .and_then(|resolved| explain::explain(runner, &resolved))
            {
                Ok(text) => println!("{text}"),
                Err(e) => eprintln!("{e}"),
            },
            None => println!("no statement entered yet"),
        },
        [".suggest"] => match last_statement {
            Some(statement) if statement.against.is_none() => {
                match suggest::suggest_benchmarks(runner, statement, 5) {
                    Ok(suggestions) => {
                        for s in suggestions {
                            println!(
                                "against {:<28} interest {:.3} ({} cells)",
                                s.against, s.interest, s.cells
                            );
                        }
                    }
                    Err(e) => eprintln!("{e}"),
                }
            }
            Some(_) => println!("the last statement already has an against clause"),
            None => println!("no statement entered yet"),
        },
        [".schema"] => {
            for h in dataset.schema.hierarchies() {
                let levels: Vec<&str> = h.levels().iter().map(|l| l.name()).collect();
                println!("{}: {}", h.name(), levels.join(" ⪰ "));
            }
            let measures: Vec<&str> = dataset.schema.measures().iter().map(|m| m.name()).collect();
            println!("measures: {}", measures.join(", "));
        }
        other => eprintln!("unknown command {other:?} — try .help"),
    }
    Flow::Continue
}

fn run_statement(
    runner: &AssessRunner,
    statement: &AssessStatement,
    chooser: &Chooser,
    last_plan: &mut Option<String>,
) {
    let resolved = match runner.resolve(statement) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return;
        }
    };
    // Auto mode goes through the runner's fallback ladder, so a strategy
    // that dies mid-flight degrades to a cheaper one instead of erroring.
    let outcome = match chooser {
        Chooser::Auto => runner.run_auto(statement),
        Chooser::Fixed(s) => {
            let physical = match plan::plan(&resolved, *s) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{e}");
                    return;
                }
            };
            *last_plan = Some(format!("strategy {s}\n{}", physical.root));
            runner.execute_plan(&resolved, &physical)
        }
    };
    match outcome {
        Ok((result, report)) => {
            if matches!(chooser, Chooser::Auto) {
                *last_plan = Some(format!("strategy {}\n{}", report.strategy, report.plan));
            }
            println!("{}", result.render(20));
            println!(
                "{} cells · {} · {:.2} ms · labels {:?}",
                result.len(),
                report.strategy,
                report.timings.total().as_secs_f64() * 1e3,
                result.label_histogram()
            );
            if report.attempts.len() > 1 {
                for a in &report.attempts {
                    match &a.error {
                        Some(e) => println!(
                            "  attempt {} failed after {:.2} ms: {e}",
                            a.strategy,
                            a.elapsed.as_secs_f64() * 1e3
                        ),
                        None => println!(
                            "  attempt {} succeeded in {:.2} ms",
                            a.strategy,
                            a.elapsed.as_secs_f64() * 1e3
                        ),
                    }
                }
            }
        }
        Err(e) => eprintln!("{e}"),
    }
}
