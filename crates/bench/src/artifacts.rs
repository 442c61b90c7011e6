//! The paper's §6 artifacts, each rendered in one place: Table 1 over the
//! code generator, everything else over one measured [`Matrix`]. Times print
//! in milliseconds as median `[q1..q3]`; the JSON reports keep seconds.

use serde::Serialize;

use crate::report::{ascii_log_chart, fmt_cardinality, render_table, Artifact, Provenance};
use crate::runs::{Matrix, PlanTiming};
use crate::scales::{setup, ScaleSpec};
use crate::workloads::intentions;

const INTENTIONS: [&str; 4] = ["Constant", "External", "Sibling", "Past"];
const STRATEGIES: [&str; 3] = ["NP", "JOP", "POP"];

/// Seconds as milliseconds to three significant digits.
fn ms(secs: f64) -> String {
    let ms = secs * 1e3;
    if ms == 0.0 {
        return "0".to_string();
    }
    let decimals = (2.0 - ms.abs().log10().floor()).clamp(0.0, 6.0) as usize;
    format!("{ms:.decimals$}")
}

/// A cell's median with its quartile range, e.g. `4.02 [3.98..4.51]`.
fn spread(cell: &PlanTiming) -> String {
    format!("{} [{}..{}]", ms(cell.seconds), ms(cell.q1), ms(cell.q3))
}

/// A table row: `label`, then `show` of each cell, `—` where none was
/// measured.
fn row<T>(label: &str, cells: &[Option<T>], show: impl Fn(&T) -> String) -> Vec<String> {
    let shown = cells.iter().map(|c| c.as_ref().map_or_else(|| "—".to_string(), &show));
    std::iter::once(label.to_string()).chain(shown).collect()
}

/// A header row: `first`, then one label per measured scale.
fn header(first: &str, matrix: &Matrix) -> Vec<String> {
    std::iter::once(first.to_string()).chain(matrix.scales().iter().map(ScaleSpec::label)).collect()
}

/// The fastest cell by median.
fn fastest<'a>(cells: impl Iterator<Item = &'a PlanTiming>) -> Option<&'a PlanTiming> {
    cells.min_by(|a, b| a.seconds.total_cmp(&b.seconds))
}

fn artifact(
    name: &'static str,
    title: &str,
    provenance: &Provenance,
    body: String,
    rows: &impl Serialize,
) -> Artifact {
    let text = format!("{title}\n\n{body}");
    Artifact { name, provenance: provenance.clone(), text, rows: rows.to_value() }
}

/// Table 1 — the characters of SQL and Python the generator emits for each
/// canonical intention (least complex plan) against the assess statement.
pub fn table1() -> Artifact {
    #[derive(Serialize)]
    struct EffortRow {
        intention: String,
        sql_chars: usize,
        python_chars: usize,
        total_chars: usize,
        assess_chars: usize,
    }
    // Code generation only needs schemas and bindings: the tiniest dataset.
    let scale = ScaleSpec { sf: 0.001 };
    let env = setup(scale.sf, false);
    let rows: Vec<EffortRow> = intentions()
        .into_iter()
        .map(|intention| {
            let resolved = env.runner.resolve(&intention.statement).expect("statement resolves");
            let code = assess_core::codegen::generate(&resolved, env.runner.engine().catalog())
                .expect("code generation succeeds");
            EffortRow {
                intention: intention.name.to_string(),
                sql_chars: code.sql_chars(),
                python_chars: code.python_chars(),
                total_chars: code.total_chars(),
                assess_chars: intention.statement.to_string().chars().count(),
            }
        })
        .collect();
    let names = rows.iter().map(|r| r.intention.clone());
    let mut table = vec![std::iter::once(String::new()).chain(names).collect::<Vec<_>>()];
    for (i, label) in ["SQL:", "Python:", "Total:", "assess:"].into_iter().enumerate() {
        let counts = rows
            .iter()
            .map(|r| [r.sql_chars, r.python_chars, r.total_chars, r.assess_chars][i].to_string());
        table.push(std::iter::once(label.to_string()).chain(counts).collect());
    }
    let mut text = render_table(&table);
    for r in &rows {
        let ratio = r.total_chars as f64 / r.assess_chars as f64;
        text.push_str(&format!(
            "{}: SQL+Python is {ratio:.1}x the assess statement\n",
            r.intention
        ));
    }
    let title = "Table 1: Formulation effort for different intentions (ASCII chars)";
    artifact("table1_formulation_effort", title, &Provenance::new(&[scale], 0, false), text, &rows)
}

/// Table 2 — target cube cardinalities per intention and scale. Every plan
/// computes the same cube, so NP's cells (always feasible) are read.
pub fn table2(matrix: &Matrix) -> Artifact {
    let mut table = vec![header("", matrix)];
    for intention in INTENTIONS {
        table.push(row(intention, &matrix.series(intention, "NP"), |c| fmt_cardinality(c.cells)));
    }
    let nps: Vec<&PlanTiming> = matrix.iter().filter(|c| c.strategy == "NP").collect();
    let title = "Table 2: Target cube cardinalities per intention and scale";
    artifact("table2_cardinalities", title, &matrix.provenance, render_table(&table), &nps)
}

/// Table 3 — the fastest plan per intention and scale, NP in parentheses,
/// and the paper's linear-scaling check. Reported rows: `[fastest, NP]`.
pub fn table3(matrix: &Matrix) -> Artifact {
    let mut rows = Vec::new();
    let mut table = vec![header("", matrix)];
    let mut scaling = String::new();
    for intention in INTENTIONS {
        let pairs: Vec<Option<(&PlanTiming, &PlanTiming)>> = matrix
            .series(intention, "NP")
            .into_iter()
            .map(|np| np.map(|np| (fastest(matrix.at(intention, np.sf)).unwrap_or(np), np)))
            .collect();
        table.push(row(intention, &pairs, |(best, np)| {
            format!("{} {} (NP {})", best.strategy, spread(best), spread(np))
        }));
        let best: Vec<&PlanTiming> = pairs.iter().flatten().map(|(best, _)| *best).collect();
        let ratios: Vec<String> = best
            .windows(2)
            .map(|w| format!("x{:.1} (SF x{:.0})", w[1].seconds / w[0].seconds, w[1].sf / w[0].sf))
            .collect();
        if !ratios.is_empty() {
            scaling.push_str(&format!("  {intention}: {}\n", ratios.join(", ")));
        }
        rows.extend(pairs.into_iter().flatten());
    }
    let mut text = render_table(&table);
    if !scaling.is_empty() {
        text.push_str(
            "Scaling check (ratio of consecutive best medians; linear = the SF ratio):\n",
        );
        text.push_str(&scaling);
    }
    let title = "Table 3: Minimum execution times (ms) per intention and scale, NP in parentheses";
    artifact("table3_min_times", title, &matrix.provenance, text, &rows)
}

/// Figure 3 — per-plan times per intention and scale: a table, a log-scale
/// chart and the plan ordering at the largest scale.
pub fn figure3(matrix: &Matrix) -> Artifact {
    let labels: Vec<String> = matrix.scales().iter().map(ScaleSpec::label).collect();
    let mut text = String::new();
    for intention in INTENTIONS {
        // Infeasible plans have no cell at any scale and no series.
        let series: Vec<(&str, Vec<Option<&PlanTiming>>)> = STRATEGIES
            .into_iter()
            .map(|s| (s, matrix.series(intention, s)))
            .filter(|(_, cells)| cells.iter().any(Option::is_some))
            .collect();
        let mut table = vec![header(intention, matrix)];
        table.extend(series.iter().map(|(s, cells)| row(s, cells, |c| spread(c))));
        let medians: Vec<(String, Vec<Option<f64>>)> = series
            .iter()
            .map(|(s, cells)| {
                (s.to_string(), cells.iter().map(|c| c.map(|c| c.seconds * 1e3)).collect())
            })
            .collect();
        let chart = ascii_log_chart(&format!("{intention}, ms"), &labels, &medians);
        text.push_str(&format!("{}\n{chart}", render_table(&table)));
    }
    if let Some(largest) = matrix.scales().last() {
        let label = largest.label();
        text.push_str(&format!("Plan ordering at {label} (paper: POP <= JOP <= NP), ms:\n"));
        for intention in ["External", "Sibling", "Past"] {
            let parts: Vec<String> = matrix
                .at(intention, largest.sf)
                .map(|c| format!("{}={}", c.strategy, spread(c)))
                .collect();
            text.push_str(&format!("  {intention}: {}\n", parts.join("  ")));
        }
    }
    let title = "Figure 3: Execution times (ms) for increasing cardinalities";
    artifact("figure3_plan_times", title, &matrix.provenance, text, &matrix.cells)
}

/// Figure 4 — the Past intention's per-stage medians per plan and scale,
/// and each plan's transform and comparison + label shares.
pub fn figure4(matrix: &Matrix) -> Artifact {
    let past: Vec<&PlanTiming> = matrix.iter().filter(|c| c.intention == "Past").collect();
    let stages = past.first().map_or(&[][..], |c| c.breakdown.as_slice());
    let mut text = String::new();
    for strategy in STRATEGIES {
        let cells = matrix.series("Past", strategy);
        let mut table = vec![header(strategy, matrix)];
        for (i, (stage, _)) in stages.iter().enumerate() {
            table.push(row(stage, &cells, |c| ms(c.breakdown[i].1)));
        }
        table.push(row("Total", &cells, |c| spread(c)));
        text.push_str(&render_table(&table));
        text.push('\n');
    }
    let largest = matrix.scales().last().map(|s| s.sf);
    for c in past.iter().filter(|c| Some(c.sf) == largest) {
        let stage = |name: &str| c.breakdown.iter().find(|(n, _)| n == name).map_or(0.0, |s| s.1);
        let share = |v: f64| 100.0 * v / c.seconds.max(f64::MIN_POSITIVE);
        text.push_str(&format!(
            "{} at SF={}: transform {:.1}% of the median total, comparison + label {:.1}%\n",
            c.strategy,
            c.sf,
            share(stage("Trans.")),
            share(stage("Comp.") + stage("Label")),
        ));
    }
    let title = "Figure 4: Breakdown of the execution time of the Past intention (ms, medians)";
    artifact("figure4_breakdown", title, &matrix.provenance, text, &past)
}

/// The cost-based chooser (a §8 extension) against measurement: its pick,
/// the fastest plan by median, the regret, and whether the two are within
/// noise (their quartile ranges overlap). Reported rows: `[pick, fastest]`.
pub fn chooser(matrix: &Matrix) -> Artifact {
    let mut pairs = Vec::new();
    for scale in matrix.scales() {
        for intention in INTENTIONS {
            let pick = matrix.at(intention, scale.sf).find(|c| c.chosen);
            pairs.extend(pick.zip(fastest(matrix.at(intention, scale.sf))));
        }
    }
    let regret = |(pick, best): &(&PlanTiming, &PlanTiming)| pick.seconds / best.seconds;
    let noise =
        |(pick, best): &(&PlanTiming, &PlanTiming)| pick.q1 <= best.q3 && best.q1 <= pick.q3;
    let mut table =
        vec![["intention", "scale", "pick (ms)", "fastest (ms)", "regret", "within noise"]
            .map(str::to_string)
            .to_vec()];
    for pair @ (pick, best) in &pairs {
        table.push(vec![
            pick.intention.clone(),
            format!("SF={}", pick.sf),
            format!("{} {}", pick.strategy, spread(pick)),
            format!("{} {}", best.strategy, spread(best)),
            format!("{:.2}x", regret(pair)),
            if noise(pair) { "yes" } else { "no" }.to_string(),
        ]);
    }
    let exact = pairs.iter().filter(|(pick, best)| pick.strategy == best.strategy).count();
    let text = format!(
        "{}exact picks: {exact}/{n} · within noise: {}/{n} · worst regret {:.2}x\n",
        render_table(&table),
        pairs.iter().filter(|p| noise(p)).count(),
        pairs.iter().map(regret).fold(1.0, f64::max),
        n = pairs.len(),
    );
    let title = "Cost-based chooser vs measured fastest strategy";
    artifact("chooser_accuracy", title, &matrix.provenance, text, &pairs)
}

/// Every artifact rendered over the matrix, in the paper's order.
pub fn from_matrix(matrix: &Matrix) -> Vec<Artifact> {
    vec![table2(matrix), table3(matrix), figure3(matrix), figure4(matrix), chooser(matrix)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(
        intention: &str,
        strategy: &str,
        [q1, seconds, q3]: [f64; 3],
        chosen: bool,
    ) -> PlanTiming {
        PlanTiming {
            intention: intention.to_string(),
            strategy: strategy.to_string(),
            sf: 0.01,
            seconds,
            q1,
            q3,
            breakdown: vec![("Trans.".to_string(), seconds / 2.0), ("Label".to_string(), 0.0)],
            cells: 20,
            rows_scanned: 100,
            chosen,
            samples: vec![q1, seconds, q3],
        }
    }

    fn matrix(cells: Vec<PlanTiming>) -> Matrix {
        Matrix { provenance: Provenance::new(&[ScaleSpec { sf: 0.01 }], 3, true), cells }
    }

    #[test]
    fn chooser_reports_regret_and_noise() {
        let m = matrix(vec![
            cell("Sibling", "NP", [4.0, 5.0, 6.0], false),
            cell("Sibling", "JOP", [1.0, 2.0, 3.0], false),
            cell("Sibling", "POP", [2.5, 3.0, 3.5], true),
            cell("Past", "NP", [1.0, 2.0, 2.5], false),
            cell("Past", "POP", [3.0, 4.0, 5.0], true),
        ]);
        let text = chooser(&m).text;
        assert!(text.contains("| Sibling   | SF=0.01 | POP"), "{text}");
        assert!(text.contains("| 1.50x  | yes"), "overlapping quartiles: {text}");
        assert!(text.contains("| 2.00x  | no"), "disjoint quartiles: {text}");
        assert!(text.contains("exact picks: 0/2 · within noise: 1/2 · worst regret 2.00x"));
    }

    #[test]
    fn renderers_read_the_matrix_cells() {
        let m = matrix(vec![
            cell("Past", "NP", [2e-4, 3e-4, 4e-4], false),
            cell("Past", "JOP", [1e-4, 2e-4, 3e-4], true),
        ]);
        let t3 = table3(&m).text;
        assert!(t3.contains("JOP 0.200 [0.100..0.300] (NP 0.300 [0.200..0.400])"), "{t3}");
        let f4 = figure4(&m).text;
        assert!(f4.contains("| Trans. | 0.100"), "{f4}");
        assert!(f4.contains("JOP at SF=0.01: transform 50.0% of the median total"), "{f4}");
        assert!(table2(&m).text.contains("| Past     | 2.0e1"));
        assert!(figure3(&m).text.contains("Past: NP=0.300 [0.200..0.400]  JOP=0.200"));
    }

    #[test]
    fn milliseconds_keep_three_significant_digits() {
        assert_eq!(ms(3.33e-5), "0.0333");
        assert_eq!(ms(3.99e-4), "0.399");
        assert_eq!(ms(0.0372), "37.2");
        assert_eq!(ms(1.5), "1500");
        assert_eq!(ms(0.0), "0");
    }

    #[test]
    fn reports_carry_the_provenance_of_their_run() {
        let scales = [ScaleSpec { sf: 0.002 }, ScaleSpec { sf: 0.004 }];
        let provenance = Provenance::new(&scales, 7, false);
        artifact("__provenance_test", "t", &provenance, String::new(), &[1, 2]).publish();
        let path = crate::report::output_dir().join("__provenance_test.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(path).ok();
        let json: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(json["provenance"]["scales"][1], 0.004);
        assert_eq!(json["provenance"]["reps"], 7.0);
        assert_eq!(json["provenance"]["views"].as_bool(), Some(false));
        assert!(json["provenance"]["git_commit"].as_str().is_some());
        assert_eq!(json["rows"][1], 2.0);
    }
}
