//! Text-table rendering, provenance and JSON persistence of experiment
//! results.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use serde::{Serialize, Value};

use crate::scales::{engine, ScaleSpec};

/// What produced a report. Every artifact's text and JSON open with it:
/// without it a number cannot be compared with another.
#[derive(Debug, Clone, Serialize)]
pub struct Provenance {
    pub cores: usize,
    /// `Engine::parallelism_cap` of the experiments' engine.
    pub engine_thread_cap: usize,
    pub morsel_rows: usize,
    pub scales: Vec<f64>,
    /// Timed repetitions per (intention, strategy, scale); 0 when nothing
    /// was timed.
    pub reps: usize,
    /// Whether the default materialized views were registered.
    pub views: bool,
    /// `git rev-parse --short HEAD` of the workspace, or `unknown`.
    pub git_commit: String,
}

impl Provenance {
    /// Reads the host, the experiments' engine configuration and the commit.
    pub fn new(scales: &[ScaleSpec], reps: usize, views: bool) -> Self {
        let engine = engine(Arc::default());
        let git = Command::new("git")
            .arg("-C")
            .arg(workspace())
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok());
        Provenance {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            engine_thread_cap: engine.parallelism_cap(),
            morsel_rows: engine.config().morsel_rows,
            scales: scales.iter().map(|s| s.sf).collect(),
            reps,
            views,
            git_commit: git.map_or_else(|| "unknown".to_string(), |g| g.trim().to_string()),
        }
    }
}

/// One rendered paper artifact: its text and the JSON rows behind it.
pub struct Artifact {
    /// File stem of the JSON report under [`output_dir`].
    pub name: &'static str,
    pub provenance: Provenance,
    pub text: String,
    pub rows: Value,
}

impl Artifact {
    /// Prints the artifact under its provenance record and writes the report
    /// `{"provenance": …, "rows": …}`.
    pub fn publish(&self) {
        let provenance = self.provenance.to_value();
        let line = serde_json::to_string(&provenance).expect("provenance serializes");
        println!("provenance: {line}\n{}", self.text);
        let report = Value::Object(vec![
            ("provenance".to_string(), provenance),
            ("rows".to_string(), self.rows.clone()),
        ]);
        let path = write_json(self.name, &report).expect("write report");
        println!("report: {}\n", path.display());
    }
}

/// Renders an aligned text table (first row is the header).
pub fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        for (i, w) in widths.iter().enumerate() {
            let cell = row.get(i).map(String::as_str).unwrap_or("");
            out.push_str(&format!("| {cell:<w$} "));
        }
        out.push_str("|\n");
        if r == 0 {
            for w in &widths {
                out.push_str(&format!("|{:-<width$}", "", width = w + 2));
            }
            out.push_str("|\n");
        }
    }
    out
}

/// Formats seconds with sensible precision for the result tables.
pub fn fmt_secs(secs: f64) -> String {
    if secs < 0.0005 {
        format!("{:.2e}", secs)
    } else if secs < 1.0 {
        format!("{:.3}", secs)
    } else {
        format!("{:.2}", secs)
    }
}

/// Formats a cardinality in the paper's `1.2·10^5` style.
pub fn fmt_cardinality(n: usize) -> String {
    if n == 0 {
        return "0".to_string();
    }
    let exp = (n as f64).log10().floor() as i32;
    let mantissa = n as f64 / 10f64.powi(exp);
    format!("{mantissa:.1}e{exp}")
}

/// The workspace root, fixed at build time, so that the harness writes to
/// one place whichever directory it runs from.
fn workspace() -> &'static Path {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    crate_dir.ancestors().nth(2).unwrap_or(crate_dir)
}

/// The workspace's `target/` directory: dataset cache and reports.
pub(crate) fn target_dir() -> PathBuf {
    workspace().join("target")
}

/// The directory experiment JSON reports are written to.
pub fn output_dir() -> PathBuf {
    let dir = target_dir().join("experiments");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Serializes a result object under `target/experiments/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let path = output_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)?;
    std::fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let table =
            render_table(&[vec!["a".into(), "long header".into()], vec!["xx".into(), "1".into()]]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[1].starts_with("|--"));
    }

    #[test]
    fn second_formatting() {
        assert_eq!(fmt_secs(0.00001), "1.00e-5");
        assert_eq!(fmt_secs(0.123), "0.123");
        assert_eq!(fmt_secs(45.138), "45.14");
    }

    #[test]
    fn cardinality_formatting() {
        assert_eq!(fmt_cardinality(120_000), "1.2e5");
        assert_eq!(fmt_cardinality(1_536), "1.5e3");
        assert_eq!(fmt_cardinality(0), "0");
        assert_eq!(fmt_cardinality(9), "9.0e0");
    }

    #[test]
    fn json_writing() {
        #[derive(serde::Serialize)]
        struct Tiny {
            x: u32,
        }
        let path = write_json("__report_test", &Tiny { x: 42 }).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("42"));
        std::fs::remove_file(path).ok();
    }
}

/// Renders series as an ASCII bar chart on a log scale — the text analogue
/// of the paper's Figure 3 panels.
///
/// `series` maps a label (e.g. "NP") to one optional value per `x_labels`
/// entry; `None` marks an infeasible configuration.
pub fn ascii_log_chart(
    title: &str,
    x_labels: &[String],
    series: &[(String, Vec<Option<f64>>)],
) -> String {
    const WIDTH: usize = 42;
    let values: Vec<f64> = series
        .iter()
        .flat_map(|(_, vs)| vs.iter().flatten().copied())
        .filter(|v| *v > 0.0)
        .collect();
    let mut out = format!("{title} (log scale)\n");
    let (Some(min), Some(max)) =
        (values.iter().copied().reduce(f64::min), values.iter().copied().reduce(f64::max))
    else {
        out.push_str("  (no data)\n");
        return out;
    };
    let (lo, hi) = (min.log10(), max.log10());
    let span = (hi - lo).max(1e-9);
    let label_width = series.iter().map(|(n, _)| n.len()).max().unwrap_or(3);
    let x_width = x_labels.iter().map(String::len).max().unwrap_or(0);
    for (name, vs) in series {
        for (x, v) in x_labels.iter().zip(vs.iter()) {
            match v {
                Some(v) => {
                    let frac = ((v.log10() - lo) / span).clamp(0.0, 1.0);
                    let bar = 1 + (frac * (WIDTH - 1) as f64).round() as usize;
                    out.push_str(&format!(
                        "  {name:<label_width$} {x:<x_width$} {} {}\n",
                        "█".repeat(bar),
                        fmt_secs(*v),
                    ));
                }
                None => {
                    out.push_str(&format!("  {name:<label_width$} {x:<x_width$} (infeasible)\n"));
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod chart_tests {
    use super::*;

    #[test]
    fn log_chart_scales_bars_monotonically() {
        let chart = ascii_log_chart(
            "Past",
            &["A".to_string(), "B".to_string()],
            &[
                ("NP".to_string(), vec![Some(0.001), Some(0.1)]),
                ("POP".to_string(), vec![Some(0.0005), None]),
            ],
        );
        let np_lines: Vec<&str> = chart.lines().filter(|l| l.contains("NP")).collect();
        let small = np_lines[0].matches('█').count();
        let big = np_lines[1].matches('█').count();
        assert!(big > small, "{chart}");
        assert!(chart.contains("(infeasible)"));
    }

    #[test]
    fn log_chart_handles_empty_series() {
        let chart = ascii_log_chart("x", &[], &[]);
        assert!(chart.contains("no data"));
    }
}
