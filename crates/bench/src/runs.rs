//! The one measuring loop of the harness: every timed number of Tables 2–3,
//! Figures 3–4 and the chooser check comes from [`run_matrix`].
//!
//! The discipline is the repository benchmark's: one `setup` per scale, one
//! untimed warm-up per (intention, feasible strategy), then `reps` rounds in
//! which an intention's feasible strategies run in rotated order (round `r`
//! starts with strategy `r mod k`), so drift in the host's pace spreads over
//! every strategy instead of landing on one. Every sample is kept; cells
//! report medians and quartiles.

use std::ops::Deref;

use assess_core::cost;
use assess_core::exec::StageTimings;
use assess_core::plan::Strategy;
use serde::Serialize;

use crate::report::Provenance;
use crate::scales::{setup, ScaleSpec};
use crate::workloads::intentions;

/// Measurements of one (intention, strategy, scale) cell.
#[derive(Debug, Clone, Serialize)]
pub struct PlanTiming {
    pub intention: String,
    pub strategy: String,
    pub sf: f64,
    /// Median end-to-end seconds over the repetitions.
    pub seconds: f64,
    /// First quartile of the end-to-end seconds.
    pub q1: f64,
    /// Third quartile of the end-to-end seconds.
    pub q3: f64,
    /// Per-stage median seconds, Figure 4 category order. Each stage is its
    /// own median, so the stages need not add up to `seconds`.
    pub breakdown: Vec<(String, f64)>,
    /// Result cardinality `|C|`.
    pub cells: usize,
    /// Rows scanned per execution.
    pub rows_scanned: usize,
    /// Whether `cost::choose` picks this strategy for the intention at this
    /// scale.
    pub chosen: bool,
    /// Every timed end-to-end seconds, in round order.
    pub samples: Vec<f64>,
}

/// The measured cells and what produced them. Dereferences to the cells,
/// in scale, intention, strategy order.
pub struct Matrix {
    pub provenance: Provenance,
    pub cells: Vec<PlanTiming>,
}

impl Deref for Matrix {
    type Target = [PlanTiming];
    fn deref(&self) -> &[PlanTiming] {
        &self.cells
    }
}

impl<'a> IntoIterator for &'a Matrix {
    type Item = &'a PlanTiming;
    type IntoIter = std::slice::Iter<'a, PlanTiming>;
    fn into_iter(self) -> Self::IntoIter {
        self.cells.iter()
    }
}

impl Matrix {
    /// The measured scales, in run order.
    pub fn scales(&self) -> Vec<ScaleSpec> {
        self.provenance.scales.iter().map(|&sf| ScaleSpec { sf }).collect()
    }

    /// The cells of one intention at one scale, strategy order.
    pub fn at<'a>(&'a self, intention: &'a str, sf: f64) -> impl Iterator<Item = &'a PlanTiming> {
        self.cells.iter().filter(move |c| c.intention == intention && c.sf == sf)
    }

    /// One plan's cells across the measured scales, `None` where it was not
    /// measured.
    pub fn series<'a>(&'a self, intention: &'a str, strategy: &str) -> Vec<Option<&'a PlanTiming>> {
        let cell = |sf| self.at(intention, sf).find(|c| c.strategy == strategy);
        self.provenance.scales.iter().map(|&sf| cell(sf)).collect()
    }
}

/// The three quartile cut points as Python's `statistics.quantiles(values,
/// n=4)` computes them (the "exclusive" method), the convention of the
/// repository benchmark; the middle one is the median. One value is its own
/// three quartiles; none gives NaN.
pub(crate) fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    match len {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    std::array::from_fn(|i| {
        let scaled = (i + 1) * (len + 1);
        let j = (scaled / 4).clamp(1, len - 1);
        let delta = scaled as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

pub(crate) fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The order the strategies `0..k` run in during round `round`: rotated, so
/// that over `k` rounds each strategy runs first once.
pub(crate) fn rotation(round: usize, k: usize) -> impl Iterator<Item = usize> {
    (0..k).map(move |i| (round + i) % k)
}

/// Runs every intention under every feasible strategy at every scale,
/// `reps` timed rounds each (the paper runs five and averages). `only`
/// restricts to one intention family (Figure 4 measures only "Past").
pub fn run_matrix(
    scales: &[ScaleSpec],
    reps: usize,
    only: Option<&str>,
    with_views: bool,
) -> Matrix {
    let reps = reps.max(1);
    let mut cells = Vec::new();
    for scale in scales {
        eprintln!("[setup] generating {} …", scale.label());
        let env = setup(scale.sf, with_views);
        for intention in intentions().iter().filter(|i| only.is_none_or(|o| o == i.name)) {
            let resolved =
                env.runner.resolve(&intention.statement).expect("canonical statements resolve");
            let pick = cost::choose(&resolved, env.runner.engine()).expect("the chooser runs");
            let strategies: Vec<Strategy> = Strategy::all()
                .into_iter()
                .filter(|s| s.feasible_for(&resolved.benchmark))
                .collect();
            let run = |strategy| {
                env.runner.execute(&resolved, strategy).expect("feasible strategies execute")
            };
            // The untimed warm-up also records each plan's result shape.
            let shapes: Vec<(usize, usize)> = strategies
                .iter()
                .map(|&s| run(s))
                .map(|(c, r)| (c.len(), r.rows_scanned))
                .collect();
            let mut timings: Vec<Vec<StageTimings>> = vec![Vec::new(); strategies.len()];
            for round in 0..reps {
                for i in rotation(round, strategies.len()) {
                    timings[i].push(run(strategies[i]).1.timings);
                }
            }
            for ((strategy, (result_cells, rows_scanned)), runs) in
                strategies.into_iter().zip(shapes).zip(timings)
            {
                let samples: Vec<f64> = runs.iter().map(|t| t.total().as_secs_f64()).collect();
                let [q1, seconds, q3] = quartiles(&samples);
                let stages: Vec<_> = runs.iter().map(StageTimings::as_rows).collect();
                let breakdown = stages[0]
                    .iter()
                    .enumerate()
                    .map(|(i, (name, _))| {
                        let stage: Vec<f64> = stages.iter().map(|s| s[i].1).collect();
                        (name.to_string(), median(&stage))
                    })
                    .collect();
                cells.push(PlanTiming {
                    intention: intention.name.to_string(),
                    strategy: strategy.acronym().to_string(),
                    sf: scale.sf,
                    seconds,
                    q1,
                    q3,
                    breakdown,
                    cells: result_cells,
                    rows_scanned,
                    chosen: strategy == pick,
                    samples,
                });
            }
        }
    }
    Matrix { provenance: Provenance::new(scales, reps, with_views), cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_the_feasibility_table() {
        // Tiny scale: the point is coverage, not timing fidelity.
        let rows = run_matrix(&[ScaleSpec { sf: 0.001 }], 1, None, true);
        let combos: Vec<(String, String)> =
            rows.iter().map(|r| (r.intention.clone(), r.strategy.clone())).collect();
        // Constant: NP only; External: NP+JOP; Sibling/Past: all three.
        assert_eq!(combos.len(), 1 + 2 + 3 + 3);
        assert!(combos.contains(&("Constant".into(), "NP".into())));
        assert!(!combos.contains(&("Constant".into(), "JOP".into())));
        assert!(combos.contains(&("External".into(), "JOP".into())));
        assert!(!combos.contains(&("External".into(), "POP".into())));
        assert!(combos.contains(&("Sibling".into(), "POP".into())));
        assert!(combos.contains(&("Past".into(), "POP".into())));
        for row in &rows {
            assert!(row.cells > 0, "{} {} produced no cells", row.intention, row.strategy);
            assert!(row.seconds >= 0.0);
            assert_eq!(row.breakdown.len(), 7);
        }
    }

    #[test]
    fn cells_keep_every_sample_and_one_pick_per_intention() {
        let matrix = run_matrix(&[ScaleSpec { sf: 0.001 }], 4, Some("Past"), false);
        assert_eq!(matrix.len(), 3);
        assert_eq!(
            (matrix.provenance.scales.as_slice(), matrix.provenance.reps),
            (&[0.001][..], 4)
        );
        for cell in &matrix {
            assert_eq!(cell.samples.len(), 4);
            assert!(cell.q1 <= cell.seconds && cell.seconds <= cell.q3);
            assert_eq!(cell.cells, matrix[0].cells, "every plan computes the same cube");
        }
        assert_eq!(matrix.iter().filter(|c| c.chosen).count(), 1);
    }

    #[test]
    fn quartiles_follow_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let one_to_ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&one_to_ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), [15.0, 30.0, 45.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!(quartiles(&[]).iter().all(|q| q.is_nan()));
        // An even count's median is the midpoint of the middle pair.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn over_k_rounds_each_strategy_runs_first_once() {
        for k in 1..=3 {
            let mut firsts: Vec<usize> = (0..k).filter_map(|r| rotation(r, k).next()).collect();
            firsts.sort_unstable();
            assert_eq!(firsts, (0..k).collect::<Vec<_>>());
            for round in 0..2 * k {
                let mut order: Vec<usize> = rotation(round, k).collect();
                order.sort_unstable();
                assert_eq!(order, (0..k).collect::<Vec<_>>(), "round {round} runs each once");
            }
        }
    }
}
