//! Figure 4 — per-stage breakdown of the Past intention per plan and scale.

use assess_bench::{artifacts, runs, scales};

fn main() {
    let (scales, reps, with_views) = scales::cli();
    artifacts::figure4(&runs::run_matrix(&scales, reps, Some("Past"), with_views)).publish();
}
