//! Figure 3 — NP/JOP/POP times per intention and scale: table, log chart and
//! plan ordering.

use assess_bench::{artifacts, runs, scales};

fn main() {
    let (scales, reps, with_views) = scales::cli();
    artifacts::figure3(&runs::run_matrix(&scales, reps, None, with_views)).publish();
}
