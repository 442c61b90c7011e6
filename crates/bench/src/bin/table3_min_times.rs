//! Table 3 — minimum execution times per intention and scale, NP's in
//! parentheses, and the linear-scaling check.

use assess_bench::{artifacts, runs, scales};

fn main() {
    let (scales, reps, with_views) = scales::cli();
    artifacts::table3(&runs::run_matrix(&scales, reps, None, with_views)).publish();
}
