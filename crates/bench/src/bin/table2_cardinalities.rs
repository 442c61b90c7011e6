//! Table 2 — target cube cardinalities per intention and scale.

use assess_bench::{artifacts, runs, scales};

fn main() {
    let (scales, reps, with_views) = scales::cli();
    artifacts::table2(&runs::run_matrix(&scales, reps, None, with_views)).publish();
}
