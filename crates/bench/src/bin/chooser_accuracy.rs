//! The cost-based chooser (a §8 extension) against the measured fastest plan.

use assess_bench::{artifacts, runs, scales};

fn main() {
    let (scales, reps, with_views) = scales::cli();
    artifacts::chooser(&runs::run_matrix(&scales, reps, None, with_views)).publish();
}
