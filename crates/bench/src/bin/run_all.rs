//! Every artifact (Tables 1–3, Figures 3–4, the chooser check) from one
//! measured matrix.

use assess_bench::{artifacts, runs, scales};

fn main() {
    let (scales, reps, with_views) = scales::cli();
    artifacts::table1().publish();
    let matrix = runs::run_matrix(&scales, reps, None, with_views);
    for artifact in artifacts::from_matrix(&matrix) {
        artifact.publish();
    }
}
