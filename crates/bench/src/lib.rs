//! # assess-bench
//!
//! The experiment harness reproducing Section 6 of the paper. The binaries
//! `table1_formulation_effort`, `table2_cardinalities`, `table3_min_times`,
//! `figure3_plan_times`, `figure4_breakdown` and `chooser_accuracy` each
//! print one artifact; `run_all` prints them all. All but Table 1 take
//! `--scales 0.01,0.1,1 --reps 3 --no-views`.
//!
//! Every timed number comes from one loop, [`runs::run_matrix`] (warm-up,
//! rotated strategy order, medians and quartiles), and every artifact is
//! rendered once, in [`artifacts`]. Each printed artifact and its JSON
//! report under the workspace's `target/experiments/` open with a
//! [`report::Provenance`] record.

pub mod artifacts;
pub mod report;
pub mod runs;
pub mod scales;
pub mod workloads;
