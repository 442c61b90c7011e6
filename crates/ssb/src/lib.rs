//! # ssb-data
//!
//! A deterministic, seeded generator for the **Star Schema Benchmark** (SSB,
//! O'Neil et al. 2009) — the dataset of the paper's evaluation (Section 6) —
//! plus the bindings that expose it as a detailed cube to the engine, the
//! materialized views the paper's setup creates, and a synthetic **external
//! benchmark cube** reconciled with the SSB hierarchies.
//!
//! The SSB star schema has one fact table, `lineorder`, and four dimensions
//! giving four linear hierarchies:
//!
//! ```text
//! customer ⪰ city ⪰ nation ⪰ region        (30 000 · SF members)
//! supplier ⪰ city ⪰ nation ⪰ region        ( 2 000 · SF members)
//! part     ⪰ brand ⪰ category ⪰ mfgr       (40 000 · SF members)
//! date     ⪰ month ⪰ year                  (2 556 fixed: 1992-1998)
//! ```
//!
//! `lineorder` holds `6 000 000 · SF` facts with measures `quantity`,
//! `extendedprice`, `discount`, `revenue` and `supplycost` (all `sum`).
//!
//! Scale note: the paper runs SF ∈ {1, 10, 100}; this reproduction runs the
//! same ×100 span shifted down two decades (default SF ∈ {0.01, 0.1, 1}) so
//! the largest dataset is the paper's smallest. Dimension cardinalities
//! scale linearly with SF (with small floors) instead of the SSB spec's
//! logarithmic part scaling, so target-cube cardinalities scale like the
//! paper's Table 2. Both substitutions are documented in DESIGN.md.

pub mod cache;
pub mod calendar;
pub mod dims;
pub mod external;
pub mod fact;
pub mod generate;
pub mod names;
pub mod shard;
pub mod views;

pub use generate::{SsbConfig, SsbCounts, SsbDataset};
pub use shard::{shard_dataset, ShardedSsb};
