//! The synthetic external benchmark cube.
//!
//! External benchmarks (Section 3.1) compare the target cube "against the
//! data stored in a cube with schema B = (H′, M′)", assumed reconciled with
//! the target's hierarchies. The paper's running example is an industry
//! reference (EU averages, S&P 500…) joined by coordinate equality.
//!
//! Here we synthesize such a reference: an **expected revenue per customer
//! and year**, calibrated to the actual per-(customer, year) mean revenue of
//! the generated facts with multiplicative noise, and with configurable
//! coverage (external sources rarely cover every cell — this is what
//! `assess` vs `assess*` differ on). The cube is stored at a representative
//! date grain (January 1st of each year) so it lives in the same star schema
//! layout; aggregating it by `(customer, year)` reproduces the reference
//! values exactly.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use olap_model::{AggOp, CubeSchema, MeasureDef};
use olap_storage::{Column, Table};

use crate::calendar;
use crate::generate::SsbCounts;

/// Settings of the external benchmark generator.
#[derive(Debug, Clone, Copy)]
pub struct ExternalConfig {
    /// Fraction of (customer, year) cells the external source covers.
    pub coverage: f64,
    /// Multiplicative noise half-width around the calibrated expectation
    /// (0.15 = ±15%).
    pub noise: f64,
}

impl Default for ExternalConfig {
    fn default() -> Self {
        ExternalConfig { coverage: 0.9, noise: 0.15 }
    }
}

/// Mean revenue per fact implied by the generator's distributions: base
/// price uniform over `900..900+min(parts,2000)`, quantity uniform 1..=50,
/// discount uniform 0..=10 percent.
fn mean_revenue_per_fact(parts: usize) -> f64 {
    let price_span = parts.clamp(1, 2_000) as f64;
    let mean_price = 900.0 + (price_span - 1.0) / 2.0;
    let mean_quantity = 25.5;
    let mean_discount_factor = 0.95;
    mean_price * mean_quantity * mean_discount_factor
}

/// Generates the external benchmark fact table and its (reconciled) schema.
///
/// The schema shares the four SSB hierarchies — the paper's reconciliation
/// assumption `H = H′` — and carries the single measure `expected_revenue`.
/// Rows sit at `(customer, Jan-1-of-year)`; supplier/part keys are a fixed
/// member (the cube is fully aggregated along those hierarchies in use).
pub fn gen_external(
    config: &ExternalConfig,
    counts: &SsbCounts,
    ssb_schema: &Arc<CubeSchema>,
    seed: u64,
) -> (Table, Arc<CubeSchema>) {
    let schema = Arc::new(CubeSchema::new(
        crate::generate::EXTERNAL_CUBE,
        ssb_schema.hierarchies().to_vec(),
        vec![MeasureDef::new("expected_revenue", AggOp::Sum)],
    ));

    // Dense key of January 1st for each year of the calendar.
    let mut jan1_keys = Vec::new();
    for (key, d) in calendar::all_dates().iter().enumerate() {
        if d.month == 1 && d.day == 1 {
            jan1_keys.push(key as i64);
        }
    }
    let years = jan1_keys.len();
    let facts_per_cell = counts.lineorders as f64 / (counts.customers as f64 * years as f64);
    let expectation = facts_per_cell * mean_revenue_per_fact(counts.parts);

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xE87E);
    let mut ckeys = Vec::new();
    let mut dkeys = Vec::new();
    let mut values = Vec::new();
    for c in 0..counts.customers {
        for &jan1 in &jan1_keys {
            if rng.gen::<f64>() >= config.coverage {
                continue;
            }
            let factor = 1.0 + config.noise * (2.0 * rng.gen::<f64>() - 1.0);
            ckeys.push(c as i64);
            dkeys.push(jan1);
            // Integer-valued like the SSB measures: exact under f64
            // summation in any order (shard merges stay byte-identical).
            values.push((expectation * factor).round());
        }
    }
    let n = ckeys.len();
    let table = Table::new(
        "expected",
        vec![
            Column::i64("ckey", ckeys),
            Column::i64("skey", vec![0; n]),
            Column::i64("pkey", vec![0; n]),
            Column::i64("dkey", dkeys),
            Column::f64("expected_revenue", values),
        ],
    )
    .expect("external table is well-formed");
    (table, schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims;
    use olap_model::MeasureDef;

    fn tiny_schema() -> Arc<CubeSchema> {
        let (_, c) = dims::gen_customers(50, 1);
        let (_, s) = dims::gen_suppliers(5, 1);
        let (_, p) = dims::gen_parts(20, 1);
        let (_, d) = dims::gen_dates();
        Arc::new(CubeSchema::new(
            "SSB",
            vec![c, s, p, d],
            vec![MeasureDef::new("revenue", AggOp::Sum)],
        ))
    }

    fn counts() -> SsbCounts {
        SsbCounts { customers: 50, suppliers: 5, parts: 20, dates: 2_557, lineorders: 1_000 }
    }

    #[test]
    fn coverage_controls_cell_count() {
        let schema = tiny_schema();
        let full = ExternalConfig { coverage: 1.0, noise: 0.0 };
        let (t, _) = gen_external(&full, &counts(), &schema, 7);
        assert_eq!(t.n_rows(), 50 * 7);
        let half = ExternalConfig { coverage: 0.5, noise: 0.0 };
        let (t, _) = gen_external(&half, &counts(), &schema, 7);
        let frac = t.n_rows() as f64 / (50.0 * 7.0);
        assert!(frac > 0.35 && frac < 0.65, "coverage fraction {frac}");
    }

    #[test]
    fn values_are_calibrated_to_actual_scale() {
        let schema = tiny_schema();
        let cfg = ExternalConfig { coverage: 1.0, noise: 0.0 };
        let (t, _) = gen_external(&cfg, &counts(), &schema, 7);
        let vals = t.column("expected_revenue").unwrap();
        let vals = vals.as_f64().unwrap();
        // ~2.857 facts per (customer, year) × mean revenue per fact,
        // rounded to the integer grid all measures live on.
        let expect = ((1_000.0 / (50.0 * 7.0)) * mean_revenue_per_fact(20)).round();
        for &v in vals {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn rows_sit_on_january_first() {
        let schema = tiny_schema();
        let cfg = ExternalConfig::default();
        let (t, _) = gen_external(&cfg, &counts(), &schema, 7);
        let dates = calendar::all_dates();
        for dk in t.column("dkey").unwrap().i64_iter().unwrap() {
            let d = dates[dk as usize];
            assert_eq!((d.month, d.day), (1, 1));
        }
    }

    #[test]
    fn external_schema_shares_hierarchies() {
        let schema = tiny_schema();
        let (_, ext) = gen_external(&ExternalConfig::default(), &counts(), &schema, 7);
        assert_eq!(ext.hierarchies().len(), schema.hierarchies().len());
        assert_eq!(ext.measures().len(), 1);
        assert_eq!(ext.measures()[0].name(), "expected_revenue");
        // Same member domains (reconciliation).
        for (a, b) in schema.hierarchies().iter().zip(ext.hierarchies()) {
            assert_eq!(a.level(0).unwrap().cardinality(), b.level(0).unwrap().cardinality());
        }
    }
}
