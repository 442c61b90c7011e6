//! Top-level SSB dataset generation.

use std::sync::Arc;

use olap_model::{AggOp, CubeSchema, MeasureDef};
use olap_storage::{binding::DimInfo, Catalog, CubeBinding};

use crate::dims;
use crate::external::{self, ExternalConfig};
use crate::fact::{self, FactDomains};

/// The name under which the SSB detailed cube is registered.
pub const SSB_CUBE: &str = "SSB";
/// The name under which the external benchmark cube is registered.
pub const EXTERNAL_CUBE: &str = "SSB_EXPECTED";

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SsbConfig {
    /// Scale factor: SF 1 is 6 000 000 facts (the paper's SSB1).
    pub scale: f64,
    /// RNG seed; all output is a pure function of `(scale, seed)`.
    pub seed: u64,
    /// Generate the fact table on multiple threads (identical output).
    pub parallel: bool,
    /// External benchmark cube settings.
    pub external: ExternalConfig,
}

impl SsbConfig {
    pub fn with_scale(scale: f64) -> Self {
        SsbConfig { scale, seed: 0x55B, parallel: true, external: ExternalConfig::default() }
    }

    /// Row counts implied by the scale factor.
    pub fn counts(&self) -> SsbCounts {
        let scaled = |base: usize, floor: usize| ((base as f64 * self.scale) as usize).max(floor);
        SsbCounts {
            customers: scaled(30_000, 100),
            suppliers: scaled(2_000, 20),
            parts: scaled(40_000, 200),
            dates: 2_557,
            lineorders: scaled(6_000_000, 1_000),
        }
    }
}

/// Row counts of a generated dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsbCounts {
    pub customers: usize,
    pub suppliers: usize,
    pub parts: usize,
    pub dates: usize,
    pub lineorders: usize,
}

/// A fully generated and registered SSB dataset.
pub struct SsbDataset {
    pub catalog: Arc<Catalog>,
    /// Schema of the `SSB` cube (four hierarchies, five measures).
    pub schema: Arc<CubeSchema>,
    /// Schema of the reconciled external benchmark cube (same hierarchies,
    /// one `expected_revenue` measure).
    pub external_schema: Arc<CubeSchema>,
    pub counts: SsbCounts,
    pub config: SsbConfig,
}

/// Generates the dataset and registers every table and binding in a fresh
/// catalog. Materialized views are **not** built here — call
/// [`crate::views::register_default_views`] (the experiment setup does, the
/// view ablation does not).
pub fn generate(config: SsbConfig) -> SsbDataset {
    generate_with_tables(config, None, None).expect("freshly generated tables are consistent")
}

/// Like [`generate`], but optionally reusing already-materialized fact and
/// external tables (the disk cache path). Overridden tables are validated
/// against the regenerated dimensions by the binding construction; errors
/// mean the supplied tables do not match this configuration.
pub fn generate_with_tables(
    config: SsbConfig,
    lineorder_override: Option<olap_storage::Table>,
    external_override: Option<olap_storage::Table>,
) -> Result<SsbDataset, olap_storage::StorageError> {
    let counts = config.counts();
    let (customer_table, customer_h) = dims::gen_customers(counts.customers, config.seed);
    let (supplier_table, supplier_h) = dims::gen_suppliers(counts.suppliers, config.seed);
    let (part_table, part_h) = dims::gen_parts(counts.parts, config.seed);
    let (date_table, date_h) = dims::gen_dates();

    let schema = Arc::new(CubeSchema::new(
        SSB_CUBE,
        vec![customer_h, supplier_h, part_h, date_h],
        vec![
            MeasureDef::new("quantity", AggOp::Sum),
            MeasureDef::new("extendedprice", AggOp::Sum),
            MeasureDef::new("discount", AggOp::Sum),
            MeasureDef::new("revenue", AggOp::Sum),
            MeasureDef::new("supplycost", AggOp::Sum),
        ],
    ));

    let lineorder = match lineorder_override {
        Some(table) => table,
        None => fact::gen_lineorder(
            counts.lineorders,
            FactDomains {
                customers: counts.customers,
                suppliers: counts.suppliers,
                parts: counts.parts,
                dates: counts.dates,
            },
            config.seed,
            config.parallel,
        ),
    };
    // Foreign keys as narrow codes: each column's width comes from its
    // dimension's cardinality. Already-encoded columns (the disk-cache
    // path) pass through.
    let fk_domains: [(&str, u32); 4] = [
        ("ckey", counts.customers as u32),
        ("skey", counts.suppliers as u32),
        ("pkey", counts.parts as u32),
        ("dkey", counts.dates as u32),
    ];
    let lineorder = lineorder.encode_keys(&fk_domains)?;

    let catalog = Arc::new(Catalog::new());
    let dims_meta = vec![
        DimInfo {
            table: "customer".into(),
            pk: "ckey".into(),
            level_columns: vec![
                "ckey".into(),
                "c_city".into(),
                "c_nation".into(),
                "c_region".into(),
            ],
        },
        DimInfo {
            table: "supplier".into(),
            pk: "skey".into(),
            level_columns: vec![
                "skey".into(),
                "s_city".into(),
                "s_nation".into(),
                "s_region".into(),
            ],
        },
        DimInfo {
            table: "part".into(),
            pk: "pkey".into(),
            level_columns: vec!["pkey".into(), "brand".into(), "category".into(), "mfgr".into()],
        },
        DimInfo {
            table: "dates".into(),
            pk: "dkey".into(),
            level_columns: vec!["date".into(), "month".into(), "year".into()],
        },
    ];
    let binding = CubeBinding::new(
        schema.clone(),
        &lineorder,
        vec!["ckey".into(), "skey".into(), "pkey".into(), "dkey".into()],
        vec![
            "quantity".into(),
            "extendedprice".into(),
            "discount".into(),
            "revenue".into(),
            "supplycost".into(),
        ],
        dims_meta.clone(),
    )?;

    catalog.register_table(customer_table);
    catalog.register_table(supplier_table);
    catalog.register_table(part_table);
    catalog.register_table(date_table);
    catalog.register_table(lineorder);
    catalog.register_binding(SSB_CUBE, binding);

    // External benchmark cube, reconciled with the SSB hierarchies.
    let (external_table, external_schema) = match external_override {
        Some(table) => {
            let schema_only = Arc::new(CubeSchema::new(
                EXTERNAL_CUBE,
                schema.hierarchies().to_vec(),
                vec![MeasureDef::new("expected_revenue", AggOp::Sum)],
            ));
            (table, schema_only)
        }
        None => external::gen_external(&config.external, &counts, &schema, config.seed),
    };
    let external_table = external_table.encode_keys(&fk_domains)?;
    let external_binding = CubeBinding::new(
        external_schema.clone(),
        &external_table,
        vec!["ckey".into(), "skey".into(), "pkey".into(), "dkey".into()],
        vec!["expected_revenue".into()],
        dims_meta,
    )?;
    catalog.register_table(external_table);
    catalog.register_binding(EXTERNAL_CUBE, external_binding);

    Ok(SsbDataset { catalog, schema, external_schema, counts, config })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_dataset_generates_and_registers_everything() {
        let ds = generate(SsbConfig::with_scale(0.001));
        assert_eq!(ds.counts.customers, 100); // floor
        assert_eq!(ds.counts.lineorders, 6_000);
        assert_eq!(
            ds.catalog.table_names(),
            vec!["customer", "dates", "expected", "lineorder", "part", "supplier"]
        );
        assert!(ds.catalog.binding(SSB_CUBE).is_ok());
        assert!(ds.catalog.binding(EXTERNAL_CUBE).is_ok());
        assert_eq!(ds.schema.hierarchies().len(), 4);
        assert_eq!(ds.schema.measures().len(), 5);
    }

    #[test]
    fn counts_scale_linearly() {
        let small = SsbConfig::with_scale(0.01).counts();
        let large = SsbConfig::with_scale(0.1).counts();
        assert_eq!(large.lineorders, 10 * small.lineorders);
        assert_eq!(large.customers, 10 * small.customers);
        assert_eq!(large.dates, small.dates);
    }
}
