//! Cube bindings: the multidimensional metadata tying a star schema to a
//! cube schema.
//!
//! The paper's prototype "uses multidimensional metadata to rewrite OLAP
//! queries on a star schema" (reference 6 of the paper). A [`CubeBinding`] is that
//! metadata: for every hierarchy of the cube schema it names the fact-table
//! foreign-key column whose values are the [`olap_model::MemberId`]s of the
//! hierarchy's finest level, and for every measure the fact column holding
//! its values. Dimension-table info is kept for the SQL text `assess-core`'s
//! `codegen` renders for Table 1.

use std::sync::Arc;

use olap_model::CubeSchema;

use crate::error::StorageError;
use crate::table::Table;

/// SQL-rendering metadata for one dimension of the star schema.
#[derive(Debug, Clone)]
pub struct DimInfo {
    /// Dimension table name (e.g. `customer`).
    pub table: String,
    /// Primary-key column of the dimension table (e.g. `ckey`).
    pub pk: String,
    /// Attribute column for each level of the bound hierarchy, finest first
    /// (e.g. `["ckey", "city", "nation", "region"]`).
    pub level_columns: Vec<String>,
}

/// Binds a fact [`Table`] to an [`olap_model::CubeSchema`].
#[derive(Debug, Clone)]
pub struct CubeBinding {
    schema: Arc<CubeSchema>,
    fact_table: String,
    /// One fact column per hierarchy; its `i64` values are level-0 member ids.
    fk_columns: Vec<String>,
    /// One fact column per schema measure.
    measure_columns: Vec<String>,
    /// One entry per hierarchy, for SQL text rendering.
    dims: Vec<DimInfo>,
}

impl CubeBinding {
    /// Creates and validates a binding against the fact table.
    ///
    /// Checks that (i) arities line up with the schema, (ii) every named
    /// column exists with the right type, and (iii) every foreign key value
    /// is a valid member id of the hierarchy's finest level (referential
    /// integrity of the star schema).
    pub fn new(
        schema: Arc<CubeSchema>,
        fact: &Table,
        fk_columns: Vec<String>,
        measure_columns: Vec<String>,
        dims: Vec<DimInfo>,
    ) -> Result<Self, StorageError> {
        if fk_columns.len() != schema.hierarchies().len() {
            return Err(StorageError::InvalidBinding(format!(
                "{} foreign-key columns for {} hierarchies",
                fk_columns.len(),
                schema.hierarchies().len()
            )));
        }
        if measure_columns.len() != schema.measures().len() {
            return Err(StorageError::InvalidBinding(format!(
                "{} measure columns for {} measures",
                measure_columns.len(),
                schema.measures().len()
            )));
        }
        if dims.len() != schema.hierarchies().len() {
            return Err(StorageError::InvalidBinding(format!(
                "{} dimension descriptors for {} hierarchies",
                dims.len(),
                schema.hierarchies().len()
            )));
        }
        for (h, fk) in schema.hierarchies().iter().zip(&fk_columns) {
            // Accept either physical key layout (plain i64 or encoded
            // codes); the referential-integrity check is identical.
            let idx = fact.require_key_like(fk)?;
            let mut keys = fact
                .column_parts(idx)
                .flat_map(|part| part.i64_iter().expect("key-like column iterates"));
            let domain = h.level(0).map(|l| l.cardinality() as i64).unwrap_or(0);
            if let Some(bad) = keys.find(|&k| k < 0 || k >= domain) {
                return Err(StorageError::InvalidBinding(format!(
                    "foreign key `{fk}` holds value {bad} outside the domain of level `{}` (0..{domain})",
                    h.level(0).map(|l| l.name()).unwrap_or("?"),
                )));
            }
        }
        for m in &measure_columns {
            fact.require_numeric(m)?;
        }
        for (h, d) in schema.hierarchies().iter().zip(&dims) {
            if d.level_columns.len() != h.depth() {
                return Err(StorageError::InvalidBinding(format!(
                    "dimension `{}` names {} level columns for {} levels",
                    d.table,
                    d.level_columns.len(),
                    h.depth()
                )));
            }
        }
        Ok(CubeBinding {
            schema,
            fact_table: fact.name().to_string(),
            fk_columns,
            measure_columns,
            dims,
        })
    }

    pub fn schema(&self) -> &Arc<CubeSchema> {
        &self.schema
    }

    pub fn fact_table(&self) -> &str {
        &self.fact_table
    }

    /// Fact FK column for hierarchy `hi`.
    pub fn fk_column(&self, hi: usize) -> &str {
        &self.fk_columns[hi]
    }

    /// Fact measure column by measure name.
    pub fn measure_column_by_name(&self, measure: &str) -> Option<&str> {
        self.schema.measure_index(measure).map(|mi| self.measure_columns[mi].as_str())
    }

    /// Dimension descriptor of hierarchy `hi`.
    pub fn dim(&self, hi: usize) -> &DimInfo {
        &self.dims[hi]
    }

    /// SQL column name of a level (for SQL text generation).
    pub fn level_sql_column(&self, hi: usize, li: usize) -> &str {
        &self.dims[hi].level_columns[li]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use olap_model::{AggOp, HierarchyBuilder, MeasureDef};

    fn schema() -> Arc<CubeSchema> {
        let mut product = HierarchyBuilder::new("Product", ["product", "type"]);
        product.add_member_chain(&["Apple", "Fresh Fruit"]).unwrap();
        product.add_member_chain(&["Milk", "Dairy"]).unwrap();
        Arc::new(CubeSchema::new(
            "SALES",
            vec![product.build().unwrap()],
            vec![MeasureDef::new("quantity", AggOp::Sum)],
        ))
    }

    fn fact() -> Table {
        Table::new(
            "sales",
            vec![Column::i64("pkey", vec![0, 1, 0]), Column::f64("quantity", vec![5.0, 2.0, 1.0])],
        )
        .unwrap()
    }

    fn dims() -> Vec<DimInfo> {
        vec![DimInfo {
            table: "product".into(),
            pk: "pkey".into(),
            level_columns: vec!["pkey".into(), "type".into()],
        }]
    }

    #[test]
    fn valid_binding_builds() {
        let b = CubeBinding::new(
            schema(),
            &fact(),
            vec!["pkey".into()],
            vec!["quantity".into()],
            dims(),
        )
        .unwrap();
        assert_eq!(b.fact_table(), "sales");
        assert_eq!(b.fk_column(0), "pkey");
        assert_eq!(b.measure_column_by_name("quantity"), Some("quantity"));
        assert_eq!(b.level_sql_column(0, 1), "type");
    }

    #[test]
    fn key_validation_reads_every_segment() {
        let n = crate::TAIL_ROWS;
        let seed = Table::new(
            "sales",
            vec![Column::i64("pkey", vec![0; n]), Column::f64("quantity", vec![1.0; n])],
        )
        .unwrap();
        // The bad key lives only in the second segment.
        let grown = seed
            .append_batch(&[Column::i64("pkey", vec![1, 7]), Column::f64("quantity", vec![1.0; 2])])
            .unwrap();
        assert_eq!(grown.segments().len(), 2);
        let bind = |t: &Table| {
            CubeBinding::new(schema(), t, vec!["pkey".into()], vec!["quantity".into()], dims())
        };
        assert!(bind(&seed).is_ok());
        assert!(
            matches!(bind(&grown), Err(StorageError::InvalidBinding(m)) if m.contains("value 7"))
        );
    }

    #[test]
    fn out_of_domain_fk_rejected() {
        let bad_fact = Table::new(
            "sales",
            vec![Column::i64("pkey", vec![0, 7]), Column::f64("quantity", vec![1.0, 1.0])],
        )
        .unwrap();
        let err = CubeBinding::new(
            schema(),
            &bad_fact,
            vec!["pkey".into()],
            vec!["quantity".into()],
            dims(),
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::InvalidBinding(_)));
    }

    #[test]
    fn arity_mismatches_rejected() {
        assert!(
            CubeBinding::new(schema(), &fact(), vec![], vec!["quantity".into()], dims()).is_err()
        );
        assert!(CubeBinding::new(schema(), &fact(), vec!["pkey".into()], vec![], dims()).is_err());
        let short_dims = vec![DimInfo {
            table: "product".into(),
            pk: "pkey".into(),
            level_columns: vec!["pkey".into()],
        }];
        assert!(CubeBinding::new(
            schema(),
            &fact(),
            vec!["pkey".into()],
            vec!["quantity".into()],
            short_dims
        )
        .is_err());
    }

    #[test]
    fn missing_columns_rejected() {
        assert!(CubeBinding::new(
            schema(),
            &fact(),
            vec!["ghost".into()],
            vec!["quantity".into()],
            dims()
        )
        .is_err());
        assert!(CubeBinding::new(
            schema(),
            &fact(),
            vec!["pkey".into()],
            vec!["ghost".into()],
            dims()
        )
        .is_err());
    }
}
