//! The materialized views of the experimental setup.
//!
//! The paper's environment creates materialized views on the star schema "to
//! improve performances". We materialize one aggregate per experiment
//! intention family, each strictly finer than (or equal to) the group-by
//! sets the intentions ask for, with the predicate levels retained:
//!
//! * `mv_customer_year`  — ⟨customer, year⟩: Constant & External intentions;
//! * `mv_part_cnation`   — ⟨part, c_nation⟩: Sibling intention (slices on
//!   `c_region`, which `c_nation` rolls up into);
//! * `mv_supplier_month` — ⟨supplier, month⟩: Past intention.
//!
//! Each view is its defining `get` over the SSB cube, built by the engine
//! (`Engine::materialize_view`) as the scan's key-ordered keys and values;
//! the query is also what `Engine::append` re-runs to maintain it.

use std::sync::Arc;

use olap_engine::Engine;
use olap_model::{CubeQuery, CubeSchema, GroupBySet};
use olap_storage::Catalog;

use crate::generate::SSB_CUBE;

/// Measures every default view materializes.
const VIEW_MEASURES: &[&str] = &["quantity", "revenue"];

/// Builds and registers the three default views, returning their names.
pub fn register_default_views(
    catalog: &Arc<Catalog>,
    schema: &Arc<CubeSchema>,
) -> Result<Vec<String>, olap_engine::EngineError> {
    let engine = Engine::new(catalog.clone());
    let specs: &[(&str, &[&str])] = &[
        ("mv_customer_year", &["customer", "year"]),
        ("mv_part_cnation", &["part", "c_nation"]),
        ("mv_supplier_month", &["supplier", "month"]),
    ];
    let mut names = Vec::new();
    for (name, levels) in specs {
        let group_by = GroupBySet::from_level_names(schema, levels)?;
        let measures: Vec<String> = VIEW_MEASURES.iter().map(|m| m.to_string()).collect();
        let q = CubeQuery::new(SSB_CUBE, group_by, vec![], measures);
        catalog.register_view(engine.materialize_view(*name, &q)?);
        names.push(name.to_string());
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, SsbConfig};
    use olap_engine::EngineConfig;
    use olap_model::Predicate;

    #[test]
    fn views_accelerate_and_agree_with_fact_scans() {
        let ds = generate(SsbConfig::with_scale(0.002));
        let names = register_default_views(&ds.catalog, &ds.schema).unwrap();
        assert_eq!(names.len(), 3);

        let with_views = Engine::new(ds.catalog.clone());
        let without = Engine::with_config(
            ds.catalog.clone(),
            EngineConfig { use_views: false, ..EngineConfig::default() },
        );
        let g = GroupBySet::from_level_names(&ds.schema, &["customer", "year"]).unwrap();
        let q = CubeQuery::new(
            SSB_CUBE,
            g,
            vec![Predicate::eq(&ds.schema, "c_region", "ASIA").unwrap()],
            vec!["revenue".into()],
        );
        let a = with_views.get(&q).unwrap();
        let b = without.get(&q).unwrap();
        assert_eq!(a.used_view.as_deref(), Some("mv_customer_year"));
        assert_eq!(b.used_view, None);
        assert!(a.rows_scanned < b.rows_scanned);
        assert_eq!(a.cube.len(), b.cube.len());
        let ca = a.cube.numeric_column("revenue").unwrap();
        let cb = b.cube.numeric_column("revenue").unwrap();
        for i in 0..a.cube.len() {
            let (va, vb) = (ca.get(i).unwrap(), cb.get(i).unwrap());
            assert!((va - vb).abs() < 1e-6 * va.abs().max(1.0));
        }
    }
}
