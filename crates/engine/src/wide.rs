//! Wide-key fallback: the serial consumer of a fact-scan plan.
//!
//! The packed paths fold group-by keys into a `u64`; group-by sets whose
//! combined bit width exceeds 64 (five-plus huge hierarchies at their finest
//! levels) are aggregated here with boxed [`Coordinate`] keys — by plain
//! `get` and by the rebuild of a view that wide ([`crate::maintain`]); the
//! fused join/pivot operators keep requiring packed keys, which every
//! realistic assess group-by satisfies.
//!
//! Only the key is different. The plan is the [`ScanCtx`] every fact scan
//! runs (same column resolution, same lane decode, same predicate kernel),
//! and the scan is the engine's: rows are charged to its governor up front
//! and deadline/cancellation are checked per morsel, like every other scan.
//! It stays serial — boxed keys allocate per row, so the fold is
//! allocator-bound and does not profit from helpers. The
//! [`ScanPath::Wide`](crate::metrics::ScanPath) metric is recorded by
//! `Engine::get` from the returned [`GetOutcome`], once per scan.

use std::sync::Arc;

use olap_model::{
    Coordinate, CubeColumn, CubeQuery, CubeSchema, DerivedCube, MemberId, NumericColumn,
};

use crate::aggregate::{GroupTable, Grouping};
use crate::engine::{Engine, GetOutcome, ScanCtx, ScanSource};
use crate::error::EngineError;

/// Runs the fact-scan plan `ctx` of `q` with wide (boxed) keys, straight to
/// a materialized cube in canonical coordinate order.
pub(crate) fn get_wide(
    engine: &Engine,
    ctx: &ScanCtx,
    schema: &Arc<CubeSchema>,
    q: &CubeQuery,
) -> Result<GetOutcome, EngineError> {
    let ScanSource::Fact(fact, rows) = &ctx.source else {
        return Err(EngineError::Unsupported("wide keys aggregate fact rows only".into()));
    };
    engine.gov_charge_rows(rows.len())?;
    let morsel_rows = engine.config().morsel_rows.max(1);
    let mut table: GroupTable<Coordinate> = GroupTable::new(&ctx.ops);
    let mut values = vec![0.0f64; ctx.measures.len()];
    let mut key_buf: Vec<MemberId> = vec![MemberId(0); ctx.keys.len()];
    let mut sel: Vec<u32> = Vec::new();
    let mut lanes: Vec<Vec<u32>> = vec![Vec::new(); ctx.lane_cols.len()];
    let mut vals: Vec<Vec<f64>> = vec![Vec::new(); ctx.measures.len()];
    let mut morsels = 0usize;
    for lo in rows.clone().step_by(morsel_rows) {
        engine.gov_check()?;
        morsels += 1;
        let len = morsel_rows.min(rows.end - lo);
        let Some(measures) = ctx.decode_fact(fact, lo, len, &mut lanes, &mut vals) else {
            continue;
        };
        let measures: Vec<&[f64]> = measures.collect();
        // With no masks the selection passes every row; the extra vector is
        // noise next to the per-row key allocation below.
        ctx.select(&mut sel, &lanes, len);
        for &local in &sel {
            let row = local as usize;
            for (slot, (lane, roll)) in key_buf.iter_mut().zip(&ctx.keys) {
                *slot = MemberId(roll[lanes[*lane][row] as usize]);
            }
            for (v, lane) in values.iter_mut().zip(&measures) {
                *v = lane[row];
            }
            table.update(Coordinate::new(key_buf.clone()), &values);
        }
    }

    let (keys, cols) = table.finish();
    let coord_cols: Vec<Vec<MemberId>> = (0..q.group_by.arity())
        .map(|c| keys.iter().map(|key| key.members()[c]).collect())
        .collect();
    let columns: Vec<CubeColumn> = q
        .measures
        .iter()
        .zip(cols)
        .map(|(name, data)| CubeColumn::Numeric(NumericColumn::dense(name.clone(), data)))
        .collect();
    let mut cube =
        DerivedCube::from_parts(schema.clone(), q.group_by.clone(), coord_cols, columns)?;
    cube.sort_by_coordinates();
    let groups = cube.len();
    Ok(GetOutcome {
        cube,
        used_view: None,
        rows_scanned: rows.len(),
        parallelism: 1,
        morsels,
        grouping: Grouping::Hashed,
        groups,
        per_shard: Vec::new(),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{query_shape, EngineConfig};
    use crate::governor::{CancelToken, ResourceGovernor};
    use olap_model::{AggOp, GroupBySet, HierarchyBuilder, MeasureDef};
    use olap_storage::{binding::DimInfo, Catalog, Column, CubeBinding, Table};

    /// The fact columns of `rows` (five foreign keys each) with measure
    /// `m` = the row's ordinal, counted from `first`.
    pub(crate) fn wide_rows(rows: &[[i64; 5]], first: usize) -> Vec<Column> {
        let mut columns: Vec<Column> = (0..5)
            .map(|c| Column::i64(format!("fk{c}"), rows.iter().map(|r| r[c]).collect()))
            .collect();
        columns.push(Column::f64("m", (first..first + rows.len()).map(|i| i as f64).collect()));
        columns
    }

    /// Cube `WIDE` over `rows`: five flat hierarchies of 8192 members need
    /// 5 × 13 = 65 key bits, one past the packed-key limit.
    pub(crate) fn wide_catalog(rows: &[[i64; 5]]) -> (Arc<Catalog>, Arc<CubeSchema>) {
        let mut hierarchies = Vec::new();
        let mut dims = Vec::new();
        for h in 0..5 {
            let mut b = HierarchyBuilder::new(format!("H{h}"), [format!("l{h}")]);
            for m in 0..8192 {
                b.add_member_chain(&[format!("h{h}m{m}")]).unwrap();
            }
            hierarchies.push(b.build().unwrap());
            dims.push(DimInfo {
                table: format!("d{h}"),
                pk: format!("fk{h}"),
                level_columns: vec![format!("l{h}")],
            });
        }
        let schema =
            Arc::new(CubeSchema::new("WIDE", hierarchies, vec![MeasureDef::new("m", AggOp::Sum)]));
        let fact = Table::new("wide_fact", wide_rows(rows, 0)).unwrap();
        let fks = (0..5).map(|h| format!("fk{h}")).collect();
        let binding = CubeBinding::new(schema.clone(), &fact, fks, vec!["m".into()], dims).unwrap();
        let catalog = Arc::new(Catalog::new());
        catalog.register_table(fact);
        catalog.register_binding("WIDE", binding);
        (catalog, schema)
    }

    #[test]
    fn every_morsel_checks_the_governor() {
        let (catalog, schema) = wide_catalog(&[[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]);
        let q = CubeQuery::new("WIDE", GroupBySet::top(&schema), vec![], vec!["m".into()]);
        let binding = catalog.binding("WIDE").unwrap();
        let fact = catalog.table("wide_fact").unwrap();
        let (ops, layout) = query_shape(&schema, &q).unwrap();
        let ctx = ScanCtx::over_fact(&binding, &fact, 0..2, &q, &ops, &layout).unwrap();
        let config = EngineConfig { morsel_rows: 1, ..EngineConfig::default() };
        let engine = Engine::with_config(catalog, config);
        assert_eq!(get_wide(&engine, &ctx, &schema, &q).unwrap().morsels, 2);

        // `Engine::get` would stop a cancelled query before planning; the
        // scan itself must stop too, at its first morsel.
        let token = CancelToken::new();
        token.cancel();
        let governor = Arc::new(ResourceGovernor::unlimited().with_cancel_token(token));
        let err = get_wide(&engine.with_governor(governor.clone()), &ctx, &schema, &q).unwrap_err();
        assert_eq!(err, EngineError::Cancelled);
        assert_eq!(governor.rows_scanned(), 2, "rows are charged before the scan starts");
    }
}
