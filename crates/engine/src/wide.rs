//! Wide-key fallback for `get`.
//!
//! The fused paths pack group-by keys into a `u64`; group-by sets whose
//! combined bit width exceeds 64 (five-plus huge hierarchies at their finest
//! levels) fall back to this module, which aggregates with boxed
//! [`Coordinate`] keys. Only plain `get` takes this path — the fused
//! join/pivot operators keep requiring packed keys, which every realistic
//! assess group-by satisfies. The scan is chunked through the same
//! [`DataChunk`](olap_storage::DataChunk)/[`select_into`] machinery as the
//! packed paths but stays serial: boxed keys allocate per row, so the scan
//! is allocator-bound and does not profit from helpers.
//!
//! Scan metrics for this path ([`ScanPath::Wide`](crate::metrics::ScanPath))
//! are recorded by the caller, `Engine::get`, from the returned
//! [`GetOutcome`] — this module stays free of engine state, and the counters
//! still land once per scan, outside any per-row loop.

use std::sync::Arc;

use olap_model::{
    AggOp, Coordinate, CubeColumn, CubeQuery, CubeSchema, DerivedCube, MemberId, NumericColumn,
};
use olap_storage::NumericSlice;

use crate::aggregate::{GroupTable, Grouping};
use crate::engine::GetOutcome;
use crate::error::EngineError;
use crate::predicate::{select_into, CompiledFilter};

/// Executes a get with wide (boxed) keys, straight to a materialized cube.
pub(crate) fn get_wide(
    catalog: &olap_storage::Catalog,
    q: &CubeQuery,
    morsel_rows: usize,
) -> Result<GetOutcome, EngineError> {
    let binding = catalog.binding(&q.cube)?;
    let schema: Arc<CubeSchema> = binding.schema().clone();
    q.validate(&schema)?;
    let ops: Vec<AggOp> = q
        .measures
        .iter()
        .map(|m| schema.require_measure(m).map(|d| d.agg()))
        .collect::<Result<_, _>>()?;
    let fact = catalog.table(binding.fact_table())?;
    let carrier: Vec<Option<usize>> = vec![Some(0); schema.hierarchies().len()];
    let filter = CompiledFilter::compile(&schema, &q.predicates, &carrier)?;

    // Distinct id columns decode once per chunk into flat `u32` lanes;
    // masks and keys refer to them by lane slot (see `ScanCtx`).
    let mut lane_cols: Vec<usize> = Vec::new();
    let lane_slot = |lane_cols: &mut Vec<usize>, col: usize| {
        lane_cols.iter().position(|&c| c == col).unwrap_or_else(|| {
            lane_cols.push(col);
            lane_cols.len() - 1
        })
    };
    let mut mask_cols: Vec<(usize, &[bool])> = Vec::new();
    for m in filter.masks() {
        let idx = fact.require_key_like(binding.fk_column(m.hierarchy))?;
        mask_cols.push((lane_slot(&mut lane_cols, idx), &m.mask));
    }
    let mut key_cols: Vec<(usize, Vec<MemberId>)> = Vec::new();
    for (hi, li) in q.group_by.included_hierarchies() {
        let idx = fact.require_key_like(binding.fk_column(hi))?;
        let h = schema.hierarchy(hi).expect("hierarchy in range");
        key_cols.push((lane_slot(&mut lane_cols, idx), h.composed_map(0, li)?));
    }
    let mut measure_cols: Vec<usize> = Vec::new();
    for m in &q.measures {
        let col_name = binding
            .measure_column_by_name(m)
            .ok_or_else(|| EngineError::Model(olap_model::ModelError::UnknownMeasure(m.clone())))?;
        fact.numeric_slice(col_name).map_err(|_| {
            EngineError::Unsupported(format!("measure column `{col_name}` is not numeric"))
        })?;
        measure_cols.push(fact.column_index(col_name).expect("numeric_slice checked existence"));
    }

    let n = fact.n_rows();
    let mut table: GroupTable<Coordinate> = GroupTable::new(&ops);
    let mut values = vec![0.0f64; measure_cols.len()];
    let mut key_buf: Vec<MemberId> = vec![MemberId(0); key_cols.len()];
    let mut sel: Vec<u32> = Vec::new();
    let mut lanes: Vec<Vec<u32>> = vec![Vec::new(); lane_cols.len()];
    let mut morsels = 0usize;
    for chunk in fact.morsels(morsel_rows) {
        morsels += 1;
        for (col, buf) in lane_cols.iter().zip(lanes.iter_mut()) {
            chunk.key_lane(*col, buf).expect("validated key column");
        }
        let masks = mask_cols.iter().map(|(slot, m)| (lanes[*slot].as_slice(), *m));
        let keys: Vec<(&[u32], &[MemberId])> = key_cols
            .iter()
            .map(|(slot, roll)| (lanes[*slot].as_slice(), roll.as_slice()))
            .collect();
        let measures: Vec<NumericSlice<'_>> = measure_cols
            .iter()
            .map(|idx| chunk.numeric_at(*idx).expect("validated measure column"))
            .collect();
        // With no masks `select_into` passes every row; the extra selection
        // vector is noise next to the per-row key allocation below.
        select_into(&mut sel, chunk.len(), masks);
        for &local in &sel {
            let row = local as usize;
            for (slot, (lane, rollmap)) in key_buf.iter_mut().zip(&keys) {
                *slot = rollmap[lane[row] as usize];
            }
            for (v, mv) in values.iter_mut().zip(&measures) {
                *v = mv.get(row);
            }
            table.update(Coordinate::new(key_buf.clone()), &values);
        }
    }

    let (keys, cols) = table.finish();
    let arity = q.group_by.arity();
    let mut coord_cols: Vec<Vec<MemberId>> =
        (0..arity).map(|_| Vec::with_capacity(keys.len())).collect();
    for key in &keys {
        for (c, col) in coord_cols.iter_mut().enumerate() {
            col.push(key.members()[c]);
        }
    }
    let columns: Vec<CubeColumn> = q
        .measures
        .iter()
        .zip(cols)
        .map(|(name, data)| CubeColumn::Numeric(NumericColumn::dense(name.clone(), data)))
        .collect();
    let mut cube = DerivedCube::from_parts(schema, q.group_by.clone(), coord_cols, columns)?;
    cube.sort_by_coordinates();
    let cube_len = cube.len();
    Ok(GetOutcome {
        cube,
        used_view: None,
        rows_scanned: n,
        parallelism: 1,
        morsels,
        grouping: Grouping::Hashed,
        groups: cube_len,
        per_shard: Vec::new(),
    })
}
