//! In-memory (client-side) implementations of the logical operators.
//!
//! The paper's prototype does everything the DBMS is not asked to do in
//! Python over Pandas DataFrames; these functions are that layer, working on
//! materialized [`DerivedCube`]s. Joins and pivots run the engine's one
//! [`attach`](olap_engine::attach()) operator — the same probe the fused
//! plans run — so what the Naive Plan still pays for, and what the
//! NP-vs-JOP/POP experiments measure, is *where* it runs: both inputs are
//! materialized into coordinate and value columns first (two `get` round
//! trips), their coordinates re-packed into keys, and the target's columns
//! gathered a second time for the joined cube.

use olap_engine::{pack_cells, AttachSpec, ResourceGovernor, Side};
use olap_model::{CubeColumn, DerivedCube, LabelColumn, MemberId, NumericColumn};
use olap_timeseries::{Forecaster, Predictor};

use crate::error::AssessError;
use crate::functions::{ColRef, TransformStep};
use crate::labeling::{self, ResolvedLabeling};

/// Reads a numeric column as nullable values.
fn column_values(cube: &DerivedCube, name: &str) -> Result<Vec<Option<f64>>, AssessError> {
    let col = cube.require_numeric(name)?;
    Ok((0..col.len()).map(|row| col.get(row)).collect())
}

/// Resolves a transform input to per-row values (literals broadcast;
/// properties looked up on each cell's coordinate, rolling the group-by
/// member up to the property's level when needed).
fn input_values(cube: &DerivedCube, input: &ColRef) -> Result<Vec<Option<f64>>, AssessError> {
    match input {
        ColRef::Column(name) => column_values(cube, name),
        ColRef::Literal(v) => Ok(vec![Some(*v); cube.len()]),
        ColRef::Property { level, name } => {
            let schema = cube.schema();
            let (hi, li) = schema.locate_level(level)?;
            let group_level = cube.group_by().slots()[hi].ok_or_else(|| {
                AssessError::Statement(format!(
                    "property `{name}` of level `{level}` needs its hierarchy in the by clause"
                ))
            })?;
            if group_level > li {
                return Err(AssessError::Statement(format!(
                    "property `{name}` lives at level `{level}`, which is finer than the group-by level"
                )));
            }
            let h = schema.hierarchy(hi).expect("located hierarchy exists");
            let lvl = h.level(li).expect("located level exists");
            if lvl.property(name).is_none() {
                return Err(AssessError::Statement(format!(
                    "level `{level}` has no property `{name}`"
                )));
            }
            let rollmap = h.composed_map(group_level, li)?;
            let component = cube.group_by().component_of(hi).expect("included hierarchy");
            let col = &cube.coord_cols()[component];
            Ok((0..cube.len())
                .map(|row| {
                    let member = rollmap[col[row].index()];
                    lvl.property_of(name, member)
                })
                .collect())
        }
    }
}

/// The cells of `cube` at `rows`, in that order, preserving column order.
pub fn take_rows(cube: &DerivedCube, rows: &[u32]) -> DerivedCube {
    let rows = || rows.iter().map(|&r| r as usize);
    let coord_cols: Vec<Vec<MemberId>> =
        cube.coord_cols().iter().map(|col| rows().map(|r| col[r]).collect()).collect();
    let columns: Vec<CubeColumn> = cube
        .columns()
        .iter()
        .map(|c| match c {
            CubeColumn::Numeric(nc) => CubeColumn::Numeric(NumericColumn::nullable(
                nc.name.clone(),
                rows().map(|r| nc.get(r)).collect(),
            )),
            CubeColumn::Label(lc) => {
                let mut out = LabelColumn::new(lc.name.clone());
                for r in rows() {
                    out.push(lc.get(r));
                }
                CubeColumn::Label(out)
            }
        })
        .collect();
    DerivedCube::from_parts(cube.schema().clone(), cube.group_by().clone(), coord_cols, columns)
        .expect("gathered columns stay consistent")
}

/// Drops the rows whose `column` is null (the `assess` inner semantics
/// applied after the benchmark measure is computed).
pub fn drop_null_rows(
    cube: &DerivedCube,
    column: &str,
    governor: Option<&ResourceGovernor>,
) -> Result<DerivedCube, AssessError> {
    if let Some(g) = governor {
        g.check()?;
    }
    let col = cube.require_numeric(column)?;
    let rows: Vec<u32> = (0..cube.len() as u32).filter(|&r| col.validity[r as usize]).collect();
    Ok(take_rows(cube, &rows))
}

/// Every join and the pivot `⊞`, client-side: attaches `spec.measure` of
/// the matching `bench` cells to the cells of `target` as the nullable
/// columns `spec.names` (see [`olap_engine::attach()`] for what pairs up).
/// Without a `bench` the target cube is probed itself — the pivot. A
/// benchmark cell whose measure is null counts as absent, as it would be
/// from a cube the engine computed.
pub fn attach(
    target: &DerivedCube,
    bench: Option<&DerivedCube>,
    spec: &AttachSpec<'_>,
    governor: Option<&ResourceGovernor>,
) -> Result<DerivedCube, AssessError> {
    let bench = bench.unwrap_or(target);
    let values = bench.require_numeric(spec.measure)?;
    let valued: Vec<usize> = (0..bench.len()).filter(|&r| values.validity[r]).collect();
    let (t_layout, t_keys) = pack_cells(target, 0..target.len())?;
    let (b_layout, b_keys) = pack_cells(bench, valued.iter().copied())?;
    let found = olap_engine::attach(
        Side { group_by: target.group_by(), layout: &t_layout, keys: &t_keys },
        Side { group_by: bench.group_by(), layout: &b_layout, keys: &b_keys },
        spec,
        governor,
    )?;
    let mut out = take_rows(target, &found.kept);
    for (name, col) in found.columns(spec.names, |row| values.data[valued[row as usize]]) {
        out.add_column(CubeColumn::Numeric(NumericColumn::nullable(name, col)))?;
    }
    if let Some(g) = governor {
        g.charge_output_cells(out.len() as u64)?;
    }
    Ok(out)
}

/// Applies one `⊟`/`⊡` transform step, appending its output column.
pub fn apply_transform(cube: &mut DerivedCube, step: &TransformStep) -> Result<(), AssessError> {
    let inputs: Vec<Vec<Option<f64>>> =
        step.inputs.iter().map(|i| input_values(cube, i)).collect::<Result<_, _>>()?;
    let out: Vec<Option<f64>> = if step.function.is_holistic() {
        let refs: Vec<&[Option<f64>]> = inputs.iter().map(Vec::as_slice).collect();
        step.function.eval_holistic(&refs)
    } else {
        (0..cube.len())
            .map(|row| {
                let args: Vec<Option<f64>> = inputs.iter().map(|col| col[row]).collect();
                step.function.eval_cell(&args)
            })
            .collect()
    };
    cube.add_column(CubeColumn::Numeric(NumericColumn::nullable(step.output.clone(), out)))?;
    Ok(())
}

/// Applies the regression transform of past benchmarks: fits each row's
/// chronological `history` columns and writes the one-step-ahead forecast.
pub fn apply_regression(
    cube: &mut DerivedCube,
    history: &[String],
    output: &str,
) -> Result<(), AssessError> {
    let cols: Vec<Vec<Option<f64>>> =
        history.iter().map(|name| column_values(cube, name)).collect::<Result<_, _>>()?;
    let forecaster = Forecaster::new(Predictor::LinearRegression);
    let out: Vec<Option<f64>> = (0..cube.len())
        .map(|row| {
            let series: Vec<Option<f64>> = cols.iter().map(|c| c[row]).collect();
            forecaster.predict(&series)
        })
        .collect();
    cube.add_column(CubeColumn::Numeric(NumericColumn::nullable(output.to_string(), out)))?;
    Ok(())
}

/// Attaches a constant benchmark column.
pub fn add_const_column(cube: &mut DerivedCube, name: &str, value: f64) -> Result<(), AssessError> {
    let data = vec![value; cube.len()];
    cube.add_column(CubeColumn::Numeric(NumericColumn::dense(name.to_string(), data)))?;
    Ok(())
}

/// Applies the labeling function to `input_column`, appending the `label`
/// column.
pub fn apply_label(
    cube: &mut DerivedCube,
    labeling: &ResolvedLabeling,
    input_column: &str,
) -> Result<(), AssessError> {
    let values = column_values(cube, input_column)?;
    let labels = labeling::apply(labeling, &values);
    let col = LabelColumn::from_labels("label", labels);
    cube.add_column(CubeColumn::Label(col))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::Function;
    use olap_engine::{Keep, Rewrite};
    use olap_model::{AggOp, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef};
    use std::sync::Arc;

    /// Figure 1's cubes: fresh-fruit quantities in Italy and France.
    fn schema() -> Arc<CubeSchema> {
        let mut product = HierarchyBuilder::new("Product", ["product"]);
        for p in ["Apple", "Pear", "Lemon"] {
            product.add_member_chain(&[p]).unwrap();
        }
        let mut store = HierarchyBuilder::new("Store", ["country"]);
        store.add_member_chain(&["Italy"]).unwrap();
        store.add_member_chain(&["France"]).unwrap();
        Arc::new(CubeSchema::new(
            "SALES",
            vec![product.build().unwrap(), store.build().unwrap()],
            vec![MeasureDef::new("quantity", AggOp::Sum)],
        ))
    }

    fn cube(schema: &Arc<CubeSchema>, country: u32, quantities: &[(u32, f64)]) -> DerivedCube {
        let g = GroupBySet::from_level_names(schema, &["product", "country"]).unwrap();
        DerivedCube::from_parts(
            schema.clone(),
            g,
            vec![
                quantities.iter().map(|(p, _)| MemberId(*p)).collect(),
                vec![MemberId(country); quantities.len()],
            ],
            vec![CubeColumn::Numeric(NumericColumn::dense(
                "quantity",
                quantities.iter().map(|(_, q)| *q).collect(),
            ))],
        )
        .unwrap()
    }

    /// The natural join attaching `quantity` under `names`.
    fn natural(keep: Keep, names: &[String]) -> AttachSpec<'_> {
        AttachSpec { on: None, rewrites: vec![Rewrite::Same], keep, measure: "quantity", names }
    }

    fn figure_1() -> (DerivedCube, DerivedCube) {
        let s = schema();
        let italy = cube(&s, 0, &[(0, 100.0), (1, 90.0), (2, 30.0)]);
        let france = cube(&s, 1, &[(0, 150.0), (1, 110.0), (2, 20.0)]);
        (italy, france)
    }

    #[test]
    fn figure_1_sliced_join_and_transforms() {
        let (italy, france) = figure_1();
        // D = C ⋈_product B (component 1 is the country).
        let names = ["benchmark.quantity".to_string()];
        let spec = AttachSpec {
            on: Some(1),
            rewrites: vec![Rewrite::Member(MemberId(1))],
            keep: Keep::Matched,
            measure: "quantity",
            names: &names,
        };
        let mut d = attach(&italy, Some(&france), &spec, None).unwrap();
        assert_eq!(d.len(), 3);
        // E = ⊟ difference → diff.
        apply_transform(
            &mut d,
            &TransformStep {
                function: Function::Difference,
                inputs: vec![
                    ColRef::Column("quantity".into()),
                    ColRef::Column("benchmark.quantity".into()),
                ],
                output: "diff".into(),
            },
        )
        .unwrap();
        let diff = column_values(&d, "diff").unwrap();
        assert_eq!(diff, vec![Some(-50.0), Some(-20.0), Some(10.0)]);
        // F = ⊡ percOfTotal over ⟨diff, quantity⟩: totals 100+90+30 = 220.
        apply_transform(
            &mut d,
            &TransformStep {
                function: Function::PercOfTotal,
                inputs: vec![ColRef::Column("diff".into()), ColRef::Column("quantity".into())],
                output: "percOfTotal".into(),
            },
        )
        .unwrap();
        let pot = column_values(&d, "percOfTotal").unwrap();
        assert!((pot[0].unwrap() - (-50.0 / 220.0)).abs() < 1e-12);
        assert!((pot[2].unwrap() - (10.0 / 220.0)).abs() < 1e-12);
        // G = range labeling: Figure 1 labels Apple bad, Pear/Lemon ok.
        let labeling = ResolvedLabeling::Ranges(labeling::ranges(&[
            (f64::NEG_INFINITY, true, -0.2, false, "bad"),
            (-0.2, true, 0.2, true, "ok"),
            (0.2, false, f64::INFINITY, true, "good"),
        ]));
        apply_label(&mut d, &labeling, "percOfTotal").unwrap();
        let labels: Vec<Option<&str>> =
            (0..3).map(|r| d.label_column("label").unwrap().get(r)).collect();
        assert_eq!(labels, vec![Some("bad"), Some("ok"), Some("ok")]);
    }

    #[test]
    fn pivot_matches_sliced_join_on_figure_1() {
        let (italy, france) = figure_1();
        // Build the union cube C′ (both slices) and pivot on Italy.
        let s = italy.schema().clone();
        let g = italy.group_by().clone();
        let mut coord_cols = italy.coord_cols().to_vec();
        for (c, col) in coord_cols.iter_mut().enumerate() {
            col.extend(france.coord_cols()[c].iter().copied());
        }
        let mut q = italy.numeric_column("quantity").unwrap().data.clone();
        q.extend(france.numeric_column("quantity").unwrap().data.iter().copied());
        let all = DerivedCube::from_parts(
            s,
            g,
            coord_cols,
            vec![CubeColumn::Numeric(NumericColumn::dense("quantity", q))],
        )
        .unwrap();
        let names = ["qtyFrance".to_string()];
        let spec = AttachSpec {
            on: Some(1),
            rewrites: vec![Rewrite::Member(MemberId(1))],
            keep: Keep::Slice(MemberId(0)),
            measure: "quantity",
            names: &names,
        };
        let pivoted = attach(&all, None, &spec, None).unwrap();
        assert_eq!(pivoted.len(), 3);
        assert_eq!(
            column_values(&pivoted, "qtyFrance").unwrap(),
            vec![Some(150.0), Some(110.0), Some(20.0)]
        );
    }

    #[test]
    fn natural_join_inner_and_outer() {
        let s = schema();
        let left = cube(&s, 0, &[(0, 1.0), (1, 2.0), (2, 3.0)]);
        let right = cube(&s, 0, &[(0, 10.0), (2, 30.0)]);
        let b = ["b".to_string()];
        let inner = attach(&left, Some(&right), &natural(Keep::Matched, &b), None).unwrap();
        assert_eq!(inner.len(), 2);
        let outer = attach(&left, Some(&right), &natural(Keep::All, &b), None).unwrap();
        assert_eq!(outer.len(), 3);
        assert_eq!(column_values(&outer, "b").unwrap(), vec![Some(10.0), None, Some(30.0)]);
    }

    #[test]
    fn join_rejects_different_group_bys() {
        let s = schema();
        let left = cube(&s, 0, &[(0, 1.0)]);
        let g = GroupBySet::from_level_names(&s, &["product"]).unwrap();
        let right = DerivedCube::from_parts(
            s.clone(),
            g,
            vec![vec![MemberId(0)]],
            vec![CubeColumn::Numeric(NumericColumn::dense("quantity", vec![1.0]))],
        )
        .unwrap();
        let b = ["b".to_string()];
        assert!(attach(&left, Some(&right), &natural(Keep::Matched, &b), None).is_err());
    }

    #[test]
    fn regression_forecasts_per_row() {
        let s = schema();
        let mut c = cube(&s, 0, &[(0, 30.0), (1, 7.0)]);
        c.add_column(CubeColumn::Numeric(NumericColumn::dense("past0", vec![10.0, 7.0]))).unwrap();
        c.add_column(CubeColumn::Numeric(NumericColumn::dense("past1", vec![20.0, 7.0]))).unwrap();
        apply_regression(
            &mut c,
            &["past0".into(), "past1".into(), "quantity".into()],
            "benchmark.quantity",
        )
        .unwrap();
        let pred = column_values(&c, "benchmark.quantity").unwrap();
        assert!((pred[0].unwrap() - 40.0).abs() < 1e-9); // 10,20,30 → 40
        assert!((pred[1].unwrap() - 7.0).abs() < 1e-9); // flat series
    }

    #[test]
    fn const_column_and_null_drop() {
        let s = schema();
        let mut c = cube(&s, 0, &[(0, 1.0), (1, 2.0)]);
        add_const_column(&mut c, "benchmark.quantity", 5.0).unwrap();
        assert_eq!(column_values(&c, "benchmark.quantity").unwrap(), vec![Some(5.0), Some(5.0)]);
        c.add_column(CubeColumn::Numeric(NumericColumn::nullable("maybe", vec![Some(1.0), None])))
            .unwrap();
        let dropped = drop_null_rows(&c, "maybe", None).unwrap();
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped.coordinate(0).members()[0], MemberId(0));
    }

    #[test]
    fn transform_with_literal_broadcasts() {
        let s = schema();
        let mut c = cube(&s, 0, &[(0, 10.0), (1, 20.0)]);
        apply_transform(
            &mut c,
            &TransformStep {
                function: Function::Ratio,
                inputs: vec![ColRef::Column("quantity".into()), ColRef::Literal(10.0)],
                output: "delta".into(),
            },
        )
        .unwrap();
        assert_eq!(column_values(&c, "delta").unwrap(), vec![Some(1.0), Some(2.0)]);
    }
}
