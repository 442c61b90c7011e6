//! Differential properties of the label-code kernels: `labeling::codes`
//! against a string-labelling oracle (the implementation the codes
//! replaced, kept here verbatim), and the row gathers — `take_rows`,
//! `sort_by_coordinates`, `drop_null_rows` — against a cell-by-cell
//! rebuild of the cube.

use std::sync::Arc;

use assess_core::ast::{Bound, LabelingSpec, RangeRule};
use assess_core::labeling::{self, ResolvedLabeling};
use assess_core::memops;
use olap_model::{
    AggOp, CubeColumn, CubeSchema, DerivedCube, GroupBySet, HierarchyBuilder, LabelColumn,
    MeasureDef, MemberId, NumericColumn,
};
use proptest::prelude::*;

/// The string-labelling `apply` the code kernel replaced.
fn oracle(labeling: &ResolvedLabeling, values: &[Option<f64>]) -> Vec<Option<String>> {
    match labeling {
        ResolvedLabeling::Ranges(rules) => values
            .iter()
            .map(|v| v.and_then(|x| rules.iter().find(|r| r.contains(x)).map(|r| r.label.clone())))
            .collect(),
        ResolvedLabeling::Quantiles { k, labels } => {
            let mut order: Vec<usize> =
                (0..values.len()).filter(|&i| values[i].is_some()).collect();
            order.sort_by(|&a, &b| {
                values[a].partial_cmp(&values[b]).unwrap_or(std::cmp::Ordering::Equal)
            });
            let n = order.len();
            let mut out = vec![None; values.len()];
            for (pos, &idx) in order.iter().enumerate() {
                let group_from_bottom =
                    if n <= 1 { k - 1 } else { (pos * *k / (n - 1)).min(k - 1) };
                let top_index = k - 1 - group_from_bottom;
                out[idx] = Some(labels[top_index].clone());
            }
            out
        }
        ResolvedLabeling::ZScoreRound { clamp } => {
            let valid: Vec<f64> = values.iter().flatten().copied().collect();
            if valid.is_empty() {
                return vec![None; values.len()];
            }
            let n = valid.len() as f64;
            let mean = valid.iter().sum::<f64>() / n;
            let sd = (valid.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt();
            values
                .iter()
                .map(|v| {
                    v.map(|x| {
                        let z = if sd == 0.0 { 0.0 } else { (x - mean) / sd };
                        let rounded = (z.round() as i32).clamp(-clamp, *clamp);
                        if rounded >= 0 {
                            format!("z+{rounded}")
                        } else {
                            format!("z{rounded}")
                        }
                    })
                })
                .collect()
        }
        ResolvedLabeling::EquiWidth { k, labels } => {
            let valid: Vec<f64> = values.iter().flatten().copied().collect();
            let (min, max) = match (
                valid.iter().cloned().reduce(f64::min),
                valid.iter().cloned().reduce(f64::max),
            ) {
                (Some(min), Some(max)) => (min, max),
                _ => return vec![None; values.len()],
            };
            let width = (max - min) / *k as f64;
            values
                .iter()
                .map(|v| {
                    v.map(|x| {
                        let bin = if width == 0.0 {
                            0
                        } else {
                            (((x - min) / width) as usize).min(k - 1)
                        };
                        labels[bin].clone()
                    })
                })
                .collect()
        }
    }
}

/// The labels `labeling::codes` assigns, read back through the table.
fn coded(labeling: &ResolvedLabeling, values: &[Option<f64>]) -> Vec<Option<String>> {
    let column = labeling::codes(labeling, &NumericColumn::nullable("delta", values.to_vec()));
    assert_eq!(column.len(), values.len());
    (0..column.len()).map(|row| column.get(row).map(str::to_string)).collect()
}

/// A value drawn for a palette: signed zeros, small integers (boundaries
/// of the generated ranges) and arbitrary reals.
fn palette_value() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(-0.0), (-6i32..6).prop_map(f64::from), -6.0f64..6.0, -1e6f64..1e6]
}

/// Nullable values drawn from a palette of at most five numbers, so ties
/// are heavy; one case in four has at most two cells.
fn tied_values() -> impl Strategy<Value = Vec<Option<f64>>> {
    (
        collection::vec(palette_value(), 1..=5),
        collection::vec(option::weighted(0.8, 0usize..5), 0..160),
        0u8..4,
    )
        .prop_map(|(palette, picks, tiny)| {
            let keep = if tiny == 0 { picks.len() % 3 } else { picks.len() };
            picks[..keep].iter().map(|p| p.map(|i| palette[i % palette.len()])).collect()
        })
}

/// Nullable values with few ties.
fn spread_values() -> impl Strategy<Value = Vec<Option<f64>>> {
    collection::vec(option::weighted(0.85, palette_value()), 0..160)
}

fn quantiles(k: usize) -> ResolvedLabeling {
    ResolvedLabeling::Quantiles { k, labels: (1..=k).map(|i| format!("top-{i}")).collect() }
}

/// Range rules over sorted integer cut points: each gap between two cuts is
/// a rule or, one time in four, left uncovered; every cut closes exactly
/// one side; labels repeat (`low` names two rules apart).
fn range_rules() -> impl Strategy<Value = Vec<RangeRule>> {
    (
        collection::vec(-5i32..5, 2..7),
        collection::vec(any::<bool>(), 8),
        collection::vec(0u8..4, 7),
        any::<bool>(),
    )
        .prop_map(|(mut cuts, closes_left, keep, open_ends)| {
            cuts.sort_unstable();
            cuts.dedup();
            if cuts.len() == 1 {
                cuts.push(cuts[0] + 1);
            }
            let mut bounds: Vec<f64> = cuts.into_iter().map(f64::from).collect();
            if open_ends {
                bounds.insert(0, f64::NEG_INFINITY);
                bounds.push(f64::INFINITY);
            }
            const NAMES: [&str; 4] = ["low", "mid", "low", "high"];
            let mut rules: Vec<RangeRule> = bounds
                .windows(2)
                .enumerate()
                .filter(|(i, _)| keep[*i] != 0)
                .map(|(i, w)| {
                    RangeRule::new(
                        Bound { value: w[0], inclusive: !closes_left[i] },
                        Bound { value: w[1], inclusive: closes_left[i + 1] },
                        NAMES[i % NAMES.len()],
                    )
                })
                .collect();
            if rules.is_empty() {
                let w = &bounds[..2];
                rules.push(RangeRule::new(
                    Bound { value: w[0], inclusive: true },
                    Bound { value: w[1], inclusive: true },
                    "only",
                ));
            }
            rules
        })
}

fn schema() -> Arc<CubeSchema> {
    let mut product = HierarchyBuilder::new("Product", ["product"]);
    for p in 0..6 {
        product.add_member_chain(&[format!("p{p}")]).unwrap();
    }
    let mut store = HierarchyBuilder::new("Store", ["store"]);
    for s in 0..3 {
        store.add_member_chain(&[format!("s{s}")]).unwrap();
    }
    Arc::new(CubeSchema::new(
        "MINI",
        vec![product.build().unwrap(), store.build().unwrap()],
        vec![MeasureDef::new("quantity", AggOp::Sum)],
    ))
}

/// A cube of `cells` (product, store, nullable value, nullable label code)
/// with a label table holding a repeated and an unused label.
fn cube(cells: &[(u32, u32, Option<f64>, Option<u32>)]) -> DerivedCube {
    let s = schema();
    let g = GroupBySet::from_level_names(&s, &["product", "store"]).unwrap();
    let table = ["bad", "ok", "bad", "unused"].map(String::from).to_vec();
    DerivedCube::from_parts(
        s,
        g,
        vec![
            cells.iter().map(|c| MemberId(c.0)).collect(),
            cells.iter().map(|c| MemberId(c.1)).collect(),
        ],
        vec![
            CubeColumn::Numeric(NumericColumn::nullable(
                "delta",
                cells.iter().map(|c| c.2).collect(),
            )),
            CubeColumn::Label(LabelColumn::from_codes(
                "label",
                table,
                cells.iter().map(|c| c.3).collect(),
            )),
        ],
    )
    .unwrap()
}

fn cells() -> impl Strategy<Value = Vec<(u32, u32, Option<f64>, Option<u32>)>> {
    collection::vec(
        (0u32..6, 0u32..3, option::weighted(0.8, palette_value()), option::weighted(0.8, 0u32..4)),
        0..60,
    )
}

/// One cell, decoded: coordinate, value (bits, so `-0.0` and NaN compare
/// exactly) and label.
type Decoded = (Vec<MemberId>, Option<u64>, Option<String>);

fn decoded(cube: &DerivedCube) -> Vec<Decoded> {
    let delta = cube.numeric_column("delta").unwrap();
    let label = cube.label_column("label").unwrap();
    (0..cube.len())
        .map(|row| {
            (
                cube.coordinate(row).members().to_vec(),
                delta.get(row).map(f64::to_bits),
                label.get(row).map(str::to_string),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn range_codes_match_the_oracle(rules in range_rules(), vals in tied_values()) {
        let labeling = labeling::resolve(&LabelingSpec::Ranges(rules)).unwrap();
        prop_assert_eq!(coded(&labeling, &vals), oracle(&labeling, &vals));
    }

    #[test]
    fn quantile_codes_match_the_oracle(k in 0usize..4, vals in tied_values()) {
        let labeling = quantiles([3, 4, 5, 10][k]);
        prop_assert_eq!(coded(&labeling, &vals), oracle(&labeling, &vals));
    }

    #[test]
    fn quantile_codes_match_the_oracle_without_ties(k in 0usize..4, vals in spread_values()) {
        let labeling = quantiles([3, 4, 5, 10][k]);
        prop_assert_eq!(coded(&labeling, &vals), oracle(&labeling, &vals));
    }

    #[test]
    fn equi_width_and_zscore_codes_match_the_oracle(tied in tied_values(), spread in spread_values()) {
        for name in ["5stars", "zscore"] {
            let labeling = labeling::resolve(&LabelingSpec::Named(name.into())).unwrap();
            for vals in [&tied, &spread] {
                prop_assert_eq!(coded(&labeling, vals), oracle(&labeling, vals), "{}", name);
            }
        }
    }

    #[test]
    fn gathers_keep_every_label_and_value(
        cells in cells(),
        picks in collection::vec(0usize..1000, 0..80),
    ) {
        let cube = cube(&cells);
        let before = decoded(&cube);

        // take_rows: any rows, repeats included, in the given order.
        let rows: Vec<u32> = if cells.is_empty() {
            Vec::new()
        } else {
            picks.iter().map(|p| (p % cells.len()) as u32).collect()
        };
        let taken = cube.take_rows(&rows);
        let expect: Vec<Decoded> = rows.iter().map(|&r| before[r as usize].clone()).collect();
        prop_assert_eq!(decoded(&taken), expect);
        prop_assert_eq!(taken.label_column("label").unwrap().distinct(), ["bad", "ok", "bad", "unused"]);

        // sort_by_coordinates: a stable sort of the cells by coordinate.
        let mut sorted = cube.clone();
        sorted.sort_by_coordinates();
        let mut expect = before.clone();
        expect.sort_by(|a, b| a.0.cmp(&b.0));
        prop_assert_eq!(decoded(&sorted), expect);

        // drop_null_rows: exactly the cells with a value, in order.
        let kept = memops::drop_null_rows(cube, "delta", None).unwrap();
        let expect: Vec<Decoded> = before.into_iter().filter(|c| c.1.is_some()).collect();
        prop_assert_eq!(decoded(&kept), expect);
    }
}
