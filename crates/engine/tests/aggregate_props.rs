//! Properties of the partial-aggregate algebra (`Partial` + `Grouper`):
//! the direct-addressed and the hashed grouper are interchangeable bit for
//! bit, worker scratch reused across morsels never leaks a slot, merging
//! partials equals one sequential pass, and key order is coordinate order.

use std::sync::Arc;

use olap_engine::aggregate::{accumulate_chunk, Grouper, Grouping, Partial};
use olap_engine::pool::MorselScratch;
use olap_engine::{Engine, EngineConfig, KeyLayout};
use olap_model::{AggOp, CubeQuery, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef};
use olap_storage::{binding::DimInfo, Catalog, Column, CubeBinding, Table};
use proptest::prelude::*;

const OPS: [AggOp; 5] = [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Avg];

/// A deterministic LCG stream per proptest case.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    }
}

/// One chunk of rows over two group-by components: code lanes, identity
/// roll-up maps and one value lane per operator in [`OPS`].
struct Chunk {
    lanes: [Vec<u32>; 2],
    rolls: [Vec<u32>; 2],
    values: Vec<Vec<f64>>,
}

impl Chunk {
    /// `rows` rows whose codes stay below `domain` per component;
    /// `fractional` values have a non-zero fractional part, so f64 addition
    /// is inexact and any reordering of a fold would show in the bits.
    fn random(
        next: &mut impl FnMut() -> u64,
        rows: usize,
        domain: [u32; 2],
        fractional: bool,
    ) -> Chunk {
        let lanes = domain.map(|d| (0..rows).map(|_| (next() % u64::from(d)) as u32).collect());
        let rolls = domain.map(|d| (0..d).collect());
        let values = OPS
            .iter()
            .map(|_| {
                (0..rows)
                    .map(|_| {
                        let x = (next() % 20_000) as f64 - 10_000.0;
                        if fractional {
                            x / 7.0 + 0.1
                        } else {
                            x
                        }
                    })
                    .collect()
            })
            .collect();
        Chunk { lanes, rolls, values }
    }

    fn len(&self) -> usize {
        self.lanes[0].len()
    }

    /// Folds the chunk (or its `selection`) into `out` through `grouper`.
    fn fold(
        &self,
        out: &mut Partial,
        grouper: &mut Grouper,
        layout: &KeyLayout,
        selection: Option<&[u32]>,
    ) {
        let keys = self.lanes.iter().zip(&self.rolls).map(|(l, r)| (&l[..], &r[..]));
        let measures = self.values.iter().map(|v| &v[..]);
        accumulate_chunk(out, grouper, layout, self.len(), selection, keys, measures);
    }
}

/// Keys in first-seen order plus every state value as raw bits.
fn bits(p: &Partial) -> (Vec<u64>, Vec<Vec<u64>>) {
    let (keys, cols) = p.clone().finish();
    (keys, cols.iter().map(|c| c.iter().map(|x| x.to_bits()).collect()).collect())
}

/// Two layouts that pack the same codes to the same keys but sit on either
/// side of the direct-addressing bound: the second widens component 0 —
/// the most-significant field — by one bit. `split` is component 1's width.
fn straddling_layouts(split: u32) -> (KeyLayout, KeyLayout) {
    let bound = Grouper::DIRECT_BITS;
    let at = KeyLayout::for_cardinalities(&[1 << (bound - split), 1 << split]);
    let above = KeyLayout::for_cardinalities(&[1 << (bound - split + 1), 1 << split]);
    assert_eq!((at.total_bits(), above.total_bits()), (bound, bound + 1));
    assert_eq!((Grouping::of(&at), Grouping::of(&above)), (Grouping::Direct, Grouping::Hashed));
    (at, above)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Direct and hashed groupers produce bit-identical partials: same
    /// first-seen key order, same `f64` bits, for every operator, on
    /// fractional values, with and without a selection vector.
    #[test]
    fn direct_and_hashed_groupers_agree_bit_for_bit(
        seed in any::<u64>(),
        split in 1u32..12,
        rows in 1usize..3000,
        selected in any::<bool>(),
    ) {
        let (at, above) = straddling_layouts(split);
        let mut next = lcg(seed);
        // Codes fill the narrower layout's whole key space, top bit included.
        let domain = [1 << (Grouper::DIRECT_BITS - split), 1 << split];
        let chunk = Chunk::random(&mut next, rows, domain, true);
        let selection: Option<Vec<u32>> =
            selected.then(|| (0..rows as u32).filter(|_| next() % 3 != 0).collect());

        let mut partials = Vec::new();
        for layout in [&at, &above] {
            let mut grouper = Grouper::for_layout(layout);
            let mut out = Partial::new(&OPS);
            chunk.fold(&mut out, &mut grouper, layout, selection.as_deref());
            // A second chunk exercises lookups of already-registered keys.
            chunk.fold(&mut out, &mut grouper, layout, None);
            partials.push(out);
        }
        prop_assert_eq!(bits(&partials[0]), bits(&partials[1]));
        let folded = selection.map_or(rows, |s| s.len()) + rows;
        let counts = &partials[0].clone().finish().1[3];
        prop_assert_eq!(counts.iter().sum::<f64>(), folded as f64);
    }

    /// One scratch reused across consecutive morsels — with overlapping and
    /// with disjoint key sets — yields exactly the partials fresh scratch
    /// would: no slot of an earlier morsel survives `take_partial`.
    #[test]
    fn scratch_reuse_never_leaks_a_stale_slot(
        seed in any::<u64>(),
        split in 1u32..8,
        above_bound in any::<bool>(),
    ) {
        let (at, above) = straddling_layouts(split);
        let layout = if above_bound { above } else { at };
        let mut next = lcg(seed);
        // Morsels 0 and 1 share a small domain (overlap); morsel 2 draws
        // component 0 from codes the others never used (disjoint).
        let shared = [4, 1 << split];
        let mut morsels: Vec<Chunk> =
            (0..2).map(|_| Chunk::random(&mut next, 500, shared, true)).collect();
        let mut far = Chunk::random(&mut next, 500, shared, true);
        far.lanes[0].iter_mut().for_each(|c| *c += 4);
        far.rolls[0] = (0..8).collect();
        morsels.push(far);
        morsels.push(Chunk::random(&mut next, 500, shared, true));

        let mut reused = MorselScratch::new(&layout, &OPS);
        for chunk in &morsels {
            chunk.fold(&mut reused.partial, &mut reused.grouper, &layout, None);
            let got = reused.take_partial();
            prop_assert!(reused.partial.is_empty());

            let mut fresh = MorselScratch::new(&layout, &OPS);
            chunk.fold(&mut fresh.partial, &mut fresh.grouper, &layout, None);
            prop_assert_eq!(bits(&got), bits(&fresh.partial));
            for (slot, key) in got.keys().iter().enumerate() {
                prop_assert_eq!(fresh.grouper.lookup(*key), Some(slot));
                prop_assert_eq!(reused.grouper.lookup(*key), None, "key survived the morsel");
            }
        }
    }

    /// Merging N per-chunk partials in order equals one sequential pass
    /// over all rows — keys in the same first-seen order, states equal — on
    /// integer-valued data, where f64 addition is exact.
    #[test]
    fn merge_of_partials_equals_one_sequential_pass(
        seed in any::<u64>(),
        split in 1u32..10,
        above_bound in any::<bool>(),
        n in 2usize..7,
    ) {
        let (at, above) = straddling_layouts(split);
        let layout = if above_bound { above } else { at };
        let mut next = lcg(seed);
        let domain = [16, 1 << split];
        let chunks: Vec<Chunk> = (0..n)
            .map(|_| {
                let rows = 1 + (next() % 400) as usize;
                Chunk::random(&mut next, rows, domain, false)
            })
            .collect();

        let mut grouper = Grouper::for_layout(&layout);
        let mut sequential = Partial::new(&OPS);
        for chunk in &chunks {
            chunk.fold(&mut sequential, &mut grouper, &layout, None);
        }

        let mut scratch = MorselScratch::new(&layout, &OPS);
        let mut partials = chunks.iter().map(|chunk| {
            chunk.fold(&mut scratch.partial, &mut scratch.grouper, &layout, None);
            scratch.take_partial()
        });
        let mut merged = partials.next().unwrap();
        let mut index = Grouper::over(&layout, merged.keys());
        for partial in partials {
            merged.merge(&mut index, &partial);
        }
        prop_assert_eq!(bits(&merged), bits(&sequential));
    }

    /// A materialized `get` is already in canonical coordinate order:
    /// emitting cells by ascending packed key equals
    /// `DerivedCube::sort_by_coordinates` on the same cube, whatever the
    /// widths of the components (component 0 is most significant).
    #[test]
    fn key_ordered_materialization_is_coordinate_order(
        seed in any::<u64>(),
        cards in (2usize..40, 2usize..300, 2usize..9),
        rows in 1usize..600,
    ) {
        let cards = [cards.0, cards.1, cards.2];
        let mut hierarchies = Vec::new();
        let mut dims = Vec::new();
        for (h, card) in cards.iter().enumerate() {
            let mut b = HierarchyBuilder::new(format!("H{h}"), [format!("l{h}")]);
            for m in 0..*card {
                b.add_member_chain(&[format!("h{h}m{m}")]).unwrap();
            }
            hierarchies.push(b.build().unwrap());
            dims.push(DimInfo {
                table: format!("d{h}"),
                pk: format!("fk{h}"),
                level_columns: vec![format!("l{h}")],
            });
        }
        let schema = Arc::new(CubeSchema::new(
            "C",
            hierarchies,
            vec![MeasureDef::new("m", AggOp::Sum), MeasureDef::new("a", AggOp::Avg)],
        ));
        let mut next = lcg(seed);
        let mut columns: Vec<Column> = cards
            .iter()
            .enumerate()
            .map(|(h, card)| {
                Column::i64(format!("fk{h}"), (0..rows).map(|_| (next() % *card as u64) as i64).collect())
            })
            .collect();
        columns.push(Column::f64("m", (0..rows).map(|_| (next() % 1000) as f64 / 8.0).collect()));
        let fact = Table::new("f", columns).unwrap();
        let fks = (0..3).map(|h| format!("fk{h}")).collect();
        let binding =
            CubeBinding::new(schema.clone(), &fact, fks, vec!["m".into(), "m".into()], dims).unwrap();
        let catalog = Arc::new(Catalog::new());
        catalog.register_table(fact);
        catalog.register_binding("C", binding);
        let config = EngineConfig { morsel_rows: 64, ..EngineConfig::default() };
        let engine = Engine::with_config(catalog, config);

        let group_by = GroupBySet::from_level_names(&schema, &["l0", "l1", "l2"]).unwrap();
        let q = CubeQuery::new("C", group_by, vec![], vec!["m".into(), "a".into()]);
        let cube = engine.get(&q).unwrap().cube;
        let mut sorted = cube.clone();
        sorted.sort_by_coordinates();
        prop_assert_eq!(cube.coord_cols(), sorted.coord_cols());
        for name in ["m", "a"] {
            let (got, want) = (cube.numeric_column(name).unwrap(), sorted.numeric_column(name).unwrap());
            prop_assert_eq!(&got.data, &want.data);
        }
        let mut coords: Vec<_> = (0..cube.len()).map(|r| cube.coordinate(r)).collect();
        coords.dedup();
        prop_assert_eq!(coords.len(), cube.len(), "every cell has its own coordinate");
    }
}
