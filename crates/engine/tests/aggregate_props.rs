//! Properties of the partial-aggregate algebra (`Partial` + `Aggregator`):
//! the per-key (direct) and the hashed fold are interchangeable bit for
//! bit, and both equal the slot fold they replace, worker scratch reused
//! across morsels never leaks a key, merging partials equals one
//! sequential pass, every scan result is in ascending key order, and key
//! order is coordinate order.

use std::collections::HashMap;
use std::sync::Arc;

use olap_engine::aggregate::{accumulate_chunk, Aggregator, Grouper, Grouping, Partial};
use olap_engine::pool::{run_morsels, MorselScan, MorselScratch};
use olap_engine::{Engine, EngineConfig, EngineError, KeyLayout, WorkerPool};
use olap_model::{
    AggOp, CubeQuery, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef, MemberId,
};
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
#[derive(Clone)]
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

    /// Folds the chunk (or its `selection`) into `agg`.
    fn fold(&self, agg: &mut Aggregator, layout: &KeyLayout, selection: Option<&[u32]>) {
        let keys = self.lanes.iter().zip(&self.rolls).map(|(l, r)| (&l[..], &r[..]));
        let measures = self.values.iter().map(|v| &v[..]);
        accumulate_chunk(agg, layout, self.len(), selection, keys, measures);
    }
}

/// Keys in ascending order plus every state value as raw bits (a direct
/// layout's partials are in key order, a hashed layout's morsel partials
/// in first-seen order).
fn bits(p: &Partial) -> (Vec<u64>, Vec<Vec<u64>>) {
    let (keys, cols) = p.clone().finish();
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    let keys = order.iter().map(|&i| keys[i]).collect();
    (keys, cols.iter().map(|c| order.iter().map(|&i| c[i].to_bits()).collect()).collect())
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

/// `rows` rows in clustered runs of equal coordinates — component 0 drawn
/// near either end of its domain or anywhere in it — with values that
/// include `−0.0`, NaN and `±∞` beside fractional ones.
fn clustered(next: &mut impl FnMut() -> u64, rows: usize, domain: [u32; 2]) -> Chunk {
    let mut lanes = [Vec::with_capacity(rows), Vec::with_capacity(rows)];
    while lanes[0].len() < rows {
        let d0 = u64::from(domain[0]);
        let c0 = match next() % 3 {
            0 => next() % d0.min(4),
            1 => d0 - 1 - next() % d0.min(4),
            _ => next() % d0,
        };
        let c1 = next() % u64::from(domain[1]);
        let run = (1 + next() % 12) as usize;
        for _ in 0..run.min(rows - lanes[0].len()) {
            lanes[0].push(c0 as u32);
            lanes[1].push(c1 as u32);
        }
    }
    let special = [-0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0];
    let values = OPS
        .iter()
        .map(|_| {
            (0..rows)
                .map(|_| match next() % 10 {
                    k @ 0..=4 => special[k as usize],
                    _ => (next() % 20_000) as f64 / 7.0 - 1428.3,
                })
                .collect()
        })
        .collect();
    Chunk { lanes, rolls: domain.map(|d| (0..d).collect()), values }
}

/// A morsel scan over one [`Chunk`]; rows with `keep[row] == false` fail
/// the predicate.
struct ChunkScan {
    chunk: Chunk,
    keep: Option<Vec<bool>>,
    layout: KeyLayout,
}

impl MorselScan for ChunkScan {
    fn n_rows(&self) -> usize {
        self.chunk.len()
    }

    fn layout(&self) -> &KeyLayout {
        &self.layout
    }

    fn ops(&self) -> &[AggOp] {
        &OPS
    }

    fn process(
        &self,
        lo: usize,
        hi: usize,
        scratch: &mut MorselScratch,
    ) -> Result<(), EngineError> {
        let selection: Option<Vec<u32>> = self
            .keep
            .as_ref()
            .map(|keep| (lo..hi).filter(|&row| keep[row]).map(|row| (row - lo) as u32).collect());
        let Chunk { lanes, rolls, values } = &self.chunk;
        let keys = lanes.iter().zip(rolls).map(|(l, r)| (&l[lo..hi], &r[..]));
        let measures = values.iter().map(|v| &v[lo..hi]);
        accumulate_chunk(
            &mut scratch.agg,
            &self.layout,
            hi - lo,
            selection.as_deref(),
            keys,
            measures,
        );
        Ok(())
    }
}

/// The bits of `x`, every NaN as the one quiet NaN: Rust leaves the sign
/// and payload of a NaN an operation produces unspecified (which NaN
/// operand of `a + b` survives is up to code generation), so two folds
/// agree on a NaN only as a NaN. `−0.0` and `±∞` keep their bits.
fn canonical_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// Keys plus every raw state column (Avg as its sum and its count) as
/// [`canonical_bits`], in stored order.
fn state_bits(p: &Partial) -> (Vec<u64>, Vec<Vec<u64>>) {
    let col = |v: &Vec<f64>| v.iter().copied().map(canonical_bits).collect::<Vec<u64>>();
    (p.keys().to_vec(), p.states().iter().map(col).collect())
}

/// The slot fold the per-key fold replaced, as a model: each morsel folds
/// its rows, in row order, into first-seen slots that start at the
/// operator's identity; the morsel partials merge in morsel order into
/// partial 0 as it stands; the groups are reported in ascending key order,
/// as [`state_bits`] reports them.
fn slot_fold(scan: &ChunkScan, morsel_rows: usize) -> (Vec<u64>, Vec<Vec<u64>>) {
    // Sum, Min, Max, Count, and Avg's sum and count.
    const IDENTITY: [f64; 6] = [0.0, f64::INFINITY, f64::NEG_INFINITY, 0.0, 0.0, 0.0];
    let merge = |s: &mut [f64; 6], o: &[f64; 6]| {
        *s = [s[0] + o[0], s[1].min(o[1]), s[2].max(o[2]), s[3] + o[3], s[4] + o[4], s[5] + o[5]];
    };
    let (lanes, values) = (&scan.chunk.lanes, &scan.chunk.values);
    let n = scan.chunk.len();
    let mut merged: Option<(Vec<u64>, Vec<[f64; 6]>)> = None;
    for lo in (0..n).step_by(morsel_rows) {
        let (mut slots, mut keys, mut states) = (HashMap::new(), Vec::new(), Vec::new());
        for row in lo..(lo + morsel_rows).min(n) {
            if scan.keep.as_ref().is_some_and(|keep| !keep[row]) {
                continue;
            }
            let key = scan.layout.pack(&[MemberId(lanes[0][row]), MemberId(lanes[1][row])]);
            let slot = *slots.entry(key).or_insert_with(|| {
                keys.push(key);
                states.push(IDENTITY);
                keys.len() - 1
            });
            let (s, v) = (&mut states[slot], |op: usize| values[op][row]);
            *s = [s[0] + v(0), s[1].min(v(1)), s[2].max(v(2)), s[3] + 1.0, s[4] + v(4), s[5] + 1.0];
        }
        merged = Some(match merged {
            None => (keys, states),
            Some((mut all, mut all_states)) => {
                let mut index: HashMap<u64, usize> = all.iter().copied().zip(0..).collect();
                for (key, o) in keys.iter().zip(&states) {
                    let slot = *index.entry(*key).or_insert_with(|| {
                        all.push(*key);
                        all_states.push(IDENTITY);
                        all.len() - 1
                    });
                    merge(&mut all_states[slot], o);
                }
                (all, all_states)
            }
        });
    }
    let (keys, states) = merged.unwrap_or_default();
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    let cols =
        (0..6).map(|c| order.iter().map(|&i| canonical_bits(states[i][c])).collect()).collect();
    (order.iter().map(|&i| keys[i]).collect(), cols)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Direct and hashed folds produce bit-identical partials: same groups,
    /// same `f64` bits, for every operator, on fractional values, with and
    /// without a selection vector.
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
            selected.then(|| (0..rows as u32).filter(|_| !next().is_multiple_of(3)).collect());

        let mut partials = Vec::new();
        for layout in [&at, &above] {
            let mut agg = Aggregator::for_layout(layout, &OPS);
            chunk.fold(&mut agg, layout, selection.as_deref());
            // A second chunk exercises lookups of already-registered keys.
            chunk.fold(&mut agg, layout, None);
            partials.push(agg.take());
        }
        prop_assert_eq!(bits(&partials[0]), bits(&partials[1]));
        let folded = selection.map_or(rows, |s| s.len()) + rows;
        let counts = &partials[0].clone().finish().1[3];
        prop_assert_eq!(counts.iter().sum::<f64>(), folded as f64);
    }

    /// One scratch reused across consecutive morsels — with overlapping and
    /// with disjoint key sets — yields exactly the partials fresh scratch
    /// would: no key of an earlier morsel survives `take_partial`.
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
            chunk.fold(&mut reused.agg, &layout, None);
            let got = reused.take_partial();
            let left = reused.take_partial();
            prop_assert!(left.is_empty());

            let mut fresh = MorselScratch::new(&layout, &OPS);
            chunk.fold(&mut fresh.agg, &layout, None);
            let fresh_partial = fresh.take_partial();
            prop_assert_eq!(bits(&got), bits(&fresh_partial));
            let fresh_index = Grouper::over(&layout, fresh_partial.keys());
            let left = Grouper::over(&layout, left.keys());
            for (slot, key) in got.keys().iter().enumerate() {
                prop_assert_eq!(fresh_index.lookup(*key), Some(slot));
                prop_assert_eq!(left.lookup(*key), None, "key survived the morsel");
            }
        }
    }

    /// Merging N per-chunk partials in order equals one sequential pass
    /// over all rows — the same groups, states equal — on
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

        let mut one_pass = Aggregator::for_layout(&layout, &OPS);
        for chunk in &chunks {
            chunk.fold(&mut one_pass, &layout, None);
        }
        let sequential = one_pass.take();

        let mut scratch = MorselScratch::new(&layout, &OPS);
        let partials = chunks.iter().map(|chunk| {
            chunk.fold(&mut scratch.agg, &layout, None);
            scratch.take_partial()
        });
        let merged = Aggregator::for_layout(&layout, &OPS).merge(partials);
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

proptest! {
    // Each case runs 30 scans, some with 2^20-entry state per worker.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The per-key fold equals the slot fold it replaced, bit for bit, on
    /// both sides of the direct-addressing bound (20 and 21 bits) and on
    /// hashed layouts of 22 and 40 bits, the latter with packed keys past
    /// 2^32: clustered runs of equal keys, `−0.0`, NaN and `±∞` values,
    /// with and without a selection, at morsel sizes 1, 2, 3, 7 and the
    /// default, on 1, 2 and 8 threads. Every scan result, and every direct
    /// morsel partial, is in strictly ascending key order.
    #[test]
    fn per_key_fold_equals_the_slot_fold_bit_for_bit(
        seed in any::<u64>(),
        split in 1u32..12,
        rows in 1usize..400,
        selected in any::<bool>(),
    ) {
        let (at, above) = straddling_layouts(split);
        // Component 0 widened by 2 bits (22 in all), component 1 by 20 (40).
        let bits0 = Grouper::DIRECT_BITS - split;
        let wide = [[bits0 + 2, split], [bits0, split + 20]]
            .map(|[b0, b1]| KeyLayout::for_cardinalities(&[1 << b0, 1 << b1]));
        assert_eq!(wide.each_ref().map(KeyLayout::total_bits), [22, 40]);
        let mut next = lcg(seed);
        let domain = [1 << bits0, 1 << split];
        let chunk = clustered(&mut next, rows, domain);
        let keep: Option<Vec<bool>> =
            selected.then(|| (0..rows).map(|_| !next().is_multiple_of(3)).collect());
        let pool = Arc::new(WorkerPool::new(7));
        let ascending = |keys: &[u64]| keys.is_sorted_by(|a, b| a < b);
        for layout in [at, above].into_iter().chain(wide) {
            let scan = Arc::new(ChunkScan { chunk: chunk.clone(), keep: keep.clone(), layout });
            for morsel in [1, 2, 3, 7, EngineConfig::default().morsel_rows] {
                let want = slot_fold(&scan, morsel);
                for threads in [1, 2, 8] {
                    let run = run_morsels(Some(&pool), threads, morsel, scan.clone(), None, None);
                    let table = run.expect("the scan runs").table;
                    prop_assert!(ascending(table.keys()), "morsel {} at {} threads", morsel, threads);
                    prop_assert_eq!(
                        state_bits(&table),
                        want.clone(),
                        "{} bits, morsel {}, {} threads",
                        scan.layout.total_bits(),
                        morsel,
                        threads
                    );
                }
                if Grouping::of(&scan.layout) == Grouping::Direct {
                    let mut scratch = MorselScratch::new(&scan.layout, &OPS);
                    for lo in (0..rows).step_by(morsel) {
                        scan.process(lo, (lo + morsel).min(rows), &mut scratch).expect("folds");
                        prop_assert!(ascending(scratch.take_partial().keys()));
                    }
                }
            }
        }
    }
}
