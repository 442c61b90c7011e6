//! The `attach` kernel against a brute-force oracle: a nested loop over
//! unpacked coordinates, on random small sparse cubes, for all four shapes
//! (natural, partial, roll-up join; pivot) × inner / left-outer — and the
//! request validation every tier shares.

use olap_engine::{attach, AttachSpec, Attached, EngineError, Keep, KeyLayout, Rewrite, Side};
use olap_model::{GroupBySet, MemberId};
use proptest::prelude::*;

/// Domain sizes of the three coordinate components at their fine level;
/// component `c` rolls up to a level of `COARSE[c]` members.
const FINE: [u32; 3] = [5, 7, 4];
const COARSE: [u32; 3] = [2, 3, 2];

/// A deterministic LCG stream per proptest case.
fn lcg(seed: u64) -> impl FnMut() -> u32 {
    let mut state = seed | 1;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    }
}

/// A sparse cube: distinct coordinates over `domain`, in canonical order.
fn sparse_cube(next: &mut impl FnMut() -> u32, domain: [u32; 3], fill: u32) -> Vec<[u32; 3]> {
    let mut cells = Vec::new();
    for a in 0..domain[0] {
        for b in 0..domain[1] {
            for c in 0..domain[2] {
                if next() % 100 < fill {
                    cells.push([a, b, c]);
                }
            }
        }
    }
    cells
}

fn layout(domain: [u32; 3]) -> KeyLayout {
    KeyLayout::for_cardinalities(&domain.map(|d| d as usize))
}

fn pack(layout: &KeyLayout, cells: &[[u32; 3]]) -> Vec<u64> {
    cells.iter().map(|cell| layout.pack(&cell.map(MemberId))).collect()
}

/// The reference: for every target cell, rewrite component `on` per output
/// column and scan the benchmark cells for the rewritten coordinate.
fn oracle(
    target: &[[u32; 3]],
    bench: &[[u32; 3]],
    on: Option<usize>,
    rewrites: &[Rewrite],
    keep: Keep,
) -> Attached {
    let mut kept = Vec::new();
    let mut matched = vec![Vec::new(); rewrites.len()];
    for (row, cell) in target.iter().enumerate() {
        if let (Keep::Slice(reference), Some(c)) = (keep, on) {
            if cell[c] != reference.0 {
                continue;
            }
        }
        let found: Vec<Option<u32>> = rewrites
            .iter()
            .map(|rewrite| {
                let mut wanted = *cell;
                if let Some(c) = on {
                    wanted[c] = match rewrite {
                        Rewrite::Same => cell[c],
                        Rewrite::Member(m) => m.0,
                        Rewrite::Roll(map) => map[cell[c] as usize].0,
                    };
                }
                bench.iter().position(|b| *b == wanted).map(|r| r as u32)
            })
            .collect();
        if keep == Keep::Matched && found.iter().all(Option::is_none) {
            continue;
        }
        kept.push(row as u32);
        for (col, m) in matched.iter_mut().zip(found) {
            col.push(m);
        }
    }
    Attached { kept, matched }
}

fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("b{i}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_matches_the_nested_loop_oracle(seed in any::<u64>()) {
        let mut next = lcg(seed);
        let fine = GroupBySet::from_slots(vec![Some(0); 3]);
        let fine_layout = layout(FINE);
        let target = sparse_cube(&mut next, FINE, 40);
        let target_keys = pack(&fine_layout, &target);
        let bench = sparse_cube(&mut next, FINE, 40);
        let bench_keys = pack(&fine_layout, &bench);
        let c = (next() % 3) as usize;
        // k > 1 slices, some of them absent from the sparse benchmark.
        let k = 1 + (next() % 3) as usize;
        let slices: Vec<MemberId> = (0..k).map(|_| MemberId(next() % FINE[c])).collect();

        for keep in [Keep::Matched, Keep::All] {
            // Natural join: whole-coordinate equality.
            let (cols, rewrites) = (names(1), vec![Rewrite::Same]);
            let spec = AttachSpec { on: None, rewrites, keep, measure: "m", names: &cols };
            let got = attach(
                Side { group_by: &fine, layout: &fine_layout, keys: &target_keys },
                Side { group_by: &fine, layout: &fine_layout, keys: &bench_keys },
                &spec,
                None,
            )
            .unwrap();
            prop_assert_eq!(got, oracle(&target, &bench, None, &spec.rewrites, keep));

            // Partial join over k slices of component c.
            let (cols, rewrites) = (names(k), Rewrite::members(&slices));
            let spec = AttachSpec { on: Some(c), rewrites, keep, measure: "m", names: &cols };
            let got = attach(
                Side { group_by: &fine, layout: &fine_layout, keys: &target_keys },
                Side { group_by: &fine, layout: &fine_layout, keys: &bench_keys },
                &spec,
                None,
            )
            .unwrap();
            prop_assert_eq!(got, oracle(&target, &bench, Some(c), &spec.rewrites, keep));

            // Roll-up join: the benchmark groups component c at a coarser
            // level, so its layout (bit widths and shifts) differs.
            let mut coarse_domain = FINE;
            coarse_domain[c] = COARSE[c];
            let mut coarse_slots = vec![Some(0); 3];
            coarse_slots[c] = Some(1);
            let coarse = GroupBySet::from_slots(coarse_slots);
            let coarse_layout = layout(coarse_domain);
            let rolled = sparse_cube(&mut next, coarse_domain, 60);
            let rolled_keys = pack(&coarse_layout, &rolled);
            let map: Vec<MemberId> = (0..FINE[c]).map(|_| MemberId(next() % COARSE[c])).collect();
            let (cols, rewrites) = (names(1), vec![Rewrite::Roll(map)]);
            let spec = AttachSpec { on: Some(c), rewrites, keep, measure: "m", names: &cols };
            let got = attach(
                Side { group_by: &fine, layout: &fine_layout, keys: &target_keys },
                Side { group_by: &coarse, layout: &coarse_layout, keys: &rolled_keys },
                &spec,
                None,
            )
            .unwrap();
            prop_assert_eq!(got, oracle(&target, &rolled, Some(c), &spec.rewrites, keep));
        }

        // Pivot: the target cube is its own benchmark; neighbour cells may
        // be missing (cube sparsity) and the reference slice may be empty.
        let keep = Keep::Slice(MemberId(next() % FINE[c]));
        let (cols, rewrites) = (names(k), Rewrite::members(&slices));
        let spec = AttachSpec { on: Some(c), rewrites, keep, measure: "m", names: &cols };
        let side = Side { group_by: &fine, layout: &fine_layout, keys: &target_keys };
        let got = attach(side, side, &spec, None).unwrap();
        prop_assert_eq!(got, oracle(&target, &target, Some(c), &spec.rewrites, keep));
    }
}

#[test]
fn malformed_requests_are_refused_once_for_every_tier() {
    let by_all = GroupBySet::from_slots(vec![Some(0); 3]);
    let by_two = GroupBySet::from_slots(vec![Some(0), Some(0), None]);
    let (l3, l2) = (layout(FINE), KeyLayout::for_cardinalities(&[5, 7]));
    let side3 = Side { group_by: &by_all, layout: &l3, keys: &[] };
    let side2 = Side { group_by: &by_two, layout: &l2, keys: &[] };
    let one = names(1);
    let spec = |on, rewrites, keep, names| AttachSpec { on, rewrites, keep, measure: "m", names };
    let member = || vec![Rewrite::Member(MemberId(1))];
    let not_joinable = |r: Result<Attached, EngineError>| {
        assert!(matches!(r, Err(EngineError::NotJoinable(_))), "{r:?}");
    };
    let invalid_pivot = |r: Result<Attached, EngineError>| {
        assert!(matches!(r, Err(EngineError::InvalidPivot(_))), "{r:?}");
    };

    // No slice / no neighbour: nothing to attach.
    not_joinable(attach(side3, side3, &spec(Some(0), vec![], Keep::Matched, &[]), None));
    invalid_pivot(attach(
        side3,
        side3,
        &spec(Some(0), vec![], Keep::Slice(MemberId(0)), &[]),
        None,
    ));
    // One name per rewrite.
    not_joinable(attach(side3, side3, &spec(Some(0), member(), Keep::All, &[]), None));
    // The rewritten hierarchy must be grouped by.
    not_joinable(attach(side2, side2, &spec(Some(2), member(), Keep::All, &one), None));
    invalid_pivot(attach(
        side2,
        side2,
        &spec(Some(2), member(), Keep::Slice(MemberId(0)), &one),
        None,
    ));
    // A member rewrite with no hierarchy to apply it to.
    not_joinable(attach(side3, side3, &spec(None, member(), Keep::All, &one), None));
    // Definition 3.1: equal group-by sets, reconciled domains.
    not_joinable(attach(side3, side2, &spec(None, vec![Rewrite::Same], Keep::All, &one), None));
    let wider = layout([5, 70, 4]);
    let unreconciled = Side { group_by: &by_all, layout: &wider, keys: &[] };
    not_joinable(attach(
        side3,
        unreconciled,
        &spec(None, vec![Rewrite::Same], Keep::All, &one),
        None,
    ));
    // A level may differ only where a roll-up bridges it.
    let mut coarse_slots = vec![Some(0); 3];
    coarse_slots[1] = Some(1);
    let coarse = GroupBySet::from_slots(coarse_slots);
    let coarse_layout = layout([5, 3, 4]);
    let coarse_side = Side { group_by: &coarse, layout: &coarse_layout, keys: &[] };
    not_joinable(attach(side3, coarse_side, &spec(Some(1), member(), Keep::All, &one), None));
    let roll = vec![Rewrite::Roll(vec![MemberId(0); 7])];
    assert!(attach(side3, coarse_side, &spec(Some(1), roll, Keep::All, &one), None).is_ok());
}
