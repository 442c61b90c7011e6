//! Property suite for the live re-assessment algebra: for arbitrary
//! previous/next evaluations of a subscribed statement, the diff frame the
//! server would push — serialized to its wire JSON and applied by the
//! client helper — must reconstruct exactly the state a full re-run
//! yields. Mirrors the flagship e2e test, but over randomized cube shapes
//! instead of one SSB instance.
//!
//! Frames are built by the string-keyed diff below, kept verbatim from
//! before the server diffed cubes column by column; `cube_diff_props.rs` in
//! `assess-core` proves the column diff names exactly the cells it names.

use std::collections::BTreeMap;

use assess_core::result::AssessedCell;
use assess_serve::{apply_diff, DiffFrame};
use proptest::prelude::*;
use serde::Value;

/// A cube snapshot keyed by cell coordinate, the shape diffs are computed
/// over. Coordinates are the full group-by member tuples, so they identify
/// a cell across re-evaluations.
pub type CellIndex = BTreeMap<Vec<String>, AssessedCell>;

/// Indexes a result's cells by coordinate.
pub fn index_cells(cells: &[AssessedCell]) -> CellIndex {
    cells.iter().map(|c| (c.coordinate.clone(), c.clone())).collect()
}

/// Diffs a new evaluation against the indexed previous one.
pub fn diff_cells(prev: &CellIndex, next: &[AssessedCell]) -> DiffFrame {
    let mut changed = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for cell in next {
        seen.insert(&cell.coordinate);
        if prev.get(&cell.coordinate) != Some(cell) {
            changed.push(cell.clone());
        }
    }
    let removed = prev.keys().filter(|coord| !seen.contains(coord)).cloned().collect::<Vec<_>>();
    DiffFrame { changed, removed, full: false }
}

/// An arbitrary assessed cell over a compact coordinate space, so
/// generated evaluations overlap and diffs contain all three kinds of
/// entries (changed, unchanged, removed).
fn cell() -> impl Strategy<Value = AssessedCell> {
    (
        prop::collection::vec(0u8..4, 1..3),
        prop::option::of(-1000i32..1000),
        prop::option::of(-1000i32..1000),
        prop::option::of(0u8..4),
    )
        .prop_map(|(coord, value, benchmark, label)| AssessedCell {
            coordinate: coord.into_iter().map(|c| format!("m{c}")).collect(),
            value: value.map(f64::from),
            benchmark: benchmark.map(f64::from),
            comparison: value.zip(benchmark).map(|(v, b)| f64::from(v) - f64::from(b)),
            label: label.map(|l| format!("label-{l}")),
        })
}

/// An evaluation: cells deduplicated by coordinate (a cube has one cell
/// per coordinate), in first-seen order like a real result.
fn evaluation() -> impl Strategy<Value = Vec<AssessedCell>> {
    prop::collection::vec(cell(), 0..24).prop_map(|cells| {
        let mut seen = std::collections::BTreeSet::new();
        cells.into_iter().filter(|c| seen.insert(c.coordinate.clone())).collect()
    })
}

/// Serializes cells into the coordinate-indexed state a client holds.
fn state_of(cells: &[AssessedCell]) -> BTreeMap<Vec<String>, Value> {
    cells.iter().map(|c| (c.coordinate.clone(), serde::Serialize::to_value(c))).collect()
}

/// The wire frame for `prev → next`.
fn wire_frame(prev: &[AssessedCell], next: &[AssessedCell], seq: u64) -> Value {
    let frame = diff_cells(&index_cells(prev), next);
    assess_serve::subscribe::frame_json(7, seq, 2 * seq, &frame)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Applying the pushed diff frame to the previous evaluation's state
    /// reconstructs the full re-run exactly — for arbitrary overlapping
    /// evaluations, including empty ones.
    #[test]
    fn diff_frames_patch_previous_state_to_the_full_rerun(
        prev in evaluation(),
        next in evaluation(),
    ) {
        let mut state = state_of(&prev);
        let frame = wire_frame(&prev, &next, 1);
        apply_diff(&mut state, &frame).expect("frame applies");
        prop_assert_eq!(state, state_of(&next));
    }

    /// Diff frames compose: following a chain of evaluations frame by
    /// frame ends in the same state as jumping straight to the last one.
    #[test]
    fn diff_frames_compose_along_a_chain(
        evals in prop::collection::vec(evaluation(), 2..6),
    ) {
        let mut state = state_of(&evals[0]);
        for (i, window) in evals.windows(2).enumerate() {
            let frame = wire_frame(&window[0], &window[1], i as u64 + 1);
            apply_diff(&mut state, &frame).expect("frame applies");
        }
        prop_assert_eq!(state, state_of(evals.last().unwrap()));
    }

    /// A diff frame never carries an unchanged cell, and every coordinate
    /// it removes existed before and is gone after — the minimality the
    /// wire protocol promises.
    #[test]
    fn diff_frames_are_minimal(prev in evaluation(), next in evaluation()) {
        let prev_index = index_cells(&prev);
        let frame = diff_cells(&prev_index, &next);
        for cell in &frame.changed {
            prop_assert_ne!(
                prev_index.get(&cell.coordinate), Some(cell),
                "unchanged cell travelled in the diff"
            );
        }
        for coord in &frame.removed {
            prop_assert!(prev_index.contains_key(coord));
            prop_assert!(next.iter().all(|c| &c.coordinate != coord));
        }
    }

    /// A full frame (lag recovery) wipes whatever stale state the client
    /// holds and replaces it wholesale.
    #[test]
    fn full_frames_replace_stale_state(
        stale in evaluation(),
        next in evaluation(),
    ) {
        let mut state = state_of(&stale);
        let frame = assess_serve::subscribe::frame_json(
            7, 1, 2, &assess_serve::subscribe::full_frame(&next),
        );
        prop_assert_eq!(frame.get("full").and_then(Value::as_bool), Some(true));
        apply_diff(&mut state, &frame).expect("frame applies");
        prop_assert_eq!(state, state_of(&next));
    }
}
