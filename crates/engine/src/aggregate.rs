//! Partial aggregates: per-measure state columns, the [`Partial`] every
//! scan, merge and exchange path shares, the [`Grouper`] that resolves
//! packed keys to its slots, and the chunk kernel of the morsel pipeline.
//!
//! A [`Partial`] is plain data — first-seen keys plus one state column per
//! measure — and carries no index: whoever folds rows or other partials
//! into it brings a [`Grouper`]. Per-worker scan scratch owns one and
//! forgets a morsel's keys after the morsel; the final merge owns another.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use olap_model::{AggOp, MemberId};

use crate::key::KeyLayout;

/// A per-measure aggregation accumulator over dense group slots.
#[derive(Debug, Clone)]
pub enum Accumulator {
    Sum(Vec<f64>),
    Min(Vec<f64>),
    Max(Vec<f64>),
    Count(Vec<f64>),
    Avg { sums: Vec<f64>, counts: Vec<f64> },
}

/// `state[slots[i]] = f(state[slots[i]], x_i)` in `i` order, where `x_i` is
/// `lane[selection[i]]` under a selection and `lane[i]` otherwise. The
/// operator is a type parameter, so each call site compiles to its own
/// branch-free loop.
#[inline(always)]
fn scatter(
    state: &mut [f64],
    slots: &[u32],
    selection: Option<&[u32]>,
    lane: &[f64],
    f: impl Fn(f64, f64) -> f64,
) {
    match selection {
        Some(sel) => {
            for (&slot, &row) in slots.iter().zip(sel) {
                let cell = &mut state[slot as usize];
                *cell = f(*cell, lane[row as usize]);
            }
        }
        None => {
            for (&slot, &x) in slots.iter().zip(lane) {
                let cell = &mut state[slot as usize];
                *cell = f(*cell, x);
            }
        }
    }
}

fn count_rows(counts: &mut [f64], slots: &[u32]) {
    for &slot in slots {
        counts[slot as usize] += 1.0;
    }
}

impl Accumulator {
    pub fn new(op: AggOp) -> Self {
        match op {
            AggOp::Sum => Accumulator::Sum(Vec::new()),
            AggOp::Min => Accumulator::Min(Vec::new()),
            AggOp::Max => Accumulator::Max(Vec::new()),
            AggOp::Count => Accumulator::Count(Vec::new()),
            AggOp::Avg => Accumulator::Avg { sums: Vec::new(), counts: Vec::new() },
        }
    }

    /// The operator this accumulator folds with.
    pub fn op(&self) -> AggOp {
        match self {
            Accumulator::Sum(_) => AggOp::Sum,
            Accumulator::Min(_) => AggOp::Min,
            Accumulator::Max(_) => AggOp::Max,
            Accumulator::Count(_) => AggOp::Count,
            Accumulator::Avg { .. } => AggOp::Avg,
        }
    }

    /// Group slots held (`None` when an Avg's two columns disagree).
    fn len(&self) -> Option<usize> {
        match self {
            Accumulator::Sum(v)
            | Accumulator::Min(v)
            | Accumulator::Max(v)
            | Accumulator::Count(v) => Some(v.len()),
            Accumulator::Avg { sums, counts } => (sums.len() == counts.len()).then_some(sums.len()),
        }
    }

    /// Resizes to `n` group slots, initializing new slots to the identity.
    pub fn grow_to(&mut self, n: usize) {
        match self {
            Accumulator::Sum(v) | Accumulator::Count(v) => v.resize(n, 0.0),
            Accumulator::Min(v) => v.resize(n, f64::INFINITY),
            Accumulator::Max(v) => v.resize(n, f64::NEG_INFINITY),
            Accumulator::Avg { sums, counts } => {
                sums.resize(n, 0.0);
                counts.resize(n, 0.0);
            }
        }
    }

    /// Folds one value into group slot `idx`.
    #[inline]
    pub fn update(&mut self, idx: usize, value: f64) {
        match self {
            Accumulator::Sum(v) => v[idx] += value,
            Accumulator::Min(v) => v[idx] = v[idx].min(value),
            Accumulator::Max(v) => v[idx] = v[idx].max(value),
            Accumulator::Count(v) => v[idx] += 1.0,
            Accumulator::Avg { sums, counts } => {
                sums[idx] += value;
                counts[idx] += 1.0;
            }
        }
    }

    /// Folds a batch of rows, row `i` into slot `slots[i]`, in row order;
    /// the operator is matched once per batch, not per row.
    fn fold_rows(&mut self, slots: &[u32], selection: Option<&[u32]>, lane: &[f64]) {
        match self {
            Accumulator::Sum(v) => scatter(v, slots, selection, lane, |a, x| a + x),
            Accumulator::Min(v) => scatter(v, slots, selection, lane, f64::min),
            Accumulator::Max(v) => scatter(v, slots, selection, lane, f64::max),
            Accumulator::Count(v) => count_rows(v, slots),
            Accumulator::Avg { sums, counts } => {
                scatter(sums, slots, selection, lane, |a, x| a + x);
                count_rows(counts, slots);
            }
        }
    }

    /// Merges `other`'s slot `i` into this one's slot `slots[i]`, in slot
    /// order — the one merge rule of morsel, shard and delta partials.
    fn merge_rows(&mut self, slots: &[u32], other: &Accumulator) {
        match (self, other) {
            (Accumulator::Sum(a), Accumulator::Sum(b))
            | (Accumulator::Count(a), Accumulator::Count(b)) => {
                scatter(a, slots, None, b, |a, x| a + x)
            }
            (Accumulator::Min(a), Accumulator::Min(b)) => scatter(a, slots, None, b, f64::min),
            (Accumulator::Max(a), Accumulator::Max(b)) => scatter(a, slots, None, b, f64::max),
            (
                Accumulator::Avg { sums: asums, counts: acounts },
                Accumulator::Avg { sums: bsums, counts: bcounts },
            ) => {
                scatter(asums, slots, None, bsums, |a, x| a + x);
                scatter(acounts, slots, None, bcounts, |a, x| a + x);
            }
            _ => unreachable!("merging accumulators of different operators"),
        }
    }

    /// Finalizes into per-group values.
    pub fn finish(self) -> Vec<f64> {
        match self {
            Accumulator::Sum(v)
            | Accumulator::Min(v)
            | Accumulator::Max(v)
            | Accumulator::Count(v) => v,
            Accumulator::Avg { sums, counts } => sums
                .into_iter()
                .zip(counts)
                .map(|(s, c)| if c > 0.0 { s / c } else { f64::NAN })
                .collect(),
        }
    }
}

/// A partial aggregate over packed `u64` keys: the keys in first-seen
/// order and, parallel to them, the **pre-finalize** state of every
/// measure (Avg stays a sum+count pair). One type serves morsel partials,
/// shard partials (it is their wire form), delta partials and the merged
/// result; [`Partial::merge`] is their one merge rule.
#[derive(Debug, Clone)]
pub struct Partial {
    keys: Vec<u64>,
    accs: Vec<Accumulator>,
}

impl Partial {
    pub fn new(ops: &[AggOp]) -> Self {
        Partial { keys: Vec::new(), accs: ops.iter().map(|op| Accumulator::new(*op)).collect() }
    }

    /// Reassembles a partial from its parts (possibly deserialized from a
    /// remote shard); every state column must be as long as `keys`.
    pub fn from_parts(keys: Vec<u64>, accs: Vec<Accumulator>) -> Result<Self, String> {
        if accs.iter().any(|acc| acc.len() != Some(keys.len())) {
            return Err("accumulator length does not match the key count".to_string());
        }
        Ok(Partial { keys, accs })
    }

    /// Whether this partial could have come from a scan with `layout` and
    /// `ops`: every key inside the key space, one state column per
    /// operator. Checked on partials received from outside the process.
    pub fn conforms(&self, layout: &KeyLayout, ops: &[AggOp]) -> bool {
        self.accs.iter().map(Accumulator::op).eq(ops.iter().copied())
            && self.keys.iter().all(|&key| layout.contains(key))
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The group keys, in first-seen order.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The per-measure state columns, parallel to [`Partial::keys`].
    pub fn accs(&self) -> &[Accumulator] {
        &self.accs
    }

    /// Drops every group, keeping the operators and the allocations.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.grow();
    }

    /// Brings every state column to the key count (new slots at identity).
    fn grow(&mut self) {
        for acc in &mut self.accs {
            acc.grow_to(self.keys.len());
        }
    }

    /// The finalized column of measure `measure_idx` (a copy: fused
    /// operators probe one side's values before materializing the other).
    pub fn measure(&self, measure_idx: usize) -> Vec<f64> {
        self.accs[measure_idx].clone().finish()
    }

    /// Merges `other` into this partial: matching keys fold per operator,
    /// unseen keys append at identity and then fold. `grouper` must index
    /// exactly this partial's keys and keeps doing so afterwards.
    pub fn merge(&mut self, grouper: &mut Grouper, other: &Partial) {
        grouper.index.resolve(&other.keys, &mut grouper.slots, &mut self.keys);
        self.grow();
        for (acc, oacc) in self.accs.iter_mut().zip(&other.accs) {
            acc.merge_rows(&grouper.slots, oacc);
        }
    }

    /// Finalizes into `(keys, measure columns)`, in first-seen order.
    pub fn finish(self) -> (Vec<u64>, Vec<Vec<f64>>) {
        (self.keys, self.accs.into_iter().map(Accumulator::finish).collect())
    }

    /// Finalizes and emits the groups in `slots`, in that order: their
    /// coordinate columns (keys unpacked by `layout`) and measure columns.
    pub fn emit(self, layout: &KeyLayout, slots: &[u32]) -> (Vec<Vec<MemberId>>, Vec<Vec<f64>>) {
        let (keys, cols) = self.finish();
        let coords = (0..layout.arity())
            .map(|c| slots.iter().map(|&s| layout.unpack_component(keys[s as usize], c)).collect())
            .collect();
        let measures =
            cols.iter().map(|col| slots.iter().map(|&s| col[s as usize]).collect()).collect();
        (coords, measures)
    }

    /// The slots in ascending key order — with [`KeyLayout`]'s packing,
    /// lexicographic coordinate order.
    pub fn key_order(&self) -> Vec<u32> {
        let mut order: Vec<(u64, u32)> = self.keys.iter().copied().zip(0..).collect();
        order.sort_unstable();
        order.into_iter().map(|(_, slot)| slot).collect()
    }
}

/// How a scan resolves packed group keys to slots (reported on scan spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// A flat array indexed by the packed key itself.
    Direct,
    /// A multiplicative-hash map (also reported by the wide-key fallback).
    Hashed,
}

impl Grouping {
    /// The grouping [`Grouper::for_layout`] picks for `layout`.
    pub fn of(layout: &KeyLayout) -> Self {
        if layout.total_bits() <= Grouper::DIRECT_BITS {
            Grouping::Direct
        } else {
            Grouping::Hashed
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Grouping::Direct => "direct",
            Grouping::Hashed => "hashed",
        }
    }
}

/// Fibonacci hashing for packed keys: one multiply, then a fold so both the
/// low bits (bucket) and the high bits (tag) std's table reads are mixed.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 keys are hashed");
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug)]
enum Index {
    /// One entry per point of the key space: `table[key]` is the key's
    /// slot **plus one**, 0 while vacant (so the table starts as lazily
    /// zeroed pages and only touched pages ever become resident).
    Direct(Vec<u32>),
    Hashed(HashMap<u64, u32, BuildHasherDefault<KeyHasher>>),
}

impl Index {
    /// Resolves a batch: `slots[i]` becomes the slot of `batch[i]` among
    /// `keys`, unseen keys appending in batch order.
    fn resolve(&mut self, batch: &[u64], slots: &mut Vec<u32>, keys: &mut Vec<u64>) {
        slots.clear();
        match self {
            Index::Direct(table) => slots.extend(batch.iter().map(|&key| {
                let entry = &mut table[key as usize];
                if *entry == 0 {
                    keys.push(key);
                    *entry = keys.len() as u32;
                }
                *entry - 1
            })),
            Index::Hashed(map) => slots.extend(batch.iter().map(|&key| {
                *map.entry(key).or_insert_with(|| {
                    keys.push(key);
                    keys.len() as u32 - 1
                })
            })),
        }
    }
}

/// Resolves packed group keys to the slots of a [`Partial`]: by direct
/// addressing — a flat array indexed by the key itself — when the
/// layout's key space is small, by a multiplicative-hash map otherwise.
/// Also owns the batch scratch of the kernels that drive it.
#[derive(Debug)]
pub struct Grouper {
    index: Index,
    /// Scratch: the packed keys of the chunk being folded.
    packed: Vec<u64>,
    /// Scratch: the slot of every row (or merged group) of the batch.
    slots: Vec<u32>,
}

impl Grouper {
    /// Widest packed key, in bits, resolved by direct addressing. A
    /// constant, not a knob: 2^20 four-byte entries cap the index at 4 MB
    /// per worker, which stays cache- and RSS-friendly on any host, and
    /// both sides of the bound produce bit-identical partials.
    pub const DIRECT_BITS: u32 = 20;

    /// An empty grouper for keys of `layout`.
    pub fn for_layout(layout: &KeyLayout) -> Self {
        let index = match Grouping::of(layout) {
            Grouping::Direct => Index::Direct(vec![0; 1 << layout.total_bits()]),
            Grouping::Hashed => Index::Hashed(HashMap::default()),
        };
        Grouper { index, packed: Vec::new(), slots: Vec::new() }
    }

    /// A grouper indexing `keys[i] → i`; the keys must be distinct (they
    /// resolve, in order, against an empty key list).
    pub fn over(layout: &KeyLayout, keys: &[u64]) -> Self {
        let mut grouper = Grouper::for_layout(layout);
        grouper.index.resolve(keys, &mut grouper.slots, &mut Vec::with_capacity(keys.len()));
        grouper
    }

    /// The slot of `key`, if indexed.
    pub fn lookup(&self, key: u64) -> Option<usize> {
        match &self.index {
            Index::Direct(table) => match table.get(key as usize) {
                Some(&entry) if entry != 0 => Some(entry as usize - 1),
                _ => None,
            },
            Index::Hashed(map) => map.get(&key).map(|&slot| slot as usize),
        }
    }

    /// Forgets every indexed key. `keys` must list them all — the direct
    /// index is cleared by walking them, O(groups) and never O(key space).
    pub fn clear(&mut self, keys: &[u64]) {
        match &mut self.index {
            Index::Direct(table) => keys.iter().for_each(|&key| table[key as usize] = 0),
            Index::Hashed(map) => map.clear(),
        }
    }
}

/// The aggregation kernel of the morsel pipeline: folds the rows of one
/// chunk into `out`, in two tight passes over flat buffers the chunk layer
/// prepared (see `DataChunk::key_lane` / `f64_lane`):
///
/// 1. per group-by component, gather the roll-up of every row's code and
///    pack it into the row's key; then resolve all keys to slots of `out`
///    through `grouper`;
/// 2. per measure, match the operator once and fold `state[slot[i]]` with
///    the row's value, in row order.
///
/// * `len` — rows in the chunk; every lane must have that length;
/// * `selection` — chunk-local ids of the rows to fold (the predicate
///   kernel's output), or `None` to fold every row;
/// * `keys` — per group-by component: the code lane and the roll-up map
///   from the carried level to the queried level (as raw `u32` codes);
/// * `measures` — one value lane per measure, in accumulator order.
pub fn accumulate_chunk<'a>(
    out: &mut Partial,
    grouper: &mut Grouper,
    layout: &KeyLayout,
    len: usize,
    selection: Option<&[u32]>,
    keys: impl IntoIterator<Item = (&'a [u32], &'a [u32])>,
    measures: impl IntoIterator<Item = &'a [f64]>,
) {
    let Grouper { index, packed, slots } = grouper;
    packed.clear();
    packed.resize(selection.map_or(len, <[u32]>::len), 0);
    for (comp, (lane, rollmap)) in keys.into_iter().enumerate() {
        match selection {
            Some(sel) => {
                for (key, &row) in packed.iter_mut().zip(sel) {
                    layout.pack_code(key, comp, rollmap[lane[row as usize] as usize]);
                }
            }
            None => {
                for (key, &code) in packed.iter_mut().zip(&lane[..len]) {
                    layout.pack_code(key, comp, rollmap[code as usize]);
                }
            }
        }
    }
    index.resolve(packed, slots, &mut out.keys);
    out.grow();
    for (acc, lane) in out.accs.iter_mut().zip(measures) {
        acc.fold_rows(slots, selection, &lane[..len]);
    }
}

/// A hash group table keyed by boxed `K` — the wide-key fallback
/// ([`olap_model::Coordinate`] keys) for group-by sets whose packed key
/// exceeds a machine word. Packed keys aggregate through [`Partial`].
#[derive(Debug)]
pub struct GroupTable<K: Eq + Hash + Clone> {
    map: HashMap<K, u32>,
    keys: Vec<K>,
    accs: Vec<Accumulator>,
}

impl<K: Eq + Hash + Clone> GroupTable<K> {
    pub fn new(ops: &[AggOp]) -> Self {
        GroupTable {
            map: HashMap::new(),
            keys: Vec::new(),
            accs: ops.iter().map(|op| Accumulator::new(*op)).collect(),
        }
    }

    /// Folds one row of measure values into the group of `key`.
    #[inline]
    pub fn update(&mut self, key: K, values: &[f64]) {
        let idx = match self.map.get(&key) {
            Some(&idx) => idx as usize,
            None => {
                let idx = self.keys.len();
                self.map.insert(key.clone(), idx as u32);
                self.keys.push(key);
                for acc in &mut self.accs {
                    acc.grow_to(idx + 1);
                }
                idx
            }
        };
        for (acc, v) in self.accs.iter_mut().zip(values.iter()) {
            acc.update(idx, *v);
        }
    }

    /// Finalizes into `(keys, measure columns)`, in first-seen order.
    pub fn finish(self) -> (Vec<K>, Vec<Vec<f64>>) {
        (self.keys, self.accs.into_iter().map(Accumulator::finish).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One layout on each side of the direct-addressing bound.
    fn layouts() -> [KeyLayout; 2] {
        [
            KeyLayout::for_cardinalities(&[1 << Grouper::DIRECT_BITS]),
            KeyLayout::for_cardinalities(&[1 << (Grouper::DIRECT_BITS + 1)]),
        ]
    }

    /// Folds rows `(codes[i], values[i])` of a one-component key into `out`,
    /// the same value lane feeding every measure.
    fn fold(out: &mut Partial, g: &mut Grouper, layout: &KeyLayout, codes: &[u32], values: &[f64]) {
        let roll: Vec<u32> = (0..=codes.iter().copied().max().unwrap_or(0)).collect();
        let measures = out.accs.iter().map(|_| values).collect::<Vec<_>>();
        accumulate_chunk(out, g, layout, codes.len(), None, [(codes, &roll[..])], measures);
    }

    #[test]
    fn every_operator_accumulates_on_both_sides_of_the_bound() {
        let ops = [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Avg];
        for layout in layouts() {
            let mut g = Grouper::for_layout(&layout);
            let mut t = Partial::new(&ops);
            fold(&mut t, &mut g, &layout, &[7, 7, 9], &[1.0, 2.0, 5.0]);
            fold(&mut t, &mut g, &layout, &[9, 7], &[-4.0, 6.0]);
            assert_eq!((g.lookup(7), g.lookup(9), g.lookup(8)), (Some(0), Some(1), None));
            assert_eq!(t.measure(4), vec![3.0, 0.5]);
            let (keys, cols) = t.finish();
            assert_eq!(keys, vec![7, 9]);
            let expected = [[9.0, 1.0], [1.0, -4.0], [6.0, 5.0], [3.0, 2.0], [3.0, 0.5]];
            assert_eq!(cols, expected.map(|c| c.to_vec()));
        }
    }

    #[test]
    fn merge_folds_matches_and_appends_the_rest() {
        for layout in layouts() {
            let (mut a, mut b) = (Partial::new(&[AggOp::Sum]), Partial::new(&[AggOp::Sum]));
            let (mut ga, mut gb) = (Grouper::for_layout(&layout), Grouper::for_layout(&layout));
            fold(&mut a, &mut ga, &layout, &[3, 1], &[1.0, 2.0]);
            fold(&mut b, &mut gb, &layout, &[5, 1], &[4.0, 8.0]);
            a.merge(&mut ga, &b);
            assert_eq!(ga.lookup(5), Some(2), "the grouper follows the merge");
            assert_eq!(a.key_order(), vec![1, 0, 2]);
            assert_eq!(a.finish(), (vec![3, 1, 5], vec![vec![1.0, 10.0, 4.0]]));
        }
    }

    #[test]
    fn avg_of_empty_group_is_nan() {
        let mut acc = Accumulator::new(AggOp::Avg);
        acc.grow_to(1);
        let out = acc.finish();
        assert!(out[0].is_nan());
    }

    #[test]
    fn from_parts_checks_column_lengths() {
        assert!(Partial::from_parts(vec![1, 2], vec![Accumulator::Sum(vec![1.0, 2.0])]).is_ok());
        assert!(Partial::from_parts(vec![1, 2], vec![Accumulator::Sum(vec![1.0])]).is_err());
        let ragged = Accumulator::Avg { sums: vec![1.0, 2.0], counts: vec![1.0] };
        assert!(Partial::from_parts(vec![1, 2], vec![ragged]).is_err());
    }

    #[test]
    fn chunk_kernel_packs_rolls_up_and_selects() {
        // Hierarchies of 3 and 2 members; the first rolls 0,1 → 0 and 2 → 1.
        let layout = KeyLayout::for_cardinalities(&[2, 2]);
        let fk_a: Vec<u32> = vec![0, 1, 2, 0, 1, 2];
        let fk_b: Vec<u32> = vec![0, 0, 1, 1, 0, 1];
        let (roll_a, roll_b) = (vec![0u32, 0, 1], vec![0u32, 1]);
        let m: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let keys = [(&fk_a[..], &roll_a[..]), (&fk_b[..], &roll_b[..])];
        let key = |a, b| layout.pack(&[olap_model::MemberId(a), olap_model::MemberId(b)]);

        let mut g = Grouper::for_layout(&layout);
        let mut out = Partial::new(&[AggOp::Sum, AggOp::Count]);
        accumulate_chunk(&mut out, &mut g, &layout, 6, Some(&[1, 3, 4]), keys, [&m[..], &m[..]]);
        assert_eq!(
            out.finish(),
            (vec![key(0, 0), key(0, 1)], vec![vec![7.0, 4.0], vec![2.0, 1.0]])
        );

        // No selection folds every row.
        let mut g = Grouper::for_layout(&layout);
        let mut all = Partial::new(&[AggOp::Sum]);
        accumulate_chunk(&mut all, &mut g, &layout, 6, None, keys, [&m[..]]);
        let (all_keys, cols) = all.finish();
        assert_eq!(all_keys, vec![key(0, 0), key(1, 1), key(0, 1)]);
        assert_eq!(cols[0], vec![8.0, 9.0, 4.0]);
    }

    #[test]
    fn wide_keys_work() {
        use olap_model::{Coordinate, MemberId};
        let mut t: GroupTable<Coordinate> = GroupTable::new(&[AggOp::Sum]);
        let k = Coordinate::new(vec![MemberId(1), MemberId(2)]);
        t.update(k.clone(), &[4.0]);
        t.update(k.clone(), &[6.0]);
        let (keys, cols) = t.finish();
        assert_eq!(keys, vec![k]);
        assert_eq!(cols[0], vec![10.0]);
    }
}
