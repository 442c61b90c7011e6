//! Partial aggregates: per-measure state columns, the [`Partial`] every
//! scan, merge and exchange path shares, the [`Aggregator`] a scan worker
//! folds rows and merges partials with.
//!
//! A [`Partial`] is plain data — group keys plus one state column per
//! measure — and carries no index. Over a layout of at most
//! [`Grouper::DIRECT_BITS`] bits, rows and partials fold straight into
//! per-key state indexed by the packed key and come out in ascending key
//! order; wider layouts resolve keys to slots through a hashed
//! [`Grouper`] and are put in key order once, at the end of the merge. So
//! every scan result is in ascending key order — coordinate order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

    /// The state columns, in [`StateOp::of`] order.
    fn states(&self) -> impl Iterator<Item = &[f64]> {
        match self {
            Accumulator::Sum(v)
            | Accumulator::Min(v)
            | Accumulator::Max(v)
            | Accumulator::Count(v) => [Some(&v[..]), None],
            Accumulator::Avg { sums, counts } => [Some(&sums[..]), Some(&counts[..])],
        }
        .into_iter()
        .flatten()
    }

    /// The accumulator of `op` over state columns drawn from `states`, in
    /// [`StateOp::of`] order.
    fn from_states(op: AggOp, states: &mut impl Iterator<Item = Vec<f64>>) -> Self {
        let mut next = || states.next().expect("one state column per state operator");
        match op {
            AggOp::Sum => Accumulator::Sum(next()),
            AggOp::Min => Accumulator::Min(next()),
            AggOp::Max => Accumulator::Max(next()),
            AggOp::Count => Accumulator::Count(next()),
            AggOp::Avg => Accumulator::Avg { sums: next(), counts: next() },
        }
    }

    /// The groups in `slots`, in that order.
    fn gather(&self, slots: &[u32]) -> Self {
        let pick = |v: &[f64]| -> Vec<f64> { slots.iter().map(|&s| v[s as usize]).collect() };
        let mut states = self.states().map(pick).collect::<Vec<_>>().into_iter();
        Accumulator::from_states(self.op(), &mut states)
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
    /// order — the hashed layouts' merge rule.
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

/// A partial aggregate over packed `u64` keys: the group keys and, parallel
/// to them, the **pre-finalize** state of every measure (Avg stays a
/// sum+count pair). One type serves morsel partials, shard partials (it is
/// their wire form), delta partials and the merged result;
/// [`Aggregator::merge`] is their one merge. A scan's partials are in
/// ascending key order, except a hashed layout's morsel partials, which
/// are in first-seen order.
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

    /// The group keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The per-measure state columns, parallel to [`Partial::keys`].
    pub fn accs(&self) -> &[Accumulator] {
        &self.accs
    }

    /// Drops every group, keeping the operators and the allocations.
    fn clear(&mut self) {
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
    fn merge(&mut self, grouper: &mut Grouper, other: &Partial) {
        grouper.index.resolve(&other.keys, &mut grouper.slots, &mut self.keys);
        self.grow();
        for (acc, oacc) in self.accs.iter_mut().zip(&other.accs) {
            acc.merge_rows(&grouper.slots, oacc);
        }
    }

    /// Folds a batch of rows, row `i` (`selection[i]` under a selection)
    /// into the slot `grouper` resolves `packed[i]` to, in row order — the
    /// hashed layouts' fold. `grouper` must index exactly this partial's
    /// keys and keeps doing so afterwards.
    fn fold_slots<'a>(
        &mut self,
        grouper: &mut Grouper,
        packed: &[u64],
        selection: Option<&[u32]>,
        measures: impl IntoIterator<Item = &'a [f64]>,
    ) {
        grouper.index.resolve(packed, &mut grouper.slots, &mut self.keys);
        self.grow();
        for (acc, lane) in self.accs.iter_mut().zip(measures) {
            acc.fold_rows(&grouper.slots, selection, lane);
        }
    }

    /// Finalizes into `(keys, measure columns)`, in stored order.
    pub fn finish(self) -> (Vec<u64>, Vec<Vec<f64>>) {
        (self.keys, self.accs.into_iter().map(Accumulator::finish).collect())
    }

    /// The groups in `slots`, in that order.
    pub(crate) fn gather(&self, slots: &[u32]) -> Partial {
        Partial {
            keys: slots.iter().map(|&s| self.keys[s as usize]).collect(),
            accs: self.accs.iter().map(|acc| acc.gather(slots)).collect(),
        }
    }

    /// Finalizes and emits every group, in stored order: coordinate
    /// columns (keys unpacked by `layout`) and measure columns.
    pub fn emit(self, layout: &KeyLayout) -> (Vec<Vec<MemberId>>, Vec<Vec<f64>>) {
        let (keys, cols) = self.finish();
        let coords = (0..layout.arity())
            .map(|c| keys.iter().map(|&key| layout.unpack_component(key, c)).collect())
            .collect();
        (coords, cols)
    }

    /// The slots in ascending key order — with [`KeyLayout`]'s packing,
    /// lexicographic coordinate order.
    fn key_order(&self) -> Vec<u32> {
        let mut order: Vec<(u64, u32)> = self.keys.iter().copied().zip(0..).collect();
        order.sort_unstable();
        order.into_iter().map(|(_, slot)| slot).collect()
    }
}

/// How a scan groups packed keys (reported on scan spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// Per-key state in flat arrays indexed by the packed key itself.
    Direct,
    /// Slots resolved through a multiplicative-hash map.
    Hashed,
}

impl Grouping {
    /// The grouping of `layout`: direct up to [`Grouper::DIRECT_BITS`].
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

/// Resolves packed keys to the slots of a [`Partial`]: by direct
/// addressing — a flat array indexed by the key itself — when the layout's
/// key space is small, by a multiplicative-hash map otherwise. Scans fold
/// through it only over hashed layouts; [`Grouper::over`] builds the probe
/// index of a finished partial for either.
#[derive(Debug)]
pub struct Grouper {
    index: Index,
    /// Scratch: the slot of every row (or merged group) of the batch.
    slots: Vec<u32>,
}

impl Grouper {
    /// Widest packed key, in bits, grouped directly — scans fold into
    /// per-key state, probes index by the key. A constant, not a knob:
    /// 2^20 eight-byte entries cap a state column at 8 MB of zeroed pages
    /// per worker (a probe index at 4 MB), of which only touched pages
    /// become resident, and both sides of the bound produce bit-identical
    /// partials.
    pub const DIRECT_BITS: u32 = 20;

    /// An empty grouper for keys of `layout`.
    fn for_layout(layout: &KeyLayout) -> Self {
        let index = match Grouping::of(layout) {
            Grouping::Direct => Index::Direct(vec![0; 1 << layout.total_bits()]),
            Grouping::Hashed => Index::Hashed(HashMap::default()),
        };
        Grouper { index, slots: Vec::new() }
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
    fn clear(&mut self, keys: &[u64]) {
        match &mut self.index {
            Index::Direct(table) => keys.iter().for_each(|&key| table[key as usize] = 0),
            Index::Hashed(map) => map.clear(),
        }
    }
}

/// One state column's fold: a row's value and another partial's state.
#[derive(Debug, Clone, Copy)]
enum StateOp {
    Sum,
    Count,
    Min,
    Max,
}

impl StateOp {
    /// The state columns of `op`, in its [`Accumulator`]'s order.
    fn of(op: AggOp) -> &'static [StateOp] {
        match op {
            AggOp::Sum => &[StateOp::Sum],
            AggOp::Count => &[StateOp::Count],
            AggOp::Min => &[StateOp::Min],
            AggOp::Max => &[StateOp::Max],
            AggOp::Avg => &[StateOp::Sum, StateOp::Count],
        }
    }

    /// The bits of the identity. State is stored XORed with them, so zeroed
    /// memory reads as identity: `+0.0` for sums and counts, `±∞` for Min
    /// and Max.
    fn identity(self) -> u64 {
        match self {
            StateOp::Sum | StateOp::Count => 0,
            StateOp::Min => f64::INFINITY.to_bits(),
            StateOp::Max => f64::NEG_INFINITY.to_bits(),
        }
    }

    /// Folds a batch of rows, row `i` into `state[keys[i]]`, in row order;
    /// `mark` sees every key whose state loads.
    #[inline(always)]
    fn fold_rows(
        self,
        state: &mut [u64],
        keys: &[u64],
        selection: Option<&[u32]>,
        lane: &[f64],
        mark: impl FnMut(usize),
    ) {
        let id = self.identity();
        let (all, add) = (lane.iter().copied(), |a: f64, x: f64| a + x);
        let picked = selection.map(|sel| sel.iter().map(|&row| lane[row as usize]));
        match (self, picked) {
            (StateOp::Count, _) => fold_runs(state, id, keys, std::iter::repeat(1.0), add, mark),
            (StateOp::Sum, None) => fold_runs(state, id, keys, all, add, mark),
            (StateOp::Sum, Some(picked)) => fold_runs(state, id, keys, picked, add, mark),
            (StateOp::Min, None) => fold_runs(state, id, keys, all, f64::min, mark),
            (StateOp::Min, Some(picked)) => fold_runs(state, id, keys, picked, f64::min, mark),
            (StateOp::Max, None) => fold_runs(state, id, keys, all, f64::max, mark),
            (StateOp::Max, Some(picked)) => fold_runs(state, id, keys, picked, f64::max, mark),
        }
    }

    /// Folds another partial's state `values[i]` into `state[keys[i]]`.
    fn merge(self, state: &mut [u64], keys: &[u64], values: &[f64]) {
        let (id, values) = (self.identity(), values.iter().copied());
        match self {
            StateOp::Sum | StateOp::Count => fold_runs(state, id, keys, values, |a, x| a + x, drop),
            StateOp::Min => fold_runs(state, id, keys, values, f64::min, drop),
            StateOp::Max => fold_runs(state, id, keys, values, f64::max, drop),
        }
    }
}

/// `state[keys[i]] = f(state[keys[i]], x_i)` in `i` order, state stored
/// XORed with the identity bits `id`; `mark` sees every key whose state
/// loads. A run of equal consecutive keys folds in a register: the state
/// loads when the key changes and stores when it changes again — the same
/// operations in the same order as a load and a store per row, without
/// each row waiting for the previous one's store.
#[inline(always)]
fn fold_runs(
    state: &mut [u64],
    id: u64,
    keys: &[u64],
    values: impl Iterator<Item = f64>,
    f: impl Fn(f64, f64) -> f64,
    mut mark: impl FnMut(usize),
) {
    let mut rows = keys.iter().zip(values);
    let Some((&first, x)) = rows.next() else { return };
    let mut key = first as usize;
    mark(key);
    let mut acc = f(f64::from_bits(state[key] ^ id), x);
    for (&next, x) in rows {
        let next = next as usize;
        if next != key {
            state[key] = acc.to_bits() ^ id;
            key = next;
            mark(key);
            acc = f64::from_bits(state[key] ^ id);
        }
        acc = f(acc, x);
    }
    state[key] = acc.to_bits() ^ id;
}

/// The keys a [`KeyedState`] holds: one byte per key and one per block of
/// 64 keys. A key's first touch stores both bytes, later touches only read
/// its own — no bit is read-modify-written, so no row waits on the store
/// of the row before. The walk of [`Marks::take`] clears them.
#[derive(Debug)]
struct Marks {
    keys: Vec<u8>,
    blocks: Vec<u8>,
}

impl Marks {
    fn new(keys: usize) -> Self {
        Marks { keys: vec![0; keys], blocks: vec![0; keys.div_ceil(64)] }
    }

    #[inline(always)]
    fn set(&mut self, key: usize) {
        if self.keys[key] == 0 {
            self.keys[key] = 1;
            self.blocks[key >> 6] = 1;
        }
    }

    /// The marked keys, ascending, leaving none marked: a walk of the
    /// block bytes and of the 64 key bytes of every marked block.
    fn take(&mut self) -> Vec<u64> {
        let mut keys = Vec::new();
        for (block, mark) in self.blocks.iter_mut().enumerate() {
            if std::mem::take(mark) != 0 {
                let base = block * 64;
                let end = (base + 64).min(self.keys.len());
                for (key, mark) in (base as u64..).zip(&mut self.keys[base..end]) {
                    if std::mem::take(mark) != 0 {
                        keys.push(key);
                    }
                }
            }
        }
        keys
    }
}

/// Aggregation state over the whole key space of a direct layout: per
/// state column, one entry per packed key, and the [`Marks`] of the keys
/// touched since the last [`KeyedState::take`]. Everything starts as
/// zeroed memory — zero reads as identity (see [`StateOp::identity`]) — so
/// only touched pages become resident, and a take walks the marks: O(groups
/// + key space / 64), never O(key space).
#[derive(Debug)]
struct KeyedState {
    ops: Vec<AggOp>,
    /// Per state column of `ops` (in [`StateOp::of`] order): its fold and
    /// its entries, indexed by packed key.
    cols: Vec<(StateOp, Vec<u64>)>,
    marks: Marks,
}

impl KeyedState {
    fn new(layout: &KeyLayout, ops: &[AggOp]) -> Self {
        let keys = 1usize << layout.total_bits();
        KeyedState {
            ops: ops.to_vec(),
            cols: ops.iter().flat_map(|&op| StateOp::of(op)).map(|&s| (s, vec![0; keys])).collect(),
            marks: Marks::new(keys),
        }
    }

    /// Folds a batch of rows, row `i` (`selection[i]` under a selection)
    /// into the state of `keys[i]`, in row order; one value lane per
    /// measure. The first state column's fold marks the keys.
    fn fold_rows<'a>(
        &mut self,
        keys: &[u64],
        selection: Option<&[u32]>,
        measures: impl IntoIterator<Item = &'a [f64]>,
    ) {
        let (mut cols, marks) = (self.cols.iter_mut(), &mut self.marks);
        let mut marked = false;
        for (op, lane) in self.ops.iter().zip(measures) {
            for (state_op, state) in cols.by_ref().take(StateOp::of(*op).len()) {
                if marked {
                    state_op.fold_rows(state, keys, selection, lane, |_| {});
                } else {
                    state_op.fold_rows(state, keys, selection, lane, |key| marks.set(key));
                    marked = true;
                }
            }
        }
        if !marked {
            keys.iter().for_each(|&key| marks.set(key as usize));
        }
    }

    /// Folds `partial`'s groups into their keys' state.
    fn merge(&mut self, partial: &Partial) {
        partial.keys.iter().for_each(|&key| self.marks.set(key as usize));
        let states = partial.accs.iter().flat_map(Accumulator::states);
        for ((state_op, state), values) in self.cols.iter_mut().zip(states) {
            state_op.merge(state, &partial.keys, values);
        }
    }

    /// Hands out every touched key's state as a partial in ascending key
    /// order, and resets those keys to identity.
    fn take(&mut self) -> Partial {
        let keys = self.marks.take();
        let mut states = self.cols.iter_mut().map(|(state_op, col)| {
            let id = state_op.identity();
            keys.iter()
                .map(|&key| f64::from_bits(std::mem::take(&mut col[key as usize]) ^ id))
                .collect()
        });
        let accs = self.ops.iter().map(|&op| Accumulator::from_states(op, &mut states)).collect();
        Partial { keys, accs }
    }
}

/// Folds a scan's rows, chunk by chunk, into one partial per morsel: over
/// a direct layout into per-key state, otherwise into a [`Partial`] through
/// a hashed [`Grouper`]. A worker owns one for the whole scan;
/// [`Aggregator::take`] hands out a morsel's partial and resets it.
#[derive(Debug)]
pub struct Aggregator {
    /// Scratch: the packed keys of the chunk being folded.
    packed: Vec<u64>,
    fold: Fold,
}

#[derive(Debug)]
enum Fold {
    Keyed(KeyedState),
    Hashed(Grouper, Partial),
}

impl Aggregator {
    /// An empty aggregator for keys of `layout` and measures of `ops`.
    pub fn for_layout(layout: &KeyLayout, ops: &[AggOp]) -> Self {
        let fold = match Grouping::of(layout) {
            Grouping::Direct => Fold::Keyed(KeyedState::new(layout, ops)),
            Grouping::Hashed => Fold::Hashed(Grouper::for_layout(layout), Partial::new(ops)),
        };
        Aggregator { packed: Vec::new(), fold }
    }

    /// Hands out the groups folded since the last take — in ascending key
    /// order over a direct layout, first-seen order over a hashed one — and
    /// resets for the next morsel.
    pub fn take(&mut self) -> Partial {
        match &mut self.fold {
            Fold::Keyed(state) => state.take(),
            Fold::Hashed(grouper, partial) => {
                let out = partial.clone();
                grouper.clear(out.keys());
                partial.clear();
                out
            }
        }
    }

    /// Folds `partials`, in order, into one partial in **ascending key
    /// order** — the one merge of morsel partials (in morsel order) and
    /// shard partials (in shard order). Over a direct layout they fold into
    /// this aggregator's per-key state, which emits in key order; over a
    /// hashed one they merge through its [`Grouper`] and the result is
    /// sorted once. The aggregator must be empty (as a take leaves it) and
    /// is left empty. The fold starts from identity, and `f(id, v) = v` for
    /// every state `v` a fold from identity produces (a sum from `+0.0` is
    /// never `−0.0`, `f64::min`/`max` from `±∞` never NaN), so a lone
    /// partial already in key order is its own merge.
    pub fn merge(&mut self, partials: impl IntoIterator<Item = Partial>) -> Partial {
        let mut partials = partials.into_iter();
        let Some(first) = partials.next() else { return self.take() };
        let mut rest = partials.peekable();
        if rest.peek().is_none() && first.keys.is_sorted_by(|a, b| a < b) {
            return first;
        }
        let partials = std::iter::once(first).chain(rest);
        match &mut self.fold {
            Fold::Keyed(state) => {
                partials.for_each(|partial| state.merge(&partial));
                state.take()
            }
            Fold::Hashed(grouper, out) => {
                partials.for_each(|partial| out.merge(grouper, &partial));
                let merged = self.take();
                merged.gather(&merged.key_order())
            }
        }
    }
}

/// The aggregation kernel of the morsel pipeline: folds the rows of one
/// chunk into `agg`, in two tight passes over flat buffers the chunk layer
/// prepared (see `DataChunk::key_lane` / `f64_lane`):
///
/// 1. per group-by component, gather the roll-up of every row's code and
///    pack it into the row's key;
/// 2. per measure, match the operator once and fold every row's value into
///    its key's state, in row order — directly by key over a direct layout
///    (runs of equal keys in a register), through slots the hashed
///    [`Grouper`] resolves otherwise.
///
/// * `len` — rows in the chunk; every lane must have that length;
/// * `selection` — chunk-local ids of the rows to fold (the predicate
///   kernel's output), or `None` to fold every row;
/// * `keys` — per group-by component: the code lane and the roll-up map
///   from the carried level to the queried level (as raw `u32` codes);
/// * `measures` — one value lane per measure, in accumulator order.
pub fn accumulate_chunk<'a>(
    agg: &mut Aggregator,
    layout: &KeyLayout,
    len: usize,
    selection: Option<&[u32]>,
    keys: impl IntoIterator<Item = (&'a [u32], &'a [u32])>,
    measures: impl IntoIterator<Item = &'a [f64]>,
) {
    let Aggregator { packed, fold } = agg;
    pack_keys(packed, layout, len, selection, keys);
    let measures = measures.into_iter().map(|lane| &lane[..len]);
    match fold {
        Fold::Keyed(state) => state.fold_rows(packed, selection, measures),
        Fold::Hashed(grouper, out) => out.fold_slots(grouper, packed, selection, measures),
    }
}

/// Pass 1 of [`accumulate_chunk`]: the packed key of every (selected) row.
fn pack_keys<'a>(
    packed: &mut Vec<u64>,
    layout: &KeyLayout,
    len: usize,
    selection: Option<&[u32]>,
    keys: impl IntoIterator<Item = (&'a [u32], &'a [u32])>,
) {
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

    /// [`accumulate_chunk`]'s packing pass followed by the slot fold, on
    /// either side of the bound.
    fn slot_kernel<'a>(
        out: &mut Partial,
        g: &mut Grouper,
        layout: &KeyLayout,
        len: usize,
        selection: Option<&[u32]>,
        keys: impl IntoIterator<Item = (&'a [u32], &'a [u32])>,
        measures: impl IntoIterator<Item = &'a [f64]>,
    ) {
        let mut packed = Vec::new();
        pack_keys(&mut packed, layout, len, selection, keys);
        out.fold_slots(g, &packed, selection, measures.into_iter().map(|lane| &lane[..len]));
    }

    /// Folds rows `(codes[i], values[i])` of a one-component key into `out`
    /// through `g`'s slots, the same value lane feeding every measure.
    fn fold(out: &mut Partial, g: &mut Grouper, layout: &KeyLayout, codes: &[u32], values: &[f64]) {
        let roll: Vec<u32> = (0..=codes.iter().copied().max().unwrap_or(0)).collect();
        let measures = out.accs.iter().map(|_| values).collect::<Vec<_>>();
        slot_kernel(out, g, layout, codes.len(), None, [(codes, &roll[..])], measures);
    }

    /// [`fold`] through an [`Aggregator`].
    fn fold_keyed(agg: &mut Aggregator, layout: &KeyLayout, codes: &[u32], values: &[f64]) {
        let roll: Vec<u32> = (0..=codes.iter().copied().max().unwrap_or(0)).collect();
        let measures = OPS.map(|_| values);
        accumulate_chunk(agg, layout, codes.len(), None, [(codes, &roll[..])], measures);
    }

    const OPS: [AggOp; 5] = [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Avg];

    /// Keys plus every state value as raw bits.
    fn bits(p: &Partial) -> (Vec<u64>, Vec<Vec<u64>>) {
        let states = p.accs.iter().flat_map(Accumulator::states);
        (p.keys.clone(), states.map(|s| s.iter().map(|x| x.to_bits()).collect()).collect())
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

    /// The per-key fold performs the slot fold's operations in the slot
    /// fold's order, so its partial is the slot partial in key order, bit
    /// for bit — on runs of equal keys, `−0.0`, NaN and `±∞` included.
    #[test]
    fn keyed_fold_is_the_slot_fold_in_key_order() {
        let layout = &layouts()[0];
        let codes = [9, 9, 9, 2, 2, 1 << 19, 9, 0, 0, 2, 1, 1];
        let x = [-0.0, f64::NAN, 1.5, -0.0, -0.0, f64::INFINITY, 0.1, f64::NEG_INFINITY, 3.0];
        let values: Vec<f64> = (0..codes.len()).map(|i| x[i % x.len()]).collect();
        let mut agg = Aggregator::for_layout(layout, &OPS);
        let (mut slots, mut g) = (Partial::new(&OPS), Grouper::for_layout(layout));
        for rows in [0..5, 5..codes.len()] {
            fold_keyed(&mut agg, layout, &codes[rows.clone()], &values[rows.clone()]);
            fold(&mut slots, &mut g, layout, &codes[rows.clone()], &values[rows]);
        }
        let keyed = agg.take();
        assert_eq!(keyed.keys(), [0, 1, 2, 9, 1 << 19]);
        assert_eq!(bits(&keyed), bits(&slots.gather(&slots.key_order())));
        assert!(agg.take().is_empty(), "a take resets every touched key");
        fold_keyed(&mut agg, layout, &[2], &[5.0]);
        let again = agg.take();
        assert_eq!(again.finish(), (vec![2], [5.0, 5.0, 5.0, 1.0, 5.0].map(|v| vec![v]).to_vec()));
    }

    /// `Aggregator::merge` starts from identity where the slot merge starts
    /// from partial 0 as it stands; `f(id, v) = v` for every state a fold
    /// from identity produces makes the two agree bit for bit.
    #[test]
    fn merge_from_identity_equals_merge_from_the_first_partial() {
        let x = [-0.0, f64::NAN, f64::INFINITY, -0.0, f64::NEG_INFINITY, 2.5, -0.0];
        let chunks: [&[u32]; 3] = [&[4, 4, 1, 7], &[1, 4, 3], &[7, 7, 7]];
        for layout in layouts() {
            let mut partials = Vec::new();
            let mut g = Grouper::for_layout(&layout);
            for (i, codes) in chunks.iter().enumerate() {
                let mut p = Partial::new(&OPS);
                let vals: Vec<f64> = (0..codes.len()).map(|r| x[(r + i) % x.len()]).collect();
                fold(&mut p, &mut g, &layout, codes, &vals);
                g.clear(p.keys());
                partials.push(p);
            }
            let mut slot_merged = partials[0].clone();
            let mut index = Grouper::over(&layout, slot_merged.keys());
            partials[1..].iter().for_each(|p| slot_merged.merge(&mut index, p));
            let mut agg = Aggregator::for_layout(&layout, &OPS);
            let merged = agg.merge(partials.clone());
            assert_eq!(merged.keys(), [1, 3, 4, 7]);
            assert_eq!(bits(&merged), bits(&slot_merged.gather(&slot_merged.key_order())));
            let lone = agg.merge([partials[2].clone()]);
            assert_eq!(bits(&lone), bits(&partials[2]), "a lone key-ordered partial is its merge");
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
        slot_kernel(&mut out, &mut g, &layout, 6, Some(&[1, 3, 4]), keys, [&m[..], &m[..]]);
        assert_eq!(
            out.finish(),
            (vec![key(0, 0), key(0, 1)], vec![vec![7.0, 4.0], vec![2.0, 1.0]])
        );

        // No selection folds every row.
        let mut g = Grouper::for_layout(&layout);
        let mut all = Partial::new(&[AggOp::Sum]);
        slot_kernel(&mut all, &mut g, &layout, 6, None, keys, [&m[..]]);
        let (all_keys, cols) = all.finish();
        assert_eq!(all_keys, vec![key(0, 0), key(1, 1), key(0, 1)]);
        assert_eq!(cols[0], vec![8.0, 9.0, 4.0]);

        // The per-key fold emits the same groups in key order.
        let mut agg = Aggregator::for_layout(&layout, &[AggOp::Sum]);
        accumulate_chunk(&mut agg, &layout, 6, None, keys, [&m[..]]);
        let (keyed_keys, cols) = agg.take().finish();
        assert_eq!(keyed_keys, vec![key(0, 0), key(0, 1), key(1, 1)]);
        assert_eq!(cols[0], vec![8.0, 4.0, 9.0]);
    }
}
