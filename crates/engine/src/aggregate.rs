//! Partial aggregates: the [`Partial`] every scan, merge and exchange path
//! shares, the [`Aggregator`] a scan worker folds rows and merges partials
//! with, and [`StateOp`], the one table of what state each operator keeps.
//!
//! A [`Partial`] is plain data — group keys, the measures' operators and
//! one state column per [`StateOp`] of each operator, in [`StateOp::of`]
//! order — and carries no index. Every reader takes the columns as they
//! stand; finalizing is one function (a distributive operator's state is
//! its value, Avg's is a sum and a count). An [`Aggregator`] folds rows and
//! partials through one kernel, one [`StateOp`] per state column; only how
//! a key finds its state entry depends on the layout. Over a layout of at
//! most [`Grouper::DIRECT_BITS`] bits the entry is at the packed key
//! itself and groups come out in ascending key order; over a wider layout
//! a hashed [`Grouper`] resolves keys to first-seen slots, and the merge
//! puts the groups in key order once, at its end. So every scan result is
//! in ascending key order — coordinate order. Cells that already are
//! groups — a view read at its own group-by — are not folded:
//! `Aggregator::read` hands them to the next take.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use olap_model::{AggOp, KeyLayout};

/// A partial aggregate over packed `u64` keys: the group keys and, parallel
/// to them, the **pre-finalize** state columns of its measures' operators,
/// in [`StateOp::of`] order (Avg stays a sum column and a count column).
/// One type serves morsel partials, shard partials (it is their wire form),
/// delta partials and the merged result; [`Aggregator::merge`] is their one
/// merge. A scan's partials are in ascending key order, except a hashed
/// layout's morsel partials, which are in first-seen order.
#[derive(Debug, Clone)]
pub struct Partial {
    keys: Vec<u64>,
    ops: Vec<AggOp>,
    states: Vec<Vec<f64>>,
}

impl Partial {
    pub fn new(ops: &[AggOp]) -> Self {
        let states = StateOp::columns(ops).map(|_| Vec::new()).collect();
        Partial { keys: Vec::new(), ops: ops.to_vec(), states }
    }

    /// Reassembles a partial from its parts (possibly deserialized from a
    /// remote shard): one state column per [`StateOp`] of `ops`, each as
    /// long as `keys`.
    pub fn from_parts(
        keys: Vec<u64>,
        ops: Vec<AggOp>,
        states: Vec<Vec<f64>>,
    ) -> Result<Self, String> {
        let want = StateOp::columns(&ops).count();
        if states.len() != want {
            return Err(format!("{} state columns where the operators need {want}", states.len()));
        }
        if states.iter().any(|col| col.len() != keys.len()) {
            return Err("state column length does not match the key count".to_string());
        }
        Ok(Partial { keys, ops, states })
    }

    /// Whether this partial could have come from a scan with `layout` and
    /// `ops`: every key inside the key space, the same operators. Checked
    /// on partials received from outside the process.
    pub fn conforms(&self, layout: &KeyLayout, ops: &[AggOp]) -> bool {
        self.ops == ops && self.keys.iter().all(|&key| layout.contains(key))
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

    /// The measures' operators.
    pub fn ops(&self) -> &[AggOp] {
        &self.ops
    }

    /// The state columns, in [`StateOp::of`] order over [`Partial::ops`],
    /// parallel to [`Partial::keys`].
    pub fn states(&self) -> &[Vec<f64>] {
        &self.states
    }

    /// The finalized column of measure `measure_idx` (a copy: fused
    /// operators probe one side's values before materializing the other).
    pub fn measure(&self, measure_idx: usize) -> Vec<f64> {
        let width = |op: &AggOp| StateOp::of(*op).len();
        let at: usize = self.ops[..measure_idx].iter().map(width).sum();
        let op = self.ops[measure_idx];
        finalize(op, self.states[at..at + width(&op)].iter().cloned())
    }

    /// Finalizes into `(keys, measure columns)`, in stored order.
    pub fn finish(self) -> (Vec<u64>, Vec<Vec<f64>>) {
        let mut states = self.states.into_iter();
        (self.keys, self.ops.iter().map(|&op| finalize(op, &mut states)).collect())
    }

    /// The groups in `slots`, in that order.
    pub(crate) fn gather(&self, slots: &[u32]) -> Partial {
        Partial {
            keys: gather(&self.keys, slots),
            ops: self.ops.clone(),
            states: self.states.iter().map(|col| gather(col, slots)).collect(),
        }
    }

    /// The slots in ascending key order — with [`KeyLayout`]'s packing,
    /// lexicographic coordinate order.
    fn key_order(&self) -> Vec<u32> {
        let mut order: Vec<(u64, u32)> = self.keys.iter().copied().zip(0..).collect();
        order.sort_unstable();
        order.into_iter().map(|(_, slot)| slot).collect()
    }
}

/// The entries of `col` at `rows`, in that order.
fn gather<T: Copy>(col: &[T], rows: &[u32]) -> Vec<T> {
    rows.iter().map(|&row| col[row as usize]).collect()
}

/// The values of a measure of `op` from its state columns, drawn from
/// `states` in [`StateOp::of`] order: a distributive operator's one state
/// column is its value, Avg's sum and count are sum ÷ count — NaN over no
/// row.
fn finalize(op: AggOp, mut states: impl Iterator<Item = Vec<f64>>) -> Vec<f64> {
    let mut next = || states.next().expect("one state column per state operator");
    let value = next();
    if op.is_distributive() {
        return value;
    }
    value.into_iter().zip(next()).map(|(sum, n)| if n > 0.0 { sum / n } else { f64::NAN }).collect()
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

/// Resolves packed keys to slots: by direct addressing — a flat array
/// indexed by the key itself — when the layout's key space is small, by a
/// multiplicative-hash map otherwise. A hashed layout's [`Aggregator`]
/// finds its state entries through one; [`Grouper::over`] builds the probe
/// index of a finished partial for either layout.
#[derive(Debug, Default)]
pub struct Grouper {
    /// Over a direct layout, one entry per point of the key space:
    /// `direct[key]` is the key's slot **plus one**, 0 while vacant (so the
    /// table starts as lazily zeroed pages and only touched pages ever
    /// become resident). Empty over a hashed layout.
    direct: Vec<u32>,
    /// Over a hashed layout, the slot of every indexed key.
    hashed: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
}

impl Grouper {
    /// Widest packed key, in bits, grouped directly — scans fold into
    /// per-key state, probes index by the key. A constant, not a knob:
    /// 2^20 eight-byte entries cap a state column at 8 MB of zeroed pages
    /// per worker (a probe index at 4 MB), of which only touched pages
    /// become resident, and both sides of the bound produce bit-identical
    /// partials.
    pub const DIRECT_BITS: u32 = 20;

    /// A grouper indexing `keys[i] → i`; the keys must be distinct.
    pub fn over(layout: &KeyLayout, keys: &[u64]) -> Self {
        let mut grouper = Grouper::default();
        match Grouping::of(layout) {
            Grouping::Direct => {
                grouper.direct = vec![0; 1 << layout.total_bits()];
                keys.iter().zip(1..).for_each(|(&key, entry)| grouper.direct[key as usize] = entry);
            }
            Grouping::Hashed => grouper.hashed.extend(keys.iter().copied().zip(0..)),
        }
        grouper
    }

    /// The slot of `key`, if indexed.
    pub fn lookup(&self, key: u64) -> Option<usize> {
        match self.direct.get(key as usize) {
            Some(&entry) => (entry as usize).checked_sub(1),
            None => self.hashed.get(&key).map(|&slot| slot as usize),
        }
    }

    /// Rewrites every key of `batch`, in place, into its slot among `keys`,
    /// unseen keys appending in batch order. Hashed groupers only.
    fn resolve(&mut self, batch: &mut [u64], keys: &mut Vec<u64>) {
        for at in batch {
            let key = *at;
            *at = u64::from(*self.hashed.entry(key).or_insert_with(|| {
                keys.push(key);
                keys.len() as u32 - 1
            }));
        }
    }
}

/// One state column's fold: a row's value and another partial's state —
/// the distributive table (Gray et al.) every partial merge uses.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StateOp {
    Sum,
    Count,
    Min,
    Max,
}

impl StateOp {
    /// The state columns of `op`: one for a distributive operator, sum
    /// then count for Avg.
    pub(crate) fn of(op: AggOp) -> &'static [StateOp] {
        match op {
            AggOp::Sum => &[StateOp::Sum],
            AggOp::Count => &[StateOp::Count],
            AggOp::Min => &[StateOp::Min],
            AggOp::Max => &[StateOp::Max],
            AggOp::Avg => &[StateOp::Sum, StateOp::Count],
        }
    }

    /// The state columns of `ops`, in order.
    pub(crate) fn columns(ops: &[AggOp]) -> impl Iterator<Item = StateOp> + '_ {
        ops.iter().flat_map(|&op| StateOp::of(op)).copied()
    }

    /// The bits of the identity. State is stored XORed with them, so zeroed
    /// memory reads as identity: `+0.0` for sums and counts, `±∞` for Min
    /// and Max.
    pub(crate) fn identity(self) -> u64 {
        match self {
            StateOp::Sum | StateOp::Count => 0,
            StateOp::Min => f64::INFINITY.to_bits(),
            StateOp::Max => f64::NEG_INFINITY.to_bits(),
        }
    }

    /// Folds state `x` into state `a`, one pair at a time — the operator
    /// [`StateOp::merge`] applies per key.
    pub(crate) fn apply(self, a: f64, x: f64) -> f64 {
        match self {
            StateOp::Sum | StateOp::Count => a + x,
            StateOp::Min => a.min(x),
            StateOp::Max => a.max(x),
        }
    }

    /// Folds a batch of rows, row `i` into `state[at[i]]`, in row order;
    /// `mark` sees every position whose state loads.
    #[inline(always)]
    fn fold_rows(
        self,
        state: &mut [u64],
        at: &[u64],
        selection: Option<&[u32]>,
        lane: &[f64],
        mark: impl FnMut(usize),
    ) {
        let id = self.identity();
        let (all, add) = (lane.iter().copied(), |a: f64, x: f64| a + x);
        let picked = selection.map(|sel| sel.iter().map(|&row| lane[row as usize]));
        match (self, picked) {
            (StateOp::Count, _) => fold_runs(state, id, at, std::iter::repeat(1.0), add, mark),
            (StateOp::Sum, None) => fold_runs(state, id, at, all, add, mark),
            (StateOp::Sum, Some(picked)) => fold_runs(state, id, at, picked, add, mark),
            (StateOp::Min, None) => fold_runs(state, id, at, all, f64::min, mark),
            (StateOp::Min, Some(picked)) => fold_runs(state, id, at, picked, f64::min, mark),
            (StateOp::Max, None) => fold_runs(state, id, at, all, f64::max, mark),
            (StateOp::Max, Some(picked)) => fold_runs(state, id, at, picked, f64::max, mark),
        }
    }

    /// Folds another partial's state `values[i]` into `state[at[i]]`.
    fn merge(self, state: &mut [u64], at: &[u64], values: &[f64]) {
        let (id, values) = (self.identity(), values.iter().copied());
        match self {
            StateOp::Sum | StateOp::Count => fold_runs(state, id, at, values, |a, x| a + x, drop),
            StateOp::Min => fold_runs(state, id, at, values, f64::min, drop),
            StateOp::Max => fold_runs(state, id, at, values, f64::max, drop),
        }
    }

    /// The states stored in `entries`.
    fn values(self, entries: impl Iterator<Item = u64>) -> Vec<f64> {
        let id = self.identity();
        entries.map(|bits| f64::from_bits(bits ^ id)).collect()
    }
}

/// `state[at[i]] = f(state[at[i]], x_i)` in `i` order, state stored XORed
/// with the identity bits `id`; `mark` sees every position whose state
/// loads. A run of equal consecutive positions folds in a register: the
/// state loads when the position changes and stores when it changes again
/// — the same operations in the same order as a load and a store per row,
/// without each row waiting for the previous one's store.
#[inline(always)]
fn fold_runs(
    state: &mut [u64],
    id: u64,
    at: &[u64],
    values: impl Iterator<Item = f64>,
    f: impl Fn(f64, f64) -> f64,
    mut mark: impl FnMut(usize),
) {
    let mut rows = at.iter().zip(values);
    let Some((&first, x)) = rows.next() else { return };
    let mut pos = first as usize;
    mark(pos);
    let mut acc = f(f64::from_bits(state[pos] ^ id), x);
    for (&next, x) in rows {
        let next = next as usize;
        if next != pos {
            state[pos] = acc.to_bits() ^ id;
            pos = next;
            mark(pos);
            acc = f64::from_bits(state[pos] ^ id);
        }
        acc = f(acc, x);
    }
    state[pos] = acc.to_bits() ^ id;
}

/// Folds one value lane per state column of `cols` into the entries at
/// `at`, row `i` (`selection[i]` under a selection) into `at[i]`, in row
/// order; `mark` sees every position the first column loads (every
/// position, when there is no column).
fn fold_lanes<'a>(
    cols: &mut [(StateOp, Vec<u64>)],
    at: &[u64],
    selection: Option<&[u32]>,
    lanes: impl Iterator<Item = &'a [f64]>,
    mut mark: impl FnMut(usize),
) {
    let mut cols = cols.iter_mut().zip(lanes);
    match cols.next() {
        Some(((op, state), lane)) => op.fold_rows(state, at, selection, lane, mark),
        None => at.iter().for_each(|&pos| mark(pos as usize)),
    }
    cols.for_each(|((op, state), lane)| op.fold_rows(state, at, selection, lane, drop));
}

/// The keys a direct [`Aggregator`] holds: one byte per key and one per
/// block of 64 keys. A key's first touch stores both bytes, later touches
/// only read its own — no bit is read-modify-written, so no row waits on
/// the store of the row before. The walk of [`Marks::take`] clears them.
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

/// Folds a scan's rows, chunk by chunk, and partials into per-group state:
/// one column of entries per state operator ([`StateOp`]), stored XORed
/// with its identity, so zeroed memory reads as identity for every
/// operator. Fold, merge and take run the same code over either layout;
/// only where a key's entry sits differs ([`Positions`]). A worker owns
/// one for the whole scan; [`Aggregator::take`] hands out a morsel's
/// partial and resets it.
#[derive(Debug)]
pub struct Aggregator {
    ops: Vec<AggOp>,
    /// Per state column of `ops`, in [`StateOp::of`] order: its operator
    /// and its entries.
    cols: Vec<(StateOp, Vec<u64>)>,
    positions: Positions,
    /// Scratch: the packed keys of the batch being folded, then their
    /// positions.
    packed: Vec<u64>,
    /// Groups read since the last take (`Aggregator::read`), handed out
    /// by the next take in place of folded ones.
    read: Option<Partial>,
}

/// Where an [`Aggregator`] keeps a key's state entry.
#[derive(Debug)]
enum Positions {
    /// At the packed key itself. The columns span the direct layout's key
    /// space as zeroed memory, of which only touched pages become
    /// resident; the [`Marks`] hold the keys touched since the last take,
    /// so a take is O(groups + key space / 64), never O(key space).
    Direct(Marks),
    /// At the key's slot among `keys` (first-seen order), which the hashed
    /// [`Grouper`] resolves. The columns grow with zeros as keys arrive.
    Hashed(Grouper, Vec<u64>),
}

impl Positions {
    /// Rewrites the packed keys of `batch`, in place, into their
    /// positions, growing `cols` to cover every key — a no-op over a
    /// direct layout.
    fn locate(&mut self, batch: &mut [u64], cols: &mut [(StateOp, Vec<u64>)]) {
        if let Positions::Hashed(grouper, keys) = self {
            grouper.resolve(batch, keys);
            cols.iter_mut().for_each(|(_, entries)| entries.resize(keys.len(), 0));
        }
    }
}

impl Aggregator {
    /// An empty aggregator for keys of `layout` and measures of `ops`.
    pub fn for_layout(layout: &KeyLayout, ops: &[AggOp]) -> Self {
        let (positions, entries) = match Grouping::of(layout) {
            Grouping::Direct => {
                let keys = 1usize << layout.total_bits();
                (Positions::Direct(Marks::new(keys)), keys)
            }
            Grouping::Hashed => (Positions::Hashed(Grouper::default(), Vec::new()), 0),
        };
        let cols = StateOp::columns(ops).map(|s| (s, vec![0; entries])).collect();
        Aggregator { ops: ops.to_vec(), cols, positions, packed: Vec::new(), read: None }
    }

    /// Reads cells that already are groups of this aggregator's layout —
    /// distinct keys in ascending order, one finalized sum per measure, as a
    /// view stores its defining get's answer — and hands them out at the
    /// next take: the rows in `selection` (local ids, ascending), or all of
    /// them. A sum folded from identity is its own state, so the cells are
    /// copied, not folded. Views answer sum gets only; the aggregator must
    /// hold no folded group.
    pub(crate) fn read<'a>(
        &mut self,
        keys: &[u64],
        selection: Option<&[u32]>,
        sums: impl Iterator<Item = &'a [f64]>,
    ) {
        debug_assert!(self.ops.iter().all(|&op| op == AggOp::Sum));
        fn pick<T: Copy>(col: &[T], selection: Option<&[u32]>) -> Vec<T> {
            selection.map_or_else(|| col.to_vec(), |sel| gather(col, sel))
        }
        let states = sums.map(|col| pick(col, selection)).collect();
        self.read = Some(Partial { keys: pick(keys, selection), ops: self.ops.clone(), states });
    }

    /// Hands out the groups folded since the last take — in ascending key
    /// order over a direct layout, first-seen order over a hashed one — and
    /// resets for the next morsel: a direct layout's touched entries go
    /// back to identity, a hashed layout's columns are drained. Groups read
    /// since the last take are handed out as they were read.
    pub fn take(&mut self) -> Partial {
        if let Some(read) = self.read.take() {
            return read;
        }
        let (keys, states): (Vec<u64>, Vec<Vec<f64>>) = match &mut self.positions {
            Positions::Direct(marks) => {
                let keys = marks.take();
                let states = (self.cols.iter_mut())
                    .map(|(op, entries)| {
                        op.values(
                            keys.iter().map(|&key| std::mem::take(&mut entries[key as usize])),
                        )
                    })
                    .collect();
                (keys, states)
            }
            Positions::Hashed(grouper, keys) => {
                grouper.hashed.clear();
                let states = self.cols.iter_mut().map(|(op, entries)| op.values(entries.drain(..)));
                (std::mem::take(keys), states.collect())
            }
        };
        Partial { keys, ops: self.ops.clone(), states }
    }

    /// Folds `partials`, in order, into one partial in **ascending key
    /// order** — the one merge of morsel partials (in morsel order) and
    /// shard partials (in shard order). They fold into this aggregator's
    /// state, which a direct layout emits in key order and a hashed one is
    /// sorted into once. The aggregator must be empty (as a take leaves
    /// it) and is left empty. The fold starts from identity, and
    /// `f(id, v) = v` for every state `v` a fold from identity produces (a
    /// sum from `+0.0` is never `−0.0`, `f64::min`/`max` from `±∞` never
    /// NaN), so a lone partial already in key order — a single-morsel scan
    /// or view read, a one-shard coordinator — is its own merge.
    pub fn merge(&mut self, partials: impl IntoIterator<Item = Partial>) -> Partial {
        let mut partials = partials.into_iter();
        let Some(first) = partials.next() else { return self.take() };
        let mut rest = partials.peekable();
        if rest.peek().is_none() && first.keys.is_sorted_by(|a, b| a < b) {
            return first;
        }
        std::iter::once(first).chain(rest).for_each(|partial| self.merge_one(&partial));
        let merged = self.take();
        match self.positions {
            Positions::Direct(_) => merged,
            Positions::Hashed(..) => merged.gather(&merged.key_order()),
        }
    }

    /// Folds `partial`'s groups into their keys' state.
    fn merge_one(&mut self, partial: &Partial) {
        let Aggregator { cols, positions, packed, .. } = self;
        let at = match positions {
            Positions::Direct(marks) => {
                partial.keys.iter().for_each(|&key| marks.set(key as usize));
                &partial.keys
            }
            Positions::Hashed(..) => {
                packed.clone_from(&partial.keys);
                positions.locate(packed, cols);
                &*packed
            }
        };
        for ((op, entries), values) in cols.iter_mut().zip(&partial.states) {
            op.merge(entries, at, values);
        }
    }
}

/// The aggregation kernel of the morsel pipeline: folds the rows of one
/// chunk into `agg`, in two tight passes over flat buffers the chunk layer
/// prepared (see `DataChunk::key_lane` / `f64_lane`):
///
/// 1. per group-by component, gather the roll-up of every row's code and
///    pack it into the row's key, then turn the keys into state positions
///    (the key itself over a direct layout, its slot over a hashed one);
/// 2. per state column, match the operator once and fold every row's value
///    into its position's entry, in row order, runs of equal positions in a
///    register.
///
/// * `len` — rows in the chunk; every lane must have that length;
/// * `selection` — chunk-local ids of the rows to fold (the predicate
///   kernel's output), or `None` to fold every row;
/// * `keys` — per group-by component: the code lane and the roll-up map
///   from the carried level to the queried level (as raw `u32` codes);
/// * `measures` — one value lane per measure, in the aggregator's `ops` order.
pub fn accumulate_chunk<'a>(
    agg: &mut Aggregator,
    layout: &KeyLayout,
    len: usize,
    selection: Option<&[u32]>,
    keys: impl IntoIterator<Item = (&'a [u32], &'a [u32])>,
    measures: impl IntoIterator<Item = &'a [f64]>,
) {
    let Aggregator { ops, cols, positions, packed, .. } = agg;
    pack_keys(packed, layout, len, selection, keys);
    positions.locate(packed, cols);
    let lanes = ops
        .iter()
        .zip(measures)
        .flat_map(|(&op, lane)| StateOp::of(op).iter().map(move |_| &lane[..len]));
    match positions {
        Positions::Direct(marks) => {
            fold_lanes(cols, packed, selection, lanes, |key| marks.set(key))
        }
        Positions::Hashed(..) => fold_lanes(cols, packed, selection, lanes, drop),
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

    /// Folds rows `(codes[i], values[i])` of a one-component key into
    /// `agg`, the same value lane feeding every measure.
    fn fold(agg: &mut Aggregator, layout: &KeyLayout, codes: &[u32], values: &[f64]) {
        let roll: Vec<u32> = (0..=codes.iter().copied().max().unwrap_or(0)).collect();
        let measures = agg.ops.iter().map(|_| values).collect::<Vec<_>>();
        accumulate_chunk(agg, layout, codes.len(), None, [(codes, &roll[..])], measures);
    }

    const OPS: [AggOp; 5] = [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Avg];

    /// Keys plus every state value as raw bits.
    fn bits(p: &Partial) -> (Vec<u64>, Vec<Vec<u64>>) {
        let states = p.states.iter().map(|s| s.iter().map(|x| x.to_bits()).collect());
        (p.keys.clone(), states.collect())
    }

    #[test]
    fn every_operator_accumulates_on_both_sides_of_the_bound() {
        for layout in layouts() {
            let mut agg = Aggregator::for_layout(&layout, &OPS);
            fold(&mut agg, &layout, &[7, 7, 9], &[1.0, 2.0, 5.0]);
            fold(&mut agg, &layout, &[9, 7], &[-4.0, 6.0]);
            let t = agg.take();
            let g = Grouper::over(&layout, t.keys());
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
            let mut agg = Aggregator::for_layout(&layout, &[AggOp::Sum]);
            fold(&mut agg, &layout, &[3, 1], &[1.0, 2.0]);
            let a = agg.take();
            fold(&mut agg, &layout, &[5, 1], &[4.0, 8.0]);
            let b = agg.take();
            let merged = agg.merge([a, b]);
            assert_eq!(Grouper::over(&layout, merged.keys()).lookup(5), Some(2));
            // The first-seen groups, in key order.
            let (keys, sums, key_order) = ([3, 1, 5], [1.0, 10.0, 4.0], [1, 0, 2]);
            let want =
                (key_order.map(|s| keys[s]).to_vec(), vec![key_order.map(|s| sums[s]).to_vec()]);
            assert_eq!(merged.finish(), want);

            let mut all = Aggregator::for_layout(&layout, &OPS);
            fold(&mut all, &layout, &[7, 7, 7], &[f64::INFINITY, -0.0, f64::NEG_INFINITY]);
            let lone = all.take();
            assert_eq!(
                bits(&all.merge([lone.clone()])),
                bits(&lone),
                "a lone key-ordered partial is its merge"
            );
        }
    }

    /// The partial of rows `(codes[i], values[i])` folded into `agg`.
    fn part(agg: &mut Aggregator, layout: &KeyLayout, codes: &[u32], values: &[f64]) -> Partial {
        fold(agg, layout, codes, values);
        agg.take()
    }

    #[test]
    fn overlapping_and_interleaved_partials_fold() {
        for layout in layouts() {
            let mut agg = Aggregator::for_layout(&layout, &[AggOp::Sum]);
            let a = part(&mut agg, &layout, &[1, 3], &[1.0, 2.0]);
            let b = part(&mut agg, &layout, &[3, 5], &[4.0, 8.0]);
            let shared = agg.merge([a, b]).finish();
            assert_eq!(shared, (vec![1, 3, 5], vec![vec![1.0, 6.0, 8.0]]));
            let a = part(&mut agg, &layout, &[1, 5], &[1.0, 2.0]);
            let b = part(&mut agg, &layout, &[3, 7], &[4.0, 8.0]);
            let interleaved = agg.merge([a, b]).finish();
            assert_eq!(interleaved, (vec![1, 3, 5, 7], vec![vec![1.0, 4.0, 2.0, 8.0]]));
        }
    }

    #[test]
    fn avg_of_empty_group_is_nan() {
        let avg = Partial::from_parts(vec![0], vec![AggOp::Avg], vec![vec![0.0], vec![0.0]]);
        assert!(avg.unwrap().finish().1[0][0].is_nan());
    }

    #[test]
    fn from_parts_checks_column_lengths() {
        let sum = |states: Vec<Vec<f64>>| Partial::from_parts(vec![1, 2], vec![AggOp::Sum], states);
        assert!(sum(vec![vec![1.0, 2.0]]).is_ok());
        assert!(sum(vec![vec![1.0]]).is_err());
        assert!(sum(vec![vec![1.0, 2.0], vec![1.0, 2.0]]).is_err(), "one column too many");
        let avg = |states| Partial::from_parts(vec![1, 2], vec![AggOp::Avg], states);
        assert!(avg(vec![vec![1.0, 2.0], vec![1.0]]).is_err(), "ragged");
        assert!(avg(vec![vec![1.0, 2.0]]).is_err(), "Avg needs its count column");
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

        let mut agg = Aggregator::for_layout(&layout, &[AggOp::Sum, AggOp::Count]);
        accumulate_chunk(&mut agg, &layout, 6, Some(&[1, 3, 4]), keys, [&m[..], &m[..]]);
        assert_eq!(
            agg.take().finish(),
            (vec![key(0, 0), key(0, 1)], vec![vec![7.0, 4.0], vec![2.0, 1.0]])
        );

        // No selection folds every row; the groups come out in key order.
        let mut agg = Aggregator::for_layout(&layout, &[AggOp::Sum]);
        accumulate_chunk(&mut agg, &layout, 6, None, keys, [&m[..]]);
        let (keyed_keys, cols) = agg.take().finish();
        assert_eq!(keyed_keys, vec![key(0, 0), key(0, 1), key(1, 1)]);
        assert_eq!(cols[0], vec![8.0, 4.0, 9.0]);
    }
}
